/**
 * @file
 * Transpiler pass interface and shared gate-commutation predicate.
 *
 * These local rewrite passes stand in for the Qiskit optimization-level-3
 * pipeline the paper applies after QuCLEAR and Paulihedral. They cover
 * the same rewrite classes: two-qubit gate cancellation, single-qubit
 * fusion, Hadamard-conjugation rewrites, and commutation-aware
 * cancellation.
 */
#ifndef QUCLEAR_TRANSPILE_PASS_HPP
#define QUCLEAR_TRANSPILE_PASS_HPP

#include <string>

#include "circuit/quantum_circuit.hpp"

namespace quclear {

/** A circuit-to-circuit rewrite. Passes must preserve the unitary. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Human-readable pass name for logging. */
    virtual std::string name() const = 0;

    /**
     * Rewrite the circuit in place.
     * @return true iff anything changed (drives fixpoint iteration).
     * A pass must be deterministic and leave the circuit untouched when
     * it returns false: PassManager::run stops as soon as every pass
     * has left the same circuit unchanged.
     */
    virtual bool run(QuantumCircuit &qc) const = 0;
};

/**
 * Conservative commutation test between two gates: true only when the
 * gates provably commute. Used to move cancellation candidates past
 * intervening gates.
 */
bool gatesCommute(const Gate &a, const Gate &b);

/** True iff the gate is diagonal in the computational basis. */
bool isDiagonalGate(const Gate &g);

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_PASS_HPP
