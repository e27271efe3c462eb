/**
 * @file
 * Aaronson-Gottesman stabilizer state simulator.
 *
 * Simulates Clifford circuits in polynomial time (Gottesman-Knill),
 * which is the classical capability Clifford Absorption exploits: the
 * extracted subcircuit U_CL never needs to run on quantum hardware.
 *
 * The state is a CliffordTableau plus measurement. Starting from the
 * identity tableau, the state U|0...0> has destabilizer i = U X_i U~
 * (the tableau's imageX(i), row 2i) and stabilizer i = U Z_i U~
 * (imageZ(i), row 2i+1), so applying a gate is the tableau's own
 * append. Measurement collapses the rows with the tableau's
 * stabilizer-state primitives (masked rowsum by the pivot stabilizer,
 * pivot-pair collapse), and a deterministic outcome or an expectation
 * is the sign of the ordered product of the stabilizers that the
 * destabilizers select — the same closed form as the tableau's dense
 * conjugate pass.
 *
 * RNG consumption is identical to ReferenceStabilizerSimulator (one
 * draw per random-outcome measurement, nothing else), so seeded runs
 * of the two simulators produce bit-identical outcomes — the
 * cross-check contract of tests/test_stabilizer_packed.cpp.
 */
#ifndef QUCLEAR_TABLEAU_STABILIZER_SIMULATOR_HPP
#define QUCLEAR_TABLEAU_STABILIZER_SIMULATOR_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "tableau/clifford_tableau.hpp"
#include "util/rng.hpp"

namespace quclear {

/**
 * Stabilizer state over n qubits, initialized to |0...0>. Supports all
 * Clifford gates of the IR and single-qubit Z-basis measurement.
 * Instances are not thread-safe (measurement shares per-instance
 * scratch planes); use one simulator per thread.
 */
class StabilizerSimulator
{
  public:
    /** |0...0> on n qubits. */
    explicit StabilizerSimulator(uint32_t num_qubits)
        : tableau_(num_qubits), zProbe_(num_qubits)
    {
    }

    uint32_t numQubits() const { return tableau_.numQubits(); }

    /** Apply one Clifford gate. */
    void applyGate(const Gate &g) { tableau_.appendGate(g); }

    /** Apply an entire Clifford circuit. */
    void applyCircuit(const QuantumCircuit &qc)
    {
        tableau_.appendCircuit(qc);
    }

    /**
     * Measure qubit q in the Z basis, collapsing the state.
     * @param rng randomness source for non-deterministic outcomes
     * @return the outcome bit
     */
    bool measure(uint32_t q, Rng &rng);

    /** Measure all qubits (q0 = least significant bit of the result). */
    uint64_t measureAll(Rng &rng);

    /**
     * Sample the full-register measurement distribution of a Clifford
     * circuit: runs the circuit + measurement @p shots times.
     * @return map from bitstring (q0 = LSB) to observed count
     */
    static std::map<uint64_t, uint64_t> sample(const QuantumCircuit &qc,
                                               size_t shots, Rng &rng);

    /**
     * Expectation value of a Pauli observable in the current state:
     * +1, -1, or 0 (for stabilizer states it is always one of these).
     */
    int expectation(const PauliString &observable) const;

    /**
     * Projective measurement of an arbitrary Hermitian Pauli observable
     * (collapses the state; generalizes single-qubit Z measurement).
     * @return the measured eigenvalue sign: false -> +1, true -> -1
     */
    bool measurePauli(const PauliString &observable, Rng &rng);

    /** Reset qubit q to |0> (measure, then flip if needed). */
    void reset(uint32_t q, Rng &rng);

    /** @name Generators, materialized from the tableau rows. @{ */
    PauliString destabilizer(uint32_t i) const { return tableau_.imageX(i); }
    PauliString stabilizer(uint32_t i) const { return tableau_.imageZ(i); }
    /** @} */

  private:
    /**
     * The anticommutation plane of @p observable (bit r set iff row r
     * anticommutes with it) in the per-instance scratch, which holds
     * two more planes after it for the rowsum phase accumulators.
     */
    uint64_t *parityPlane(const PauliString &observable) const;

    /**
     * Sign (+1 / -1) of @p observable in the stabilizer group, given its
     * anticommutation plane @p parity (consumed) and that it commutes
     * with every stabilizer: the observable is, up to sign, the product
     * of the stabilizers whose destabilizers anticommute with it.
     */
    int groupSign(const PauliString &observable, uint64_t *parity) const;

    CliffordTableau tableau_;

    /** Measurement scratch (parity plane + 2 phase planes); per
     *  instance, so the simulator is single-thread-use like the
     *  reference. */
    mutable std::vector<uint64_t> scratch_;

    /** Identity between measurements; measure(q) sets Z_q in it. */
    PauliString zProbe_;
};

} // namespace quclear

#endif // QUCLEAR_TABLEAU_STABILIZER_SIMULATOR_HPP
