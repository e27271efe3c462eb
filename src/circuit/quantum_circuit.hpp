/**
 * @file
 * Gate-list quantum circuit IR.
 *
 * A QuantumCircuit is an ordered list of gates over a fixed qubit count;
 * index 0 is applied first (circuit-diagram order, unitary composes
 * right-to-left). The IR deliberately stays flat — the optimization passes
 * and the extractor all operate on gate sequences, mirroring the paper's
 * Qiskit prototype.
 */
#ifndef QUCLEAR_CIRCUIT_QUANTUM_CIRCUIT_HPP
#define QUCLEAR_CIRCUIT_QUANTUM_CIRCUIT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace quclear {

class PauliString;

/**
 * Single-gate Heisenberg update P -> g P g~ of a Pauli string. The one
 * Clifford-gate dispatch shared by circuit conjugation, the extractor's
 * conjugation cache, and the noise sampler's observable pull-back.
 */
void applyGateToPauli(PauliString &p, const Gate &g);

/** Ordered gate list over a fixed number of qubits. */
class QuantumCircuit
{
  public:
    QuantumCircuit() : numQubits_(0) {}

    /** Empty circuit on n qubits. */
    explicit QuantumCircuit(uint32_t num_qubits) : numQubits_(num_qubits) {}

    uint32_t numQubits() const { return numQubits_; }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    const std::vector<Gate> &gates() const { return gates_; }
    std::vector<Gate> &mutableGates() { return gates_; }
    const Gate &gate(size_t i) const { return gates_[i]; }

    /** @name Appending gates. @{ */
    void append(const Gate &g);
    void h(uint32_t q)    { append({ GateType::H, q }); }
    void s(uint32_t q)    { append({ GateType::S, q }); }
    void sdg(uint32_t q)  { append({ GateType::Sdg, q }); }
    void x(uint32_t q)    { append({ GateType::X, q }); }
    void y(uint32_t q)    { append({ GateType::Y, q }); }
    void z(uint32_t q)    { append({ GateType::Z, q }); }
    void sx(uint32_t q)   { append({ GateType::SX, q }); }
    void sxdg(uint32_t q) { append({ GateType::SXdg, q }); }
    void rz(uint32_t q, double theta) { append({ GateType::Rz, q, theta }); }
    void rx(uint32_t q, double theta) { append({ GateType::Rx, q, theta }); }
    void ry(uint32_t q, double theta) { append({ GateType::Ry, q, theta }); }
    void cx(uint32_t c, uint32_t t) { append({ GateType::CX, c, t }); }
    void cz(uint32_t a, uint32_t b) { append({ GateType::CZ, a, b }); }
    void swap(uint32_t a, uint32_t b) { append({ GateType::Swap, a, b }); }
    /** @} */

    /** Append every gate of another circuit (qubit counts must match). */
    void appendCircuit(const QuantumCircuit &other);

    /** The inverse circuit: reversed order, each gate inverted. */
    QuantumCircuit inverse() const;

    /**
     * Conjugate a Pauli string by this circuit: P -> U P U~ where U is the
     * circuit unitary. All gates must be Clifford.
     */
    void conjugatePauli(PauliString &p) const;

    /** Number of CX/CZ/SWAP gates (SWAP counted as 3 CX when @p swap_as_cx). */
    size_t twoQubitCount(bool swap_as_cx = false) const;

    /** Number of single-qubit gates. */
    size_t singleQubitCount() const;

    /** True iff every gate is Clifford. */
    bool isClifford() const;

    /** Multi-line string diagram (one gate per line) for debugging. */
    std::string toString() const;

  private:
    uint32_t numQubits_;
    std::vector<Gate> gates_;
};

} // namespace quclear

#endif // QUCLEAR_CIRCUIT_QUANTUM_CIRCUIT_HPP
