/**
 * @file
 * Unitary Clifford tableau — public facade over the bit-sliced engine.
 *
 * The tableau stores, for an accumulated Clifford unitary U, the images
 * of the 2n Pauli generators under conjugation:
 *
 *     rowX[q] = U X_q U~        rowZ[q] = U Z_q U~
 *
 * with exact sign tracking. Appending a gate g replaces U by g.U.
 *
 * Since the bit-sliced refactor, all storage and arithmetic live in
 * PackedTableau (column-major, word-parallel; see packed_tableau.hpp for
 * the layout and per-operation complexity). This class is a zero-cost
 * inline facade that preserves the original API for every consumer —
 * the extractor, absorption, circuit_to_paulis, verification, and the
 * baselines. The one signature change from the row-major era: imageX /
 * imageZ materialize a row and therefore return by value.
 *
 * This is the classical data structure behind both Clifford Extraction
 * (updating Pauli strings through already-extracted Cliffords) and
 * Clifford Absorption (computing the new observables O' = U~ O U).
 */
#ifndef QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP
#define QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP

#include <cstdint>
#include <utility>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "tableau/packed_tableau.hpp"

namespace quclear {

/** Unitary Clifford tableau over n qubits with sign tracking. */
class CliffordTableau
{
  public:
    /** Identity tableau on n qubits. */
    explicit CliffordTableau(uint32_t num_qubits) : impl_(num_qubits) {}

    /** Build the tableau of an entire Clifford circuit. */
    static CliffordTableau fromCircuit(const QuantumCircuit &qc)
    {
        return CliffordTableau(PackedTableau::fromCircuit(qc));
    }

    uint32_t numQubits() const { return impl_.numQubits(); }

    /** Image of X_q, materialized from the bit-sliced columns. */
    PauliString imageX(uint32_t q) const { return impl_.imageX(q); }

    /** Image of Z_q, materialized from the bit-sliced columns. */
    PauliString imageZ(uint32_t q) const { return impl_.imageZ(q); }

    /** @name Append a gate: U <- g . U. O(n/64) word ops per gate. @{ */
    void appendH(uint32_t q) { impl_.appendH(q); }
    void appendS(uint32_t q) { impl_.appendS(q); }
    void appendSdg(uint32_t q) { impl_.appendSdg(q); }
    void appendX(uint32_t q) { impl_.appendX(q); }
    void appendY(uint32_t q) { impl_.appendY(q); }
    void appendZ(uint32_t q) { impl_.appendZ(q); }
    void appendSqrtX(uint32_t q) { impl_.appendSqrtX(q); }
    void appendSqrtXdg(uint32_t q) { impl_.appendSqrtXdg(q); }
    void appendCX(uint32_t control, uint32_t target)
    {
        impl_.appendCX(control, target);
    }
    void appendCZ(uint32_t a, uint32_t b) { impl_.appendCZ(a, b); }
    void appendSwap(uint32_t a, uint32_t b) { impl_.appendSwap(a, b); }
    void appendGate(const Gate &g) { impl_.appendGate(g); }
    void appendCircuit(const QuantumCircuit &qc) { impl_.appendCircuit(qc); }
    /** @} */

    /**
     * Prepend a gate: U <- U . g (g acts before the existing circuit).
     * The new images are T'(P) = T(g P g~), evaluated on the generator
     * Paulis — used to maintain *inverse* tableaux incrementally when a
     * circuit is consumed front to back (see circuit_to_paulis).
     */
    void prependGate(const Gate &g) { impl_.prependGate(g); }

    /**
     * Conjugate a Pauli string: returns U P U~ with exact phase.
     * @param p a Pauli string on the same qubit count
     */
    PauliString conjugate(const PauliString &p) const
    {
        return impl_.conjugate(p);
    }

    /**
     * Conjugate many Pauli strings in one pass, in place; amortizes the
     * tableau transpose across the batch. Bit-identical to conjugate()
     * per element.
     */
    void conjugateBatch(std::span<PauliString> terms) const
    {
        impl_.conjugateBatch(terms);
    }

    /** True iff this tableau is the identity map (all signs +). */
    bool isIdentity() const { return impl_.isIdentity(); }

    /**
     * Compose with another tableau: U <- other.U, i.e. the returned map
     * first applies this tableau's conjugation, then @p other's.
     */
    void composeWith(const CliffordTableau &other)
    {
        impl_.composeWith(other.impl_);
    }

    /** The inverse tableau (U~), via synthesis + inverted replay. */
    CliffordTableau inverse() const
    {
        return CliffordTableau(impl_.inverse());
    }

    /**
     * Synthesize a Clifford circuit implementing this tableau (canonical
     * H/S/CX decomposition by symplectic Gaussian elimination). The
     * returned circuit C satisfies fromCircuit(C) == *this.
     */
    QuantumCircuit toCircuit() const { return impl_.toCircuit(); }

    /** The underlying bit-sliced engine (word-level consumers). */
    const PackedTableau &packed() const { return impl_; }

    bool operator==(const CliffordTableau &other) const
    {
        return impl_ == other.impl_;
    }
    bool operator!=(const CliffordTableau &other) const
    {
        return !(*this == other);
    }

  private:
    explicit CliffordTableau(PackedTableau impl) : impl_(std::move(impl)) {}

    PackedTableau impl_;
};

} // namespace quclear

#endif // QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP
