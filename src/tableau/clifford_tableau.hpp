/**
 * @file
 * Unitary Clifford tableau, stored bit-sliced (column-major).
 *
 * The tableau of an accumulated Clifford unitary U stores the images of
 * the 2n Pauli generators, rowX[q] = U X_q U~ and rowZ[q] = U Z_q U~,
 * with exact sign tracking. Appending a gate g replaces U by g.U. This
 * is the classical data structure behind both Clifford Extraction
 * (updating Pauli strings through already-extracted Cliffords) and
 * Clifford Absorption (computing the new observables O' = U~ O U).
 *
 * Where the row-major reference keeps 2n heap-allocated PauliString
 * rows (so a single-gate append walks 2n separate objects), this class
 * stores the TRANSPOSE: for each qubit column c it packs the x and z
 * bits of all 2n rows into contiguous 64-bit words. Rows are
 * interleaved — row 2q is the X_q image, row 2q+1 the Z_q image — so
 * the multiplication order of the reference conjugation (X_q before
 * Z_q, ascending q) is exactly ascending row order, and phases match
 * the reference bit for bit. imageX / imageZ materialize a row and
 * therefore return by value.
 *
 * Complexity per operation (W = ceil(2n/64) words per column):
 *   - single-gate append (H/S/CX/CZ/...):  O(W) word ops, touching only
 *     the 1-2 affected columns plus the sign words — versus O(n) row
 *     walks over 2n heap objects in the row-major layout.
 *   - conjugate (sparse path, k rows):     O(k . n) bit gathers; used
 *     when few generator rows are selected (low-weight inputs, e.g. a
 *     lone observable).
 *   - conjugate (dense path):              O(n . W) word ops with a
 *     closed-form phase accumulation (no per-row multiplications).
 *   - conjugateBatch (>= 3 terms):         one 64x64 bit-block
 *     transpose of the tableau back to row-major (O(n . W) word ops,
 *     paid once per batch), then each term is the ordered product of
 *     its selected rows at O(selected . n/64) word ops with the same
 *     closed-form phase. Block entry in the extractor, multi-observable
 *     absorption, and compose all batch, amortizing the transpose to
 *     near-zero per term; a lone dense conjugate keeps the column pass
 *     because the transpose's fixed cost cannot amortize over one term.
 *   - compose / toCircuit:                 same shape as the reference,
 *     built on the primitives above.
 *
 * Rows of a unitary tableau are Hermitian Paulis, so one sign bit per
 * row suffices; signs are packed into W words ("signs" column).
 */
#ifndef QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP
#define QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "pauli/pauli_string.hpp"
#include "util/support_index.hpp"

namespace quclear {

/** Unitary Clifford tableau over n qubits with sign tracking. */
class CliffordTableau
{
  public:
    /** Identity tableau on n qubits. */
    explicit CliffordTableau(uint32_t num_qubits);

    /** Build the tableau of an entire Clifford circuit. */
    static CliffordTableau fromCircuit(const QuantumCircuit &qc);

    uint32_t numQubits() const { return numQubits_; }

    /** Image of X_q, materialized from the bit-sliced columns. */
    PauliString imageX(uint32_t q) const { return rowAt(2 * q); }

    /** Image of Z_q, materialized from the bit-sliced columns. */
    PauliString imageZ(uint32_t q) const { return rowAt(2 * q + 1); }

    /** @name Append a gate: U <- g . U. All are O(W) word ops. @{ */
    void appendH(uint32_t q);
    void appendS(uint32_t q);
    void appendSdg(uint32_t q);
    void appendX(uint32_t q);
    void appendY(uint32_t q);
    void appendZ(uint32_t q);
    void appendSqrtX(uint32_t q);
    void appendSqrtXdg(uint32_t q);
    void appendCX(uint32_t control, uint32_t target);
    void appendCZ(uint32_t a, uint32_t b);
    void appendSwap(uint32_t a, uint32_t b);
    void appendGate(const Gate &g);
    void appendCircuit(const QuantumCircuit &qc);
    /** @} */

    /**
     * Conjugate a Pauli string: returns U P U~ with exact phase,
     * identical (including the phase) to multiplying the selected rows
     * in ascending interleaved order.
     */
    PauliString conjugate(const PauliString &p) const;

    /**
     * Conjugate many Pauli strings through the tableau in one pass,
     * replacing every element of @p terms by U P U~ in place. The
     * tableau columns are transposed to a row-major snapshot once and
     * every term then multiplies its selected rows out of that
     * snapshot, so the per-column loads that dominate a lone dense
     * conjugate are amortized across the whole batch. Results are
     * bit-identical (phases included) to calling conjugate() per term.
     */
    void conjugateBatch(std::span<PauliString> terms) const;

    /**
     * True iff this tableau is the identity map (all signs +).
     * Allocation-free word scan, cheap enough to gate fast paths.
     */
    bool isIdentity() const;

    /**
     * Compose: first this map, then @p other (U <- other.U).
     * Identity operands short-circuit (no-op / plain copy), so merging
     * a run of mostly-identity chain forks costs only the word scan.
     * Forking a snapshot is the ordinary copy constructor: the storage
     * is three flat vectors, so a fork is one memcpy-shaped allocation
     * per bit plane — the cross-block extractor forks a fresh identity
     * tableau per chain and merges the results through this method.
     */
    void composeWith(const CliffordTableau &other);

    /** The inverse tableau (U~), via synthesis + inverted replay. */
    CliffordTableau inverse() const;

    /**
     * Synthesize a Clifford circuit implementing this tableau (canonical
     * H/S/CX decomposition by symplectic Gaussian elimination); emits the
     * same gate sequence as the row-major reference. The returned
     * circuit C satisfies fromCircuit(C) == *this.
     */
    QuantumCircuit toCircuit() const;

    bool operator==(const CliffordTableau &other) const;
    bool operator!=(const CliffordTableau &other) const
    {
        return !(*this == other);
    }

  private:
    /** Words per column: ceil(2n / 64). */
    static uint32_t wordsForRows(uint32_t n) { return (2 * n + 63) / 64; }

    /** Words per row: ceil(n / 64). */
    static uint32_t wordsForColumns(uint32_t n) { return (n + 63) / 64; }

    /**
     * Row-major snapshot of the bit matrix for the batch conjugation
     * kernel: 64*words_ rows (rows past 2n are zero), each stored as
     * [x half | z half] of rowWords words each, plus the per-row Y
     * count (|x & z| mod 4) that enters the conjugation phase. The
     * row stride is 2 * rowWords.
     */
    struct RowMajor
    {
        uint32_t rowWords = 0; // words per row half
        std::vector<uint64_t> xz;
        std::vector<uint8_t> yCount;
    };

    /** Transpose the column-major bits into @p out (64x64 bit blocks). */
    void buildRowMajor(RowMajor &out) const;

    /**
     * Per-thread reusable RowMajor buffer: the transpose is rebuilt on
     * every use (the tableau may have changed), but the allocations are
     * amortized across calls. Each calling thread owns its buffer;
     * worker threads only ever read the snapshot built by the caller.
     */
    static RowMajor &rowMajorScratch();

    /**
     * Conjugate @p p in place as the ordered product of its selected
     * rows from the row-major snapshot (dispatched rowProduct kernel).
     * Scratch pointers must hold words_ (mask), 3 * rowWords (kernel
     * scratch) and rowWords (out_x / out_z) entries; @p idx is
     * the reusable occupancy index over the mask words.
     */
    void conjugateViaRows(const RowMajor &rm, PauliString &p,
                          uint64_t *mask, SupportIndex &idx,
                          uint64_t *kscratch, uint64_t *out_x,
                          uint64_t *out_z) const;

    /** Materialize row r (0 <= r < 2n) as a phase-tracked PauliString. */
    PauliString rowAt(uint32_t r) const;

    /** Overwrite row r from a Hermitian PauliString. */
    void setRow(uint32_t r, const PauliString &p);

    bool xBitRC(uint32_t r, uint32_t c) const
    {
        return (x_[c * words_ + (r >> 6)] >> (r & 63)) & 1;
    }
    bool zBitRC(uint32_t r, uint32_t c) const
    {
        return (z_[c * words_ + (r >> 6)] >> (r & 63)) & 1;
    }
    bool signBit(uint32_t r) const
    {
        return (signs_[r >> 6] >> (r & 63)) & 1;
    }
    PauliOp opRC(uint32_t r, uint32_t c) const
    {
        return static_cast<PauliOp>(
            static_cast<uint8_t>(xBitRC(r, c)) |
            static_cast<uint8_t>(static_cast<uint8_t>(zBitRC(r, c)) << 1));
    }

    /**
     * Row-selection mask for conjugating @p p: bit 2q = x_q, bit 2q+1
     * = z_q. Only NONZERO mask words are written into @p mask (words_
     * entries) and flagged in @p idx — unflagged entries of the
     * (reusable, dirty) mask array keep stale garbage and must never
     * be read. Consumers that need the dense array zero the unflagged
     * words themselves; sparse walks skip them via the index, which is
     * the point.
     */
    void buildRowMask(const PauliString &p, uint64_t *mask,
                      SupportIndex &idx) const;

    /**
     * Ordered product of the rows selected by @p mask (words_ words,
     * every word valid), multiplied in ascending row order — the
     * closed form behind the dense conjugate pass. Writes the
     * product's letters into @p letters (which must be the identity on
     * entry) and returns the product's phase exponent (i^k).
     */
    uint8_t rowProduct(const uint64_t *mask, PauliString &letters) const;

    uint32_t numQubits_;
    uint32_t words_; // words per column (rounds 2n up to 64)
    std::vector<uint64_t> x_;     // x bits, column-major: x_[c*words_ + w]
    std::vector<uint64_t> z_;     // z bits, column-major
    std::vector<uint64_t> signs_; // one sign bit per row
};

} // namespace quclear

#endif // QUCLEAR_TABLEAU_CLIFFORD_TABLEAU_HPP
