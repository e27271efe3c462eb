/**
 * @file
 * Clifford Extraction (Algorithm 2 of the paper).
 *
 * Compiles a sequence of Pauli rotations e^{i P_1 t_1} ... e^{i P_m t_m}
 * into an optimized circuit U' followed by a Clifford tail U_CL, with
 * U = U_CL . U' as unitaries. Each rotation leaves only its basis layer,
 * CNOT tree, and Rz in U'; the mirrored uncomputation half is commuted
 * through all later rotations (transforming their Pauli strings) and
 * accumulates at the end of the circuit.
 *
 * Cross-block chain parallelism: the term sequence is partitioned into
 * CHAINS — connected components of the qubit-support graph, where each
 * term connects the qubits it touches. A commuting block that bridges
 * two components (disjoint-support terms always commute) is sliced
 * into per-component sub-blocks. Every gate a term's extraction emits
 * acts only inside its component, so chains touch disjoint qubit sets,
 * their reduction Cliffords commute, and each chain compiles against
 * its own fresh tableau fork. The forks are merged with composeWith
 * and the sub-block circuit segments are stitched back along a fixed
 * input-derived emission order, so the output is bit-identical for
 * every thread count and chain-runner count (the tableau storage is
 * canonical — equal unitaries have equal bits). A connected instance
 * is one chain and takes the exact pre-existing code path.
 */
#ifndef QUCLEAR_CORE_CLIFFORD_EXTRACTOR_HPP
#define QUCLEAR_CORE_CLIFFORD_EXTRACTOR_HPP

#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "core/tree_synthesis.hpp"
#include "pauli/pauli_term.hpp"
#include "tableau/clifford_tableau.hpp"

namespace quclear {

/**
 * Options for Algorithm 2 (exposed for the Fig. 10 ablation).
 *
 * Every knob here is deterministic: for a fixed configuration the
 * extractor's output is bit-reproducible across runs and machines, and
 * `threads` never changes the output at all (only wall time). The
 * conjugation cache that keeps each commuting block pre-conjugated
 * (see docs/ARCHITECTURE.md) is always on — it is exact by the
 * conjugation homomorphism, so it has no knob.
 */
struct ExtractionConfig
{
    /** CNOT-tree synthesis options, incl. the lookahead depth. */
    TreeSynthesisConfig tree;

    /**
     * Reorder Paulis inside commuting blocks with find_next_pauli
     * (Sec. V-C). When false, the input order is kept verbatim.
     * Default: true (the paper's configuration). The reorder is a
     * deterministic function of the term sequence.
     */
    bool useCommutingBlocks = true;

    /**
     * Size of the chain-runner pool: at most this many chains (see
     * blockParallelism) compile concurrently. Everything inside a
     * block runs on its chain's runner. 0 = hardware concurrency (the
     * default), 1 = fully sequential (no workers are spawned — the
     * exact single-threaded code path). A connected instance is one
     * chain, so only fragmented programs gain from more threads. The
     * compiled circuit, Clifford tail, conjugator tableau, and
     * rotation order are bit-identical for every value of this knob
     * (asserted by test_conjugate_batch and test_scale_extraction).
     */
    uint32_t threads = 0;

    /**
     * Maximum number of independent block chains compiled concurrently,
     * further capped by `threads`. 0 = auto (every chain in flight at
     * once, bounded by the pool), 1 = chains compiled sequentially,
     * N = at most N chain runners. Chains are connected components of
     * the qubit-support graph, so their extractions are independent by
     * construction; the merge is structurally identical in every mode,
     * and the output — circuit, tail, conjugator, rotation order — is
     * bit-identical for every value of this knob and every thread
     * count (asserted by test_conjugate_batch under TSan). Lookahead
     * never crosses a chain boundary, in any mode, so the knob only
     * changes scheduling, never scoring.
     */
    uint32_t blockParallelism = 0;
};

/** Output of Clifford Extraction. */
struct ExtractionResult
{
    /** The optimized circuit U' that still runs on the quantum device. */
    QuantumCircuit optimized;

    /**
     * The extracted Clifford tail U_CL as a circuit (U = U_CL . U').
     * Never executed on hardware; consumed by Clifford Absorption.
     */
    QuantumCircuit extractedClifford;

    /**
     * Tableau of E = V_m ... V_1, the composition of the per-block
     * reduction Cliffords; satisfies U_CL = E~. Conjugating an observable
     * O by this tableau yields the absorbed observable
     * O' = U_CL~ O U_CL = E O E~.
     */
    CliffordTableau conjugator;

    /**
     * Input-term index of every emitted Rz, in circuit order (identity
     * terms emit none). Lets parameterized front ends rebind rotation
     * angles without recompiling (core/parameterized.hpp).
     */
    std::vector<size_t> rotationTerms;
};

/** Runs Clifford Extraction over a Pauli-term program. */
class CliffordExtractor
{
  public:
    explicit CliffordExtractor(ExtractionConfig config = {});

    /**
     * Compile the term sequence.
     * @param terms rotations in circuit order; all on the same qubit count
     */
    ExtractionResult run(const std::vector<PauliTerm> &terms) const;

  private:
    ExtractionConfig config_;
};

} // namespace quclear

#endif // QUCLEAR_CORE_CLIFFORD_EXTRACTOR_HPP
