#include "core/clifford_extractor.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "pauli/pauli_list.hpp"
#include "util/worker_pool.hpp"

namespace quclear {

namespace {

/** Union-find over qubit indices (path halving + union by index). */
class QubitUnionFind
{
  public:
    explicit QubitUnionFind(uint32_t n) : parent_(n)
    {
        for (uint32_t q = 0; q < n; ++q)
            parent_[q] = q;
    }

    uint32_t find(uint32_t q)
    {
        while (parent_[q] != q) {
            parent_[q] = parent_[parent_[q]];
            q = parent_[q];
        }
        return q;
    }

    void unite(uint32_t a, uint32_t b)
    {
        const uint32_t ra = find(a);
        const uint32_t rb = find(b);
        if (ra != rb)
            parent_[ra < rb ? rb : ra] = ra < rb ? ra : rb;
    }

  private:
    std::vector<uint32_t> parent_;
};

/**
 * One block's contribution to one chain: the slice of the block's terms
 * whose supports live in the chain's qubit component, in block order.
 * A commuting block may bridge several components (terms on disjoint
 * qubits always commute, so greedy block formation happily crosses a
 * component boundary); the bridge is only ever through commutation,
 * never through shared qubits, so slicing the block per component is
 * exact — the dropped cross-component candidates could have changed
 * find_next_pauli's pick ORDER, but every term's own reduction only
 * sees gates on its own component, and rotations of one block commute,
 * so any per-component order compiles the same unitary.
 */
struct SubBlock
{
    /** Global index of the originating block. */
    size_t block = 0;

    /** Input-term indices, preserving the block's internal order. */
    std::vector<size_t> terms;

    /** Slot in the flat per-sub-block output array. */
    size_t slot = 0;
};

/** A chain: its sub-blocks in ascending global block order. */
using Chain = std::vector<SubBlock>;

/**
 * The chain decomposition of a block list, plus the emission plan that
 * rebuilds the global circuit order from per-sub-block outputs.
 */
struct ChainPartition
{
    /** Chains ordered by first appearance in the term sequence. */
    std::vector<Chain> chains;

    /**
     * Per global block: the output slots of its sub-blocks in emission
     * order (the order the sub-blocks were first touched inside the
     * block). Concatenated over blocks this is the one merge order
     * every mode uses, so the stitched result cannot depend on which
     * runner finished first.
     */
    std::vector<std::vector<size_t>> stitch;

    /** Total sub-blocks (size of the flat output array). */
    size_t subBlockCount = 0;
};

/**
 * Partition the blocks into CHAINS — connected components of the
 * qubit-support graph, where each term connects the qubits it touches.
 * Every gate the extractor emits for a term acts only on that term's
 * (conjugated) support, which stays inside the term's component, so a
 * chain's accumulated Clifford is identity outside its qubit set:
 * chains commute, conjugate each other's terms trivially, and compile
 * independently against fresh tableau forks.
 *
 * Identity terms have no support and no component; each rides with the
 * sub-block of the nearest preceding non-identity term of its block
 * (buffered onto the first sub-block when the block opens with
 * identities), which keeps a connected instance — one chain, every
 * block one sub-block, every term in place — on the exact sequential
 * path. A block of only identity terms emits nothing and is dropped.
 */
ChainPartition
partitionChains(const std::vector<PauliTerm> &terms,
                const std::vector<std::vector<size_t>> &blocks, uint32_t n)
{
    QubitUnionFind uf(n);
    for (const PauliTerm &term : terms) {
        uint32_t first = n;
        term.pauli.forEachSupport([&](uint32_t q, PauliOp) {
            if (first == n)
                first = q;
            else
                uf.unite(first, q);
        });
    }

    ChainPartition part;
    part.stitch.resize(blocks.size());
    std::vector<size_t> chain_of(n, static_cast<size_t>(-1));
    // Per-block scratch: (chain, sub-block position in that chain).
    std::vector<std::pair<size_t, size_t>> block_subs;
    std::vector<size_t> leading_identities;
    for (size_t b = 0; b < blocks.size(); ++b) {
        block_subs.clear();
        leading_identities.clear();
        SubBlock *last_sub = nullptr;
        for (const size_t idx : blocks[b]) {
            uint32_t first = n;
            terms[idx].pauli.forEachSupport([&](uint32_t q, PauliOp) {
                if (first == n)
                    first = q;
            });
            if (first == n) { // identity term: no component of its own
                if (last_sub != nullptr)
                    last_sub->terms.push_back(idx);
                else
                    leading_identities.push_back(idx);
                continue;
            }
            const uint32_t root = uf.find(first);
            if (chain_of[root] == static_cast<size_t>(-1)) {
                chain_of[root] = part.chains.size();
                part.chains.emplace_back();
            }
            const size_t c = chain_of[root];
            SubBlock *sub = nullptr;
            for (const auto &[sc, sp] : block_subs)
                if (sc == c)
                    sub = &part.chains[c][sp];
            if (sub == nullptr) {
                block_subs.emplace_back(c, part.chains[c].size());
                part.chains[c].push_back(
                    SubBlock{ b, {}, part.subBlockCount });
                sub = &part.chains[c].back();
                part.stitch[b].push_back(part.subBlockCount);
                ++part.subBlockCount;
            }
            if (!leading_identities.empty()) {
                sub->terms.insert(sub->terms.end(),
                                  leading_identities.begin(),
                                  leading_identities.end());
                leading_identities.clear();
            }
            sub->terms.push_back(idx);
            last_sub = sub;
        }
        // A block of only identity terms emits nothing: drop it.
    }
    return part;
}

/**
 * Everything one sub-block contributes to the final result, written to
 * its own slot so concurrent chains never share a write target. The
 * gates member holds the whole U' segment (basis layers, CNOT trees,
 * and Rz rotations in emission order).
 */
struct BlockOutput
{
    QuantumCircuit gates;
    std::vector<size_t> rotationTerms;
    std::vector<QuantumCircuit> vlist;
};

/**
 * Compile one chain against its own tableau fork. This is the
 * pre-existing sequential block loop verbatim, scoped to the chain:
 * the conjugation cache, find_next_pauli reorder, basis layer,
 * lookahead, CNOT tree, and rotation emission are unchanged — only the
 * iteration space is the chain's sub-blocks and the cross-block
 * lookahead source is the chain's own later sub-blocks. Lookahead
 * never crosses a chain boundary in ANY mode (a cross-chain term would
 * make tree scores depend on the other chains' in-flight state); for a
 * connected instance there is exactly one chain and the restriction is
 * vacuous.
 *
 * Thread safety: writes only @p acc (this chain's fork) and the output
 * slots of this chain's own sub-blocks — disjoint from every other
 * chain — and reads only the shared immutable inputs.
 */
void
extractChain(const std::vector<PauliTerm> &terms, const Chain &chain,
             const ExtractionConfig &config, uint32_t n,
             CliffordTableau &acc, std::vector<BlockOutput> &outputs)
{
    std::vector<PauliString> conj;    // cache, indexed by block position
    std::vector<uint32_t> order_next; // singly-linked successor list
    std::vector<uint32_t> support;    // reusable support scratch
    PauliString cand_scratch;         // reusable cost-model buffer
    SupportIndex curr_support;        // reusable occupancy index of curr

    for (size_t ci = 0; ci < chain.size(); ++ci) {
        const SubBlock &sub = chain[ci];
        const auto m = static_cast<uint32_t>(sub.terms.size());
        BlockOutput &out = outputs[sub.slot];
        out.gates = QuantumCircuit(n);

        conj.clear();
        conj.reserve(m);
        for (size_t idx : sub.terms)
            conj.push_back(terms[idx].pauli);
        acc.conjugateBatch(conj);

        // Index-list order over block positions: reordering a pick is an
        // O(1) unlink + relink instead of the old vector erase/insert
        // shuffle; position m is the end sentinel.
        order_next.resize(m);
        for (uint32_t i = 0; i < m; ++i)
            order_next[i] = i + 1;

        // Replay a committed gate burst onto the pending cache entries
        // (the current term plus everything still queued after it).
        auto updatePending = [&](uint32_t from_pos, const QuantumCircuit &qc) {
            for (uint32_t j = from_pos; j != m; j = order_next[j])
                for (const Gate &g : qc.gates())
                    applyGateToPauli(conj[j], g);
        };

        for (uint32_t pos = 0; pos != m; pos = order_next[pos]) {
            const size_t curr_idx = sub.terms[pos];
            PauliString &curr = conj[pos];
            if (curr.isIdentity())
                continue; // global phase only

            // --- find_next_pauli: choose the successor inside the block
            // that ends up cheapest after extracting this block's
            // (non-recursive) Clifford. Candidates come straight from
            // the cache — no re-conjugation. ---
            if (config.useCommutingBlocks && order_next[pos] != m &&
                order_next[order_next[pos]] != m) {
                uint32_t best_j = order_next[pos];
                uint32_t best_prev = pos;
                uint32_t best_cost = ~0u;
                uint32_t prev = pos;
                // The cost model walks curr's support twice per
                // candidate; index curr once so every candidate's walks
                // jump straight to the occupied words.
                curr.buildSupportIndex(curr_support);
                for (uint32_t j = order_next[pos]; j != m;
                     prev = j, j = order_next[j]) {
                    const uint32_t cost = nonRecursiveExtractionCost(
                        curr, curr_support, conj[j], cand_scratch);
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_j = j;
                        best_prev = prev;
                    }
                }
                if (best_j != order_next[pos]) {
                    order_next[best_prev] = order_next[best_j];
                    order_next[best_j] = order_next[pos];
                    order_next[pos] = best_j;
                }
            }

            // --- Single-qubit basis layer (fixed by the Pauli string). ---
            QuantumCircuit vj(n);
            support.clear();
            curr.forEachSupport([&](uint32_t q, PauliOp op) {
                support.push_back(q);
                switch (op) {
                  case PauliOp::X:
                    vj.h(q);
                    break;
                  case PauliOp::Y:
                    vj.sdg(q);
                    vj.h(q);
                    break;
                  default:
                    break;
                }
            });
            acc.appendCircuit(vj);
            out.gates.appendCircuit(vj);
            updatePending(pos, vj);

            // --- Lookahead: upcoming Paulis in committed order, already
            // conjugated (cache copies within the sub-block; one fresh
            // batch conjugation only across the boundary). Later terms
            // come from THIS CHAIN's subsequent sub-blocks only — terms
            // of other chains live on disjoint qubits, where they could
            // only displace useful candidates from the capped window. ---
            std::vector<PauliString> lookahead;
            for (uint32_t j = order_next[pos];
                 j != m && lookahead.size() < config.tree.maxLookahead;
                 j = order_next[j]) {
                lookahead.push_back(conj[j]);
            }
            const size_t lookahead_cached = lookahead.size();
            for (size_t cb = ci + 1;
                 cb < chain.size() &&
                 lookahead.size() < config.tree.maxLookahead;
                 ++cb) {
                for (size_t idx : chain[cb].terms) {
                    if (lookahead.size() >= config.tree.maxLookahead)
                        break;
                    lookahead.push_back(terms[idx].pauli);
                }
            }
            if (lookahead.size() > lookahead_cached)
                acc.conjugateBatch(
                    std::span(lookahead).subspan(lookahead_cached));

            // --- CNOT tree (Algorithm 1). ---
            QuantumCircuit tree(n);
            TreeSynthesizer synth(acc, tree, std::move(lookahead),
                                  config.tree);
            const uint32_t root = synth.synthesize(support);
            out.gates.appendCircuit(tree);
            vj.appendCircuit(tree);
            updatePending(pos, tree);

            // --- Rotation on the parity root. ---
            // The cache kept `curr` conjugated through the basis layer
            // and the tree, so it IS the reduced Pauli +-Z_root; a
            // negative sign flips the rotation angle:
            // e^{i(-P)t} = e^{iP(-t)}.
            const PauliString &reduced = curr;
            assert(reduced.weight() == 1 && reduced.op(root) == PauliOp::Z);
            const double t_eff = terms[curr_idx].angle * reduced.sign();
            // e^{iZt} = Rz(-2t) with Rz(theta) = exp(-i theta Z / 2).
            out.gates.rz(root, -2.0 * t_eff);
            out.rotationTerms.push_back(curr_idx);

            out.vlist.push_back(std::move(vj));
        }
    }
}

} // namespace

CliffordExtractor::CliffordExtractor(ExtractionConfig config)
    : config_(std::move(config))
{
}

ExtractionResult
CliffordExtractor::run(const std::vector<PauliTerm> &terms) const
{
    const uint32_t n = numQubitsOf(terms);

    std::vector<std::vector<size_t>> blocks;
    if (config_.useCommutingBlocks) {
        blocks = commutingBlocks(terms);
    } else {
        blocks.reserve(terms.size());
        for (size_t i = 0; i < terms.size(); ++i)
            blocks.push_back({ i });
    }

    // Conjugation cache: each block's terms are conjugated through the
    // accumulated tableau ONCE at block entry (as one batch, so the
    // tableau transpose is amortized over the block), then kept exact
    // by replaying every committed gate onto the still-pending entries
    // (a homomorphism: acc' = g.acc implies acc'(P) = g(acc(P))). This
    // replaces the per-pick re-conjugation of every candidate in
    // find_next_pauli and the rotation-root recheck — the old quadratic
    // O(m^2 . n . w) per block becomes O(m . n . w / 64 + gates . m).
    //
    // The only parallelism is across chains: the chains from
    // partitionChains() compile concurrently, each against its own
    // tableau fork, and merge below. Within a block everything runs
    // inline — batch conjugation, cache replay, and lookahead updates
    // are too fine-grained for a pool dispatch to pay (each measured
    // slower than sequential on a 4-core host).
    const ChainPartition part = partitionChains(terms, blocks, n);
    std::vector<BlockOutput> outputs(part.subBlockCount);
    std::vector<CliffordTableau> chain_accs;
    chain_accs.reserve(part.chains.size());
    for (size_t c = 0; c < part.chains.size(); ++c)
        chain_accs.emplace_back(n);

    // Chain runners: blockParallelism = 0 means every chain in flight
    // at once (auto), 1 means strictly sequential, N caps the runners;
    // `threads` caps them too. The runner count never changes any
    // chain's input, so both knobs only move wall time.
    const size_t bp = config_.blockParallelism == 0
                          ? part.chains.size()
                          : static_cast<size_t>(config_.blockParallelism);
    const size_t threads = WorkerPool::resolveThreadCount(config_.threads);
    const size_t runners =
        std::min({ std::max<size_t>(part.chains.size(), 1), bp, threads });

    // Claim chains off a shared counter so long chains do not stall
    // short ones behind a static partition. The owner thread is runner
    // zero; the others are submitted tasks drained below. With one
    // runner nothing is submitted and the owner compiles every chain
    // inline, in order.
    WorkerPool pool(static_cast<uint32_t>(runners));
    std::atomic<size_t> next{ 0 };
    const auto runner = [&] {
        for (;;) {
            const size_t c = next.fetch_add(1, std::memory_order_relaxed);
            if (c >= part.chains.size())
                return;
            extractChain(terms, part.chains[c], config_, n, chain_accs[c],
                         outputs);
        }
    };
    for (size_t r = 1; r < runners; ++r)
        pool.submit(runner);
    std::exception_ptr owner_error;
    try {
        runner();
    } catch (...) {
        owner_error = std::current_exception();
    }
    pool.drainTasks(); // rethrows the first worker error, if any
    if (owner_error)
        std::rethrow_exception(owner_error);

    // --- Stitch. Sub-block segments in the partition's emission order
    // rebuild U' and the rotation schedule; the vlist in the same
    // order rebuilds the tail. The merge is the same code for every
    // runner count, so bit-identity across the knobs reduces to
    // extractChain being deterministic on its own inputs — which it
    // is, being the sequential block loop. Exactness: segments of
    // distinct chains act on disjoint qubits and rotations within a
    // block commute, so any fixed interleaving compiles the same
    // unitary; this one is fixed by the input alone. ---
    QuantumCircuit opt(n);
    std::vector<size_t> rotation_terms;
    std::vector<const QuantumCircuit *> vlist;
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (const size_t slot : part.stitch[b]) {
            const BlockOutput &out = outputs[slot];
            opt.appendCircuit(out.gates);
            rotation_terms.insert(rotation_terms.end(),
                                  out.rotationTerms.begin(),
                                  out.rotationTerms.end());
            for (const QuantumCircuit &v : out.vlist)
                vlist.push_back(&v);
        }
    }

    // --- Assemble the Clifford tail: U_CL = V_1~ ... V_m~, i.e. the
    // inverses in reverse extraction order (time order: last V first). ---
    QuantumCircuit tail(n);
    for (size_t j = vlist.size(); j-- > 0;)
        tail.appendCircuit(vlist[j]->inverse());

    // --- Merge the tableau forks. Chain Cliffords act on disjoint
    // qubits, so they commute and their product in ascending chain
    // order equals the accumulation along the emission order as a
    // unitary; the tableau representation is canonical (rows are the
    // generator images with exact signs), so the storage is bitwise
    // equal too. ---
    CliffordTableau conjugator(n);
    for (const CliffordTableau &chain_acc : chain_accs)
        conjugator.composeWith(chain_acc);

    return ExtractionResult{ std::move(opt), std::move(tail),
                             std::move(conjugator),
                             std::move(rotation_terms) };
}

} // namespace quclear
