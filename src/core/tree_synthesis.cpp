#include "core/tree_synthesis.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace quclear {

namespace {

/** Largest support the exhaustive search takes: one 64-bit mask. */
constexpr size_t kMaxExhaustiveSet = 64;

/** Weight contribution of an (x, z) bit pair. */
inline int
opWeight(bool x, bool z)
{
    return (x || z) ? 1 : 0;
}

/** Bit i of a multiword mask. */
inline uint64_t
maskBit(const uint64_t *mask, size_t i)
{
    return (mask[i >> 6] >> (i & 63)) & 1;
}

/*
 * The searches score a schedule by the weights of the first `depth`
 * lookahead Paulis. A CX inside the set leaves a Pauli's weight outside
 * the set unchanged, so each one is projected onto the set: bit i of
 * look d's x / z mask is its x / z bit at idxs[i]. A mask has `words`
 * 64-bit words, and a projection buffer holds the x masks of all looks,
 * then their z masks. Signs do not score.
 */
void
projectLooks(const std::vector<PauliString> &looks, size_t depth,
             const std::vector<uint32_t> &idxs, size_t words, uint64_t *xz)
{
    const size_t look_words = depth * words;
    for (size_t d = 0; d < depth; ++d) {
        const PauliString &p = looks[d];
        for (size_t i = 0; i < idxs.size(); ++i) {
            xz[d * words + (i >> 6)] |=
                static_cast<uint64_t>(p.xBit(idxs[i])) << (i & 63);
            xz[look_words + d * words + (i >> 6)] |=
                static_cast<uint64_t>(p.zBit(idxs[i])) << (i & 63);
        }
    }
}

/**
 * CX conjugation of a projection buffer on set positions a -> b:
 * x_b ^= x_a, z_a ^= z_b. It is an involution, so applying it again
 * undoes it.
 */
inline void
projectedCx(uint64_t *xz, size_t depth, size_t words, size_t a, size_t b)
{
    const size_t look_words = depth * words;
    for (size_t d = 0; d < depth; ++d) {
        uint64_t *x = xz + d * words;
        uint64_t *z = x + look_words;
        x[b >> 6] ^= maskBit(x, a) << (b & 63);
        z[a >> 6] ^= maskBit(z, b) << (a & 63);
    }
}

} // namespace

int
cxWeightDelta(const PauliString &p, uint32_t control, uint32_t target)
{
    const bool xc = p.xBit(control), zc = p.zBit(control);
    const bool xt = p.xBit(target), zt = p.zBit(target);
    // CX conjugation: x_t ^= x_c, z_c ^= z_t.
    const bool nxt = xt ^ xc;
    const bool nzc = zc ^ zt;
    const int before = opWeight(xc, zc) + opWeight(xt, zt);
    const int after = opWeight(xc, nzc) + opWeight(nxt, zt);
    return after - before;
}

TreeSynthesizer::TreeSynthesizer(CliffordTableau &acc, QuantumCircuit &tree,
                                 std::vector<PauliString> lookahead,
                                 const TreeSynthesisConfig &config)
    : acc_(acc), tree_(tree), lookahead_(std::move(lookahead)),
      config_(config)
{
}

bool
TreeSynthesizer::lookaheadAt(uint32_t depth, PauliString &out) const
{
    if (depth >= config_.maxLookahead || depth >= lookahead_.size())
        return false;
    // The cached string already equals acc_.conjugate(original term):
    // emitCx keeps every entry in lockstep with the tableau.
    out = lookahead_[depth];
    return true;
}

void
TreeSynthesizer::emitCx(uint32_t control, uint32_t target)
{
    tree_.cx(control, target);
    acc_.appendCX(control, target);
    for (PauliString &p : lookahead_)
        p.applyCX(control, target);
}

uint32_t
TreeSynthesizer::chain(const std::vector<uint32_t> &idxs)
{
    assert(!idxs.empty());
    for (size_t i = 0; i + 1 < idxs.size(); ++i)
        emitCx(idxs[i], idxs[i + 1]);
    return idxs.back();
}

uint32_t
TreeSynthesizer::connectRoots(const std::vector<uint32_t> &roots,
                              uint32_t depth)
{
    assert(!roots.empty());
    if (roots.size() == 1)
        return roots[0];

    PauliString next;
    if (!lookaheadAt(depth, next))
        return chain(roots);

    // Greedily pick the (control, target) pair with the best weight delta
    // per Table I; the control leaves the set, the target carries the
    // accumulated parity onward.
    std::vector<uint32_t> remaining = roots;
    while (remaining.size() > 1) {
        int best_delta = 3;
        size_t best_c = 0, best_t = 1;
        for (size_t ci = 0; ci < remaining.size(); ++ci) {
            for (size_t ti = 0; ti < remaining.size(); ++ti) {
                if (ci == ti)
                    continue;
                int delta =
                    cxWeightDelta(next, remaining[ci], remaining[ti]);
                if (delta < best_delta) {
                    best_delta = delta;
                    best_c = ci;
                    best_t = ti;
                }
            }
        }
        const uint32_t c = remaining[best_c];
        const uint32_t t = remaining[best_t];
        emitCx(c, t);
        next.applyCX(c, t);
        remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_c));
    }
    return remaining[0];
}

uint32_t
TreeSynthesizer::synth(const std::vector<uint32_t> &idxs, uint32_t depth)
{
    assert(!idxs.empty());
    if (idxs.size() == 1)
        return idxs[0];

    PauliString next;
    if (!lookaheadAt(depth, next))
        return chain(idxs);

    // Partition by the next Pauli's operator (I/X/Y/Z subtrees).
    std::array<std::vector<uint32_t>, 4> groups;
    for (uint32_t q : idxs)
        groups[static_cast<uint8_t>(next.op(q))].push_back(q);

    // Synthesize each subtree; recursion orders the subtree's interior by
    // deeper lookahead (Sec. V-B), otherwise a simple index-order chain.
    std::vector<uint32_t> roots;
    for (const auto &group : groups) {
        if (group.empty())
            continue;
        uint32_t root;
        if (group.size() == 1) {
            root = group[0];
        } else if (group.size() == idxs.size()) {
            // Degenerate partition (all qubits in one subtree): recursing
            // with the same set would loop forever; advance the lookahead
            // instead to order the chain by the following Pauli.
            if (config_.recursive && depth + 1 < config_.maxLookahead)
                root = synth(group, depth + 1);
            else
                root = chain(group);
            return root;
        } else if (config_.recursive) {
            root = synth(group, depth + 1);
        } else {
            root = chain(group);
        }
        roots.push_back(root);
    }
    return connectRoots(roots, depth);
}

uint32_t
TreeSynthesizer::exhaustive(const std::vector<uint32_t> &idxs)
{
    // Enumerate every parity-tree schedule: repeatedly pick an ordered
    // (control, target) pair from the remaining set; the control leaves.
    // Score a complete schedule lexicographically by the weights of the
    // first few lookahead Paulis after conjugation — deep scoring
    // matters, or the exhaustive choice is myopically optimal for the
    // next rotation while hurting later ones (see bench_ablation).
    constexpr uint32_t kScoreDepth = 8;
    const size_t depth = std::min<size_t>(
        { kScoreDepth, config_.maxLookahead, lookahead_.size() });
    if (depth == 0)
        return chain(idxs);

    // Each lookahead Pauli is projected onto the set in one word (see
    // projectLooks); its weight is the projection's popcount plus the
    // fixed weight outside the set.
    const size_t k = idxs.size();
    assert(k <= kMaxExhaustiveSet);
    std::array<uint64_t, 2 * kScoreDepth> xz{};
    projectLooks(lookahead_, depth, idxs, 1, xz.data());
    const auto weight = [&](size_t d) {
        return static_cast<uint32_t>(std::popcount(xz[d] | xz[depth + d]));
    };
    std::array<uint32_t, kScoreDepth> outside{};
    for (size_t d = 0; d < depth; ++d)
        outside[d] = lookahead_[d].weight() - weight(d);
    const auto cx = [&](uint32_t a, uint32_t b) {
        projectedCx(xz.data(), depth, 1, a, b);
    };

    std::vector<Gate> best_seq;
    std::array<uint32_t, kScoreDepth> best_score;
    best_score.fill(~0u);
    std::vector<Gate> seq;
    seq.reserve(idxs.size());

    // Depth-first over merge sequences, in place: a branch applies
    // CX(c, t) to the projections and erases the control from the
    // remaining set (of set positions); undoing it applies the same CX
    // again and re-inserts the control at its index.
    std::vector<uint32_t> set(k);
    for (size_t i = 0; i < k; ++i)
        set[i] = static_cast<uint32_t>(i);
    auto dfs = [&](auto &&self) -> void {
        if (set.size() == 1) {
            std::array<uint32_t, kScoreDepth> score{};
            for (size_t d = 0; d < depth; ++d)
                score[d] = outside[d] + weight(d);
            if (score < best_score) {
                best_score = score;
                best_seq = seq;
            }
            return;
        }
        for (size_t ci = 0; ci < set.size(); ++ci) {
            for (size_t ti = 0; ti < set.size(); ++ti) {
                if (ci == ti)
                    continue;
                const uint32_t c = set[ci];
                const uint32_t t = set[ti];
                cx(c, t);
                set.erase(set.begin() + static_cast<std::ptrdiff_t>(ci));
                seq.emplace_back(GateType::CX, idxs[c], idxs[t]);
                self(self);
                seq.pop_back();
                set.insert(set.begin() + static_cast<std::ptrdiff_t>(ci), c);
                cx(c, t);
            }
        }
    };
    dfs(dfs);

    for (const Gate &g : best_seq)
        emitCx(g.q0, g.q1);
    // The surviving qubit is the one never used as a control. (Sets
    // here are tiny — at most exhaustiveThreshold — so a linear scan
    // beats a bitmask, which would also cap the qubit index at 64.)
    for (uint32_t q : idxs) {
        bool used_as_control = false;
        for (const Gate &g : best_seq) {
            if (g.q0 == q) {
                used_as_control = true;
                break;
            }
        }
        if (!used_as_control)
            return q;
    }
    assert(false && "no root survived the merge sequence");
    return idxs.back();
}

uint32_t
TreeSynthesizer::beam(const std::vector<uint32_t> &idxs)
{
    // Beam search over parity-tree schedules, scored lexicographically by
    // the weights of the first few lookahead Paulis (deep lookahead is
    // what makes the grouped recursion strong; the beam needs it too).
    constexpr uint32_t kScoreDepth = 8;
    const size_t depth = std::min<size_t>(
        { kScoreDepth, config_.maxLookahead, lookahead_.size() });
    if (depth == 0)
        return chain(idxs);
    using Score = std::array<uint32_t, kScoreDepth>;

    // States live in place, as in exhaustive(): a state is its remaining
    // set of positions, its projections (see projectLooks, here in
    // `words` words so any set size fits) and its score. Two states are
    // the same when their sets and first lookahead Paulis match. Signs
    // need no tracking for that: CXs map i^{#Y} X^x Z^z to X^x' Z^z'
    // with no sign, so the sign follows from the letters.
    const size_t k = idxs.size();
    const size_t words = (k + 63) / 64;
    const size_t look_words = depth * words;
    struct Level
    {
        std::vector<uint64_t> set; // `words` per state
        std::vector<uint64_t> xz;  // a projection buffer per state
        std::vector<Score> score;
    };

    Level frontier, next;
    frontier.set.assign(words, 0);
    frontier.xz.assign(2 * look_words, 0);
    for (size_t i = 0; i < k; ++i)
        frontier.set[i >> 6] |= 1ULL << (i & 63);
    projectLooks(lookahead_, depth, idxs, words, frontier.xz.data());
    Score root_score{};
    for (size_t d = 0; d < depth; ++d)
        root_score[d] = lookahead_[d].weight();
    frontier.score.push_back(root_score);

    // A child is a compact record, scored from its parent without being
    // built: the CX changes a Pauli's weight only at its two positions.
    // Only the survivors are materialized, and each level keeps
    // (parent, c, t) so the winning sequence is rebuilt at the end.
    //
    // std::sort is not stable: children with equal scores end up in
    // whatever order its comparisons leave them. So children are listed
    // state by state, control by control, target by target, and sorted
    // by their score arrays alone; the same comparisons on the same
    // listing give the same order.
    struct Step
    {
        uint32_t parent, c, t;
    };
    struct Child
    {
        Score score;
        Step step;
    };
    std::vector<Child> children;
    std::vector<Step> steps;
    std::vector<size_t> level_start;
    std::vector<uint32_t> positions;
    static_assert(kScoreDepth <= 8, "ox / oz hold one bit per look");
    std::vector<uint8_t> ox(k), oz(k); // bit d: look d's x / z bit
    std::vector<uint64_t> probe(3 * words); // a child's dedup key

    const size_t width = config_.beamWidth;
    for (size_t remaining = k; remaining > 1; --remaining) {
        children.clear();
        for (size_t s = 0; s < frontier.score.size(); ++s) {
            const uint64_t *set = &frontier.set[s * words];
            const uint64_t *xz = &frontier.xz[s * 2 * look_words];
            positions.clear();
            for (size_t w = 0; w < words; ++w)
                for (uint64_t b = set[w]; b; b &= b - 1)
                    positions.push_back(static_cast<uint32_t>(
                        64 * w + static_cast<size_t>(std::countr_zero(b))));
            for (const uint32_t i : positions) {
                uint8_t xs = 0, zs = 0;
                for (size_t d = 0; d < depth; ++d) {
                    xs |= static_cast<uint8_t>(maskBit(xz + d * words, i)
                                               << d);
                    zs |= static_cast<uint8_t>(
                        maskBit(xz + look_words + d * words, i) << d);
                }
                ox[i] = xs;
                oz[i] = zs;
            }
            const Score &base = frontier.score[s];
            for (const uint32_t a : positions) {
                for (const uint32_t b : positions) {
                    if (a == b)
                        continue;
                    // Weight bits per look, before and after the CX.
                    const uint32_t before_a = ox[a] | oz[a];
                    const uint32_t before_b = ox[b] | oz[b];
                    const uint32_t after_a = ox[a] | (oz[a] ^ oz[b]);
                    const uint32_t after_b = (ox[b] ^ ox[a]) | oz[b];
                    Child child{ base, { static_cast<uint32_t>(s), a, b } };
                    for (size_t d = 0; d < depth; ++d)
                        child.score[d] = child.score[d] +
                                         ((after_a >> d) & 1) +
                                         ((after_b >> d) & 1) -
                                         ((before_a >> d) & 1) -
                                         ((before_b >> d) & 1);
                    children.push_back(child);
                }
            }
        }
        // Keep the best `width` states; dedup identical (set, first
        // lookahead) pairs so the beam stays diverse.
        std::sort(children.begin(), children.end(),
                  [](const Child &a, const Child &b) {
                      return a.score < b.score;
                  });
        next.set.clear();
        next.xz.clear();
        next.score.clear();
        level_start.push_back(steps.size());
        for (const Child &child : children) {
            const size_t parent = child.step.parent;
            const size_t c = child.step.c, t = child.step.t;
            const uint64_t *pxz = &frontier.xz[parent * 2 * look_words];
            // The child's key: its set and its first Pauli's letters.
            uint64_t *kset = probe.data(), *kx = kset + words, *kz = kx + words;
            std::copy_n(&frontier.set[parent * words], words, kset);
            std::copy_n(pxz, words, kx);
            std::copy_n(pxz + look_words, words, kz);
            kset[c >> 6] &= ~(1ULL << (c & 63));
            projectedCx(kx, 1, words, c, t); // kz follows kx
            bool dup = false;
            for (size_t j = 0; j < next.score.size() && !dup; ++j) {
                const uint64_t *jxz = &next.xz[j * 2 * look_words];
                dup = std::equal(kset, kset + words, &next.set[j * words]) &&
                      std::equal(kx, kx + words, jxz) &&
                      std::equal(kz, kz + words, jxz + look_words);
            }
            if (!dup) {
                next.set.insert(next.set.end(), kset, kset + words);
                next.xz.insert(next.xz.end(), pxz, pxz + 2 * look_words);
                projectedCx(&next.xz[next.xz.size() - 2 * look_words],
                            depth, words, c, t);
                next.score.push_back(child.score);
                steps.push_back(child.step);
            }
            if (next.score.size() >= width)
                break;
        }
        std::swap(frontier, next);
    }

    // Walk the winner's parents back to the root, then emit in order.
    std::vector<Step> seq(level_start.size());
    uint32_t state = 0;
    for (size_t level = level_start.size(); level-- > 0;) {
        seq[level] = steps[level_start[level] + state];
        state = seq[level].parent;
    }
    for (const Step &step : seq)
        emitCx(idxs[step.c], idxs[step.t]);
    for (size_t w = 0; w < words; ++w)
        if (frontier.set[w] != 0)
            return idxs[64 * w +
                        static_cast<size_t>(std::countr_zero(frontier.set[w]))];
    assert(false && "no root survived the merge sequence");
    return idxs.back();
}

uint32_t
TreeSynthesizer::synthesize(const std::vector<uint32_t> &tree_idxs)
{
    if (tree_idxs.size() >= 2 && config_.maxLookahead > 0) {
        if (tree_idxs.size() <= config_.exhaustiveThreshold &&
            tree_idxs.size() <= kMaxExhaustiveSet)
            return exhaustive(tree_idxs);
        if (config_.beamWidth > 0)
            return beam(tree_idxs);
    }
    return synth(tree_idxs, 0);
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const SupportIndex &current_idx,
                           const PauliString &candidate,
                           PauliString &scratch)
{
    PauliString &cand = scratch;
    cand = candidate; // vector assignment reuses the scratch capacity

    // Hypothetical basis layer of the current Pauli (index-driven
    // word-level walk; no support vector is materialized and empty
    // words are skipped via the occupancy index).
    current.forEachSupport(current_idx, [&](uint32_t q, PauliOp op) {
        switch (op) {
          case PauliOp::X:
            cand.applyH(q);
            break;
          case PauliOp::Y:
            cand.applySdg(q);
            cand.applyH(q);
            break;
          default:
            break;
        }
    });

    // Non-recursive tree: group the support by the candidate's operator,
    // chain each group in index order, then connect roots greedily.
    // A single ascending walk suffices: chaining CX(prev, q) only
    // touches bits at qubits <= q already classified, so each qubit's
    // group is read before any chain CX can disturb it, and per-group
    // running roots replace the materialized group vectors.
    std::array<uint32_t, 4> last;
    last.fill(~0u);
    current.forEachSupport(current_idx, [&](uint32_t q, PauliOp) {
        const auto g = static_cast<uint8_t>(cand.op(q));
        if (last[g] != ~0u)
            cand.applyCX(last[g], q);
        last[g] = q;
    });

    std::array<uint32_t, 4> remaining{};
    size_t num_roots = 0;
    // Root order must match the reference grouping: I, X, Z, Y.
    for (uint32_t root : last)
        if (root != ~0u)
            remaining[num_roots++] = root;

    while (num_roots > 1) {
        int best_delta = 3;
        size_t best_c = 0, best_t = 1;
        for (size_t ci = 0; ci < num_roots; ++ci) {
            for (size_t ti = 0; ti < num_roots; ++ti) {
                if (ci == ti)
                    continue;
                int delta =
                    cxWeightDelta(cand, remaining[ci], remaining[ti]);
                if (delta < best_delta) {
                    best_delta = delta;
                    best_c = ci;
                    best_t = ti;
                }
            }
        }
        cand.applyCX(remaining[best_c], remaining[best_t]);
        for (size_t i = best_c; i + 1 < num_roots; ++i)
            remaining[i] = remaining[i + 1];
        --num_roots;
    }
    return cand.weight();
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const PauliString &candidate,
                           PauliString &scratch)
{
    // One-shot callers pay a single occupancy scan; the index then
    // serves both support walks of the cost model.
    SupportIndex idx;
    current.buildSupportIndex(idx);
    return nonRecursiveExtractionCost(current, idx, candidate, scratch);
}

uint32_t
nonRecursiveExtractionCost(const PauliString &current,
                           const PauliString &candidate)
{
    PauliString scratch;
    return nonRecursiveExtractionCost(current, candidate, scratch);
}

} // namespace quclear
