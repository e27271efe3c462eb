#include "mapping/sabre_router.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"

namespace quclear {

namespace {

/** Lookahead window of the extended-set heuristic. */
constexpr size_t kExtendedSetSize = 20;

/** Weight of the extended set relative to the front layer. */
constexpr double kExtendedSetWeight = 0.5;

constexpr uint32_t kNone = UINT32_MAX;

/**
 * Dependency state of the circuit being routed, kept up to date gate by
 * gate. Gate i's predecessors are the previous gate on each of its
 * qubits; pending_[i] counts the unexecuted ones, so the front layer is
 * exactly the unexecuted gates with pending_ == 0.
 */
class RoutingDag
{
  public:
    explicit RoutingDag(const QuantumCircuit &qc)
        : gates_(qc.gates()), succ_(2 * gates_.size(), kNone),
          pending_(gates_.size(), 0), skip_(gates_.size() + 1)
    {
        std::vector<uint32_t> last(qc.numQubits(), kNone);
        for (uint32_t i = 0; i < gates_.size(); ++i) {
            const Gate &g = gates_[i];
            const bool two = isTwoQubit(g.type);
            for (const uint32_t q : { g.q0, g.q1 }) {
                const uint32_t prev = last[q];
                if (prev != kNone) {
                    succ_[2 * prev + (gates_[prev].q0 == q ? 0u : 1u)] = i;
                    ++pending_[i];
                }
                last[q] = i;
                if (!two)
                    break;
            }
            if (pending_[i] == 0)
                front_.push_back(i);
            skip_[i] = two ? i : i + 1;
        }
        skip_[gates_.size()] = static_cast<uint32_t>(gates_.size());
    }

    const Gate &gate(uint32_t i) const { return gates_[i]; }

    bool allExecuted() const { return executed_ == gates_.size(); }

    /** The front layer, ascending gate index. */
    const std::vector<uint32_t> &front() const { return front_; }

    /**
     * One execution round over a snapshot of the front: in index order,
     * every front gate for which @p run returns true is executed. Gates
     * it readies join the front only after the round, so they run in the
     * next one. Returns true iff any gate ran.
     */
    template <typename Run>
    bool
    executeRound(Run &&run)
    {
        kept_.clear();
        fresh_.clear();
        for (const uint32_t i : front_) {
            if (run(gates_[i]))
                markExecuted(i);
            else
                kept_.push_back(i);
        }
        if (kept_.size() == front_.size())
            return false;
        std::sort(fresh_.begin(), fresh_.end());
        front_.resize(kept_.size() + fresh_.size());
        std::merge(kept_.begin(), kept_.end(), fresh_.begin(), fresh_.end(),
                   front_.begin());
        return true;
    }

    /**
     * The next up-to-k unexecuted two-qubit gates outside the front, in
     * index order. Call between rounds, when pending_ == 0 means front.
     */
    void
    extendedSet(size_t k, std::vector<uint32_t> &out)
    {
        out.clear();
        const uint32_t end = static_cast<uint32_t>(gates_.size());
        for (uint32_t i = nextTwoQubit(0); i < end && out.size() < k;
             i = nextTwoQubit(i + 1)) {
            if (pending_[i] != 0)
                out.push_back(i);
        }
    }

  private:
    void
    markExecuted(uint32_t i)
    {
        for (const uint32_t s : { succ_[2 * i], succ_[2 * i + 1] })
            if (s != kNone && --pending_[s] == 0)
                fresh_.push_back(s);
        skip_[i] = i + 1;
        ++executed_;
    }

    /** First unexecuted two-qubit gate at or after @p i (union-find
     *  over skip_ with path halving; gates_.size() if none). */
    uint32_t
    nextTwoQubit(uint32_t i)
    {
        while (skip_[i] != i) {
            skip_[i] = skip_[skip_[i]];
            i = skip_[i];
        }
        return i;
    }

    const std::vector<Gate> &gates_;
    std::vector<uint32_t> succ_;    //!< [2i + k]: next gate on operand k
    std::vector<uint32_t> pending_; //!< unexecuted predecessors
    std::vector<uint32_t> skip_;    //!< i iff gate i is pending and 2q
    std::vector<uint32_t> front_, kept_, fresh_;
    size_t executed_ = 0;
};

/**
 * Summed device distance over a set of two-qubit gates (their physical
 * endpoints), evaluated per candidate SWAP as a delta: swapping pa and
 * pb moves only the pairs touching pa or pb, found through per-qubit
 * incidence lists, so a candidate costs O(its pairs), not O(all pairs).
 */
class PairCost
{
  public:
    using PhysPair = std::pair<uint32_t, uint32_t>;

    explicit PairCost(const CouplingMap &device)
        : device_(device), head_(device.numQubits(), kNone)
    {
    }

    void
    clear()
    {
        for (const auto &[p0, p1] : pairs_)
            head_[p0] = head_[p1] = kNone;
        pairs_.clear();
        next_.clear();
        base_ = 0;
    }

    void
    add(uint32_t p0, uint32_t p1)
    {
        const auto k = static_cast<uint32_t>(2 * pairs_.size());
        pairs_.emplace_back(p0, p1);
        next_.push_back(head_[p0]);
        head_[p0] = k;
        next_.push_back(head_[p1]);
        head_[p1] = k + 1;
        base_ += device_.distance(p0, p1);
    }

    const std::vector<PhysPair> &pairs() const { return pairs_; }

    /** The summed distance once physical qubits pa and pb swap. */
    int64_t
    afterSwap(uint32_t pa, uint32_t pb) const
    {
        return base_ + moved(pa, pb) + moved(pb, pa);
    }

  private:
    /** Change from moving the endpoints on @p from to @p to; a pair
     *  joining the two keeps its distance. */
    int64_t
    moved(uint32_t from, uint32_t to) const
    {
        int64_t delta = 0;
        for (uint32_t k = head_[from]; k != kNone; k = next_[k]) {
            const PhysPair &pair = pairs_[k / 2];
            const uint32_t other = k % 2 ? pair.first : pair.second;
            if (other != to)
                delta += int64_t{ device_.distance(to, other) } -
                         int64_t{ device_.distance(from, other) };
        }
        return delta;
    }

    const CouplingMap &device_;
    std::vector<uint32_t> head_; //!< per qubit: first endpoint on it
    std::vector<uint32_t> next_; //!< per endpoint 2j + k: next on qubit
    std::vector<PhysPair> pairs_;
    int64_t base_ = 0;
};

/** Reject layouts and devices the router cannot honour. */
void
checkRoutingInput(const QuantumCircuit &qc, const CouplingMap &device,
                  const std::vector<uint32_t> &layout)
{
    if (layout.size() != qc.numQubits())
        throw std::invalid_argument(
            "sabreRoute: initial layout has " +
            std::to_string(layout.size()) + " entries for a " +
            std::to_string(qc.numQubits()) + "-qubit circuit");
    if (!device.isConnected())
        throw std::invalid_argument(
            "sabreRoute: device coupling graph is disconnected");
    std::vector<bool> used(device.numQubits(), false);
    for (const uint32_t phys : layout) {
        if (phys >= device.numQubits())
            throw std::invalid_argument(
                "sabreRoute: initial layout names physical qubit " +
                std::to_string(phys) + " on a " +
                std::to_string(device.numQubits()) + "-qubit device");
        if (used[phys])
            throw std::invalid_argument(
                "sabreRoute: initial layout is not injective (physical "
                "qubit " + std::to_string(phys) + " used twice)");
        used[phys] = true;
    }
}

} // namespace

RoutingResult
sabreRoute(const QuantumCircuit &qc, const CouplingMap &device,
           const std::vector<uint32_t> &initial_layout)
{
    checkRoutingInput(qc, device, initial_layout);
    RoutingResult result;
    result.routed = QuantumCircuit(device.numQubits());
    std::vector<uint32_t> l2p = initial_layout;
    std::vector<uint32_t> p2l(device.numQubits(), kNone);
    for (uint32_t l = 0; l < l2p.size(); ++l)
        p2l[l2p[l]] = l;

    RoutingDag dag(qc);
    std::vector<double> decay(device.numQubits(), 1.0);

    auto apply_swap = [&](uint32_t pa, uint32_t pb) {
        result.routed.swap(pa, pb);
        ++result.swapCount;
        if (p2l[pa] != kNone)
            l2p[p2l[pa]] = pb;
        if (p2l[pb] != kNone)
            l2p[p2l[pb]] = pa;
        std::swap(p2l[pa], p2l[pb]);
        decay[pa] += 0.001;
        decay[pb] += 0.001;
    };

    // Emit a front gate if its qubits are adjacent (always, for 1q).
    auto try_execute = [&](const Gate &g) {
        Gate mapped = g;
        mapped.q0 = l2p[g.q0];
        mapped.q1 = isTwoQubit(g.type) ? l2p[g.q1] : mapped.q0;
        if (isTwoQubit(g.type) && !device.adjacent(mapped.q0, mapped.q1))
            return false;
        result.routed.append(mapped);
        return true;
    };

    std::vector<uint32_t> extended;
    PairCost front(device), ext(device);
    auto load = [&](const std::vector<uint32_t> &gates, PairCost &cost) {
        cost.clear();
        for (const uint32_t i : gates)
            cost.add(l2p[dag.gate(i).q0], l2p[dag.gate(i).q1]);
    };
    // Candidate bookkeeping: front-gate qubits, and a bitset of them and
    // their neighbours (the smaller end of every candidate edge).
    std::vector<uint8_t> on_front(device.numQubits(), 0);
    std::vector<uint64_t> near((device.numQubits() + 63) / 64, 0);

    size_t swaps_since_progress = 0;
    while (!dag.allExecuted()) {
        bool progressed = false;
        while (dag.executeRound(try_execute))
            progressed = true;
        if (progressed) {
            swaps_since_progress = 0;
            std::fill(decay.begin(), decay.end(), 1.0);
        }
        if (dag.allExecuted())
            break;
        // Every front gate is now a blocked two-qubit gate.
        load(dag.front(), front);

        // Fallback: if the heuristic has stalled, route the first blocked
        // gate along a shortest path directly.
        if (swaps_since_progress > 4 * device.numQubits()) {
            uint32_t pa = front.pairs()[0].first;
            const uint32_t pb = front.pairs()[0].second;
            while (!device.adjacent(pa, pb)) {
                for (const uint32_t nbr : device.neighbors(pa)) {
                    if (device.distance(nbr, pb) < device.distance(pa, pb)) {
                        apply_swap(pa, nbr);
                        pa = nbr;
                        break;
                    }
                }
            }
            continue;
        }

        dag.extendedSet(kExtendedSetSize, extended);
        load(extended, ext);

        // Candidate swaps: edges touching any front-gate qubit, visited in
        // lexicographic order (smaller end ascending via the bitset, larger
        // end via the sorted neighbour lists) so score ties break toward
        // the smallest. Each is scored by the heuristic distance after the
        // swap; the sums are integers converted once, exactly the value a
        // running double sum of the same distances reaches.
        for (const auto &[p0, p1] : front.pairs()) {
            for (const uint32_t phys : { p0, p1 }) {
                on_front[phys] = 1;
                near[phys / 64] |= uint64_t{ 1 } << (phys % 64);
                for (const uint32_t nbr : device.neighbors(phys))
                    near[nbr / 64] |= uint64_t{ 1 } << (nbr % 64);
            }
        }
        double best_score = 1e300;
        std::pair<uint32_t, uint32_t> best_swap{ 0, 0 };
        for (uint32_t w = 0; w < near.size(); ++w) {
            for (; near[w] != 0; near[w] &= near[w] - 1) {
                const uint32_t pa =
                    64 * w + static_cast<uint32_t>(std::countr_zero(near[w]));
                for (const uint32_t pb : device.neighbors(pa)) {
                    if (pb < pa || !(on_front[pa] || on_front[pb]))
                        continue;
                    const double front_cost =
                        static_cast<double>(front.afterSwap(pa, pb));
                    const double ext_cost =
                        static_cast<double>(ext.afterSwap(pa, pb));
                    const double score =
                        decay[pa] * decay[pb] *
                        (front_cost +
                         (ext.pairs().empty()
                              ? 0.0
                              : kExtendedSetWeight * ext_cost /
                                    static_cast<double>(ext.pairs().size())));
                    if (score < best_score) {
                        best_score = score;
                        best_swap = { pa, pb };
                    }
                }
            }
        }
        for (const auto &[p0, p1] : front.pairs())
            on_front[p0] = on_front[p1] = 0;
        apply_swap(best_swap.first, best_swap.second);
        ++swaps_since_progress;
    }

    result.finalLayout = l2p;
    return result;
}

RoutingResult
mapToDevice(const QuantumCircuit &qc, const CouplingMap &device)
{
    // Bidirectional layout refinement (the SABRE trick): routing the
    // reversed circuit from a forward pass's final layout yields an
    // initial layout already adapted to the circuit's early gates.
    std::vector<uint32_t> layout = greedyLayout(qc, device);
    const QuantumCircuit reversed = qc.inverse();
    for (int round = 0; round < 2; ++round) {
        const RoutingResult forward = sabreRoute(qc, device, layout);
        const RoutingResult backward =
            sabreRoute(reversed, device, forward.finalLayout);
        layout = backward.finalLayout;
    }
    return sabreRoute(qc, device, layout);
}

} // namespace quclear
