#include "reference_sabre_router.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mapping/layout.hpp"

namespace quclear {

namespace {

/** The seed RouterConfig defaults. */
constexpr size_t kExtendedSetSize = 20;
constexpr double kExtendedSetWeight = 0.5;

/** Dependency tracking: next unexecuted gate index per logical qubit. */
class GateDag
{
  public:
    explicit GateDag(const QuantumCircuit &qc) : gates_(qc.gates())
    {
        per_qubit_.resize(qc.numQubits());
        for (size_t i = 0; i < gates_.size(); ++i) {
            per_qubit_[gates_[i].q0].push_back(i);
            if (isTwoQubit(gates_[i].type))
                per_qubit_[gates_[i].q1].push_back(i);
        }
        cursor_.assign(qc.numQubits(), 0);
        executed_.assign(gates_.size(), false);
    }

    /** Gate i is front iff it is the next unexecuted gate on all its qubits. */
    bool
    isFront(size_t i) const
    {
        const Gate &g = gates_[i];
        if (nextOn(g.q0) != i)
            return false;
        if (isTwoQubit(g.type) && nextOn(g.q1) != i)
            return false;
        return true;
    }

    /** Index of the next unexecuted gate on a logical qubit (or npos). */
    size_t
    nextOn(uint32_t q) const
    {
        size_t &c = cursor_[q]; // memoized: executed gates never revert
        const auto &list = per_qubit_[q];
        while (c < list.size() && executed_[list[c]])
            ++c;
        return c < list.size() ? list[c] : kNone;
    }

    void
    markExecuted(size_t i)
    {
        executed_[i] = true;
        while (scanStart_ < executed_.size() && executed_[scanStart_])
            ++scanStart_;
    }

    bool
    allExecuted() const
    {
        return scanStart_ >= executed_.size();
    }

    /** Current front layer (gate indices). */
    std::vector<size_t>
    frontLayer() const
    {
        std::set<size_t> front;
        for (uint32_t q = 0; q < cursor_.size(); ++q) {
            const size_t i = nextOn(q);
            if (i != kNone && isFront(i))
                front.insert(i);
        }
        return { front.begin(), front.end() };
    }

    /** The next up-to-k unexecuted two-qubit gates after the front. */
    std::vector<size_t>
    extendedSet(size_t k) const
    {
        std::vector<size_t> ext;
        for (size_t i = scanStart_;
             i < gates_.size() && ext.size() < k; ++i) {
            if (!executed_[i] && isTwoQubit(gates_[i].type) &&
                !isFront(i))
                ext.push_back(i);
        }
        return ext;
    }

    const Gate &gate(size_t i) const { return gates_[i]; }

    static constexpr size_t kNone = static_cast<size_t>(-1);

  private:
    const std::vector<Gate> &gates_;
    std::vector<std::vector<size_t>> per_qubit_;
    mutable std::vector<size_t> cursor_;
    std::vector<bool> executed_;
    size_t scanStart_ = 0;
};

} // namespace

RoutingResult
referenceSabreRoute(const QuantumCircuit &qc, const CouplingMap &device,
                    const std::vector<uint32_t> &initial_layout)
{
    assert(initial_layout.size() == qc.numQubits());
    RoutingResult result;
    result.routed = QuantumCircuit(device.numQubits());
    std::vector<uint32_t> l2p = initial_layout;

    GateDag dag(qc);
    std::vector<double> decay(device.numQubits(), 1.0);

    auto apply_swap = [&](uint32_t pa, uint32_t pb) {
        result.routed.swap(pa, pb);
        ++result.swapCount;
        for (uint32_t &phys : l2p) {
            if (phys == pa)
                phys = pb;
            else if (phys == pb)
                phys = pa;
        }
        decay[pa] += 0.001;
        decay[pb] += 0.001;
    };

    size_t swaps_since_progress = 0;
    while (!dag.allExecuted()) {
        // Execute everything executable in the front layer.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t i : dag.frontLayer()) {
                const Gate &g = dag.gate(i);
                if (!isTwoQubit(g.type)) {
                    Gate mapped = g;
                    mapped.q0 = l2p[g.q0];
                    mapped.q1 = mapped.q0;
                    result.routed.append(mapped);
                    dag.markExecuted(i);
                    progressed = true;
                } else if (device.adjacent(l2p[g.q0], l2p[g.q1])) {
                    Gate mapped = g;
                    mapped.q0 = l2p[g.q0];
                    mapped.q1 = l2p[g.q1];
                    result.routed.append(mapped);
                    dag.markExecuted(i);
                    progressed = true;
                }
            }
            if (progressed) {
                swaps_since_progress = 0;
                std::fill(decay.begin(), decay.end(), 1.0);
            }
        }
        if (dag.allExecuted())
            break;

        const auto front = dag.frontLayer();
        const auto extended = dag.extendedSet(kExtendedSetSize);

        // Fallback: if the heuristic has stalled, route the first blocked
        // gate along a shortest path directly.
        if (swaps_since_progress > 4 * device.numQubits()) {
            for (size_t i : front) {
                const Gate &g = dag.gate(i);
                if (!isTwoQubit(g.type))
                    continue;
                uint32_t pa = l2p[g.q0];
                const uint32_t pb = l2p[g.q1];
                while (!device.adjacent(pa, pb)) {
                    for (uint32_t nbr : device.neighbors(pa)) {
                        if (device.distance(nbr, pb) <
                            device.distance(pa, pb)) {
                            apply_swap(pa, nbr);
                            pa = nbr;
                            break;
                        }
                    }
                }
                break;
            }
            continue;
        }

        // Candidate swaps: edges touching any front-gate qubit.
        std::set<std::pair<uint32_t, uint32_t>> candidates;
        for (size_t i : front) {
            const Gate &g = dag.gate(i);
            if (!isTwoQubit(g.type))
                continue;
            for (uint32_t phys : { l2p[g.q0], l2p[g.q1] }) {
                for (uint32_t nbr : device.neighbors(phys)) {
                    candidates.insert(
                        { std::min(phys, nbr), std::max(phys, nbr) });
                }
            }
        }
        assert(!candidates.empty());

        // Score each candidate by the heuristic distance after the swap.
        auto phys_after = [&](uint32_t phys, uint32_t pa, uint32_t pb) {
            if (phys == pa)
                return pb;
            if (phys == pb)
                return pa;
            return phys;
        };
        double best_score = 1e300;
        std::pair<uint32_t, uint32_t> best_swap{ 0, 0 };
        for (const auto &[pa, pb] : candidates) {
            double front_cost = 0;
            for (size_t i : front) {
                const Gate &g = dag.gate(i);
                if (!isTwoQubit(g.type))
                    continue;
                front_cost += device.distance(
                    phys_after(l2p[g.q0], pa, pb),
                    phys_after(l2p[g.q1], pa, pb));
            }
            double ext_cost = 0;
            for (size_t i : extended) {
                const Gate &g = dag.gate(i);
                ext_cost += device.distance(
                    phys_after(l2p[g.q0], pa, pb),
                    phys_after(l2p[g.q1], pa, pb));
            }
            double score =
                decay[pa] * decay[pb] *
                (front_cost +
                 (extended.empty()
                      ? 0.0
                      : kExtendedSetWeight * ext_cost /
                            static_cast<double>(extended.size())));
            if (score < best_score) {
                best_score = score;
                best_swap = { pa, pb };
            }
        }
        apply_swap(best_swap.first, best_swap.second);
        ++swaps_since_progress;
    }

    result.finalLayout = l2p;
    return result;
}

RoutingResult
referenceMapToDevice(const QuantumCircuit &qc, const CouplingMap &device)
{
    std::vector<uint32_t> layout = greedyLayout(qc, device);
    const QuantumCircuit reversed = qc.inverse();
    for (int round = 0; round < 2; ++round) {
        const RoutingResult forward = referenceSabreRoute(qc, device, layout);
        const RoutingResult backward =
            referenceSabreRoute(reversed, device, forward.finalLayout);
        layout = backward.finalLayout;
    }
    return referenceSabreRoute(qc, device, layout);
}

} // namespace quclear
