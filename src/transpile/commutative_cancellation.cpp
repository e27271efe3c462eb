#include "transpile/commutative_cancellation.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "transpile/gate_algebra.hpp"

namespace quclear {

namespace {

bool
touches(const Gate &g, uint32_t q)
{
    return g.q0 == q || (isTwoQubit(g.type) && g.q1 == q);
}

/** Same unordered qubit pair, for the symmetric 2q gates. */
bool
samePair(const Gate &a, const Gate &b)
{
    return (a.q0 == b.q0 && a.q1 == b.q1) ||
           (a.q0 == b.q1 && a.q1 == b.q0);
}

/** 1q gates the merge scan may move forward (every axis rotation). */
bool
isMovableRotation(const Gate &g)
{
    return !isTwoQubit(g.type) && gateAxis(g.type) != GateAxis::Other;
}

} // namespace

bool
isDiagonalGate(const Gate &g)
{
    switch (g.type) {
      case GateType::Z:
      case GateType::S:
      case GateType::Sdg:
      case GateType::Rz:
      case GateType::CZ:
        return true;
      default:
        return false;
    }
}

bool
gatesCommute(const Gate &a, const Gate &b)
{
    // Disjoint qubits always commute.
    const bool share0 = touches(b, a.q0);
    const bool share1 = isTwoQubit(a.type) && touches(b, a.q1);
    if (!share0 && !share1)
        return true;

    // Every gate commutes with an identical copy of itself.
    if (a == b)
        return true;

    // Diagonal gates commute with each other regardless of overlap.
    if (isDiagonalGate(a) && isDiagonalGate(b))
        return true;

    // 1q gates rotating about the same axis on the same qubit commute,
    // whatever the angles (e.g. Rx Rx, X SX, Ry Y).
    if (!isTwoQubit(a.type) && !isTwoQubit(b.type) && a.q0 == b.q0) {
        const GateAxis axis = gateAxis(a.type);
        return axis != GateAxis::Other && gateAxis(b.type) == axis;
    }

    auto is_x_axis = [](GateType t) {
        return t == GateType::X || t == GateType::SX ||
               t == GateType::SXdg || t == GateType::Rx;
    };

    // CX vs 1q on one of its qubits.
    auto cx_vs_1q = [&](const Gate &cx, const Gate &g1) {
        if (g1.q0 == cx.q0) // on control: diagonal gates commute
            return isDiagonalGate(g1);
        if (g1.q0 == cx.q1) // on target: X-axis gates commute
            return is_x_axis(g1.type);
        return true;
    };

    if (a.type == GateType::CX && !isTwoQubit(b.type))
        return cx_vs_1q(a, b);
    if (b.type == GateType::CX && !isTwoQubit(a.type))
        return cx_vs_1q(b, a);

    // CX vs CX: sharing only controls or only targets commutes.
    if (a.type == GateType::CX && b.type == GateType::CX) {
        const bool cross = a.q0 == b.q1 || a.q1 == b.q0;
        return !cross;
    }

    // CZ vs CX: commute unless the CX target lies on the CZ.
    if (a.type == GateType::CZ && b.type == GateType::CX)
        return b.q1 != a.q0 && b.q1 != a.q1;
    if (a.type == GateType::CX && b.type == GateType::CZ)
        return a.q1 != b.q0 && a.q1 != b.q1;

    // Swap is symmetric in its pair: it commutes with any gate that is
    // itself pair-symmetric on the same two qubits (Swap, CZ).
    if (a.type == GateType::Swap &&
        (b.type == GateType::Swap || b.type == GateType::CZ))
        return samePair(a, b);
    if (b.type == GateType::Swap && a.type == GateType::CZ)
        return samePair(a, b);

    // Conservative default: assume non-commuting.
    return false;
}

bool
CommutativeCancellation::run(QuantumCircuit &qc) const
{
    std::vector<Gate> gates(qc.gates().begin(), qc.gates().end());
    bool changed = false;

    // Iterate to a local fixpoint: each cancellation can unblock
    // another (e.g. an inner Swap pair hiding an outer CX pair).
    for (bool dirty = true; dirty;) {
        dirty = false;
        const size_t n_gates = gates.size();
        const size_t none = n_gates;
        std::vector<bool> removed(n_gates, false);

        // next0[i]/next1[i]: the next gate after i on its q0/q1 wire.
        // Gates on other wires commute with g and cannot match it, so
        // walking only g's wires visits the same candidates as a scan
        // over every later gate. Merges rewrite a 1q gate in place on
        // the same wire, so the links stay valid for the whole sweep.
        std::vector<size_t> next0(n_gates, none), next1(n_gates, none);
        {
            std::vector<size_t> first(qc.numQubits(), none);
            for (size_t i = n_gates; i-- > 0;) {
                const Gate &g = gates[i];
                next0[i] = first[g.q0];
                first[g.q0] = i;
                if (isTwoQubit(g.type)) {
                    next1[i] = first[g.q1];
                    first[g.q1] = i;
                }
            }
        }
        auto next_on = [&](size_t j, uint32_t wire) {
            return gates[j].q0 == wire ? next0[j] : next1[j];
        };

        for (size_t i = 0; i < n_gates; ++i) {
            if (removed[i])
                continue;
            const Gate &g = gates[i];

            if (g.type == GateType::CX || g.type == GateType::CZ ||
                g.type == GateType::Swap) {
                // 2q pair cancellation through commuting gates: the
                // candidates are the later gates on either wire, in
                // circuit order.
                size_t on0 = next0[i], on1 = next1[i];
                while (on0 != none || on1 != none) {
                    const size_t j = std::min(on0, on1);
                    if (on0 == j)
                        on0 = next_on(j, g.q0);
                    if (on1 == j)
                        on1 = next_on(j, g.q1);
                    if (removed[j])
                        continue;
                    const Gate &h = gates[j];
                    const bool same = h.type == g.type && h.q0 == g.q0 &&
                                      h.q1 == g.q1;
                    const bool symmetric =
                        (g.type == GateType::CZ ||
                         g.type == GateType::Swap) &&
                        h.type == g.type && h.q0 == g.q1 && h.q1 == g.q0;
                    if (same || symmetric) {
                        removed[i] = true;
                        removed[j] = true;
                        dirty = true;
                        break;
                    }
                    if (!gatesCommute(g, h))
                        break;
                }
            } else if (mergeRotations_ && isMovableRotation(g)) {
                // Rotation merging through commuting windows: move g
                // forward past gates it commutes with (Rz through CX
                // controls, Rx through CX targets, ...) onto the next
                // same-axis gate on its qubit.
                for (size_t j = next0[i]; j != none; j = next_on(j, g.q0)) {
                    if (removed[j])
                        continue;
                    const Gate &h = gates[j];
                    if (!isTwoQubit(h.type)) {
                        const CombinedGate c = combineSingleQubit(g, h);
                        if (c.combined) {
                            removed[i] = true;
                            if (c.identity)
                                removed[j] = true;
                            else
                                gates[j] = c.merged;
                            dirty = true;
                            break;
                        }
                    }
                    if (!gatesCommute(g, h))
                        break;
                }
            }
        }

        if (dirty) {
            changed = true;
            std::vector<Gate> kept;
            kept.reserve(gates.size());
            for (size_t i = 0; i < gates.size(); ++i)
                if (!removed[i])
                    kept.push_back(gates[i]);
            gates = std::move(kept);
        }
    }

    if (!changed)
        return false;
    qc.mutableGates() = std::move(gates);
    return true;
}

} // namespace quclear
