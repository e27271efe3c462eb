#include "transpile/phase_rotation_folding.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "transpile/gate_algebra.hpp"

namespace quclear {

namespace {

constexpr double kPi = 3.14159265358979323846;

/** Phase contribution of a diagonal 1q gate, in diag(1, e^{i phi}) form. */
bool
diagonalPhase(const Gate &g, double &phi)
{
    switch (g.type) {
      case GateType::Rz:  phi = g.angle; return true;
      case GateType::S:   phi = kPi / 2; return true;
      case GateType::Sdg: phi = -kPi / 2; return true;
      case GateType::Z:   phi = kPi; return true;
      default:            return false;
    }
}

/** Hash of a parity key (a sorted symbol-id list). */
struct SymbolSetHash
{
    size_t
    operator()(const std::vector<uint32_t> &ids) const
    {
        uint64_t h = ids.size();
        for (uint32_t id : ids)
            h = (h ^ id) * 0x9E3779B97F4A7C15ull;
        return static_cast<size_t>(h ^ (h >> 32));
    }
};

} // namespace

bool
PhaseRotationFolding::run(QuantumCircuit &qc) const
{
    const auto &gates = qc.gates();
    const size_t n_gates = gates.size();
    const uint32_t n = qc.numQubits();
    if (n == 0 || n_gates == 0)
        return false;

    // parity[w]: sorted ids of the symbols whose xor is wire w's current
    // value; neg[w]: the affine constant (X gates toggle it). There are
    // at most n symbols plus two per gate.
    std::vector<std::vector<uint32_t>> parity(n);
    std::vector<uint8_t> neg(n, 0);
    for (uint32_t q = 0; q < n; ++q)
        parity[q].push_back(q);
    uint32_t next_symbol = n;
    std::vector<uint32_t> merged; // CX work buffer, swapped with the target

    auto invalidate = [&](uint32_t w) {
        parity[w].assign(1, next_symbol++);
        neg[w] = 0;
    };

    struct Group
    {
        size_t first;     //!< gate index of the first member
        double phase;     //!< summed phase in un-negated key space
        uint32_t members; //!< number of folded rotations
        uint8_t firstNeg; //!< wire negation at the first member
    };
    std::vector<Group> groups;
    std::unordered_map<std::vector<uint32_t>, size_t, SymbolSetHash>
        key_to_group;
    // group_of[i] >= 0: gate i is a member of that rotation group.
    std::vector<std::ptrdiff_t> group_of(n_gates, -1);

    for (size_t i = 0; i < n_gates; ++i) {
        const Gate &g = gates[i];
        double phi = 0.0;
        if (diagonalPhase(g, phi)) {
            const double keyed = neg[g.q0] ? -phi : phi;
            auto [it, inserted] =
                key_to_group.try_emplace(parity[g.q0], groups.size());
            if (inserted)
                groups.push_back({ i, keyed, 1, neg[g.q0] });
            else {
                groups[it->second].phase += keyed;
                ++groups[it->second].members;
            }
            group_of[i] = static_cast<std::ptrdiff_t>(it->second);
            continue;
        }
        switch (g.type) {
          case GateType::CX:
            merged.clear();
            std::set_symmetric_difference(
                parity[g.q1].begin(), parity[g.q1].end(),
                parity[g.q0].begin(), parity[g.q0].end(),
                std::back_inserter(merged));
            parity[g.q1].swap(merged);
            neg[g.q1] = static_cast<uint8_t>(neg[g.q1] ^ neg[g.q0]);
            break;
          case GateType::Swap:
            parity[g.q0].swap(parity[g.q1]);
            std::swap(neg[g.q0], neg[g.q1]);
            break;
          case GateType::X:
            neg[g.q0] = static_cast<uint8_t>(neg[g.q0] ^ 1);
            break;
          case GateType::CZ:
            break; // diagonal: transparent to parity tracking
          default:
            invalidate(g.q0);
            if (isTwoQubit(g.type))
                invalidate(g.q1);
            break;
        }
    }

    // Rewrite: groups with several members fold into their first slot;
    // trivial sums (and trivial singletons, e.g. rz(q, 0)) vanish.
    bool changed = false;
    for (const Group &grp : groups) {
        if (grp.members > 1 || angleIsTrivial(grp.phase))
            changed = true;
    }
    if (!changed)
        return false;

    std::vector<Gate> kept;
    kept.reserve(n_gates);
    for (size_t i = 0; i < n_gates; ++i) {
        if (group_of[i] < 0) {
            kept.push_back(gates[i]);
            continue;
        }
        const Group &grp = groups[static_cast<size_t>(group_of[i])];
        if (i != grp.first)
            continue; // folded into the first member
        if (grp.members == 1 && !angleIsTrivial(grp.phase)) {
            kept.push_back(gates[i]); // untouched singleton
            continue;
        }
        if (angleIsTrivial(grp.phase))
            continue; // rotations cancelled outright
        const double theta = grp.firstNeg ? -grp.phase : grp.phase;
        kept.push_back(axisRotationGate(GateAxis::Z, gates[i].q0, theta));
    }
    qc.mutableGates() = std::move(kept);
    return true;
}

} // namespace quclear
