/**
 * @file
 * Phase-polynomial rotation folding: merges Z-axis rotations that act
 * on the same GF(2) parity of wire values, however far apart they sit
 * in a CX/X/Swap stream. This is the full-strength version of
 * "Rz-angle merging through CX controls": a CX re-routes parities but
 * never creates or destroys phase, so two rotations keyed by the same
 * parity always merge (e.g. CX Rz(t,a) CX ... CX Rz(t,b) CX folds a+b).
 */
#ifndef QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP
#define QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP

#include <string>

#include "transpile/pass.hpp"

namespace quclear {

/**
 * Folds parity-equivalent diagonal rotations (Rz, S, Sdg, Z).
 *
 * The pass walks the circuit tracking, per wire, the affine function of
 * "symbol" values it currently carries: CX xors parities, Swap permutes
 * them, X toggles negation, CZ and other diagonal gates are transparent.
 * Any other gate (H, Rx, ...) makes the wire's value untrackable and
 * allocates a fresh symbol for it — the standard phase-folding
 * invalidation, which is what keeps merging across those seams sound.
 * Rotations with an identical parity key are summed into the first
 * occurrence (signs adjusted for negation); zero sums vanish entirely.
 * Two-qubit structure is never touched, so gate count and two-qubit
 * count never increase.
 *
 * A parity is a sorted list of symbol ids, so a CX costs a merge over
 * the two wires' supports (about 11 ids on average on compiled
 * programs) rather than a pass over every symbol, and keys are looked
 * up in a hash map. Groups are numbered in order of first occurrence,
 * so the output does not depend on the map.
 */
class PhaseRotationFolding : public Pass
{
  public:
    std::string name() const override { return "phase-rotation-folding"; }
    bool run(QuantumCircuit &qc) const override;
};

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_PHASE_ROTATION_FOLDING_HPP
