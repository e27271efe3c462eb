/**
 * @file
 * Shared single-qubit gate algebra for the rewrite passes: axis
 * classification and the pairwise combine rules (inverse pairs,
 * same-axis rotation merging, Clifford mnemonic folding) used by
 * SingleQubitFusion, CommutativeCancellation, and PhaseRotationFolding.
 * All combines preserve the unitary up to global phase.
 */
#ifndef QUCLEAR_TRANSPILE_GATE_ALGEBRA_HPP
#define QUCLEAR_TRANSPILE_GATE_ALGEBRA_HPP

#include <optional>

#include "circuit/gate.hpp"

namespace quclear {

/** Rotation axis of a 1q gate, for commutation and merge decisions. */
enum class GateAxis
{
    X,
    Y,
    Z,
    Other, //!< H, or not a single-qubit gate
};

/** Axis of a gate type (H and two-qubit gates map to Other). */
GateAxis gateAxis(GateType t);

/**
 * Commutation class of a gate on one of its operands: @p on_q1 selects
 * q1 (the CX target) instead of q0. Single-qubit gates take their
 * gateAxis; CX is Z on its control and X on its target; CZ is Z on
 * both qubits; H and Swap are Other.
 *
 * For any two gates that are not Swap, gatesCommute holds exactly when
 * their classes agree on every shared qubit (H agrees only with H, and
 * identical gates commute). DepthScheduling builds its dependency DAG
 * on this rule; test_transpile checks it exhaustively against
 * gatesCommute.
 */
GateAxis operandAxis(GateType t, bool on_q1);

/**
 * Rotation-equivalent angle of a 1q gate about its axis, up to global
 * phase: S = Rz(pi/2), X = Rx(pi), Y = Ry(pi), ... For parameterized
 * types the gate's own angle applies; nullopt for H / two-qubit gates.
 */
std::optional<double> axisAngle(const Gate &g);

/** True when theta is ~0 mod 2*pi (the rotation is the identity). */
bool angleIsTrivial(double theta);

/**
 * Canonical gate for a rotation of @p theta about @p axis on @p qubit:
 * a Clifford mnemonic (S/Z/Sdg, SX/X/SXdg, Y) when theta is a multiple
 * of pi/2 with one, otherwise the plain rotation gate. Equals the
 * rotation up to global phase.
 */
Gate axisRotationGate(GateAxis axis, uint32_t qubit, double theta);

/** Result of combining two adjacent 1q gates on the same qubit. */
struct CombinedGate
{
    bool combined = false; //!< second.first was rewritten as one gate
    bool identity = false; //!< the product is the identity (global phase)
    Gate merged{ GateType::H, 0 };
};

/**
 * Try to rewrite the product second*first (i.e. @p first applied first)
 * as a single gate, up to global phase. Handles inverse pairs (H H,
 * S Sdg, ...) and same-axis folding on all three axes.
 */
CombinedGate combineSingleQubit(const Gate &first, const Gate &second);

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_GATE_ALGEBRA_HPP
