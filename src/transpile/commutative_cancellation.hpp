/**
 * @file
 * Commutation-aware two-qubit gate cancellation: a CX can cancel a later
 * identical CX when every intervening gate on its qubits provably
 * commutes with it (e.g. Rz on the control, X-axis gates on the target,
 * CXs sharing a control or sharing a target).
 */
#ifndef QUCLEAR_TRANSPILE_COMMUTATIVE_CANCELLATION_HPP
#define QUCLEAR_TRANSPILE_COMMUTATIVE_CANCELLATION_HPP

#include "transpile/pass.hpp"

#include <string>

namespace quclear {

/**
 * Cancels CX/CZ/Swap pairs separated by commuting gates, and merges
 * single-qubit rotations through commuting windows (Rz through CX
 * controls, Rx through CX targets, ...). Rotation merging changes the
 * number and order of Rz gates; callers that rely on the extractor's
 * Rz-to-term mapping (core/parameterized.hpp) construct the pass with
 * merge_rotations = false to keep every rotation in place.
 *
 * Each forward scan walks only the gates on the candidate's own wires
 * (per-wire successor links); gates elsewhere commute with it and can
 * never match it, so skipping them changes no decision.
 */
class CommutativeCancellation : public Pass
{
  public:
    explicit CommutativeCancellation(bool merge_rotations = true)
        : mergeRotations_(merge_rotations)
    {
    }
    std::string name() const override
    {
        return "commutative-cancellation";
    }
    bool run(QuantumCircuit &qc) const override;

  private:
    bool mergeRotations_;
};

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_COMMUTATIVE_CANCELLATION_HPP
