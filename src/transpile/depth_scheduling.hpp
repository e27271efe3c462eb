/**
 * @file
 * Commutation-aware depth scheduling.
 *
 * Entangling depth (the Table III metric) depends on gate order even
 * among commuting gates: a gate placed early can serialize an otherwise
 * parallel chain. This pass rebuilds the circuit by critical-path list
 * scheduling over the commutation DAG — gates are emitted level by
 * level, longest-path-first — which never changes the unitary (only
 * provably commuting gates are reordered) and never increases depth.
 *
 * Run DAG. Every gate has a commutation class on each of its qubits
 * (operandAxis: Z for Z/S/Sdg/Rz, CX controls and CZ; X for
 * X/SX/SXdg/Rx and CX targets; Y for Y/Ry; H for H). Two non-Swap gates
 * commute exactly when their classes agree on every shared qubit, so
 * the gates on one qubit fall into runs of one class, and every member
 * of a run depends on every member of the run before it. A gate waits
 * for at most one run per operand: the DAG is kept as run counters, not
 * edges, and costs O(G) to build. The level loop keeps the ready list
 * sorted and sorts only each level's newly readied gates, so the whole
 * pass is O(G log G).
 *
 * Closure invariance. The pairwise DAG (an edge from every earlier
 * non-commuting gate on a shared qubit) and the run DAG have the same
 * transitive closure: each run-DAG edge joins gates of different
 * classes, and two gates of different classes on a qubit are separated
 * by a chain of adjacent runs. The schedule depends only on that
 * closure — ready sets follow reachability, and the priority (the
 * longest chain of two-qubit gates to a sink) is the same on every DAG
 * with that closure — and on the (priority desc, index asc) order, so
 * the output matches the pairwise scheduler gate for gate.
 *
 * Swap. Swap commutes only with Swap and CZ on the same pair, a
 * non-transitive rule, so each Swap is a run of its own that nothing
 * joins. For circuits with Swap this orders a little more than the
 * pairwise DAG did (a Swap no longer floats past a same-pair Swap or
 * CZ). The compiled circuits QuClear schedules contain no Swap.
 */
#ifndef QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP
#define QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP

#include "transpile/pass.hpp"

#include <string>

namespace quclear {

/** Critical-path list scheduler over the commutation DAG. */
class DepthScheduling : public Pass
{
  public:
    std::string name() const override { return "depth-scheduling"; }
    bool run(QuantumCircuit &qc) const override;
};

} // namespace quclear

#endif // QUCLEAR_TRANSPILE_DEPTH_SCHEDULING_HPP
