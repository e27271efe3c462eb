/**
 * @file
 * Reference depth scheduler — the seed DepthScheduling pass, kept
 * verbatim.
 *
 * It builds the dependency DAG with an edge from every earlier
 * non-commuting gate on each shared qubit (O(G^2/n) edges, each
 * deduplicated by a linear scan) and re-sorts the whole ready list on
 * every level. The production pass (transpile/depth_scheduling.hpp)
 * builds a smaller DAG with the same transitive closure, so on
 * Swap-free circuits the two emit identical circuits; this class is the
 * oracle for that differential test (test_transpile) and the baseline
 * bench_micro measures against. Do not use it on hot paths.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP
#define QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP

#include <string>

#include "transpile/pass.hpp"

namespace quclear {

/** Critical-path list scheduler over the full commutation DAG. */
class ReferenceDepthScheduling : public Pass
{
  public:
    std::string name() const override { return "reference-depth-scheduling"; }
    bool run(QuantumCircuit &qc) const override;
};

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_DEPTH_SCHEDULING_HPP
