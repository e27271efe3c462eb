/**
 * @file
 * Reference level-3 passes — the seed PhaseRotationFolding and
 * CommutativeCancellation, kept verbatim.
 *
 * referencePhaseRotationFolding keys every rotation by a dense bitset
 * sized for every symbol the pass will ever allocate, so each CX xors
 * and each new group copies a key whose length grows with the number
 * of untrackable gates, and the keys sit in a std::map.
 * referenceCommutativeCancellation scans forward from each gate over
 * every later gate, including gates on disjoint qubits, which can
 * neither match nor block. The production passes
 * (transpile/phase_rotation_folding.hpp, transpile/commutative_cancellation.hpp)
 * keep sparse symbol lists and walk per-wire successors, and must
 * rewrite every circuit identically; these functions are the oracle for
 * that differential test (test_transpile) and the baseline bench_micro
 * measures against. Do not use them on hot paths.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP
#define QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP

#include "circuit/quantum_circuit.hpp"
#include "transpile/pass_manager.hpp"

namespace quclear {

/** The seed PhaseRotationFolding::run. @return true iff qc changed */
bool referencePhaseRotationFolding(QuantumCircuit &qc);

/** The seed CommutativeCancellation::run. @return true iff qc changed */
bool referenceCommutativeCancellation(QuantumCircuit &qc,
                                      bool merge_rotations = true);

/** PassManager::level3() with the two reference passes swapped in. */
PassManager referenceLevel3();

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_LEVEL3_HPP
