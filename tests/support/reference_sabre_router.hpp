/**
 * @file
 * Reference SABRE router — the seed sabreRoute, kept verbatim.
 *
 * It rebuilds the front layer (a std::set over every logical qubit) on
 * every execution round and before every SWAP decision, rescans the
 * gate list from the oldest unexecuted gate for the extended set,
 * collects candidates in a std::set and relabels the layout with a
 * full scan per SWAP. The production router (mapping/sabre_router.hpp)
 * keeps the same state incrementally and must make every routing
 * decision identically; these functions are the oracle for that
 * differential test (test_mapping) and the baseline bench_micro
 * measures against. Do not use them on hot paths.
 */
#ifndef QUCLEAR_TESTS_REFERENCE_SABRE_ROUTER_HPP
#define QUCLEAR_TESTS_REFERENCE_SABRE_ROUTER_HPP

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "mapping/coupling_map.hpp"
#include "mapping/sabre_router.hpp"

namespace quclear {

/**
 * Route a logical circuit onto a device with the seed router.
 * @param initial_layout layout[logical] = physical (size = numQubits of
 *        qc); must be injective, and the device connected.
 */
RoutingResult referenceSabreRoute(const QuantumCircuit &qc,
                                  const CouplingMap &device,
                                  const std::vector<uint32_t> &initial_layout);

/** mapToDevice's schedule (greedy layout, 2 forward/backward rounds,
 *  a final forward pass) with every pass run by referenceSabreRoute. */
RoutingResult referenceMapToDevice(const QuantumCircuit &qc,
                                   const CouplingMap &device);

} // namespace quclear

#endif // QUCLEAR_TESTS_REFERENCE_SABRE_ROUTER_HPP
