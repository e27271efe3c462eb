/**
 * @file
 * SABRE-style SWAP router for limited-connectivity devices (Fig. 11).
 *
 * Keeps a front layer of dependency-free gates; executable gates are
 * emitted eagerly, and when the front is blocked the router inserts the
 * SWAP that minimizes a distance heuristic over the front layer plus a
 * lookahead window (the next 20 unexecuted two-qubit gates outside the
 * front, weight 0.5), with per-qubit decay to avoid oscillation. A
 * shortest-path fallback guarantees termination.
 *
 * All routing state is kept incrementally, so a SWAP decision costs
 * O(front + lookahead + candidates), not O(qubits + gates):
 *  - the front comes from ready counts (unexecuted predecessors per
 *    gate); an execution round walks a snapshot of the sorted front,
 *    and the gates it readies are merged in only after the round;
 *  - the lookahead walks skip pointers (a union-find over gate indices
 *    with path halving) past executed and single-qubit gates;
 *  - candidates are visited in lexicographic order straight from a
 *    bitset of front qubits and their neighbours, and each is scored
 *    as a delta over the gates on its two qubits;
 *  - an inverse layout makes each SWAP's relabelling O(1).
 * The router makes the seed algorithm's decisions exactly: the same
 * routed gates, swapCount and finalLayout for every input (the seed
 * router is kept as referenceSabreRoute in tests/support, and
 * test_mapping compares the two).
 */
#ifndef QUCLEAR_MAPPING_SABRE_ROUTER_HPP
#define QUCLEAR_MAPPING_SABRE_ROUTER_HPP

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "mapping/coupling_map.hpp"

namespace quclear {

/** Routing output: the physical circuit and bookkeeping. */
struct RoutingResult
{
    /** Circuit over physical qubits; every 2q gate is on an edge. */
    QuantumCircuit routed;

    /** Number of SWAP gates inserted (each costs 3 CNOTs). */
    size_t swapCount = 0;

    /** Final logical -> physical map after routing. */
    std::vector<uint32_t> finalLayout;
};

/**
 * Route a logical circuit onto a device.
 * @param initial_layout layout[logical] = physical (size = numQubits of qc)
 * @throws std::invalid_argument if the layout has the wrong size, names
 *         a qubit outside the device or is not injective, or if the
 *         device is disconnected
 */
RoutingResult sabreRoute(const QuantumCircuit &qc,
                         const CouplingMap &device,
                         const std::vector<uint32_t> &initial_layout);

/**
 * Convenience: greedy layout + routing, returning the physical circuit.
 * @throws std::invalid_argument if the circuit has more qubits than the
 *         device, or the device is disconnected
 */
RoutingResult mapToDevice(const QuantumCircuit &qc,
                          const CouplingMap &device);

} // namespace quclear

#endif // QUCLEAR_MAPPING_SABRE_ROUTER_HPP
