/**
 * @file
 * Initial layout selection: places logical qubits on physical qubits
 * before routing, preferring to co-locate strongly interacting pairs.
 */
#ifndef QUCLEAR_MAPPING_LAYOUT_HPP
#define QUCLEAR_MAPPING_LAYOUT_HPP

#include <cstdint>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "mapping/coupling_map.hpp"

namespace quclear {

/**
 * Greedy interaction-graph layout: logical qubits are placed in order of
 * two-qubit interaction count; each is assigned the free physical qubit
 * minimizing the distance-weighted sum to already-placed partners.
 *
 * @return layout[logical] = physical
 * @throws std::invalid_argument if the circuit has more qubits than the
 *         device
 */
std::vector<uint32_t> greedyLayout(const QuantumCircuit &qc,
                                   const CouplingMap &device);

/** Identity layout (logical i -> physical i). */
std::vector<uint32_t> trivialLayout(uint32_t num_logical);

} // namespace quclear

#endif // QUCLEAR_MAPPING_LAYOUT_HPP
