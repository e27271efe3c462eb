#include "mapping/layout.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace quclear {

std::vector<uint32_t>
trivialLayout(uint32_t num_logical)
{
    std::vector<uint32_t> layout(num_logical);
    std::iota(layout.begin(), layout.end(), 0);
    return layout;
}

std::vector<uint32_t>
greedyLayout(const QuantumCircuit &qc, const CouplingMap &device)
{
    const uint32_t n = qc.numQubits();
    if (n > device.numQubits())
        throw std::invalid_argument(
            "greedyLayout: " + std::to_string(n) + "-qubit circuit on a " +
            std::to_string(device.numQubits()) + "-qubit device");

    // Interaction counts between logical pairs.
    std::vector<std::vector<uint32_t>> weight(n,
                                              std::vector<uint32_t>(n, 0));
    std::vector<uint64_t> degree(n, 0);
    for (const Gate &g : qc.gates()) {
        if (!isTwoQubit(g.type))
            continue;
        ++weight[g.q0][g.q1];
        ++weight[g.q1][g.q0];
        ++degree[g.q0];
        ++degree[g.q1];
    }

    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        if (degree[a] != degree[b])
            return degree[a] > degree[b];
        return a < b;
    });

    const uint32_t unplaced = device.numQubits();
    std::vector<uint32_t> layout(n, unplaced);
    std::vector<bool> used(device.numQubits(), false);

    for (uint32_t logical : order) {
        uint32_t best_phys = unplaced;
        uint64_t best_cost = ~0ULL;
        for (uint32_t phys = 0; phys < device.numQubits(); ++phys) {
            if (used[phys])
                continue;
            uint64_t cost = 0;
            for (uint32_t other = 0; other < n; ++other) {
                if (layout[other] == unplaced || !weight[logical][other])
                    continue;
                cost += uint64_t{ weight[logical][other] } *
                        device.distance(phys, layout[other]);
            }
            if (cost < best_cost) {
                best_cost = cost;
                best_phys = phys;
            }
        }
        assert(best_phys != unplaced);
        layout[logical] = best_phys;
        used[best_phys] = true;
    }
    return layout;
}

} // namespace quclear
