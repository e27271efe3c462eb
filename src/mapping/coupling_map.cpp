#include "mapping/coupling_map.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

namespace quclear {

namespace {
constexpr uint32_t kUnreachable = std::numeric_limits<uint32_t>::max();
}

CouplingMap::CouplingMap(uint32_t num_qubits,
                         std::vector<std::pair<uint32_t, uint32_t>> edges)
    : numQubits_(num_qubits), edges_(std::move(edges)), adj_(num_qubits)
{
    for (const auto &[a, b] : edges_) {
        assert(a < num_qubits && b < num_qubits && a != b);
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    }
    for (auto &nbrs : adj_)
        std::sort(nbrs.begin(), nbrs.end());
    computeDistances();
}

void
CouplingMap::computeDistances()
{
    dist_.assign(size_t{ numQubits_ } * numQubits_, kUnreachable);
    for (uint32_t s = 0; s < numQubits_; ++s) {
        uint32_t *row = &dist_[size_t{ s } * numQubits_];
        row[s] = 0;
        std::deque<uint32_t> queue{ s };
        while (!queue.empty()) {
            const uint32_t v = queue.front();
            queue.pop_front();
            for (uint32_t w : adj_[v]) {
                if (row[w] == kUnreachable) {
                    row[w] = row[v] + 1;
                    queue.push_back(w);
                }
            }
        }
    }
}

bool
CouplingMap::isConnected() const
{
    for (uint32_t q = 0; q < numQubits_; ++q)
        if (dist_[q] == kUnreachable) // row 0
            return false;
    return true;
}

} // namespace quclear
