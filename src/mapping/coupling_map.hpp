/**
 * @file
 * Device connectivity graph with all-pairs shortest-path distances,
 * used by the SABRE-style router for the limited-connectivity mapping
 * experiments of Fig. 11. Distances live in one row-major
 * numQubits x numQubits array, so distance() and adjacent() are single
 * loads on the router's per-SWAP scoring path.
 */
#ifndef QUCLEAR_MAPPING_COUPLING_MAP_HPP
#define QUCLEAR_MAPPING_COUPLING_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace quclear {

/** Undirected device coupling graph. */
class CouplingMap
{
  public:
    /** Build from an edge list over @p num_qubits physical qubits. */
    CouplingMap(uint32_t num_qubits,
                std::vector<std::pair<uint32_t, uint32_t>> edges);

    uint32_t numQubits() const { return numQubits_; }

    const std::vector<std::pair<uint32_t, uint32_t>> &
    edges() const
    {
        return edges_;
    }

    /** Physical neighbours of a qubit. */
    const std::vector<uint32_t> &neighbors(uint32_t q) const
    {
        return adj_[q];
    }

    /** True iff p and q share an edge. */
    bool adjacent(uint32_t p, uint32_t q) const { return distance(p, q) == 1; }

    /** BFS hop distance between two physical qubits (UINT32_MAX if
     *  they lie in different components). */
    uint32_t distance(uint32_t p, uint32_t q) const
    {
        return dist_[size_t{ p } * numQubits_ + q];
    }

    /** True iff the graph is connected. */
    bool isConnected() const;

  private:
    void computeDistances();

    uint32_t numQubits_;
    std::vector<std::pair<uint32_t, uint32_t>> edges_;
    std::vector<std::vector<uint32_t>> adj_;
    std::vector<uint32_t> dist_; //!< dist_[p * numQubits_ + q]
};

} // namespace quclear

#endif // QUCLEAR_MAPPING_COUPLING_MAP_HPP
