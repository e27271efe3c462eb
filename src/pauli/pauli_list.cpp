#include "pauli/pauli_list.hpp"

#include <cassert>
#include <cstdint>
#include <vector>

namespace quclear {

std::vector<std::vector<size_t>>
commutingBlocks(const std::vector<PauliTerm> &terms)
{
    // The open block, bit-sliced: bit k of x_cols[q] (z_cols[q]) is the
    // x (z) bit of the block's k-th member at qubit q. A term's
    // anticommutation vector over the members is the XOR, over its
    // support, of z_cols[q] where it has x_q and x_cols[q] where it has
    // z_q; it joins iff that vector is zero. One pass over the term's
    // support replaces one commutesWith call per member.
    const uint32_t n = numQubitsOf(terms);
    std::vector<std::vector<uint64_t>> x_cols(n), z_cols(n);
    std::vector<uint32_t> touched; // qubits with a non-empty column
    std::vector<uint64_t> anti;
    std::vector<std::vector<size_t>> blocks;
    for (size_t i = 0; i < terms.size(); ++i) {
        const PauliString &p = terms[i].pauli;
        bool fits = !blocks.empty();
        if (fits) {
            anti.assign((blocks.back().size() + 63) / 64, 0);
            p.forEachSupport([&](uint32_t q, PauliOp op) {
                const auto code = static_cast<uint8_t>(op);
                if (code & 1)
                    for (size_t w = 0; w < z_cols[q].size(); ++w)
                        anti[w] ^= z_cols[q][w];
                if (code & 2)
                    for (size_t w = 0; w < x_cols[q].size(); ++w)
                        anti[w] ^= x_cols[q][w];
            });
            for (const uint64_t w : anti)
                fits = fits && w == 0;
        }
        if (!fits) {
            for (const uint32_t q : touched) {
                x_cols[q].clear();
                z_cols[q].clear();
            }
            touched.clear();
            blocks.emplace_back();
        }
        const size_t k = blocks.back().size();
        p.forEachSupport([&](uint32_t q, PauliOp op) {
            if (x_cols[q].empty())
                touched.push_back(q);
            x_cols[q].resize(k / 64 + 1, 0);
            z_cols[q].resize(k / 64 + 1, 0);
            const auto code = static_cast<uint8_t>(op);
            x_cols[q][k / 64] |= static_cast<uint64_t>(code & 1) << (k % 64);
            z_cols[q][k / 64] |= static_cast<uint64_t>(code >> 1) << (k % 64);
        });
        blocks.back().push_back(i);
    }
    return blocks;
}

size_t
totalWeight(const std::vector<PauliTerm> &terms)
{
    size_t w = 0;
    for (const auto &t : terms)
        w += t.pauli.weight();
    return w;
}

uint32_t
numQubitsOf(const std::vector<PauliTerm> &terms)
{
    if (terms.empty())
        return 0;
    uint32_t n = terms.front().pauli.numQubits();
    for (const auto &t : terms) {
        assert(t.pauli.numQubits() == n);
        (void)t;
    }
    return n;
}

} // namespace quclear
