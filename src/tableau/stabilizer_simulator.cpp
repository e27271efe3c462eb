#include "tableau/stabilizer_simulator.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <map>

namespace quclear {

namespace {

// Row-parity masks of the interleaved layout: stabilizer rows sit at
// odd interleaved indices (2i + 1), destabilizers at even (2i).
constexpr uint64_t kStabRows = 0xAAAAAAAAAAAAAAAAULL;
constexpr uint64_t kDestabRows = 0x5555555555555555ULL;

} // namespace

uint64_t *
StabilizerSimulator::parityPlane(const PauliString &observable) const
{
    assert(observable.numQubits() == numQubits());
    const size_t words = tableau_.words_;
    if (scratch_.size() != 3 * words)
        scratch_.assign(3 * words, 0);
    tableau_.anticommuteParityPlane(observable, scratch_.data());
    return scratch_.data();
}

int
StabilizerSimulator::groupSign(const PauliString &observable,
                               uint64_t *parity) const
{
    for (uint32_t w = 0; w < tableau_.words_; ++w)
        parity[w] = (parity[w] & kDestabRows) << 1;
    const uint8_t phase = tableau_.rowProduct(parity, nullptr);
    const auto diff =
        static_cast<uint8_t>((phase - observable.phase()) & 3);
    assert(diff == 0 || diff == 2);
    return diff == 0 ? 1 : -1;
}

bool
StabilizerSimulator::measure(uint32_t q, Rng &rng)
{
    assert(q < numQubits());
    zProbe_.setOp(q, PauliOp::Z);
    const bool outcome = measurePauli(zProbe_, rng);
    zProbe_.setOp(q, PauliOp::I);
    return outcome;
}

uint64_t
StabilizerSimulator::measureAll(Rng &rng)
{
    assert(numQubits() <= 64);
    uint64_t bits = 0;
    for (uint32_t q = 0; q < numQubits(); ++q)
        if (measure(q, rng))
            bits |= 1ULL << q;
    return bits;
}

std::map<uint64_t, uint64_t>
StabilizerSimulator::sample(const QuantumCircuit &qc, size_t shots,
                            Rng &rng)
{
    std::map<uint64_t, uint64_t> counts;
    for (size_t s = 0; s < shots; ++s) {
        StabilizerSimulator sim(qc.numQubits());
        sim.applyCircuit(qc);
        ++counts[sim.measureAll(rng)];
    }
    return counts;
}

bool
StabilizerSimulator::measurePauli(const PauliString &observable, Rng &rng)
{
    assert(observable.phase() == 0 || observable.phase() == 2);
    uint64_t *parity = parityPlane(observable);
    const uint32_t words = tableau_.words_;

    // Random outcome iff some stabilizer anticommutes with the
    // observable. The pivot is the lowest such stabilizer — ascending
    // odd bits in ascending words is ascending i.
    for (uint32_t w = 0; w < words; ++w) {
        const uint64_t bits = parity[w] & kStabRows;
        if (bits == 0)
            continue;
        const uint32_t pivot_row =
            64 * w + static_cast<uint32_t>(std::countr_zero(bits));
        // Every other anticommuting row (the parity plane minus the
        // pivot pair) is multiplied by the pivot stabilizer to restore
        // commutation; then the pivot pair collapses to (old
        // stabilizer, +-observable).
        parity[w] &= ~(3ULL << ((pivot_row - 1) & 63));
        tableau_.multiplyMaskedByRow(pivot_row, parity, parity + words,
                                     parity + 2 * words);
        const bool outcome = rng() & 1;
        tableau_.collapseAtPivot(pivot_row, observable,
                                 (observable.phase() == 2) != outcome);
        return outcome;
    }

    // Deterministic: the observable (up to sign) is in the stabilizer
    // group; its sign is the outcome.
    return groupSign(observable, parity) < 0;
}

void
StabilizerSimulator::reset(uint32_t q, Rng &rng)
{
    if (measure(q, rng))
        tableau_.appendX(q); // flip back to |0>
}

int
StabilizerSimulator::expectation(const PauliString &observable) const
{
    // <P> is +-1 iff +-P is in the stabilizer group, else 0. P is in
    // the group iff it commutes with every stabilizer.
    uint64_t *parity = parityPlane(observable);
    for (uint32_t w = 0; w < tableau_.words_; ++w)
        if (parity[w] & kStabRows)
            return 0;
    return groupSign(observable, parity);
}

} // namespace quclear
