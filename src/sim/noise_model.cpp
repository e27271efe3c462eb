#include "sim/noise_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "util/worker_pool.hpp"

namespace quclear {

namespace {

/** Shots per block: a block is the unit of parallel work and of result
 *  combination. The combine is an exact integer sum in block order, so
 *  results are bit-identical for every thread count (and would be for
 *  any block size). */
constexpr size_t kShotBlock = 1024;

/** The observable's letters at a fault site, pulled back through every
 *  later gate (identity = 0 in the x | z<<1 code). */
struct SiteLetters
{
    uint8_t twoQubit;
    uint8_t l0;
    uint8_t l1;
};

/** Inverse of a Clifford gate (all are self-inverse except the
 *  quarter-turns, which inverseType transposes). */
Gate
inverseGate(const Gate &g)
{
    Gate inv = g;
    inv.type = inverseType(g.type);
    return inv;
}

/** The observable pulled back through a Clifford circuit: its letters
 *  at every fault site and its ideal expectation. */
struct PullBack
{
    std::vector<SiteLetters> sites;

    /** <0...0| U~ O U |0...0>: 0, +1 or -1. */
    int ideal = 0;
};

/**
 * Heisenberg fault pull-back: conjugate the observable backwards
 * through the circuit once, recording its letters at every fault site
 * (= after every gate). A fault F at site j commutes or anticommutes
 * with the pulled-back observable O_j, so a trajectory's expectation is
 * the ideal value times (-1)^k with k the number of anticommuting
 * faults — no per-trajectory simulation.
 */
PullBack
pullBack(const QuantumCircuit &qc, const PauliString &observable)
{
    assert(qc.isClifford() &&
           "noisy stabilizer simulation needs a Clifford circuit");
    assert(observable.numQubits() == qc.numQubits());
    assert((observable.phase() & 1) == 0 &&
           "noisy expectation needs a Hermitian observable");
    const auto &gates = qc.gates();
    PullBack back;
    back.sites.resize(gates.size());
    PauliString pulled = observable;
    for (size_t j = gates.size(); j-- > 0;) {
        const Gate &g = gates[j];
        SiteLetters &site = back.sites[j];
        site.twoQubit = isTwoQubit(g.type) ? 1 : 0;
        site.l0 = static_cast<uint8_t>(
            static_cast<uint8_t>(pulled.xBit(g.q0)) |
            (static_cast<uint8_t>(pulled.zBit(g.q0)) << 1));
        site.l1 = site.twoQubit
                      ? static_cast<uint8_t>(
                            static_cast<uint8_t>(pulled.xBit(g.q1)) |
                            (static_cast<uint8_t>(pulled.zBit(g.q1)) << 1))
                      : 0;
        applyGateToPauli(pulled, inverseGate(g));
    }

    // The ideal expectation is zero if the fully pulled-back observable
    // has any X/Y, else its (real) sign.
    uint64_t any_x = 0;
    for (const uint64_t w : pulled.xWords())
        any_x |= w;
    if (any_x == 0) {
        assert(pulled.phase() == 0 || pulled.phase() == 2);
        back.ideal = pulled.phase() == 0 ? 1 : -1;
    }
    return back;
}

/** 1 iff the fault letter flips the trajectory sign at this site:
 *  both letters non-identity and different anticommute. */
inline unsigned
flipsSign(PauliOp fault, uint8_t site_letter)
{
    const auto f = static_cast<uint8_t>(fault);
    return static_cast<unsigned>(f != 0 && site_letter != 0 &&
                                 f != site_letter);
}

} // namespace

double
NoiseModel::estimatedSuccessProbability(const QuantumCircuit &qc) const
{
    return std::exp(-logInfidelity(qc));
}

double
NoiseModel::logInfidelity(const QuantumCircuit &qc) const
{
    const double one_q = -std::log1p(-singleQubitError);
    const double two_q = -std::log1p(-twoQubitError);
    return static_cast<double>(qc.singleQubitCount()) * one_q +
           static_cast<double>(qc.twoQubitCount(true)) * two_q;
}

std::array<double, 4>
NoiseModel::singleQubitChannel() const
{
    const double p = singleQubitError;
    return { 1.0 - p, p / 3.0, p / 3.0, p / 3.0 };
}

std::array<double, 16>
NoiseModel::twoQubitChannel() const
{
    const double p = twoQubitError;
    std::array<double, 16> channel;
    channel[0] = 1.0 - p;
    for (size_t k = 1; k < channel.size(); ++k)
        channel[k] = p / 15.0;
    return channel;
}

PauliOp
NoiseModel::sampleSingleQubitError(Rng &rng) const
{
    if (!rng.bernoulli(singleQubitError))
        return PauliOp::I;
    switch (rng.uniformInt(3)) {
      case 0: return PauliOp::X;
      case 1: return PauliOp::Y;
      default: return PauliOp::Z;
    }
}

std::pair<PauliOp, PauliOp>
NoiseModel::sampleTwoQubitError(Rng &rng) const
{
    if (!rng.bernoulli(twoQubitError))
        return { PauliOp::I, PauliOp::I };
    // Uniform over the 15 non-identity two-qubit Paulis; the letter
    // index uses the same {I, X, Y, Z} order as twoQubitChannel().
    const uint64_t k = 1 + rng.uniformInt(15);
    static constexpr PauliOp kLetter[4] = { PauliOp::I, PauliOp::X,
                                            PauliOp::Y, PauliOp::Z };
    return { kLetter[k & 3], kLetter[k >> 2] };
}

double
NoiseModel::exactStabilizerExpectation(const QuantumCircuit &qc,
                                       const PauliString &observable) const
{
    const PullBack back = pullBack(qc, observable);
    if (back.ideal == 0)
        return 0.0;
    // Each fault site flips the trajectory sign independently with
    // probability q_j, so <O> = ideal * prod_j (1 - 2 q_j). Two of the
    // three 1q faults anticommute with a non-identity letter
    // (q = 2 p1 / 3), and 8 of the 15 2q faults anticommute with a
    // non-identity letter pair (q = 8 p2 / 15); a site the observable
    // does not touch has q = 0.
    size_t touched_1q = 0;
    size_t touched_2q = 0;
    for (const SiteLetters &site : back.sites) {
        if (site.twoQubit)
            touched_2q += (site.l0 | site.l1) != 0;
        else
            touched_1q += site.l0 != 0;
    }
    return static_cast<double>(back.ideal) *
           std::pow(1.0 - 4.0 * singleQubitError / 3.0,
                    static_cast<double>(touched_1q)) *
           std::pow(1.0 - 16.0 * twoQubitError / 15.0,
                    static_cast<double>(touched_2q));
}

uint64_t
NoiseModel::shotSeed(uint64_t seed, uint64_t shot)
{
    // SplitMix64 finalizer over a golden-ratio counter stride: the
    // same seeding recipe Rng's constructor expands states with, so
    // per-shot streams are decorrelated even for adjacent shots.
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (shot + 1);
    z ^= z >> 30;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    z *= 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z;
}

NoiseModel::NoisySimResult
NoiseModel::noisyStabilizerExpectation(const QuantumCircuit &qc,
                                       const PauliString &observable,
                                       size_t shots, Rng &rng) const
{
    SamplerOptions options;
    options.seed = rng();
    return noisyStabilizerExpectation(qc, observable, shots, options);
}

NoiseModel::NoisySimResult
NoiseModel::noisyStabilizerExpectation(const QuantumCircuit &qc,
                                       const PauliString &observable,
                                       size_t shots,
                                       const SamplerOptions &options) const
{
    NoisySimResult result;
    result.faultSites = shots * qc.gates().size();
    if (shots == 0)
        return result;
    const PullBack back = pullBack(qc, observable);
    const std::vector<SiteLetters> &sites = back.sites;
    const int ideal = back.ideal;

    const size_t num_blocks = (shots + kShotBlock - 1) / kShotBlock;
    std::vector<int64_t> block_sum(num_blocks, 0);
    std::vector<size_t> block_events(num_blocks, 0);

    const auto run_blocks = [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
            const size_t first = b * kShotBlock;
            const size_t last = std::min(shots, first + kShotBlock);
            int64_t sum = 0;
            size_t events = 0;
            for (size_t shot = first; shot < last; ++shot) {
                Rng rng(shotSeed(options.seed, shot));
                unsigned flips = 0;
                for (const SiteLetters &site : sites) {
                    if (site.twoQubit) {
                        const auto [f0, f1] = sampleTwoQubitError(rng);
                        if (f0 != PauliOp::I || f1 != PauliOp::I) {
                            ++events;
                            flips ^= flipsSign(f0, site.l0) ^
                                     flipsSign(f1, site.l1);
                        }
                    } else {
                        const PauliOp f = sampleSingleQubitError(rng);
                        if (f != PauliOp::I) {
                            ++events;
                            flips ^= flipsSign(f, site.l0);
                        }
                    }
                }
                sum += flips ? -1 : 1;
            }
            block_sum[b] = sum;
            block_events[b] = events;
        }
    };

    if (options.threads != 1) {
        WorkerPool pool(options.threads);
        pool.parallelFor(num_blocks, run_blocks);
    } else {
        run_blocks(0, num_blocks);
    }

    // Exact integer combine in block order: bit-identical for every
    // thread count over the same shot set.
    int64_t signed_total = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
        signed_total += block_sum[b];
        result.errorEvents += block_events[b];
    }
    result.expectation =
        ideal == 0 ? 0.0
                   : static_cast<double>(ideal) *
                         (static_cast<double>(signed_total) /
                          static_cast<double>(shots));
    return result;
}

} // namespace quclear
