/**
 * @file
 * Tests for the depolarizing noise model: the channels must be valid
 * probability distributions, sampled fault rates must converge to the
 * configured rates under a fixed seed, and Monte-Carlo noisy
 * expectations on Clifford circuits must stay within the error budget
 * the fidelity proxy predicts.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "reference_stabilizer_simulator.hpp"
#include "sim/noise_model.hpp"
#include "tableau/stabilizer_simulator.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace quclear {
namespace {

QuantumCircuit
ghzCircuit(uint32_t n)
{
    QuantumCircuit qc(n);
    qc.h(0);
    for (uint32_t q = 0; q + 1 < n; ++q)
        qc.cx(q, q + 1);
    return qc;
}

TEST(NoiseModelTest, ChannelsNormalizeAndArePositive)
{
    for (const double p1 : { 0.0, 3e-4, 0.02, 0.3 }) {
        for (const double p2 : { 0.0, 5e-3, 0.05, 0.4 }) {
            NoiseModel noise;
            noise.singleQubitError = p1;
            noise.twoQubitError = p2;

            const auto one_q = noise.singleQubitChannel();
            double sum = 0.0;
            for (const double prob : one_q) {
                EXPECT_GE(prob, 0.0);
                EXPECT_LE(prob, 1.0);
                sum += prob;
            }
            EXPECT_NEAR(sum, 1.0, 1e-12) << "p1=" << p1;
            EXPECT_DOUBLE_EQ(one_q[0], 1.0 - p1);
            EXPECT_DOUBLE_EQ(one_q[1], one_q[2]);
            EXPECT_DOUBLE_EQ(one_q[2], one_q[3]);

            const auto two_q = noise.twoQubitChannel();
            sum = 0.0;
            for (const double prob : two_q) {
                EXPECT_GE(prob, 0.0);
                EXPECT_LE(prob, 1.0);
                sum += prob;
            }
            EXPECT_NEAR(sum, 1.0, 1e-12) << "p2=" << p2;
            EXPECT_DOUBLE_EQ(two_q[0], 1.0 - p2);
            for (size_t k = 2; k < two_q.size(); ++k)
                EXPECT_DOUBLE_EQ(two_q[k], two_q[1]);
        }
    }
}

TEST(NoiseModelTest, SampledSingleQubitRatesConverge)
{
    NoiseModel noise;
    noise.singleQubitError = 0.06;
    Rng rng(1234);

    const size_t trials = 200000;
    std::array<size_t, 4> counts{};
    for (size_t t = 0; t < trials; ++t)
        ++counts[static_cast<size_t>(noise.sampleSingleQubitError(rng))];

    const auto channel = noise.singleQubitChannel();
    const size_t errors = trials - counts[static_cast<size_t>(PauliOp::I)];
    EXPECT_NEAR(static_cast<double>(errors) / trials,
                noise.singleQubitError, 0.004);
    for (const PauliOp op : { PauliOp::X, PauliOp::Y, PauliOp::Z }) {
        // Channel order is {I, X, Y, Z}; X/Y/Z all carry p/3.
        EXPECT_NEAR(static_cast<double>(
                        counts[static_cast<size_t>(op)]) /
                        trials,
                    channel[1], 0.003)
            << "op " << static_cast<int>(op);
    }
}

TEST(NoiseModelTest, SampledTwoQubitRatesConverge)
{
    NoiseModel noise;
    noise.twoQubitError = 0.12;
    Rng rng(4321);

    const size_t trials = 300000;
    size_t faults = 0;
    std::array<size_t, 16> pair_counts{};
    for (size_t t = 0; t < trials; ++t) {
        const auto [a, b] = noise.sampleTwoQubitError(rng);
        const bool is_fault = a != PauliOp::I || b != PauliOp::I;
        faults += is_fault;
        if (is_fault) {
            // Re-derive the {I, X, Y, Z} letter index of each leg.
            auto letter = [](PauliOp op) -> size_t {
                switch (op) {
                  case PauliOp::I: return 0;
                  case PauliOp::X: return 1;
                  case PauliOp::Y: return 2;
                  default: return 3;
                }
            };
            ++pair_counts[4 * letter(b) + letter(a)];
        }
    }
    EXPECT_NEAR(static_cast<double>(faults) / trials, noise.twoQubitError,
                0.004);
    EXPECT_EQ(pair_counts[0], 0u); // II never reported as a fault
    const double per_pair = noise.twoQubitError / 15.0;
    for (size_t k = 1; k < pair_counts.size(); ++k)
        EXPECT_NEAR(static_cast<double>(pair_counts[k]) / trials, per_pair,
                    0.002)
            << "pair index " << k;
}

TEST(NoiseModelTest, ZeroNoiseReproducesIdealExpectation)
{
    NoiseModel noiseless;
    noiseless.singleQubitError = 0.0;
    noiseless.twoQubitError = 0.0;

    const QuantumCircuit qc = ghzCircuit(5);
    StabilizerSimulator ideal(5);
    ideal.applyCircuit(qc);
    const PauliString obs = PauliString::fromLabel("XXXXX");
    ASSERT_EQ(ideal.expectation(obs), 1);

    Rng rng(77);
    const auto result = noiseless.noisyStabilizerExpectation(qc, obs, 64, rng);
    EXPECT_DOUBLE_EQ(result.expectation, 1.0);
    EXPECT_EQ(result.errorEvents, 0u);
    EXPECT_EQ(result.faultSites, 64 * qc.size());
}

TEST(NoiseModelTest, NoisyExpectationWithinErrorBudget)
{
    NoiseModel noise;
    noise.singleQubitError = 2e-3;
    noise.twoQubitError = 8e-3;

    const uint32_t n = 6;
    const QuantumCircuit qc = ghzCircuit(n);
    const PauliString obs = PauliString::fromLabel("XXXXXX");
    StabilizerSimulator ideal(n);
    ideal.applyCircuit(qc);
    const double ideal_exp = ideal.expectation(obs);
    ASSERT_EQ(ideal_exp, 1.0);

    Rng rng(2026);
    const size_t shots = 40000;
    const auto result =
        noise.noisyStabilizerExpectation(qc, obs, shots, rng);

    // Depolarizing faults can only shrink |<O>|; the shrinkage is at
    // most the probability that any fault fired (first-order budget
    // from the fidelity proxy) times 2, plus sampling noise.
    EXPECT_LE(result.expectation, 1.0);
    const double fault_probability =
        1.0 - noise.estimatedSuccessProbability(qc);
    EXPECT_GE(result.expectation,
              ideal_exp - 2.0 * fault_probability - 0.02);
    EXPECT_LT(result.expectation, ideal_exp); // some fault must land

    // Sampled per-site error rate converges to the configured rates.
    const double expected_events_per_shot =
        static_cast<double>(qc.singleQubitCount()) *
            noise.singleQubitError +
        static_cast<double>(qc.twoQubitCount()) * noise.twoQubitError;
    EXPECT_EQ(result.faultSites, shots * qc.size());
    EXPECT_NEAR(static_cast<double>(result.errorEvents) / shots,
                expected_events_per_shot,
                0.2 * expected_events_per_shot);
}

TEST(NoiseModelTest, NoisyVsIdealDeltaBoundedOnRandomCliffords)
{
    NoiseModel noise;
    noise.singleQubitError = 1e-3;
    noise.twoQubitError = 4e-3;

    Rng rng(555);
    for (int trial = 0; trial < 6; ++trial) {
        const uint32_t n = 4;
        const QuantumCircuit qc = randomCliffordCircuit(n, 24, rng);
        StabilizerSimulator ideal(n);
        ideal.applyCircuit(qc);

        PauliString obs(n);
        for (uint32_t q = 0; q < n; ++q)
            obs.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (obs.isIdentity())
            obs.setOp(0, PauliOp::Z);

        Rng shot_rng(1000 + static_cast<uint64_t>(trial));
        const auto result =
            noise.noisyStabilizerExpectation(qc, obs, 8000, shot_rng);

        EXPECT_LE(std::abs(result.expectation), 1.0);
        const double budget = 1.0 - noise.estimatedSuccessProbability(qc);
        EXPECT_NEAR(result.expectation,
                    static_cast<double>(ideal.expectation(obs)),
                    2.0 * budget + 0.05)
            << "trial " << trial;
    }
}

TEST(NoiseModelTest, BatchedSamplerBitIdenticalAcrossThreadGrid)
{
    NoiseModel noise;
    noise.singleQubitError = 0.04;
    noise.twoQubitError = 0.09;

    Rng circuit_rng(909);
    const uint32_t n = 5;
    const QuantumCircuit qc = randomCliffordCircuit(n, 40, circuit_rng);
    const PauliString obs = PauliString::fromLabel("ZXIYZ");
    const size_t shots = 4096;

    NoiseModel::SamplerOptions baseline;
    baseline.seed = 0xC0FFEEULL;
    baseline.threads = 1;
    baseline.shotBlock = 1024;
    const auto expected =
        noise.noisyStabilizerExpectation(qc, obs, shots, baseline);
    EXPECT_EQ(expected.faultSites, shots * qc.size());
    EXPECT_GT(expected.errorEvents, 0u);

    // Every split of the same shot set must reproduce the scalar run
    // bit-for-bit: the combine is exact integer arithmetic in block
    // order, independent of which worker ran which block.
    for (const uint32_t threads : { 0u, 1u, 2u, 3u, 4u, 8u }) {
        for (const size_t shot_block : { size_t{1}, size_t{7},
                                         size_t{64}, size_t{1000},
                                         size_t{4096}, size_t{9999} }) {
            NoiseModel::SamplerOptions options;
            options.seed = baseline.seed;
            options.threads = threads;
            options.shotBlock = shot_block;
            const auto got =
                noise.noisyStabilizerExpectation(qc, obs, shots, options);
            EXPECT_EQ(got.expectation, expected.expectation)
                << "threads=" << threads << " block=" << shot_block;
            EXPECT_EQ(got.errorEvents, expected.errorEvents)
                << "threads=" << threads << " block=" << shot_block;
            EXPECT_EQ(got.faultSites, expected.faultSites);
        }
    }

    // A caller-owned pool must give the same answer as sampler-owned
    // threads (this is the path the compilation service exercises).
    WorkerPool pool(4);
    NoiseModel::SamplerOptions pooled;
    pooled.seed = baseline.seed;
    pooled.shotBlock = 128;
    pooled.pool = &pool;
    const auto via_pool =
        noise.noisyStabilizerExpectation(qc, obs, shots, pooled);
    EXPECT_EQ(via_pool.expectation, expected.expectation);
    EXPECT_EQ(via_pool.errorEvents, expected.errorEvents);

    // A different master seed must actually change the sampled faults;
    // otherwise the grid above would pass vacuously.
    NoiseModel::SamplerOptions reseeded = baseline;
    reseeded.seed = baseline.seed + 1;
    const auto other =
        noise.noisyStabilizerExpectation(qc, obs, shots, reseeded);
    EXPECT_NE(other.errorEvents, expected.errorEvents);
}

TEST(NoiseModelTest, LegacyRngOverloadIsDeterministicAndDelegates)
{
    NoiseModel noise;
    noise.singleQubitError = 0.03;
    noise.twoQubitError = 0.07;

    Rng circuit_rng(4242);
    const QuantumCircuit qc = randomCliffordCircuit(4, 32, circuit_rng);
    const PauliString obs = PauliString::fromLabel("XZYI");
    const size_t shots = 2048;

    // Two identically-seeded generators must give identical results.
    Rng rng_a(31337);
    Rng rng_b(31337);
    const auto res_a = noise.noisyStabilizerExpectation(qc, obs, shots, rng_a);
    const auto res_b = noise.noisyStabilizerExpectation(qc, obs, shots, rng_b);
    EXPECT_EQ(res_a.expectation, res_b.expectation);
    EXPECT_EQ(res_a.errorEvents, res_b.errorEvents);
    EXPECT_EQ(res_a.faultSites, res_b.faultSites);

    // The overload consumes exactly one draw to derive the master seed
    // and hands off to the batched sampler; reproducing that by hand
    // must match bit-for-bit.
    Rng rng_c(31337);
    NoiseModel::SamplerOptions options;
    options.seed = rng_c();
    const auto res_c =
        noise.noisyStabilizerExpectation(qc, obs, shots, options);
    EXPECT_EQ(res_c.expectation, res_a.expectation);
    EXPECT_EQ(res_c.errorEvents, res_a.errorEvents);

    // Both callers left their generator at the same stream position.
    Rng rng_d(31337);
    (void)rng_d();
    EXPECT_EQ(rng_a(), rng_d());
}

/**
 * Differential replay oracle: re-run every shot the slow way — apply
 * each gate to a reference stabilizer simulator, then sample the fault
 * channel with the shot's counter-based stream in the exact draw order
 * the batched sampler uses and inject the fault as explicit X/Y/Z
 * gates. The per-shot expectations must average to the batched
 * sampler's Heisenberg pull-back answer bit-for-bit.
 */
TEST(NoiseModelTest, BatchedSamplerMatchesPerShotReplayOracle)
{
    const auto pauliGateType = [](PauliOp op) {
        switch (op) {
          case PauliOp::X: return GateType::X;
          case PauliOp::Y: return GateType::Y;
          default: return GateType::Z;
        }
    };

    NoiseModel noise;
    noise.singleQubitError = 0.05;
    noise.twoQubitError = 0.11;

    Rng trial_rng(606060);
    for (int trial = 0; trial < 4; ++trial) {
        const uint32_t n = 4;
        const QuantumCircuit qc = randomCliffordCircuit(n, 28, trial_rng);
        PauliString obs(n);
        for (uint32_t q = 0; q < n; ++q)
            obs.setOp(q, static_cast<PauliOp>(trial_rng.uniformInt(4)));
        if (obs.isIdentity())
            obs.setOp(trial % n, PauliOp::Y);

        const size_t shots = 600;
        const uint64_t master = 5150 + static_cast<uint64_t>(trial);

        NoiseModel::SamplerOptions options;
        options.seed = master;
        options.threads = 2;
        options.shotBlock = 64;
        const auto batched =
            noise.noisyStabilizerExpectation(qc, obs, shots, options);

        int64_t replay_sum = 0;
        size_t replay_events = 0;
        for (size_t shot = 0; shot < shots; ++shot) {
            Rng shot_rng(NoiseModel::shotSeed(master, shot));
            ReferenceStabilizerSimulator sim(n);
            for (const Gate &g : qc.gates()) {
                sim.applyGate(g);
                if (isTwoQubit(g.type)) {
                    const auto [f0, f1] = noise.sampleTwoQubitError(shot_rng);
                    replay_events += f0 != PauliOp::I || f1 != PauliOp::I;
                    if (f0 != PauliOp::I)
                        sim.applyGate(Gate{ pauliGateType(f0), g.q0 });
                    if (f1 != PauliOp::I)
                        sim.applyGate(Gate{ pauliGateType(f1), g.q1 });
                } else {
                    const PauliOp f = noise.sampleSingleQubitError(shot_rng);
                    if (f != PauliOp::I) {
                        ++replay_events;
                        sim.applyGate(Gate{ pauliGateType(f), g.q0 });
                    }
                }
            }
            replay_sum += sim.expectation(obs);
        }

        EXPECT_EQ(replay_events, batched.errorEvents) << "trial " << trial;
        const double replay_expectation =
            static_cast<double>(replay_sum) / static_cast<double>(shots);
        EXPECT_EQ(replay_expectation, batched.expectation)
            << "trial " << trial;
    }
}

} // namespace
} // namespace quclear
