/**
 * @file
 * Tests for the depolarizing noise model: the channels must be valid
 * probability distributions, sampled fault rates must converge to the
 * configured rates under a fixed seed, and Monte-Carlo noisy
 * expectations on Clifford circuits must stay within the error budget
 * the fidelity proxy predicts and agree with the exact closed form.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "reference_stabilizer_simulator.hpp"
#include "sim/noise_model.hpp"
#include "sim/statevector.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

/**
 * Dense density matrix on a few qubits, stored as its columns: the
 * exact oracle for the depolarizing model. Every gate is applied as
 * rho -> U rho U^dagger and followed by its depolarizing channel,
 * rho -> (1 - p) rho + p/3 sum_P P rho P over the three 1q Paulis or
 * p/15 over the fifteen non-identity 2q Paulis.
 */
class DensityMatrix
{
  public:
    explicit DensityMatrix(uint32_t n)
        : n_(n), columns_(size_t(1) << n, Statevector(n))
    {
        // rho = |0><0|: column 0 is |0...0>, every other column is zero.
        const std::vector<Statevector::Complex> zero(columns_.size());
        for (size_t j = 1; j < columns_.size(); ++j)
            columns_[j].setAmplitudes(zero);
    }

    /** Apply @p g, then its depolarizing channel under @p noise. */
    void
    applyNoisyGate(const Gate &g, const NoiseModel &noise)
    {
        conjugate([&](Statevector &v) { v.applyGate(g); });
        if (isTwoQubit(g.type))
            depolarize({ g.q0, g.q1 }, noise.twoQubitError);
        else
            depolarize({ g.q0 }, noise.singleQubitError);
    }

    /** Tr(rho O) = sum_j (O column_j)[j]; must be real. */
    double
    expectation(const PauliString &observable) const
    {
        Statevector::Complex trace = 0.0;
        for (size_t j = 0; j < columns_.size(); ++j) {
            Statevector column = columns_[j];
            column.applyPauli(observable);
            trace += column.amplitude(j);
        }
        EXPECT_NEAR(trace.imag(), 0.0, 1e-12);
        return trace.real();
    }

  private:
    /** rho -> U rho U^dagger for the unitary that @p apply applies:
     *  U rho, then U (U rho)^dagger = U rho U^dagger (rho Hermitian). */
    template <typename Apply>
    void
    conjugate(const Apply &apply)
    {
        for (Statevector &column : columns_)
            apply(column);
        const size_t dim = columns_.size();
        std::vector<Statevector> adjoint(dim, Statevector(n_));
        for (size_t i = 0; i < dim; ++i) {
            std::vector<Statevector::Complex> amps(dim);
            for (size_t j = 0; j < dim; ++j)
                amps[j] = std::conj(columns_[j].amplitude(i));
            adjoint[i].setAmplitudes(std::move(amps));
        }
        columns_ = std::move(adjoint);
        for (Statevector &column : columns_)
            apply(column);
    }

    /** rho -> (1 - p) rho + p / (4^k - 1) sum_{P != I} P rho P over the
     *  k = qubits.size() qubits. */
    void
    depolarize(std::vector<uint32_t> qubits, double p)
    {
        const size_t paulis = size_t(1) << (2 * qubits.size());
        const double weight = p / static_cast<double>(paulis - 1);
        std::vector<Statevector> mixed = columns_;
        for (Statevector &column : mixed)
            scale(column, 1.0 - p);
        for (size_t code = 1; code < paulis; ++code) {
            PauliString fault(n_);
            for (size_t k = 0; k < qubits.size(); ++k)
                fault.setOp(qubits[k],
                            static_cast<PauliOp>((code >> (2 * k)) & 3));
            DensityMatrix term = *this;
            term.conjugate([&](Statevector &v) { v.applyPauli(fault); });
            for (size_t j = 0; j < columns_.size(); ++j)
                addScaled(mixed[j], term.columns_[j], weight);
        }
        columns_ = std::move(mixed);
    }

    static void
    scale(Statevector &v, double factor)
    {
        std::vector<Statevector::Complex> amps = v.amplitudes();
        for (auto &a : amps)
            a *= factor;
        v.setAmplitudes(std::move(amps));
    }

    static void
    addScaled(Statevector &into, const Statevector &from, double factor)
    {
        std::vector<Statevector::Complex> amps = into.amplitudes();
        for (size_t i = 0; i < amps.size(); ++i)
            amps[i] += factor * from.amplitude(i);
        into.setAmplitudes(std::move(amps));
    }

    uint32_t n_;
    std::vector<Statevector> columns_;
};

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
    ReferenceStabilizerSimulator ideal(5);
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
    ReferenceStabilizerSimulator ideal(n);
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
        ReferenceStabilizerSimulator ideal(n);
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

TEST(NoiseModelTest, SamplerMatchesClosedFormOnRandomCliffords)
{
    NoiseModel noise;
    noise.singleQubitError = 0.02;
    noise.twoQubitError = 0.05;

    Rng rng(8080);
    for (int trial = 0; trial < 4; ++trial) {
        const uint32_t n = 5;
        const QuantumCircuit qc = randomCliffordCircuit(n, 40, rng);
        // A stabilizer of qc|0...0> (Z image of one qubit times Z image
        // of another), so the ideal expectation is +-1, never 0.
        const CliffordTableau tab = CliffordTableau::fromCircuit(qc);
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = (a + 1) % n;
        PauliString obs = tab.imageZ(a);
        obs.mulRight(tab.imageZ(b));

        ReferenceStabilizerSimulator ideal(n);
        ideal.applyCircuit(qc);
        const int ideal_exp = ideal.expectation(obs);
        ASSERT_NE(ideal_exp, 0) << "trial " << trial;

        const double exact = noise.exactStabilizerExpectation(qc, obs);
        EXPECT_EQ(exact > 0.0, ideal_exp > 0) << "trial " << trial;
        EXPECT_LT(std::abs(exact), 0.9) << "trial " << trial;

        const size_t shots = 20000;
        NoiseModel::SamplerOptions options;
        options.seed = 7000 + static_cast<uint64_t>(trial);
        const auto result =
            noise.noisyStabilizerExpectation(qc, obs, shots, options);
        const double sigma =
            std::sqrt((1.0 - exact * exact) / static_cast<double>(shots));
        EXPECT_NEAR(result.expectation, exact, 4.0 * sigma)
            << "trial " << trial << " exact " << exact;
    }
}

TEST(NoiseModelTest, ExactExpectationMatchesDensityMatrixOracle)
{
    // (p1, p2) from noiseless through maximally depolarizing, where a
    // touched 1q site damps by -1/3 and a touched 2q site by -1/15.
    const std::vector<std::pair<double, double>> rates = {
        { 0.0, 0.0 }, { 1.0, 1.0 }, { 0.02, 0.05 },
        { 1.0, 0.0 }, { 0.0, 1.0 }, { 0.3, 0.7 },
    };
    Rng rng(31415);
    size_t ideal_zero = 0;
    size_t ideal_nonzero = 0;
    for (int trial = 0; trial < 32; ++trial) {
        const uint32_t n = 1 + static_cast<uint32_t>(trial % 4);
        QuantumCircuit qc(n);
        const size_t gates = 1 + rng.uniformInt(20);
        for (size_t k = 0; k < gates; ++k)
            qc.append(randomCliffordGate(n, rng));

        // Even trials measure a stabilizer of the output state, of
        // either sign (ideal = +-1); odd trials a uniform Pauli, whose
        // ideal expectation is mostly 0.
        PauliString obs(n);
        if (trial % 2 == 0) {
            const CliffordTableau tab = CliffordTableau::fromCircuit(qc);
            obs = tab.imageZ(static_cast<uint32_t>(rng.uniformInt(n)));
            for (uint32_t q = 0; q < n; ++q)
                if (rng.uniformInt(2) == 1)
                    obs.mulRight(tab.imageZ(q));
            if (trial % 4 == 2)
                obs.setPhase(static_cast<uint8_t>(obs.phase() + 2));
        } else {
            for (uint32_t q = 0; q < n; ++q)
                obs.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        }
        ReferenceStabilizerSimulator ideal(n);
        ideal.applyCircuit(qc);
        ++(ideal.expectation(obs) == 0 ? ideal_zero : ideal_nonzero);

        for (const auto &[p1, p2] : rates) {
            NoiseModel noise;
            noise.singleQubitError = p1;
            noise.twoQubitError = p2;
            DensityMatrix rho(n);
            for (const Gate &g : qc.gates())
                rho.applyNoisyGate(g, noise);
            EXPECT_NEAR(noise.exactStabilizerExpectation(qc, obs),
                        rho.expectation(obs), 1e-12)
                << "trial " << trial << " p1=" << p1 << " p2=" << p2
                << " observable " << obs.toLabel();
        }
    }
    EXPECT_GE(ideal_zero, 8u);
    EXPECT_GE(ideal_nonzero, 16u);
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
    const auto expected =
        noise.noisyStabilizerExpectation(qc, obs, shots, baseline);
    EXPECT_EQ(expected.faultSites, shots * qc.size());
    EXPECT_GT(expected.errorEvents, 0u);

    // Every thread count must reproduce the inline run bit-for-bit:
    // the combine is exact integer arithmetic in block order,
    // independent of which worker ran which block.
    for (const uint32_t threads : { 0u, 1u, 2u, 3u, 4u, 8u }) {
        NoiseModel::SamplerOptions options;
        options.seed = baseline.seed;
        options.threads = threads;
        const auto got =
            noise.noisyStabilizerExpectation(qc, obs, shots, options);
        EXPECT_EQ(got.expectation, expected.expectation)
            << "threads=" << threads;
        EXPECT_EQ(got.errorEvents, expected.errorEvents)
            << "threads=" << threads;
        EXPECT_EQ(got.faultSites, expected.faultSites);
    }

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
 * sampler's Heisenberg pull-back answer bit-for-bit. The observables
 * are stabilizers of either sign, so the sign each fault contributes is
 * checked, not only the fault count.
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
        // A stabilizer of qc|0...0> (a product of the tableau's Z
        // images, negated on odd trials), so the ideal expectation is
        // +-1 and every fault's sign flip shows in the answer. A random
        // Pauli almost always has ideal expectation 0, which hides the
        // sign rule.
        const CliffordTableau tab = CliffordTableau::fromCircuit(qc);
        PauliString obs = tab.imageZ(trial % n);
        for (uint32_t q = 0; q < n; ++q)
            if (q != trial % n && trial_rng.uniformInt(2) == 1)
                obs.mulRight(tab.imageZ(q));
        if (trial % 2 == 1)
            obs.setPhase(static_cast<uint8_t>(obs.phase() + 2));
        ReferenceStabilizerSimulator ideal(n);
        ideal.applyCircuit(qc);
        ASSERT_EQ(ideal.expectation(obs), trial % 2 == 1 ? -1 : 1)
            << "trial " << trial;

        const size_t shots = 600;
        const uint64_t master = 5150 + static_cast<uint64_t>(trial);

        NoiseModel::SamplerOptions options;
        options.seed = master;
        options.threads = 2;
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
