/**
 * @file
 * Tests for the tests' Aaronson-Gottesman stabilizer simulator
 * (ReferenceStabilizerSimulator), which the other suites trust for
 * ideal stabilizer expectations. Cross-validated against the dense
 * simulator on random Clifford circuits.
 */
#include <gtest/gtest.h>

#include "reference_stabilizer_simulator.hpp"
#include "sim/statevector.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

TEST(StabilizerSimTest, ZeroStateMeasuresZero)
{
    Rng rng(1);
    ReferenceStabilizerSimulator sim(4);
    EXPECT_EQ(sim.measureAll(rng), 0u);
}

TEST(StabilizerSimTest, XFlipsDeterministically)
{
    Rng rng(2);
    ReferenceStabilizerSimulator sim(3);
    sim.applyGate({ GateType::X, 1 });
    EXPECT_EQ(sim.measureAll(rng), 0b010u);
}

TEST(StabilizerSimTest, BellPairCorrelated)
{
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        ReferenceStabilizerSimulator sim(2);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::CX, 0u, 1u });
        const bool a = sim.measure(0, rng);
        const bool b = sim.measure(1, rng);
        EXPECT_EQ(a, b) << "Bell pair outcomes must agree";
    }
}

TEST(StabilizerSimTest, MeasurementCollapsesState)
{
    Rng rng(4);
    ReferenceStabilizerSimulator sim(1);
    sim.applyGate({ GateType::H, 0 });
    const bool first = sim.measure(0, rng);
    for (int k = 0; k < 10; ++k)
        EXPECT_EQ(sim.measure(0, rng), first);
}

TEST(StabilizerSimTest, ExpectationMatchesStatevector)
{
    Rng rng(5);
    for (int trial = 0; trial < 30; ++trial) {
        const uint32_t n = 4;
        QuantumCircuit qc = randomCliffordCircuit(n, 20, rng);
        ReferenceStabilizerSimulator sim(n);
        sim.applyCircuit(qc);
        Statevector sv(n);
        sv.applyCircuit(qc);
        for (int k = 0; k < 5; ++k) {
            PauliString obs(n);
            for (uint32_t q = 0; q < n; ++q)
                obs.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
            EXPECT_NEAR(static_cast<double>(sim.expectation(obs)),
                        sv.expectation(obs), 1e-9)
                << "observable " << obs.toLabel();
        }
    }
}

TEST(StabilizerSimTest, SampleMatchesStatevectorDistribution)
{
    Rng rng(6);
    const uint32_t n = 3;
    QuantumCircuit qc = randomCliffordCircuit(n, 15, rng);
    const auto sv_probs = [&] {
        Statevector sv(n);
        sv.applyCircuit(qc);
        return sv.probabilities();
    }();

    Rng sample_rng(7);
    const size_t shots = 20000;
    const auto counts = ReferenceStabilizerSimulator::sample(qc, shots, sample_rng);
    for (uint64_t b = 0; b < (1u << n); ++b) {
        const double freq =
            counts.count(b)
                ? static_cast<double>(counts.at(b)) / shots
                : 0.0;
        EXPECT_NEAR(freq, sv_probs[b], 0.02)
            << "bitstring " << b;
    }
}

TEST(StabilizerSimTest, GhzParity)
{
    // GHZ: all-zero or all-one outcomes only.
    Rng rng(8);
    for (int trial = 0; trial < 30; ++trial) {
        ReferenceStabilizerSimulator sim(5);
        sim.applyGate({ GateType::H, 0 });
        for (uint32_t q = 0; q + 1 < 5; ++q)
            sim.applyGate({ GateType::CX, q, q + 1 });
        const uint64_t bits = sim.measureAll(rng);
        EXPECT_TRUE(bits == 0 || bits == 0b11111u) << bits;
    }
}

TEST(StabilizerSimTest, ExpectationOfStabilizerIsOne)
{
    // For the state H|0>, <X> = 1 and <Z> = 0.
    ReferenceStabilizerSimulator sim(1);
    sim.applyGate({ GateType::H, 0 });
    EXPECT_EQ(sim.expectation(PauliString::fromLabel("X")), 1);
    EXPECT_EQ(sim.expectation(PauliString::fromLabel("Z")), 0);
    EXPECT_EQ(sim.expectation(PauliString::fromLabel("-X")), -1);
}


TEST(StabilizerSimTest, PauliMeasurementDeterministicCases)
{
    // Bell state: ZZ and XX are stabilizers (+1 deterministic).
    Rng rng(9);
    ReferenceStabilizerSimulator sim(2);
    sim.applyGate({ GateType::H, 0 });
    sim.applyGate({ GateType::CX, 0u, 1u });
    EXPECT_FALSE(sim.measurePauli(PauliString::fromLabel("ZZ"), rng));
    EXPECT_FALSE(sim.measurePauli(PauliString::fromLabel("XX"), rng));
    // -ZZ measures -1 eigenvalue deterministically on this state...
    // i.e. the outcome bit for -ZZ is "true" (eigenvalue -1 branch of
    // +(-ZZ) never occurs since <-ZZ> = -1).
    EXPECT_TRUE(sim.measurePauli(PauliString::fromLabel("-ZZ"), rng));
}

TEST(StabilizerSimTest, PauliMeasurementCollapses)
{
    Rng rng(10);
    for (int trial = 0; trial < 20; ++trial) {
        ReferenceStabilizerSimulator sim(2);
        sim.applyGate({ GateType::H, 0 });
        // Measure X0 X1 on |+0>: random, then repeatable.
        const bool first =
            sim.measurePauli(PauliString::fromLabel("XX"), rng);
        for (int k = 0; k < 5; ++k)
            EXPECT_EQ(sim.measurePauli(PauliString::fromLabel("XX"), rng),
                      first);
        // And the expectation agrees with the collapsed value.
        EXPECT_EQ(sim.expectation(PauliString::fromLabel("XX")),
                  first ? -1 : 1);
    }
}

TEST(StabilizerSimTest, SamplingIsSeedDeterministic)
{
    // Identical seeds must reproduce identical count maps (the noise
    // model's Monte-Carlo tests lean on this), and different seeds must
    // still agree on the support of the distribution.
    Rng rng(12);
    const QuantumCircuit qc = randomCliffordCircuit(4, 25, rng);

    Rng sample_a(99), sample_b(99), sample_c(100);
    const auto counts_a = ReferenceStabilizerSimulator::sample(qc, 500, sample_a);
    const auto counts_b = ReferenceStabilizerSimulator::sample(qc, 500, sample_b);
    EXPECT_EQ(counts_a, counts_b);

    const auto counts_c = ReferenceStabilizerSimulator::sample(qc, 2000, sample_c);
    Statevector sv(4);
    sv.applyCircuit(qc);
    const auto probs = sv.probabilities();
    for (const auto &[bits, count] : counts_c) {
        EXPECT_GT(probs[bits], 1e-12)
            << "sampled bitstring " << bits << " has zero amplitude";
        EXPECT_GT(count, 0u);
    }
}

TEST(StabilizerSimTest, ResetForcesZero)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        ReferenceStabilizerSimulator sim(2);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::X, 1 });
        sim.reset(0, rng);
        sim.reset(1, rng);
        EXPECT_EQ(sim.measureAll(rng), 0u);
    }
}

} // namespace
} // namespace quclear
