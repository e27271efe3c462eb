/**
 * @file
 * Slow-labelled 100+-qubit end-to-end extraction equivalence (the
 * ROADMAP property-based scaling item).
 *
 * Dense simulation is unreachable at this size, so equivalence is
 * established algebraically: re-deriving the Pauli program of the
 * compiled circuit (optimized followed by the Clifford tail) must
 * reproduce the original rotation sequence exactly — same Pauli strings,
 * same angles, and an identity residual Clifford prefix — and the
 * conjugator tableau must invert the tail's action bit for bit. The
 * replay is additionally cross-checked between the bit-sliced engine
 * and the row-major reference at full scale.
 */
#include <gtest/gtest.h>

#include "benchgen/suite.hpp"
#include "core/circuit_to_paulis.hpp"
#include "core/clifford_extractor.hpp"
#include "pauli/pauli_term.hpp"
#include "reference_tableau.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

TEST(ScaleExtractionTest, RoundTripRecovers128QubitProgram)
{
    Rng rng(20260729);
    const uint32_t n = 128;
    const auto terms = randomSupportTerms(n, 96, 0.85, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);
    ASSERT_TRUE(result.extractedClifford.isClifford());

    // U = U_CL . U': replaying the full compiled circuit through
    // circuit-to-Pauli canonicalization must hand back the original
    // rotations in order, with nothing left over in the Clifford prefix.
    QuantumCircuit full = result.optimized;
    full.appendCircuit(result.extractedClifford);
    const PauliProgram program = circuitToPauliProgram(full);

    // Rotations are emitted in find_next_pauli's committed order;
    // rotationTerms maps each one back to its input term.
    ASSERT_EQ(program.terms.size(), terms.size());
    ASSERT_EQ(result.rotationTerms.size(), terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
        const PauliTerm &orig = terms[result.rotationTerms[i]];
        EXPECT_EQ(program.terms[i].pauli, orig.pauli) << "term " << i;
        EXPECT_NEAR(program.terms[i].angle, orig.angle, 1e-12)
            << "term " << i;
    }
    EXPECT_TRUE(CliffordTableau::fromCircuit(program.clifford).isIdentity());
}

TEST(ScaleExtractionTest, ConjugatorInvertsTailAt128Qubits)
{
    Rng rng(424243);
    const uint32_t n = 128;
    const auto terms = randomSupportTerms(n, 64, 0.8, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);

    // U_CL = E~, so E(U_CL P U_CL~) = P for every P, phases included.
    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(result.extractedClifford);
    for (int trial = 0; trial < 16; ++trial) {
        const PauliString p = randomSupportPauli(n, rng, trial % 2 ? 0.5 : 0.95);
        EXPECT_EQ(result.conjugator.conjugate(tail_tab.conjugate(p)), p);
    }
}

TEST(ScaleExtractionTest, PackedAndReferenceAgreeOnExtractionTail)
{
    Rng rng(9090);
    const uint32_t n = 112;
    const auto terms = randomSupportTerms(n, 48, 0.8, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);

    // Replaying the extracted tail on both engines at full width must
    // stay row-identical — the end-to-end version of the unit-level
    // cross-check in test_tableau_packed.
    CliffordTableau packed(n);
    ReferenceTableau ref(n);
    for (const Gate &g : result.extractedClifford.gates()) {
        packed.appendGate(g);
        ref.appendGate(g);
    }
    for (uint32_t q = 0; q < n; ++q) {
        ASSERT_EQ(packed.imageX(q), ref.imageX(q)) << "rowX " << q;
        ASSERT_EQ(packed.imageZ(q), ref.imageZ(q)) << "rowZ " << q;
    }
    for (int trial = 0; trial < 8; ++trial) {
        const PauliString p = randomSupportPauli(n, rng, 0.6);
        ASSERT_EQ(packed.conjugate(p), ref.conjugate(p));
    }
}

TEST(ScaleExtractionTest, CommutingBlockReorderKeepsRotationCount)
{
    // Z-only programs form one big commuting block, driving the
    // find_next_pauli index-list reorder hard; every non-identity term
    // must still emit exactly one rotation.
    Rng rng(31337);
    const uint32_t n = 100;
    std::vector<PauliTerm> terms;
    while (terms.size() < 80) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.1))
                p.setOp(q, PauliOp::Z);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    const ExtractionResult result = CliffordExtractor().run(terms);
    size_t rz = 0;
    for (const Gate &g : result.optimized.gates())
        rz += g.type == GateType::Rz;
    EXPECT_EQ(rz, terms.size());
    EXPECT_EQ(result.rotationTerms.size(), terms.size());

    // And the tail must still invert cleanly.
    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(result.extractedClifford);
    for (int trial = 0; trial < 8; ++trial) {
        const PauliString p = randomSupportPauli(n, rng, 0.7);
        EXPECT_EQ(result.conjugator.conjugate(tail_tab.conjugate(p)), p);
    }
}

TEST(ScaleExtractionTest, ThreadedPathBitIdenticalAt128Qubits)
{
    // The nightly threaded-scale check: the full 128-qubit extraction
    // through the worker pool (batch block entry, parallel cache
    // replay, threaded lookahead) must emit exactly the sequential
    // output, and the compiled program must still invert cleanly.
    Rng rng(77777);
    const uint32_t n = 128;
    const auto terms = randomSupportTerms(n, 96, 0.8, rng);

    ExtractionConfig sequential_config;
    sequential_config.threads = 1;
    sequential_config.tree.maxLookahead = 40;
    const ExtractionResult sequential =
        CliffordExtractor(sequential_config).run(terms);

    ExtractionConfig threaded_config = sequential_config;
    threaded_config.threads = 4;
    const ExtractionResult threaded =
        CliffordExtractor(threaded_config).run(terms);

    expectSameCircuit(threaded.optimized, sequential.optimized);
    expectSameCircuit(threaded.extractedClifford,
                      sequential.extractedClifford);
    EXPECT_EQ(threaded.conjugator, sequential.conjugator);
    EXPECT_EQ(threaded.rotationTerms, sequential.rotationTerms);

    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(threaded.extractedClifford);
    for (int trial = 0; trial < 8; ++trial) {
        const PauliString p = randomSupportPauli(n, rng, 0.7);
        EXPECT_EQ(threaded.conjugator.conjugate(tail_tab.conjugate(p)), p);
    }
}

TEST(ScaleExtractionTest, ThreadedChainParallelBitIdenticalAt96Qubits)
{
    // The paper-scale cross-block stressor: 8 independent UCC-(6,12)
    // fragments on disjoint registers (96 qubits). With
    // blockParallelism = 0 the extractor forks one tableau per
    // fragment and merges them through composeWith; the result must be
    // bit-identical to the fully sequential pipeline, and the compiled
    // program must still invert cleanly.
    const Benchmark b = makeBenchmark("UCC-(6,12)x8");

    ExtractionConfig baseline_config;
    baseline_config.threads = 1;
    baseline_config.blockParallelism = 1;
    const ExtractionResult baseline =
        CliffordExtractor(baseline_config).run(b.terms);

    for (uint32_t bp : { 2u, 0u }) {
        for (uint32_t threads : { 1u, 4u }) {
            ExtractionConfig config = baseline_config;
            config.blockParallelism = bp;
            config.threads = threads;
            SCOPED_TRACE(::testing::Message()
                         << "blockParallelism=" << bp
                         << " threads=" << threads);
            const ExtractionResult parallel =
                CliffordExtractor(config).run(b.terms);
            expectSameCircuit(parallel.optimized, baseline.optimized);
            expectSameCircuit(parallel.extractedClifford,
                              baseline.extractedClifford);
            EXPECT_EQ(parallel.conjugator, baseline.conjugator);
            EXPECT_EQ(parallel.rotationTerms, baseline.rotationTerms);
        }
    }

    Rng rng(96096);
    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(baseline.extractedClifford);
    for (int trial = 0; trial < 8; ++trial) {
        const PauliString p =
            randomSupportPauli(b.numQubits, rng, trial % 2 ? 0.5 : 0.9);
        EXPECT_EQ(baseline.conjugator.conjugate(tail_tab.conjugate(p)), p);
    }
}

TEST(ScaleExtractionTest, PortfolioBeamMatchesReferenceOnUcc816)
{
    // The synthesis portfolio's beam candidates on UCC-(8,16), where
    // they beat the default compile by about 9% CX.
    const std::vector<PauliTerm> terms = makeBenchmark("UCC-(8,16)").terms;
    for (const bool use_blocks : { true, false })
        expectMatchesReference(
            terms, beamConfig(8, use_blocks),
            use_blocks ? "UCC-(8,16), beam8" : "UCC-(8,16), beam8-noblocks");
}

} // namespace
} // namespace quclear
