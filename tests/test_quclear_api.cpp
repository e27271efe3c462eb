/**
 * @file
 * Tests for the QuClear facade — the public API a downstream user
 * programs against — plus the end-to-end sampled workflows (stabilizer
 * sampling of Clifford tails, expectation estimation from counts).
 */
#include <gtest/gtest.h>

#include "benchgen/suite.hpp"
#include "core/quclear.hpp"
#include "reference_stabilizer_simulator.hpp"
#include "sim/expectation.hpp"
#include "tableau/clifford_tableau.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

std::vector<PauliTerm>
smallProgram()
{
    return { PauliTerm::fromLabel("ZZII", 0.3),
             PauliTerm::fromLabel("YYXX", 0.5),
             PauliTerm::fromLabel("IXZI", -0.2),
             PauliTerm::fromLabel("ZIZI", 0.8) };
}

TEST(QuClearApiTest, CompileProducesCircuitAndTail)
{
    const QuClear compiler;
    const auto program = compiler.compile(smallProgram());
    EXPECT_GT(program.circuit().size(), 0u);
    EXPECT_TRUE(program.extraction.extractedClifford.isClifford());
}

TEST(QuClearApiTest, LocalOptimizationToggle)
{
    QuClearOptions opt_on;
    QuClearOptions opt_off;
    opt_off.applyLocalOptimization = false;
    const auto with_opt = QuClear(opt_on).compile(smallProgram());
    const auto without_opt = QuClear(opt_off).compile(smallProgram());
    EXPECT_LE(with_opt.circuit().size(), without_opt.circuit().size());

    // Both remain semantically sound.
    for (const auto *program : { &with_opt, &without_opt }) {
        Statevector sv(4);
        sv.applyCircuit(program->circuit());
        sv.applyCircuit(program->extraction.extractedClifford);
        EXPECT_TRUE(
            referenceState(smallProgram()).equalsUpToGlobalPhase(sv));
    }
}

TEST(QuClearApiTest, AblationConfigsCompile)
{
    // The Fig. 10 feature flags must all produce working compilers.
    for (bool commuting : { false, true }) {
        for (bool recursive : { false, true }) {
            QuClearOptions options;
            options.extraction.useCommutingBlocks = commuting;
            options.extraction.tree.recursive = recursive;
            const auto program =
                QuClear(options).compile(smallProgram());
            Statevector sv(4);
            sv.applyCircuit(program.circuit());
            sv.applyCircuit(program.extraction.extractedClifford);
            EXPECT_TRUE(referenceState(smallProgram())
                            .equalsUpToGlobalPhase(sv))
                << "commuting=" << commuting
                << " recursive=" << recursive;
        }
    }
}

TEST(QuClearApiTest, SampledExpectationWorkflow)
{
    // Full user workflow with sampling: compile, absorb, run the
    // measurement circuit on the dense simulator, estimate from counts.
    const auto terms = smallProgram();
    const QuClear compiler;
    const auto program = compiler.compile(terms);
    const std::vector<PauliString> observables = {
        PauliString::fromLabel("ZZII"), PauliString::fromLabel("XXZZ")
    };
    const auto absorbed = compiler.absorbObservables(program, observables);

    const Statevector reference = referenceState(terms);
    for (size_t k = 0; k < observables.size(); ++k) {
        const auto meas =
            measurementCircuit(program.extraction, absorbed[k]);
        const auto probs = outputProbabilities(meas);
        // Exact pseudo-counts.
        std::map<uint64_t, uint64_t> counts;
        for (uint64_t b = 0; b < probs.size(); ++b) {
            const auto c = static_cast<uint64_t>(
                std::llround(probs[b] * 10000000));
            if (c)
                counts[b] = c;
        }
        EXPECT_NEAR(expectationFromCounts(absorbed[k], counts),
                    reference.expectation(observables[k]), 1e-5);
    }
}

TEST(QuClearApiTest, CliffordTailSamplableByStabilizerSim)
{
    // Gottesman-Knill in action: the extracted tail of an arbitrarily
    // structured program is sampled classically at 20+ qubits.
    std::vector<PauliTerm> terms;
    Rng rng(1301);
    const uint32_t n = 24;
    for (int i = 0; i < 40; ++i) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    const QuClear compiler;
    const auto program = compiler.compile(terms);
    const QuantumCircuit &tail = program.extraction.extractedClifford;
    ReferenceStabilizerSimulator sim(n);
    sim.applyCircuit(tail);
    // tail|0...0> is stabilized by the tableau's Z images and by none
    // of its X images.
    const CliffordTableau tab = CliffordTableau::fromCircuit(tail);
    for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(sim.expectation(tab.imageZ(i)), 1) << "qubit " << i;
        EXPECT_EQ(sim.expectation(tab.imageX(i)), 0) << "qubit " << i;
    }
    Rng sample_rng(7);
    const uint64_t bits = sim.measureAll(sample_rng);
    for (uint32_t q = 0; q < n; ++q) {
        PauliString z(n);
        z.setOp(q, PauliOp::Z);
        EXPECT_EQ(sim.expectation(z), ((bits >> q) & 1) ? -1 : 1);
    }
}

TEST(QuClearApiTest, SynthesisPortfolioStaysSound)
{
    // The portfolio adopts whole alternate extractions; whichever
    // candidate wins, U' followed by the absorbed tail must still equal
    // the reference evolution, and stats must record the search.
    QuClearOptions options;
    options.synthesisPortfolio = true;
    const auto program = QuClear(options).compile(smallProgram());
    Statevector sv(4);
    sv.applyCircuit(program.circuit());
    sv.applyCircuit(program.extraction.extractedClifford);
    EXPECT_TRUE(referenceState(smallProgram()).equalsUpToGlobalPhase(sv));

    const LocalOptStats &lo = program.localOpt;
    EXPECT_EQ(lo.portfolioCandidates, 4u); // default + three alternates
    EXPECT_FALSE(lo.portfolioWinner.empty());
    EXPECT_LE(lo.cxAfter, lo.cxBefore);
    EXPECT_LE(lo.gatesAfter, lo.gatesBefore);
    EXPECT_LE(lo.tailGatesAfter, lo.tailGatesBefore);
}

TEST(QuClearApiTest, PortfolioSoundOnRandomPrograms)
{
    // Same soundness property across seeded random Pauli programs (the
    // fuzz arm of the portfolio + tail-pipeline equivalence check).
    Rng rng(2203);
    const uint32_t n = 5;
    for (int trial = 0; trial < 6; ++trial) {
        std::vector<PauliTerm> terms;
        for (int i = 0; i < 12; ++i) {
            PauliString p(n);
            for (uint32_t q = 0; q < n; ++q)
                p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
        }
        QuClearOptions options;
        options.synthesisPortfolio = true;
        const auto program = QuClear(options).compile(terms);
        Statevector sv(n);
        sv.applyCircuit(program.circuit());
        sv.applyCircuit(program.extraction.extractedClifford);
        EXPECT_TRUE(referenceState(terms).equalsUpToGlobalPhase(sv))
            << "trial " << trial;
    }
}

TEST(QuClearApiTest, PortfolioReducesLabsN15)
{
    // The deterministic fig9 headroom case: on LABS-(n15) the default
    // synthesis emits 352 CX and the portfolio's plain-Algorithm-1
    // candidate 338, so with_opt must come out strictly ahead. This is
    // the end-to-end guarantee behind the nonzero fig9 geomean gate.
    const Benchmark b = makeBenchmark("LABS-(n15)");
    QuClearOptions no_opt;
    no_opt.applyLocalOptimization = false;
    const auto raw = QuClear(no_opt).compile(b.terms);
    QuClearOptions with_opt;
    with_opt.synthesisPortfolio = true;
    const auto opt = QuClear(with_opt).compile(b.terms);
    EXPECT_LT(opt.circuit().twoQubitCount(true),
              raw.circuit().twoQubitCount(true));
    EXPECT_GT(opt.localOpt.passSeconds, 0.0);
}

TEST(QuClearApiTest, EmptyishProgramHandled)
{
    // Identity-only program compiles to an empty circuit.
    std::vector<PauliTerm> terms = { PauliTerm::fromLabel("III", 0.4) };
    const QuClear compiler;
    const auto program = compiler.compile(terms);
    EXPECT_EQ(program.circuit().size(), 0u);
    EXPECT_EQ(program.extraction.extractedClifford.size(), 0u);
}

} // namespace
} // namespace quclear
