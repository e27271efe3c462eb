/**
 * @file
 * Correctness tests for Clifford Extraction (Algorithm 2): the paper's
 * central invariant U = U_CL . U' is verified exactly on dense
 * statevectors for random programs and for the paper's own examples
 * (Fig. 2), and the CNOT-count benefits are sanity-checked. The
 * ExtractorReferenceTest suite requires the production extractor to
 * compile every program bit for bit like the seed extractor
 * (tests/support/reference_extractor.hpp).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "benchgen/graphs.hpp"
#include "benchgen/labs.hpp"
#include "benchgen/maxcut.hpp"
#include "benchgen/molecules.hpp"
#include "benchgen/uccsd.hpp"
#include "circuit/circuit_stats.hpp"
#include "core/clifford_extractor.hpp"
#include "pauli/pauli_list.hpp"
#include "reference_extractor.hpp"
#include "sim/expectation.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

std::vector<PauliTerm>
randomTerms(uint32_t n, size_t m, Rng &rng)
{
    std::vector<PauliTerm> terms;
    terms.reserve(m);
    while (terms.size() < m) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (p.isIdentity())
            continue;
        terms.emplace_back(std::move(p), rng.uniformReal(-1.5, 1.5));
    }
    return terms;
}

/** U' then U_CL must reproduce the reference product of exponentials. */
void
expectExtractionSound(const std::vector<PauliTerm> &terms,
                      const ExtractionConfig &config = {})
{
    const CliffordExtractor extractor(config);
    const ExtractionResult result = extractor.run(terms);

    Statevector reference = referenceState(terms);
    Statevector compiled(numQubitsOf(terms));
    compiled.applyCircuit(result.optimized);
    compiled.applyCircuit(result.extractedClifford);
    EXPECT_TRUE(reference.equalsUpToGlobalPhase(compiled))
        << "U != U_CL . U' for a " << terms.size() << "-term program";
}

TEST(ExtractionTest, SingleZRotation)
{
    expectExtractionSound(termsFromLabels({ "Z" }, 0.7));
}

TEST(ExtractionTest, SingleMultiQubitRotations)
{
    expectExtractionSound(termsFromLabels({ "ZZ" }, 0.3));
    expectExtractionSound(termsFromLabels({ "XX" }, 0.4));
    expectExtractionSound(termsFromLabels({ "YY" }, 0.5));
    expectExtractionSound(termsFromLabels({ "XYZ" }, 0.6));
    expectExtractionSound(termsFromLabels({ "ZYIX" }, 0.2));
}

TEST(ExtractionTest, PaperFigure2Program)
{
    // Fig. 2: e^{i ZZZZ t1} e^{i YYXX t2}; extraction should reduce the
    // second rotation to weight 2 (YYII in the paper's walk-through).
    std::vector<PauliTerm> terms = {
        PauliTerm::fromLabel("ZZZZ", 0.5),
        PauliTerm::fromLabel("YYXX", 0.3),
    };
    expectExtractionSound(terms);

    const CliffordExtractor extractor;
    const ExtractionResult result = extractor.run(terms);
    // Naive synthesis costs 2*(4-1) CNOTs per term = 12; the optimized
    // circuit should match the paper's 4 device CNOTs (3 for the first
    // tree + 1 for the reduced second rotation).
    EXPECT_EQ(result.optimized.twoQubitCount(), 4u);
}

TEST(ExtractionTest, IdentityTermIsDropped)
{
    std::vector<PauliTerm> terms = {
        PauliTerm::fromLabel("II", 0.9),
        PauliTerm::fromLabel("ZZ", 0.4),
    };
    const ExtractionResult result = CliffordExtractor().run(terms);
    // Only the ZZ rotation contributes gates.
    EXPECT_EQ(result.optimized.twoQubitCount(), 1u);
    expectExtractionSound(terms);
}

TEST(ExtractionTest, RepeatedTermCollapsesToSingleRotationPath)
{
    // The second occurrence of the same Pauli becomes weight-1 after the
    // first extraction (its string is mapped to a single Z).
    std::vector<PauliTerm> terms = {
        PauliTerm::fromLabel("XXYZ", 0.2),
        PauliTerm::fromLabel("XXYZ", 0.4),
    };
    const ExtractionResult result = CliffordExtractor().run(terms);
    EXPECT_EQ(result.optimized.twoQubitCount(), 3u)
        << "second identical rotation should need no extra CNOTs";
    expectExtractionSound(terms);
}

TEST(ExtractionTest, RandomProgramsExact)
{
    Rng rng(101);
    for (int trial = 0; trial < 25; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(4));
        const size_t m = 1 + rng.uniformInt(10);
        expectExtractionSound(randomTerms(n, m, rng));
    }
}

TEST(ExtractionTest, RandomProgramsExactWithoutCommutingBlocks)
{
    Rng rng(103);
    ExtractionConfig config;
    config.useCommutingBlocks = false;
    for (int trial = 0; trial < 15; ++trial) {
        expectExtractionSound(randomTerms(4, 8, rng), config);
    }
}

TEST(ExtractionTest, RandomProgramsExactNonRecursiveTree)
{
    Rng rng(107);
    ExtractionConfig config;
    config.tree.recursive = false;
    for (int trial = 0; trial < 15; ++trial) {
        expectExtractionSound(randomTerms(4, 8, rng), config);
    }
}

TEST(ExtractionTest, RandomProgramsExactNoLookahead)
{
    Rng rng(109);
    ExtractionConfig config;
    config.tree.maxLookahead = 0;
    for (int trial = 0; trial < 15; ++trial) {
        expectExtractionSound(randomTerms(4, 8, rng), config);
    }
}

TEST(ExtractionTest, TailIsCliffordAndTableauMatchesConjugator)
{
    Rng rng(113);
    const auto terms = randomTerms(5, 12, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);
    EXPECT_TRUE(result.extractedClifford.isClifford());

    // U_CL = E~, so conjugating by tail-then-conjugator must be identity:
    // E (U_CL P U_CL~) E~ = P for all P.
    const CliffordTableau tail_tab =
        CliffordTableau::fromCircuit(result.extractedClifford);
    Rng rng2(127);
    for (int trial = 0; trial < 20; ++trial) {
        PauliString p(5);
        for (uint32_t q = 0; q < 5; ++q)
            p.setOp(q, static_cast<PauliOp>(rng2.uniformInt(4)));
        const PauliString round_trip =
            result.conjugator.conjugate(tail_tab.conjugate(p));
        EXPECT_EQ(round_trip, p);
    }
}

TEST(ExtractionTest, OptimizedCircuitHasOneRzPerNonIdentityTerm)
{
    Rng rng(131);
    const auto terms = randomTerms(4, 9, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);
    size_t rz_count = 0;
    for (const Gate &g : result.optimized.gates())
        if (g.type == GateType::Rz)
            ++rz_count;
    EXPECT_EQ(rz_count, terms.size());
}

TEST(ExtractionTest, HalvesNaiveCnotCountOnChains)
{
    // A V-shaped synthesis uses 2(w-1) CNOTs per rotation; extraction
    // keeps only the down-tree (w-1). With distinct non-overlapping
    // strings there is no cross-term optimization, so the ratio is
    // exactly one half.
    std::vector<PauliTerm> terms = {
        PauliTerm::fromLabel("ZZZIIIIII", 0.1),
        PauliTerm::fromLabel("IIIZZZIII", 0.2),
        PauliTerm::fromLabel("IIIIIIZZZ", 0.3),
    };
    const ExtractionResult result = CliffordExtractor().run(terms);
    EXPECT_EQ(result.optimized.twoQubitCount(), 6u); // vs 12 naive
    expectExtractionSound(terms);
}

TEST(ExtractionTest, EntanglingDepthNotLargerThanNaive)
{
    Rng rng(137);
    const auto terms = randomTerms(5, 10, rng);
    const ExtractionResult result = CliffordExtractor().run(terms);
    // Naive CNOT count: sum of 2(w-1).
    size_t naive = 0;
    for (const auto &t : terms)
        naive += 2 * (t.pauli.weight() - 1);
    EXPECT_LE(result.optimized.twoQubitCount(), naive);
}


/**
 * @p k mutually commuting mixed X/Y/Z terms on @p n qubits: random
 * Z-strings (identity allowed), each pushed through one shared random
 * Clifford circuit, a fifth of them negated.
 */
std::vector<PauliTerm>
commutingBlock(uint32_t n, size_t k, size_t clifford_gates, Rng &rng)
{
    std::vector<Gate> clifford;
    for (size_t i = 0; i < clifford_gates; ++i)
        clifford.push_back(randomCliffordGate(n, rng));
    std::vector<PauliTerm> block;
    while (block.size() < k) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.4))
                p.setOp(q, PauliOp::Z);
        if (rng.bernoulli(0.2))
            p.setPhase(2);
        for (const Gate &g : clifford)
            applyGateToPauli(p, g);
        block.emplace_back(std::move(p), rng.uniformReal(-1.5, 1.5));
    }
    return block;
}

/** Blocks of 63, 64, 65 and 130 commuting rows, in that order. */
std::vector<PauliTerm>
wordEdgeBlocks(uint32_t n, size_t clifford_gates, Rng &rng)
{
    std::vector<PauliTerm> terms;
    for (const size_t k : { 63u, 64u, 65u, 130u }) {
        const auto block = commutingBlock(n, k, clifford_gates, rng);
        terms.insert(terms.end(), block.begin(), block.end());
    }
    return terms;
}

/** The compile-mid perfbench shapes (structure seeds included). */
std::vector<std::pair<std::string, std::vector<PauliTerm>>>
compileMidPrograms()
{
    const auto structure = [](uint32_t a, uint64_t b) {
        return 0x51C0FFEEULL ^ (static_cast<uint64_t>(a) << 32) ^ b;
    };
    std::vector<std::pair<std::string, std::vector<PauliTerm>>> out;
    out.emplace_back("UCC-(4,8)", uccsdAnsatz(4, 8, 11));
    out.emplace_back("UCC-(6,12)", uccsdAnsatz(6, 12, 12));
    out.emplace_back("LiH", syntheticMolecule(6, 61, structure(6, 61)));
    out.emplace_back("H2O", syntheticMolecule(8, 184, structure(8, 184)));
    out.emplace_back("benzene",
                     syntheticMolecule(12, 1254, structure(12, 1254)));
    for (const uint32_t n : { 15u, 20u, 25u, 30u })
        out.emplace_back("LABS-(n" + std::to_string(n) + ")",
                         labsQaoa(n, 0.41, 0.93));
    out.emplace_back(
        "MaxCut-(n20,r8)",
        maxcutQaoa(randomRegularGraph(20, 8, structure(20, 8)), 1, 0.7, 0.3));
    out.emplace_back(
        "MaxCut-(n20,e117)",
        maxcutQaoa(randomGraph(20, 117, structure(20, 117u << 8)), 1, 0.7,
                   0.3));
    return out;
}

TEST(ExtractorReferenceTest, CompileMidInstancesMatch)
{
    ExtractionConfig sequential;
    sequential.threads = 1;
    for (const auto &[name, terms] : compileMidPrograms())
        expectMatchesReference(terms, sequential, name);
}

TEST(ExtractorReferenceTest, BlocksAtWordEdgesMatch)
{
    Rng rng(4099);
    for (const uint32_t n : { 10u, 70u }) {
        const auto terms = wordEdgeBlocks(n, 6 * n, rng);
        const auto blocks = commutingBlocks(terms);
        ASSERT_EQ(blocks.size(), 4u) << "n=" << n;
        EXPECT_EQ(blocks[0].size(), 63u);
        EXPECT_EQ(blocks[1].size(), 64u);
        EXPECT_EQ(blocks[2].size(), 65u);
        EXPECT_EQ(blocks[3].size(), 130u);
        expectMatchesReference(terms, {}, "word-edge blocks, n=" +
                                              std::to_string(n));
    }
}

TEST(ExtractorReferenceTest, QubitCountsAtWordEdgesMatch)
{
    Rng rng(4111);
    for (const uint32_t n : { 63u, 64u, 65u, 130u }) {
        const std::string at = "n=" + std::to_string(n);
        // Sparse terms (mean weight ~5-9): many chains, mixed blocks.
        expectMatchesReference(randomSupportTerms(n, 160, 0.93, rng), {},
                               "sparse, " + at);
        // Two dense commuting blocks spanning the whole register.
        auto terms = commutingBlock(n, 40, 3 * n, rng);
        const auto second = commutingBlock(n, 40, 3 * n, rng);
        terms.insert(terms.end(), second.begin(), second.end());
        expectMatchesReference(terms, {}, "dense blocks, " + at);
    }
}

TEST(ExtractorReferenceTest, ConfigVariantsMatch)
{
    std::vector<std::pair<std::string, ExtractionConfig>> variants(6);
    variants[0].first = "default";
    variants[1].first = "useCommutingBlocks=false";
    variants[1].second.useCommutingBlocks = false;
    variants[2].first = "recursive=false";
    variants[2].second.tree.recursive = false;
    variants[3].first = "maxLookahead=0";
    variants[3].second.tree.maxLookahead = 0;
    variants[4].first = "beamWidth=8";
    variants[4].second.tree.beamWidth = 8;
    variants[5].first = "exhaustiveThreshold=0";
    variants[5].second.tree.exhaustiveThreshold = 0;

    Rng rng(4127);
    const auto blocks = wordEdgeBlocks(10, 60, rng);
    const auto sparse = randomSupportTerms(65, 120, 0.96, rng);
    for (const auto &[name, config] : variants) {
        expectMatchesReference(blocks, config, "word-edge blocks, " + name);
        expectMatchesReference(sparse, config, "sparse n=65, " + name);
    }
}

TEST(ExtractorReferenceTest, PortfolioBeamConfigsMatch)
{
    Rng rng(4133);
    const auto blocks = wordEdgeBlocks(10, 60, rng);
    for (const bool use_blocks : { true, false }) {
        const ExtractionConfig config = beamConfig(8, use_blocks);
        const std::string name = use_blocks ? "beam8" : "beam8-noblocks";
        expectMatchesReference(blocks, config, "word-edge blocks, " + name);
        expectMatchesReference(uccsdAnsatz(4, 8, 11), config,
                               "UCC-(4,8), " + name);
        expectMatchesReference(labsQaoa(15, 0.41, 0.93), config,
                               "LABS-(n15), " + name);
    }
}

TEST(ExtractorReferenceTest, BeamWidthsOnTiedLabsScoresMatch)
{
    // LABS terms have weight 2 and 4 over few distinct supports, so
    // many beam children tie on every score entry: ties are broken by
    // std::sort's comparisons alone.
    for (const uint32_t width : { 1u, 16u })
        for (const uint32_t n : { 15u, 20u })
            expectMatchesReference(labsQaoa(n, 0.41, 0.93),
                                   beamConfig(width, true),
                                   "LABS-(n" + std::to_string(n) +
                                       "), beamWidth=" +
                                       std::to_string(width));
}

TEST(ExtractorReferenceTest, BeamOverWideSupportsAndRegistersMatches)
{
    // A first term on 65-70 of 72 qubits, then eight to look ahead to:
    // the beam's projected lookahead masks take two words. (Later terms
    // leave its tree narrower, so each width gets its own program.)
    Rng rng(4139);
    const uint32_t n = 72;
    ExtractionConfig config;
    config.tree.beamWidth = 2;
    for (const uint32_t weight : { 65u, 70u }) {
        std::vector<uint32_t> qubits(n);
        for (uint32_t q = 0; q < n; ++q)
            qubits[q] = q;
        rng.shuffle(qubits);
        PauliString wide(n);
        for (uint32_t i = 0; i < weight; ++i)
            wide.setOp(qubits[i], static_cast<PauliOp>(1 + rng.uniformInt(3)));
        std::vector<PauliTerm> terms = randomSupportTerms(n, 9, 0.5, rng);
        terms.front() = PauliTerm(std::move(wide), 0.3);
        expectMatchesReference(terms, config,
                               "support " + std::to_string(weight) +
                                   ", beamWidth=2");
    }
    // A wide register with dense terms: scores past 255 at every depth.
    expectMatchesReference(randomSupportTerms(300, 24, 0.97, rng), config,
                           "n=300, beamWidth=2");
}

} // namespace
} // namespace quclear
