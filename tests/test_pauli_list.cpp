/**
 * @file
 * Tests for commuting-block partitioning (convert_commute_sets of
 * Algorithm 2) and term-list helpers.
 */
#include <gtest/gtest.h>

#include "pauli/pauli_list.hpp"
#include "reference_extractor.hpp"
#include "test_support.hpp"

namespace quclear {
namespace {

TEST(CommutingBlocksTest, AllCommutingFormsOneBlock)
{
    // Z-type strings all commute.
    const auto terms =
        termsFromLabels({ "ZZI", "IZZ", "ZIZ", "ZII" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].size(), 4u);
}

TEST(CommutingBlocksTest, AnticommutingNeighborsSplit)
{
    const auto terms = termsFromLabels({ "ZI", "XI", "ZI" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 3u);
}

TEST(CommutingBlocksTest, BlockRequiresCommutingWithAllMembers)
{
    // ZZ and XX commute; ZI anticommutes with XX but commutes with ZZ:
    // it must start a new block.
    const auto terms = termsFromLabels({ "ZZ", "XX", "ZI" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0], (std::vector<size_t>{ 0, 1 }));
    EXPECT_EQ(blocks[1], (std::vector<size_t>{ 2 }));
}

TEST(CommutingBlocksTest, BlockOrderPreserved)
{
    // QAOA-like: problem layer then mixer layer -> exactly two blocks.
    const auto terms =
        termsFromLabels({ "ZZI", "IZZ", "XII", "IXI", "IIX" });
    const auto blocks = commutingBlocks(terms);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0].size(), 2u);
    EXPECT_EQ(blocks[1].size(), 3u);
}

TEST(CommutingBlocksTest, EmptyInput)
{
    EXPECT_TRUE(commutingBlocks({}).empty());
}

TEST(CommutingBlocksTest, MatchesPairwiseCheckOnRandomPrograms)
{
    // The bit-sliced partition against the seed's pairwise loop. Runs
    // of Z-only or X-only terms grow blocks past one 64-bit word; the
    // mixed terms split them; identity terms join whatever is open.
    Rng rng(211);
    for (const uint32_t n : { 1u, 5u, 40u, 64u, 70u, 130u }) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<PauliTerm> terms;
            while (terms.size() < 300) {
                const auto run = 1 + rng.uniformInt(150);
                const auto kind = rng.uniformInt(4);
                for (uint64_t i = 0; i < run; ++i) {
                    PauliString p = randomSupportPauli(
                        n, rng, rng.uniformReal(0.5, 1.0));
                    if (kind == 0 || kind == 1) { // one letter only
                        PauliString same(n);
                        p.forEachSupport([&](uint32_t q, PauliOp) {
                            same.setOp(q, kind == 0 ? PauliOp::Z
                                                    : PauliOp::X);
                        });
                        p = same;
                    }
                    terms.emplace_back(std::move(p), 0.1);
                }
            }
            EXPECT_EQ(commutingBlocks(terms), referenceCommutingBlocks(terms))
                << "n=" << n << " trial " << trial;
        }
    }
}

TEST(PauliListTest, TotalWeight)
{
    const auto terms = termsFromLabels({ "ZZI", "XYZ", "III" });
    EXPECT_EQ(totalWeight(terms), 5u);
}

TEST(PauliListTest, NumQubitsOf)
{
    EXPECT_EQ(numQubitsOf({}), 0u);
    EXPECT_EQ(numQubitsOf(termsFromLabels({ "XYZI" })), 4u);
}

TEST(PauliListTest, TermsFromLabelsSharedAngle)
{
    const auto terms = termsFromLabels({ "X", "Z" }, 0.25);
    ASSERT_EQ(terms.size(), 2u);
    EXPECT_EQ(terms[0].angle, 0.25);
    EXPECT_EQ(terms[1].angle, 0.25);
}

} // namespace
} // namespace quclear
