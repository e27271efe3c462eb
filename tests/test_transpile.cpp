/**
 * @file
 * Tests for the local-rewrite pipeline (the "Qiskit O3" proxy). Every
 * pass must preserve the circuit unitary — checked exactly on dense
 * statevectors — while removing the targeted patterns.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "benchgen/suite.hpp"
#include "core/quclear.hpp"
#include "reference_depth_scheduling.hpp"
#include "reference_level3.hpp"
#include "sim/statevector.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "transpile/commutative_cancellation.hpp"
#include "circuit/circuit_stats.hpp"
#include "transpile/cx_cancellation.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/gate_algebra.hpp"
#include "transpile/hadamard_rewrite.hpp"
#include "transpile/pass_manager.hpp"
#include "transpile/phase_rotation_folding.hpp"
#include "transpile/single_qubit_fusion.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

QuantumCircuit
randomCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(7)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.rz(q, rng.uniformReal(-3, 3)); break;
          case 4: qc.x(q); break;
          default: {
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
            if (r != q)
                qc.cx(q, r);
            break;
          }
        }
    }
    return qc;
}

/** Wider gate vocabulary: adds Swap/CZ/Rx/Ry/SX to randomCircuit's set. */
QuantumCircuit
randomRichCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(12)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.rz(q, rng.uniformReal(-3, 3)); break;
          case 4: qc.x(q); break;
          case 5: qc.rx(q, rng.uniformReal(-3, 3)); break;
          case 6: qc.ry(q, rng.uniformReal(-3, 3)); break;
          case 7: qc.sx(q); break;
          case 8:
            if (r != q)
                qc.swap(q, r);
            break;
          case 9:
            if (r != q)
                qc.cz(q, r);
            break;
          default:
            if (r != q)
                qc.cx(q, r);
            break;
        }
    }
    return qc;
}

void
expectUnitaryPreserved(const Pass &pass, QuantumCircuit qc)
{
    QuantumCircuit before = qc;
    pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc))
        << pass.name() << " changed the unitary";
}

TEST(CxCancellationTest, AdjacentPairRemoved)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.cx(0, 1);
    CxCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(CxCancellationTest, InterveningGateBlocks)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.h(1);
    qc.cx(0, 1);
    CxCancellation pass;
    EXPECT_FALSE(pass.run(qc));
    EXPECT_EQ(qc.size(), 3u);
}

TEST(CxCancellationTest, SymmetricCzCancels)
{
    QuantumCircuit qc(2);
    qc.cz(0, 1);
    qc.cz(1, 0);
    CxCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, InversePairsCancel)
{
    QuantumCircuit qc(1);
    qc.h(0);
    qc.h(0);
    qc.s(0);
    qc.sdg(0);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, RzRunsMerge)
{
    QuantumCircuit qc(1);
    qc.rz(0, 0.25);
    qc.rz(0, 0.5);
    qc.rz(0, -0.75); // sums to zero: everything vanishes
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 0u);
}

TEST(SingleQubitFusionTest, SSFusesToZ)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.s(0);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::Z);
}

TEST(SingleQubitFusionTest, SFoldsIntoRz)
{
    QuantumCircuit qc(1);
    qc.s(0);
    qc.rz(0, 0.5);
    SingleQubitFusion pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::Rz);

    // Unitary preserved up to global phase.
    QuantumCircuit before(1);
    before.s(0);
    before.rz(0, 0.5);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(SingleQubitFusionTest, TwoQubitGateFlushesPending)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.h(0); // must NOT cancel across the CX
    SingleQubitFusion pass;
    pass.run(qc);
    EXPECT_EQ(qc.size(), 3u);
}

TEST(HadamardRewriteTest, FourHadamardsReverseCx)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.h(1);
    qc.cx(0, 1);
    qc.h(0);
    qc.h(1);
    QuantumCircuit before = qc;
    HadamardRewrite pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CX);
    EXPECT_EQ(qc.gate(0).q0, 1u);
    EXPECT_EQ(qc.gate(0).q1, 0u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(HadamardRewriteTest, TargetHadamardsMakeCz)
{
    QuantumCircuit qc(2);
    qc.h(1);
    qc.cx(0, 1);
    qc.h(1);
    QuantumCircuit before = qc;
    HadamardRewrite pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CZ);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzOnControlDoesNotBlock)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.rz(0, 0.7); // commutes with the CX control
    qc.cx(0, 1);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzOnTargetBlocks)
{
    QuantumCircuit qc(2);
    qc.cx(0, 1);
    qc.rz(1, 0.7); // does not commute with the CX target
    qc.cx(0, 1);
    CommutativeCancellation pass;
    EXPECT_FALSE(pass.run(qc));
}

TEST(CommutativeCancellationTest, SharedControlCxDoesNotBlock)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(0, 2); // shares the control: commutes
    qc.cx(0, 1);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(GatesCommuteTest, SwapAndSelfCommutationRules)
{
    const Gate swap01{ GateType::Swap, 0u, 1u };
    const Gate swap10{ GateType::Swap, 1u, 0u };
    const Gate cz10{ GateType::CZ, 1u, 0u };
    const Gate cx01{ GateType::CX, 0u, 1u };
    // Swap is pair-symmetric: commutes with Swap/CZ on the same pair in
    // either orientation (regression: the old table answered false).
    EXPECT_TRUE(gatesCommute(swap01, swap10));
    EXPECT_TRUE(gatesCommute(swap01, cz10));
    EXPECT_TRUE(gatesCommute(cz10, swap01));
    // ... but not with an asymmetric CX on the pair.
    EXPECT_FALSE(gatesCommute(swap01, cx01));
    // Every gate commutes with an identical copy of itself.
    EXPECT_TRUE(gatesCommute(swap01, swap01));
    const Gate rx{ GateType::Rx, 0, 0.3 };
    EXPECT_TRUE(gatesCommute(rx, rx));
    // Same-axis 1q gates on the same qubit commute; cross-axis do not.
    EXPECT_TRUE(gatesCommute(rx, Gate{ GateType::SX, 0 }));
    EXPECT_FALSE(gatesCommute(rx, Gate{ GateType::Ry, 0, 0.2 }));
}

TEST(CommutativeCancellationTest, SwapPairCancelsThroughCz)
{
    QuantumCircuit qc(2);
    qc.swap(0, 1);
    qc.cz(1, 0); // pair-symmetric: does not block
    qc.swap(1, 0);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CZ);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RzMergesThroughCxControl)
{
    QuantumCircuit qc(2);
    qc.rz(0, 0.4);
    qc.cx(0, 1); // Rz on the control commutes through
    qc.rz(0, 0.3);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_EQ(qc.twoQubitCount(true), 1u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, RxCancelsThroughCxTarget)
{
    QuantumCircuit qc(2);
    qc.rx(1, 0.9);
    qc.cx(0, 1); // X-axis on the target commutes through
    qc.rx(1, -0.9);
    QuantumCircuit before = qc;
    CommutativeCancellation pass;
    EXPECT_TRUE(pass.run(qc));
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::CX);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(CommutativeCancellationTest, MergeOptOutKeepsRotationsInPlace)
{
    // The Rz-preserving mode (used by core/parameterized.hpp) must keep
    // rotation count and order while still doing 2q cancellation.
    QuantumCircuit qc(2);
    qc.rz(0, 0.4);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.rz(0, 0.3);
    const CommutativeCancellation preserve(/*merge_rotations=*/false);
    EXPECT_TRUE(preserve.run(qc));
    ASSERT_EQ(qc.size(), 2u);
    EXPECT_EQ(qc.gate(0).angle, 0.4);
    EXPECT_EQ(qc.gate(1).angle, 0.3);
}

TEST(PhaseRotationFoldingTest, MergesAcrossCxParityWindow)
{
    // The wire-1 parity returns to its original value after the second
    // CX, so the outer rotations fold even though neither commutes with
    // the CX next to it.
    QuantumCircuit qc(2);
    qc.rz(1, 0.4);
    qc.cx(0, 1);
    qc.rz(1, 0.7); // distinct parity: stays
    qc.cx(0, 1);
    qc.rz(1, 0.2);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 4u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    // Idempotent on its own output.
    EXPECT_FALSE(pass.run(qc));
}

TEST(PhaseRotationFoldingTest, NegationFlipsRotationSign)
{
    // X Rz(a) X = Rz(-a): with the negation bit tracked, the two
    // rotations cancel exactly and only the Xs remain.
    QuantumCircuit qc(1);
    qc.x(0);
    qc.rz(0, 0.6);
    qc.x(0);
    qc.rz(0, 0.6);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_EQ(qc.size(), 2u);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
}

TEST(PhaseRotationFoldingTest, BreakerGateBlocksFolding)
{
    // H re-bases the wire: the tracker must allocate a fresh symbol and
    // refuse to merge across it.
    QuantumCircuit qc(1);
    qc.rz(0, 0.4);
    qc.h(0);
    qc.rz(0, 0.3);
    PhaseRotationFolding pass;
    EXPECT_FALSE(pass.run(qc));
    EXPECT_EQ(qc.size(), 3u);
}

TEST(PhaseRotationFoldingTest, CliffordPhasesFoldToCliffordGates)
{
    // S + S folds to Z (not an Rz mnemonic), keeping the circuit
    // recognizably Clifford for the tail pipeline's tableau replay.
    QuantumCircuit qc(2);
    qc.s(1);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.s(1);
    QuantumCircuit before = qc;
    PhaseRotationFolding pass;
    EXPECT_TRUE(pass.run(qc));
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    for (const Gate &g : qc.gates())
        EXPECT_TRUE(isClifford(g.type)) << gateName(g.type);
}

TEST(PassManagerTest, RunsToFixpoint)
{
    // A pattern that needs multiple sweeps: H H CX CX collapses fully.
    QuantumCircuit qc(2);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(0, 1);
    qc.h(0);
    const PassManager pm = PassManager::level3();
    pm.run(qc);
    EXPECT_EQ(qc.size(), 0u);
}

TEST(PassPropertyTest, AllPassesPreserveUnitaryOnRandomCircuits)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const QuantumCircuit qc = randomCircuit(3, 25, rng);
        expectUnitaryPreserved(SingleQubitFusion(), qc);
        expectUnitaryPreserved(CxCancellation(), qc);
        expectUnitaryPreserved(HadamardRewrite(), qc);
        expectUnitaryPreserved(CommutativeCancellation(), qc);
        expectUnitaryPreserved(PhaseRotationFolding(), qc);
    }
}

TEST(PassPropertyTest, AllPassesPreserveUnitaryOnRichCircuits)
{
    // Same property over the full gate vocabulary (Swap, CZ, Rx, Ry,
    // SX) that the strengthened commutation table and the parity
    // tracker handle specially.
    Rng rng(101);
    for (int trial = 0; trial < 20; ++trial) {
        const QuantumCircuit qc = randomRichCircuit(3, 25, rng);
        expectUnitaryPreserved(SingleQubitFusion(), qc);
        expectUnitaryPreserved(CxCancellation(), qc);
        expectUnitaryPreserved(HadamardRewrite(), qc);
        expectUnitaryPreserved(CommutativeCancellation(), qc);
        expectUnitaryPreserved(PhaseRotationFolding(), qc);
    }
}

TEST(PassPropertyTest, Level3PreservesUnitaryAndNeverGrows)
{
    Rng rng(79);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc = randomCircuit(4, 40, rng);
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
        EXPECT_LE(qc.size(), before.size());
        EXPECT_LE(qc.twoQubitCount(true), before.twoQubitCount(true));
    }
}

TEST(PassPropertyTest, Level3PreservesUnitaryOnRichCircuits)
{
    Rng rng(103);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc = randomRichCircuit(4, 40, rng);
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
        EXPECT_LE(qc.size(), before.size());
        EXPECT_LE(qc.twoQubitCount(true), before.twoQubitCount(true));
    }
}

TEST(PassPropertyTest, Level3IsCliffordSafeWithEqualTableau)
{
    // The tail pipeline reuses level3 on absorbed Clifford circuits: on
    // Clifford input every pass must emit only Clifford gates, and the
    // tableau must replay identically — the property the adoption check
    // in QuClear::compile relies on.
    Rng rng(107);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc(5);
        while (qc.size() < 60) {
            const uint32_t q = static_cast<uint32_t>(rng.uniformInt(5));
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(5));
            switch (rng.uniformInt(9)) {
              case 0: qc.h(q); break;
              case 1: qc.s(q); break;
              case 2: qc.sdg(q); break;
              case 3: qc.x(q); break;
              case 4: qc.z(q); break;
              case 5: qc.sx(q); break;
              case 6:
                if (r != q)
                    qc.cz(q, r);
                break;
              case 7:
                if (r != q)
                    qc.swap(q, r);
                break;
              default:
                if (r != q)
                    qc.cx(q, r);
                break;
            }
        }
        QuantumCircuit before = qc;
        PassManager::level3().run(qc);
        for (const Gate &g : qc.gates())
            EXPECT_TRUE(isClifford(g.type)) << gateName(g.type);
        EXPECT_TRUE(CliffordTableau::fromCircuit(qc) ==
                    CliffordTableau::fromCircuit(before));
    }
}


TEST(DepthSchedulingTest, ReordersCommutingChainForDepth)
{
    // CX(0,1), CX(1,2), CX(2,3) all share-target/control chains; the
    // first and last are parallelizable when the middle one moves.
    QuantumCircuit qc(4);
    qc.cx(0, 1);
    qc.cx(1, 2); // shares target-with-control: does not commute
    qc.cx(2, 3);
    // Depth is 3 in this order but CX(0,1) and CX(2,3) are disjoint:
    // scheduling can do better only if the dependency chain allows it.
    QuantumCircuit before = qc;
    DepthScheduling pass;
    pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    EXPECT_LE(entanglingDepth(qc), entanglingDepth(before));
}

TEST(DepthSchedulingTest, ImprovesSharedControlFan)
{
    // CX(1,0), CX(1,2), CX(3,2): the middle gate shares a control with
    // the first (commutes) and a target with the third (commutes).
    // Order (middle first) serializes; scheduling parallelizes the two
    // outer gates.
    QuantumCircuit qc(4);
    qc.cx(1, 2);
    qc.cx(1, 0);
    qc.cx(3, 2);
    QuantumCircuit before = qc;
    DepthScheduling pass;
    const bool changed = pass.run(qc);
    EXPECT_TRUE(circuitsEquivalent(before, qc));
    if (changed) {
        EXPECT_LT(entanglingDepth(qc), entanglingDepth(before));
    }
}

TEST(DepthSchedulingTest, NeverIncreasesDepthOnRandomCircuits)
{
    Rng rng(83);
    for (int trial = 0; trial < 15; ++trial) {
        QuantumCircuit qc = randomCircuit(5, 30, rng);
        const size_t before_depth = entanglingDepth(qc);
        QuantumCircuit before = qc;
        DepthScheduling pass;
        pass.run(qc);
        EXPECT_LE(entanglingDepth(qc), before_depth);
        EXPECT_TRUE(circuitsEquivalent(before, qc));
    }
}

/** The circuit with every Swap dropped (the scheduler's exact domain). */
QuantumCircuit
withoutSwaps(const QuantumCircuit &qc)
{
    QuantumCircuit out(qc.numQubits());
    for (const Gate &g : qc.gates())
        if (g.type != GateType::Swap)
            out.append(g);
    return out;
}

/**
 * Run the production and the reference scheduler on copies of @p qc and
 * require the same return value and the same circuit, gate for gate.
 * @return whether the schedulers rewrote the circuit
 */
bool
expectSchedulersAgree(const QuantumCircuit &qc)
{
    QuantumCircuit fast = qc;
    QuantumCircuit reference = qc;
    const bool fast_changed = DepthScheduling().run(fast);
    const bool reference_changed = ReferenceDepthScheduling().run(reference);
    EXPECT_EQ(fast_changed, reference_changed);
    expectSameCircuit(fast, reference);
    return fast_changed;
}

TEST(DepthSchedulingTest, OperandAxisMatchesGatesCommute)
{
    // Every ordered pair of non-Swap gate types in every placement on
    // three qubits: classes agree on all shared qubits iff the gates
    // commute. The scheduler's run DAG rests on this equivalence.
    const GateType kTypes[] = {
        GateType::H,  GateType::S,    GateType::Sdg, GateType::X,
        GateType::Y,  GateType::Z,    GateType::SX,  GateType::SXdg,
        GateType::Rz, GateType::Rx,   GateType::Ry,  GateType::CX,
        GateType::CZ,
    };
    auto placements = [](GateType t, double angle) {
        std::vector<Gate> out;
        for (uint32_t a = 0; a < 3; ++a) {
            if (!isTwoQubit(t)) {
                out.emplace_back(t, a, isParameterized(t) ? angle : 0.0);
                continue;
            }
            for (uint32_t b = 0; b < 3; ++b)
                if (b != a)
                    out.emplace_back(t, a, b);
        }
        return out;
    };
    auto operands = [](const Gate &g) {
        std::vector<std::pair<uint32_t, GateAxis>> out = {
            { g.q0, operandAxis(g.type, false) }
        };
        if (isTwoQubit(g.type))
            out.emplace_back(g.q1, operandAxis(g.type, true));
        return out;
    };
    size_t pairs = 0;
    for (GateType ta : kTypes) {
        for (GateType tb : kTypes) {
            for (const Gate &a : placements(ta, 0.3)) {
                for (const Gate &b : placements(tb, 0.7)) {
                    bool agree = true;
                    for (const auto &[qa, ca] : operands(a))
                        for (const auto &[qb, cb] : operands(b))
                            if (qa == qb && ca != cb)
                                agree = false;
                    EXPECT_EQ(agree, gatesCommute(a, b))
                        << gateName(a.type) << "(" << a.q0 << "," << a.q1
                        << ") vs " << gateName(b.type) << "(" << b.q0
                        << "," << b.q1 << ")";
                    ++pairs;
                }
            }
        }
    }
    EXPECT_EQ(pairs, (11u * 3 + 2u * 6) * (11u * 3 + 2u * 6));
}

TEST(DepthSchedulingTest, MatchesReferenceOnRandomCircuits)
{
    Rng rng(1409);
    size_t changed = 0;
    for (int trial = 0; trial < 2400; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.uniformRange(2, 8));
        const size_t gates = static_cast<size_t>(rng.uniformRange(1, 120));
        const QuantumCircuit qc = trial % 2 == 0
            ? randomCircuit(n, gates, rng)
            : withoutSwaps(randomRichCircuit(n, gates, rng));
        changed += expectSchedulersAgree(qc) ? 1 : 0;
        if (HasFatalFailure())
            return;
    }
    // The comparison must cover rewritten circuits, not just no-ops.
    EXPECT_GT(changed, 400u);
}

TEST(DepthSchedulingTest, MatchesReferenceOnLargeCircuit)
{
    Rng rng(2718);
    const QuantumCircuit qc = randomCircuit(12, 5000, rng);
    EXPECT_TRUE(expectSchedulersAgree(qc));
}

TEST(DepthSchedulingTest, MatchesReferenceOnCompiledCircuit)
{
    // U' straight out of extraction and the level-3 passes, before the
    // pipeline's own scheduling step.
    Rng rng(91);
    QuClearOptions options;
    options.optimizeDepth = false;
    const CompiledProgram program =
        QuClear(options).compile(randomSupportTerms(10, 150, 0.6, rng));
    EXPECT_TRUE(expectSchedulersAgree(program.circuit()));
}

TEST(DepthSchedulingTest, SwapCircuitsStayEquivalentAndNoDeeper)
{
    // Swap gets a run of its own, so with Swap the pass may order more
    // than the reference; it must still preserve the unitary and never
    // add depth.
    Rng rng(57);
    for (int trial = 0; trial < 300; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.uniformRange(2, 6));
        const size_t gates = static_cast<size_t>(rng.uniformRange(1, 60));
        QuantumCircuit qc = randomRichCircuit(n, gates, rng);
        const QuantumCircuit before = qc;
        DepthScheduling().run(qc);
        EXPECT_TRUE(circuitsEquivalent(before, qc)) << "trial " << trial;
        EXPECT_LE(entanglingDepth(qc), entanglingDepth(before));
    }
}

/**
 * Phase-polynomial-heavy circuits: CX and diagonal runs (angles often
 * multiples of pi/4, so sums also cancel) broken by H/Rx/SX, which
 * start a fresh parity symbol on their wire. A fifth of the gates are
 * breakers, so a few thousand gates allocate well over 64 symbols and
 * the seed pass's dense keys span several words.
 */
QuantumCircuit
randomParityCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    const double quarter_pi = std::atan(1.0);
    auto angle = [&] {
        return rng.uniformInt(2) == 0
                   ? quarter_pi * static_cast<double>(rng.uniformRange(-3, 4))
                   : rng.uniformReal(-3, 3);
    };
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(20)) {
          case 0: case 1: case 2: case 3: case 4: case 5: case 6:
            if (r != q)
                qc.cx(q, r);
            break;
          case 7: case 8: case 9: qc.rz(q, angle()); break;
          case 10: qc.s(q); break;
          case 11: qc.sdg(q); break;
          case 12: qc.z(q); break;
          case 13: qc.x(q); break;
          case 14:
            if (r != q)
                qc.swap(q, r);
            break;
          case 15:
            if (r != q)
                qc.cz(q, r);
            break;
          case 16: case 17: qc.h(q); break;
          case 18: qc.rx(q, angle()); break;
          default: qc.sx(q); break;
        }
    }
    return qc;
}

/** Same return value and the same circuit, angles bit for bit. */
void
expectIdentical(bool fast_changed, const QuantumCircuit &fast,
                bool reference_changed, const QuantumCircuit &reference)
{
    EXPECT_EQ(fast_changed, reference_changed);
    ASSERT_EQ(fast.size(), reference.size());
    for (size_t i = 0; i < fast.size(); ++i)
        ASSERT_TRUE(fast.gate(i) == reference.gate(i))
            << "gate " << i << ": " << gateName(fast.gate(i).type) << " vs "
            << gateName(reference.gate(i).type);
}

/**
 * Run the production folding and cancellation passes (both merge
 * modes) and their seed references on copies of @p qc, require
 * identical results, and count the passes that rewrote the circuit.
 */
size_t
expectLevel3PassesAgree(const QuantumCircuit &qc)
{
    size_t changed = 0;
    {
        QuantumCircuit fast = qc, reference = qc;
        const bool fc = PhaseRotationFolding().run(fast);
        expectIdentical(fc, fast, referencePhaseRotationFolding(reference),
                        reference);
        changed += fc ? 1 : 0;
    }
    for (bool merge : { true, false }) {
        QuantumCircuit fast = qc, reference = qc;
        const bool fc = CommutativeCancellation(merge).run(fast);
        expectIdentical(fc, fast,
                        referenceCommutativeCancellation(reference, merge),
                        reference);
        changed += fc ? 1 : 0;
    }
    return changed;
}

TEST(Level3ReferenceTest, PassesMatchReferenceOnSmallCircuits)
{
    Rng rng(1931);
    size_t changed = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.uniformRange(2, 6));
        const size_t gates = static_cast<size_t>(rng.uniformRange(1, 80));
        const QuantumCircuit qc = trial % 2 == 0
                                      ? randomParityCircuit(n, gates, rng)
                                      : randomRichCircuit(n, gates, rng);
        changed += expectLevel3PassesAgree(qc);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(changed, 1500u);
}

TEST(Level3ReferenceTest, PassesMatchReferenceOnWideCircuits)
{
    // 20-32 qubits and thousands of gates: hundreds of parity symbols,
    // so the seed pass's keys are multi-word bitsets, and long wire
    // walks between a gate and its partner.
    Rng rng(4217);
    size_t changed = 0;
    for (int trial = 0; trial < 12; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.uniformRange(20, 32));
        const size_t gates = static_cast<size_t>(rng.uniformRange(2000, 6000));
        const QuantumCircuit qc = trial % 3 == 2
                                      ? randomRichCircuit(n, gates, rng)
                                      : randomParityCircuit(n, gates, rng);
        changed += expectLevel3PassesAgree(qc);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(changed, 36u);
}

TEST(Level3ReferenceTest, PipelineMatchesReferenceOnWideCircuits)
{
    // The whole level-3 fixpoint, so the passes also see each other's
    // output.
    Rng rng(733);
    const PassManager fast_pm = PassManager::level3();
    const PassManager reference_pm = referenceLevel3();
    for (int trial = 0; trial < 4; ++trial) {
        QuantumCircuit fast = trial % 2 == 0
                                  ? randomParityCircuit(24, 4000, rng)
                                  : randomRichCircuit(24, 4000, rng);
        QuantumCircuit reference = fast;
        const size_t fast_sweeps = fast_pm.run(fast);
        EXPECT_EQ(fast_sweeps, reference_pm.run(reference));
        EXPECT_GT(fast_sweeps, 0u);
        expectIdentical(true, fast, true, reference);
        if (HasFatalFailure())
            return;
    }
}

TEST(Level3ReferenceTest, PassesMatchReferenceOnCompiledProgram)
{
    // A Table II program's raw U' and Clifford tail, then the level-3
    // pipeline over both, as QuClear::compile runs it.
    QuClearOptions options;
    options.applyLocalOptimization = false;
    options.optimizeDepth = false;
    const CompiledProgram raw =
        QuClear(options).compile(makeBenchmark("UCC-(4,8)").terms);
    for (const QuantumCircuit *qc :
         { &raw.extraction.optimized, &raw.extraction.extractedClifford }) {
        EXPECT_GT(expectLevel3PassesAgree(*qc), 0u);
        QuantumCircuit fast = *qc, reference = *qc;
        const size_t sweeps = PassManager::level3().run(fast);
        EXPECT_EQ(sweeps, referenceLevel3().run(reference));
        expectIdentical(true, fast, true, reference);
        if (HasFatalFailure())
            return;
    }
}

/**
 * The seed PassManager::run loop, verbatim: every sweep runs every
 * pass, and the loop ends after a whole sweep that changed nothing.
 */
size_t
fullSweepRun(const std::vector<std::unique_ptr<Pass>> &passes_,
             QuantumCircuit &qc, size_t max_iterations = 32)
{
    size_t effective_sweeps = 0;
    for (size_t sweep = 0; sweep < max_iterations; ++sweep) {
        bool changed = false;
        for (const auto &pass : passes_)
            changed |= pass->run(qc);
        if (!changed)
            break;
        ++effective_sweeps;
    }
    return effective_sweeps;
}

/** Forwards to a pass and counts its runs. */
class CountingPass : public Pass
{
  public:
    CountingPass(std::unique_ptr<Pass> inner, size_t &runs)
        : inner_(std::move(inner)), runs_(runs)
    {
    }

    std::string name() const override { return inner_->name(); }

    bool
    run(QuantumCircuit &qc) const override
    {
        ++runs_;
        return inner_->run(qc);
    }

  private:
    std::unique_ptr<Pass> inner_;
    size_t &runs_;
};

/** PassManager::level3()'s passes, in its order. */
std::vector<std::unique_ptr<Pass>>
level3Passes()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(std::make_unique<SingleQubitFusion>());
    passes.push_back(std::make_unique<CxCancellation>());
    passes.push_back(std::make_unique<HadamardRewrite>());
    passes.push_back(std::make_unique<CommutativeCancellation>());
    passes.push_back(std::make_unique<PhaseRotationFolding>());
    return passes;
}

/**
 * Run the level-3 pipeline through PassManager::run and through the
 * full-sweep loop on copies of @p qc; require the same gates and the
 * same sweep count. @return pass runs the early stop saved.
 */
size_t
expectEarlyStopMatchesFullSweeps(const QuantumCircuit &qc,
                                 size_t max_iterations = 32)
{
    size_t runs = 0;
    PassManager pm;
    for (auto &pass : level3Passes())
        pm.addPass(std::make_unique<CountingPass>(std::move(pass), runs));
    QuantumCircuit early = qc, full = qc;
    const size_t sweeps = pm.run(early, max_iterations);
    EXPECT_EQ(sweeps, fullSweepRun(level3Passes(), full, max_iterations));
    expectIdentical(true, early, true, full);
    const size_t full_runs = 5 * std::min(max_iterations, sweeps + 1);
    EXPECT_LE(runs, full_runs);
    return full_runs - runs;
}

TEST(PassManagerEarlyStopTest, MatchesFullSweepsOnTableII)
{
    // Raw U' and Clifford tail of every fast Table II instance, the two
    // circuits QuClear::compile runs the pipeline over.
    QuClearOptions options;
    options.applyLocalOptimization = false;
    options.optimizeDepth = false;
    size_t saved = 0;
    for (const std::string &name : fastBenchmarkNames()) {
        SCOPED_TRACE(name);
        const CompiledProgram raw =
            QuClear(options).compile(makeBenchmark(name).terms);
        for (const QuantumCircuit *qc :
             { &raw.extraction.optimized, &raw.extraction.extractedClifford }) {
            saved += expectEarlyStopMatchesFullSweeps(*qc);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(saved, 0u);
}

TEST(PassManagerEarlyStopTest, MatchesFullSweepsOnRandomCircuits)
{
    Rng rng(2207);
    size_t saved = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const uint32_t n = static_cast<uint32_t>(rng.uniformRange(2, 12));
        const size_t gates = static_cast<size_t>(rng.uniformRange(4, 400));
        QuantumCircuit qc;
        switch (trial % 3) {
          case 0: qc = randomCircuit(n, gates, rng); break;
          case 1: qc = randomRichCircuit(n, gates, rng); break;
          default: qc = randomParityCircuit(n, gates, rng); break;
        }
        // The sweep bound too: 1 and 2 cut most pipelines short.
        for (const size_t max_iterations : { 1, 2, 32 }) {
            saved += expectEarlyStopMatchesFullSweeps(qc, max_iterations);
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(saved, 0u);
}

TEST(PassManagerEarlyStopTest, EmptyPipelineRunsNoSweep)
{
    QuantumCircuit qc(2);
    qc.h(0);
    qc.h(0);
    EXPECT_EQ(PassManager().run(qc), 0u);
    EXPECT_EQ(qc.size(), 2u);
}

} // namespace
} // namespace quclear
