/**
 * @file
 * Tests for the gate-level front end: rewriting arbitrary Clifford +
 * rotation circuits into Pauli programs, compiling them through the full
 * QuCLEAR pipeline, and the commuting-observable measurement grouping.
 */
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "baselines/naive_synthesis.hpp"
#include "benchgen/suite.hpp"
#include "core/circuit_to_paulis.hpp"
#include "core/measurement_grouping.hpp"
#include "core/quclear.hpp"
#include "reference_frontend.hpp"
#include "sim/expectation.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

QuantumCircuit
randomCliffordRotationCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(8)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.rz(q, rng.uniformReal(-2, 2)); break;
          case 4: qc.rx(q, rng.uniformReal(-2, 2)); break;
          case 5: qc.ry(q, rng.uniformReal(-2, 2)); break;
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

/** Rebuild a PauliProgram as a circuit-equivalent statevector. */
Statevector
runPauliProgram(const PauliProgram &program, uint32_t n)
{
    Statevector sv(n);
    for (const auto &term : program.terms)
        sv.applyPauliExponential(term.pauli, term.angle);
    sv.applyCircuit(program.clifford);
    return sv;
}

TEST(CircuitToPaulisTest, PureCliffordCircuit)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.s(2);
    const PauliProgram program = circuitToPauliProgram(qc);
    EXPECT_TRUE(program.terms.empty());
    EXPECT_EQ(program.clifford.size(), 3u);
}

TEST(CircuitToPaulisTest, SingleRzIsZTerm)
{
    QuantumCircuit qc(2);
    qc.rz(1, 0.8);
    const PauliProgram program = circuitToPauliProgram(qc);
    ASSERT_EQ(program.terms.size(), 1u);
    EXPECT_EQ(program.terms[0].pauli.toLabel(), "ZI");
    EXPECT_DOUBLE_EQ(program.terms[0].angle, -0.4);
}

TEST(CircuitToPaulisTest, CliffordConjugatesLaterRotations)
{
    // H then Rz: the rotation axis becomes X.
    QuantumCircuit qc(1);
    qc.h(0);
    qc.rz(0, 0.6);
    const PauliProgram program = circuitToPauliProgram(qc);
    ASSERT_EQ(program.terms.size(), 1u);
    EXPECT_EQ(program.terms[0].pauli.toLabel(), "X");
}

TEST(CircuitToPaulisTest, RandomCircuitsRoundTripExactly)
{
    Rng rng(1501);
    for (int trial = 0; trial < 25; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(4));
        const QuantumCircuit qc =
            randomCliffordRotationCircuit(n, 20, rng);
        const PauliProgram program = circuitToPauliProgram(qc);

        Statevector direct(n);
        direct.applyCircuit(qc);
        EXPECT_TRUE(direct.equalsUpToGlobalPhase(
            runPauliProgram(program, n)))
            << "trial " << trial;
    }
}

/**
 * Every gate type of the IR on random qubits: the eight single-qubit
 * Cliffords, Rz/Rx/Ry, and (for n > 1) CX, CZ and Swap.
 */
QuantumCircuit
randomAllGateCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        uint32_t r = q;
        while (n > 1 && r == q)
            r = static_cast<uint32_t>(rng.uniformInt(n));
        const double theta = rng.uniformReal(-3, 3);
        switch (rng.uniformInt(n > 1 ? 14 : 11)) {
          case 0: qc.append(Gate(GateType::H, q)); break;
          case 1: qc.append(Gate(GateType::S, q)); break;
          case 2: qc.append(Gate(GateType::Sdg, q)); break;
          case 3: qc.append(Gate(GateType::X, q)); break;
          case 4: qc.append(Gate(GateType::Y, q)); break;
          case 5: qc.append(Gate(GateType::Z, q)); break;
          case 6: qc.append(Gate(GateType::SX, q)); break;
          case 7: qc.append(Gate(GateType::SXdg, q)); break;
          case 8: qc.append(Gate(GateType::Rz, q, theta)); break;
          case 9: qc.append(Gate(GateType::Rx, q, theta)); break;
          case 10: qc.append(Gate(GateType::Ry, q, theta)); break;
          case 11: qc.append(Gate(GateType::CX, q, r)); break;
          case 12: qc.append(Gate(GateType::CZ, q, r)); break;
          default: qc.append(Gate(GateType::Swap, q, r)); break;
        }
    }
    return qc;
}

/** circuitToPauliProgram and the seed rewrite agree bit for bit. */
void
expectMatchesReference(const QuantumCircuit &qc, const std::string &what)
{
    const PauliProgram got = circuitToPauliProgram(qc);
    const PauliProgram want = referenceCircuitToPauliProgram(qc);
    EXPECT_EQ(got.clifford.numQubits(), want.clifford.numQubits()) << what;
    EXPECT_TRUE(got.clifford.gates() == want.clifford.gates()) << what;
    ASSERT_EQ(got.terms.size(), want.terms.size()) << what;
    for (size_t i = 0; i < got.terms.size(); ++i) {
        ASSERT_EQ(got.terms[i].pauli, want.terms[i].pauli)
            << what << ", term " << i;
        ASSERT_EQ(std::bit_cast<uint64_t>(got.terms[i].angle),
                  std::bit_cast<uint64_t>(want.terms[i].angle))
            << what << ", term " << i;
    }
}

TEST(CircuitToPaulisTest, MatchesReferenceOnEveryGateType)
{
    // Word edges of the row layout, plus the tableau suite's widths.
    for (const uint32_t n : { 1u, 4u, 63u, 64u, 65u, 128u, 130u, 256u }) {
        Rng rng(5100 + n);
        for (int trial = 0; trial < 3; ++trial)
            expectMatchesReference(
                randomAllGateCircuit(n, 6 * n + 40, rng),
                "n=" + std::to_string(n) + " trial " +
                    std::to_string(trial));
    }
}

TEST(CircuitToPaulisTest, MatchesReferenceOnBenchgenCircuits)
{
    // The circuits a served job sends: each family's naive synthesis.
    for (const std::string &name : smokeBenchmarkNames())
        expectMatchesReference(naiveSynthesis(makeBenchmark(name).terms),
                               name);
}

TEST(CircuitToPaulisTest, CompileCircuitEndToEnd)
{
    Rng rng(1511);
    for (int trial = 0; trial < 10; ++trial) {
        const uint32_t n = 3;
        const QuantumCircuit qc =
            randomCliffordRotationCircuit(n, 24, rng);
        const QuClear compiler;
        const auto program = compiler.compileCircuit(qc);

        Statevector direct(n);
        direct.applyCircuit(qc);
        Statevector compiled(n);
        compiled.applyCircuit(program.circuit());
        compiled.applyCircuit(program.extraction.extractedClifford);
        EXPECT_TRUE(direct.equalsUpToGlobalPhase(compiled));
    }
}

TEST(CircuitToPaulisTest, CompileCircuitObservableAbsorption)
{
    Rng rng(1523);
    const uint32_t n = 4;
    const QuantumCircuit qc = randomCliffordRotationCircuit(n, 30, rng);
    const QuClear compiler;
    const auto program = compiler.compileCircuit(qc);

    const PauliString obs = PauliString::fromLabel("XZYI");
    const auto absorbed = compiler.absorbObservables(program, { obs })[0];

    Statevector direct(n);
    direct.applyCircuit(qc);
    Statevector optimized(n);
    optimized.applyCircuit(program.circuit());
    PauliString unsigned_obs = absorbed.transformed;
    unsigned_obs.setPhase(0);
    EXPECT_NEAR(direct.expectation(obs),
                absorbed.sign * optimized.expectation(unsigned_obs),
                1e-9);
}

TEST(CircuitToPaulisTest, PureCliffordCompileCircuitAbsorbsEverything)
{
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    const QuClear compiler;
    const auto program = compiler.compileCircuit(qc);
    EXPECT_EQ(program.circuit().size(), 0u);

    const PauliString obs = PauliString::fromLabel("ZZZ");
    const auto absorbed = compiler.absorbObservables(program, { obs })[0];
    Statevector direct(3);
    direct.applyCircuit(qc);
    Statevector empty(3);
    PauliString unsigned_obs = absorbed.transformed;
    unsigned_obs.setPhase(0);
    EXPECT_NEAR(direct.expectation(obs),
                absorbed.sign * empty.expectation(unsigned_obs), 1e-9);
}

TEST(MeasurementGroupingTest, CommutingGroupsAreMutuallyCommuting)
{
    Rng rng(1531);
    std::vector<PauliString> observables;
    for (int k = 0; k < 40; ++k) {
        PauliString p(5);
        for (uint32_t q = 0; q < 5; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        observables.push_back(std::move(p));
    }
    const auto groups = groupCommutingObservables(observables);
    size_t covered = 0;
    for (const auto &group : groups) {
        covered += group.size();
        for (size_t i = 0; i < group.size(); ++i)
            for (size_t j = i + 1; j < group.size(); ++j)
                EXPECT_TRUE(observables[group[i]].commutesWith(
                    observables[group[j]]));
    }
    EXPECT_EQ(covered, observables.size());
    EXPECT_LT(groups.size(), observables.size());
}

TEST(MeasurementGroupingTest, QubitWiseStricterThanGeneral)
{
    // XX and YY commute generally but not qubit-wise.
    const std::vector<PauliString> observables = {
        PauliString::fromLabel("XX"), PauliString::fromLabel("YY")
    };
    EXPECT_EQ(groupCommutingObservables(observables).size(), 1u);
    EXPECT_EQ(groupQubitWiseCommuting(observables).size(), 2u);
}

TEST(MeasurementGroupingTest, QubitWiseGroupsShareBases)
{
    const std::vector<PauliString> observables = {
        PauliString::fromLabel("ZZI"), PauliString::fromLabel("IZZ"),
        PauliString::fromLabel("ZIZ"), PauliString::fromLabel("XII"),
    };
    const auto groups = groupQubitWiseCommuting(observables);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].size(), 3u); // the Z-only observables
}

TEST(MeasurementGroupingTest, GroupingSurvivesAbsorption)
{
    // Sec. VI-A: grouping structure is preserved by absorption because
    // Clifford conjugation preserves commutation.
    Rng rng(1543);
    std::vector<PauliTerm> terms;
    for (int i = 0; i < 10; ++i) {
        PauliString p(4);
        for (uint32_t q = 0; q < 4; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    std::vector<PauliString> observables;
    for (int k = 0; k < 20; ++k) {
        PauliString p(4);
        for (uint32_t q = 0; q < 4; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        observables.push_back(std::move(p));
    }

    const QuClear compiler;
    const auto program = compiler.compile(terms);
    const auto absorbed = compiler.absorbObservables(program, observables);
    std::vector<PauliString> transformed;
    for (const auto &a : absorbed)
        transformed.push_back(a.transformed);

    EXPECT_EQ(groupCommutingObservables(observables).size(),
              groupCommutingObservables(transformed).size());
}

} // namespace
} // namespace quclear
