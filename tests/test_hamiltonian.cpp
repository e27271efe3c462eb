/**
 * @file
 * Tests for the Hamiltonian abstraction: text round-trips, error
 * handling, Trotterization semantics (first-order product formula
 * against the exact exponential on small systems), and the end-to-end
 * energy pipeline through QuCLEAR.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>
#include <string>

#include "core/measurement_plan.hpp"
#include "core/quclear.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/expectation.hpp"

namespace quclear {
namespace {

Hamiltonian
toyHamiltonian()
{
    Hamiltonian h(3);
    h.addTerm("ZII", -0.5);
    h.addTerm("IZI", 0.25);
    h.addTerm("ZZI", 0.7);
    h.addTerm("IXX", -0.3);
    return h;
}

TEST(HamiltonianTest, TextRoundTrip)
{
    const Hamiltonian h = toyHamiltonian();
    const Hamiltonian back = Hamiltonian::fromText(h.toText());
    ASSERT_EQ(back.size(), h.size());
    for (size_t i = 0; i < h.size(); ++i) {
        EXPECT_EQ(back.terms()[i].pauli, h.terms()[i].pauli);
        EXPECT_DOUBLE_EQ(back.terms()[i].coefficient,
                         h.terms()[i].coefficient);
    }
}

TEST(HamiltonianTest, ParserHandlesCommentsAndBlanks)
{
    const Hamiltonian h = Hamiltonian::fromText(
        "# header comment\n"
        "\n"
        "-1.5  ZZ   # inline comment\n"
        " 0.5  XX\n");
    ASSERT_EQ(h.size(), 2u);
    EXPECT_EQ(h.numQubits(), 2u);
    EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, -1.5);
}

TEST(HamiltonianTest, ParserErrors)
{
    EXPECT_THROW(Hamiltonian::fromText(""), std::invalid_argument);
    EXPECT_THROW(Hamiltonian::fromText("0.5\n"), std::invalid_argument);
    EXPECT_THROW(Hamiltonian::fromText("0.5 ZZ extra\n"),
                 std::invalid_argument);
    EXPECT_THROW(Hamiltonian::fromText("0.5 ZQ\n"),
                 std::invalid_argument);
    // Mismatched widths across terms.
    EXPECT_THROW(Hamiltonian::fromText("1.0 ZZ\n1.0 ZZZ\n"),
                 std::invalid_argument);
}

TEST(HamiltonianTest, ParserRejectsNonFiniteOrMalformedCoefficients)
{
    // A coefficient that is not a finite number is an error naming the
    // line, not a blank line that leaves the ZZ term alone.
    for (const char *bad : { "abc", "1e999", "nan", "-inf", "1.0x" }) {
        const std::string text = std::string("1.0 ZZ\n") + bad + " XX\n";
        try {
            Hamiltonian::fromText(text);
            ADD_FAILURE() << "accepted coefficient " << bad;
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(std::string("'") + bad + "'"),
                      std::string::npos)
                << what;
        }
    }
    // A sign and exponent form still parse.
    const Hamiltonian h = Hamiltonian::fromText("+2.5e-1 ZZ\n-1E+1 XX\n");
    ASSERT_EQ(h.size(), 2u);
    EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, 0.25);
    EXPECT_DOUBLE_EQ(h.terms()[1].coefficient, -10.0);
}

TEST(HamiltonianTest, ParserLabelErrorsNameTheLine)
{
    // Errors raised while building a term from its label name the line
    // and quote the label, like the coefficient errors above.
    const auto message = [](const std::string &text) -> std::string {
        try {
            Hamiltonian::fromText(text);
        } catch (const std::invalid_argument &e) {
            return e.what();
        }
        ADD_FAILURE() << "accepted " << text;
        return "";
    };
    const std::string bad_char = message("1.0 ZZ\n0.5 ZQ\n");
    EXPECT_EQ(bad_char.rfind("Hamiltonian line 2: ", 0), 0u) << bad_char;
    EXPECT_NE(bad_char.find("'ZQ'"), std::string::npos) << bad_char;
    EXPECT_NE(bad_char.find("invalid Pauli character 'Q'"),
              std::string::npos)
        << bad_char;

    const std::string width = message("1.0 ZZ\n1.0 ZZZ\n");
    EXPECT_EQ(width.rfind("Hamiltonian line 2: ", 0), 0u) << width;
    EXPECT_NE(width.find("'ZZZ'"), std::string::npos) << width;

    // A long bad label is quoted through the 64-byte cap.
    const std::string long_label(100000, 'Q');
    const std::string long_error = message("0.5 " + long_label + "\n");
    EXPECT_EQ(long_error.rfind("Hamiltonian line 1: ", 0), 0u)
        << long_error;
    EXPECT_LT(long_error.size(), 200u) << long_error;
    EXPECT_NE(long_error.find("'" + std::string(64, 'Q') + "...'"),
              std::string::npos)
        << long_error;
}

TEST(HamiltonianTest, ParserErrorsQuoteAtMost64Bytes)
{
    const std::string long_token(100000, 'q');
    for (const std::string &text :
         { long_token + " ZZ\n", "0.5 ZZ " + long_token + "\n" }) {
        try {
            Hamiltonian::fromText(text);
            ADD_FAILURE() << "accepted a 100000-byte token";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_LT(what.size(), 200u) << what;
            EXPECT_NE(what.find("'" + std::string(64, 'q') + "...'"),
                      std::string::npos)
                << what;
        }
    }
}

TEST(HamiltonianTest, TrotterSkipsIdentity)
{
    Hamiltonian h(2);
    h.addTerm("II", 3.0); // constant offset
    h.addTerm("ZZ", 1.0);
    const auto terms = h.trotterTerms(0.5, 2);
    EXPECT_EQ(terms.size(), 2u); // one ZZ rotation per step
}

TEST(HamiltonianTest, TrotterConvergesToExactEvolution)
{
    // |<psi_trotter | psi_exact>| -> 1 as steps grow; error ~ 1/steps.
    const Hamiltonian h = toyHamiltonian();
    const double time = 0.8;

    // Exact evolution by scaling-free eigendecomposition is overkill;
    // approximate with a very fine Trotterization as the reference.
    const Statevector reference =
        referenceState(h.trotterTerms(time, 512));

    double prev_err = 1.0;
    for (uint32_t steps : { 1u, 4u, 16u }) {
        const Statevector approx =
            referenceState(h.trotterTerms(time, steps));
        const double err =
            1.0 - std::abs(approx.innerProduct(reference));
        EXPECT_LT(err, prev_err + 1e-12);
        prev_err = err;
    }
    EXPECT_LT(prev_err, 1e-3);
}

TEST(HamiltonianTest, EnergyThroughQuclearPipeline)
{
    // Compile the Trotter circuit, absorb the Hamiltonian, and compare
    // the grouped-measurement energy against direct evaluation.
    const Hamiltonian h = toyHamiltonian();
    const auto terms = h.trotterTerms(0.4, 2);
    const QuClear compiler;
    const auto program = compiler.compile(terms);

    const Statevector reference = referenceState(terms);
    double energy_ref = 0.0;
    for (const auto &term : h.terms())
        energy_ref += term.coefficient * reference.expectation(term.pauli);

    const auto plan =
        planMeasurements(program.extraction, h.observables());
    double energy_plan = 0.0;
    for (const auto &group : plan.groups) {
        const auto probs =
            outputProbabilities(groupCircuit(program.extraction, group));
        std::map<uint64_t, uint64_t> counts;
        for (uint64_t b = 0; b < probs.size(); ++b) {
            const auto c = static_cast<uint64_t>(
                std::llround(probs[b] * 100000000));
            if (c)
                counts[b] = c;
        }
        for (size_t slot = 0; slot < group.observableIndices.size();
             ++slot) {
            energy_plan +=
                h.terms()[group.observableIndices[slot]].coefficient *
                expectationFromGroupCounts(group, slot, counts);
        }
    }
    EXPECT_NEAR(energy_ref, energy_plan, 1e-6);
}


TEST(HamiltonianAlgebraTest, SimplifyMergesDuplicates)
{
    Hamiltonian h(2);
    h.addTerm("ZZ", 0.5);
    h.addTerm("ZZ", 0.25);
    h.addTerm("XX", 0.1);
    h.addTerm("XX", -0.1); // cancels out
    const Hamiltonian s = h.simplified();
    ASSERT_EQ(s.size(), 1u);
    EXPECT_DOUBLE_EQ(s.terms()[0].coefficient, 0.75);
}

TEST(HamiltonianAlgebraTest, SumAndScale)
{
    Hamiltonian a(2), b(2);
    a.addTerm("ZI", 1.0);
    b.addTerm("ZI", 0.5);
    b.addTerm("IX", -2.0);
    const Hamiltonian sum = a + b;
    ASSERT_EQ(sum.size(), 2u);
    const Hamiltonian scaled = sum * 2.0;
    double zi = 0, ix = 0;
    for (const auto &t : scaled.terms()) {
        if (t.pauli.toLabel() == "ZI")
            zi = t.coefficient;
        else
            ix = t.coefficient;
    }
    EXPECT_DOUBLE_EQ(zi, 3.0);
    EXPECT_DOUBLE_EQ(ix, -4.0);
}

TEST(HamiltonianAlgebraTest, SquareOfPauliIsIdentity)
{
    Hamiltonian h(2);
    h.addTerm("XY", 0.5);
    const Hamiltonian sq = h.product(h);
    ASSERT_EQ(sq.size(), 1u);
    EXPECT_TRUE(sq.terms()[0].pauli.isIdentity());
    EXPECT_DOUBLE_EQ(sq.terms()[0].coefficient, 0.25);
}

TEST(HamiltonianAlgebraTest, ProductMatchesDenseAction)
{
    const Hamiltonian h = toyHamiltonian();
    const Hamiltonian h2 = h.product(h);
    // <psi| H^2 |psi> must equal ||H|psi>||^2 on random-ish states.
    Statevector psi(3);
    QuantumCircuit prep(3);
    prep.h(0);
    prep.cx(0, 1);
    prep.ry(2, 0.9);
    psi.applyCircuit(prep);

    Statevector hpsi(3);
    applyHamiltonian(h, psi, hpsi);
    double norm2 = 0.0;
    for (uint64_t b = 0; b < hpsi.dim(); ++b)
        norm2 += std::norm(hpsi.amplitude(b));
    EXPECT_NEAR(hamiltonianExpectation(h2, psi), norm2, 1e-9);
}

TEST(HamiltonianAlgebraTest, MinimumEigenvalueOfDiagonal)
{
    // H = -Z0 - Z1 + 0.5 Z0 Z1: eigenvalues on basis states; minimum is
    // at |00>: -1 -1 + 0.5 = -1.5.
    Hamiltonian h(2);
    h.addTerm("IZ", -1.0);
    h.addTerm("ZI", -1.0);
    h.addTerm("ZZ", 0.5);
    EXPECT_NEAR(minimumEigenvalue(h), -1.5, 1e-6);
}

TEST(HamiltonianAlgebraTest, MinimumEigenvalueOfTransverseIsing)
{
    // Two-site TFIM: H = -ZZ - 0.5(XI + IX).
    Hamiltonian h(2);
    h.addTerm("ZZ", -1.0);
    h.addTerm("XI", -0.5);
    h.addTerm("IX", -0.5);
    const double e0 = minimumEigenvalue(h, 2000);
    // Variational check: e0 must lower-bound every product state tried.
    Statevector plus(2);
    plus.applyGate({ GateType::H, 0 });
    plus.applyGate({ GateType::H, 1 });
    EXPECT_LE(e0, hamiltonianExpectation(h, plus) + 1e-9);
    Statevector zero(2);
    EXPECT_LE(e0, hamiltonianExpectation(h, zero) + 1e-9);
    // Exact ground energy: -sqrt(2) (diagonalize in the symmetric
    // sector: eigenvector (1, 0.5858, 1) at lambda = -sqrt(2)).
    EXPECT_NEAR(e0, -std::sqrt(2.0), 5e-3);
}

TEST(HamiltonianTest, SecondOrderTrotterMoreAccurate)
{
    const Hamiltonian h = toyHamiltonian();
    const double time = 0.9;
    const Statevector reference =
        referenceState(h.trotterTerms(time, 1024));
    const Statevector first =
        referenceState(h.trotterTerms(time, 4));
    const Statevector second =
        referenceState(h.trotterTermsSecondOrder(time, 4));
    const double err1 = 1.0 - std::abs(first.innerProduct(reference));
    const double err2 = 1.0 - std::abs(second.innerProduct(reference));
    EXPECT_LT(err2, err1);
}

} // namespace
} // namespace quclear
