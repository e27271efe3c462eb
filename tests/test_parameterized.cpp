/**
 * @file
 * Tests for parameterized compilation (compile once, bind per
 * iteration) and the tableau compose/inverse algebra.
 */
#include <gtest/gtest.h>

#include "core/parameterized.hpp"
#include "core/quclear.hpp"
#include "sim/expectation.hpp"
#include "tableau/clifford_tableau.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

std::vector<ParameterizedTerm>
randomAnsatz(uint32_t n, size_t m, uint32_t num_params, Rng &rng)
{
    std::vector<ParameterizedTerm> terms;
    while (terms.size() < m) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
        if (p.isIdentity())
            continue;
        terms.emplace_back(std::move(p),
                           static_cast<uint32_t>(
                               rng.uniformInt(num_params)),
                           rng.uniformReal(-1.0, 1.0));
    }
    return terms;
}

std::vector<PauliTerm>
boundTerms(const std::vector<ParameterizedTerm> &terms,
           const std::vector<double> &values)
{
    std::vector<PauliTerm> out;
    out.reserve(terms.size());
    for (const auto &t : terms)
        out.emplace_back(t.pauli, t.coefficient * values[t.parameter]);
    return out;
}

TEST(ParameterizedTest, BindMatchesFreshCompilePerIteration)
{
    Rng rng(2001);
    const uint32_t n = 4;
    const uint32_t num_params = 3;
    const auto ansatz = randomAnsatz(n, 8, num_params, rng);
    const ParameterizedProgram program(ansatz, num_params);

    for (int iteration = 0; iteration < 5; ++iteration) {
        std::vector<double> values;
        for (uint32_t k = 0; k < num_params; ++k)
            values.push_back(rng.uniformReal(-2.0, 2.0));

        const QuantumCircuit bound = program.bind(values);
        // Reference: the same program with literal angles.
        const Statevector reference =
            referenceState(boundTerms(ansatz, values));
        Statevector sv(n);
        sv.applyCircuit(bound);
        sv.applyCircuit(program.extraction().extractedClifford);
        EXPECT_TRUE(reference.equalsUpToGlobalPhase(sv))
            << "iteration " << iteration;
    }
}

TEST(ParameterizedTest, TailAndConjugatorParameterIndependent)
{
    Rng rng(2003);
    const auto ansatz = randomAnsatz(3, 6, 2, rng);
    const ParameterizedProgram program(ansatz, 2);

    // Absorbed observables depend only on the Clifford structure: the
    // same conjugator must serve every binding.
    const PauliString obs = PauliString::fromLabel("XZY");
    const PauliString absorbed =
        program.extraction().conjugator.conjugate(obs);

    for (int iteration = 0; iteration < 3; ++iteration) {
        const std::vector<double> values = {
            rng.uniformReal(-1, 1), rng.uniformReal(-1, 1)
        };
        const QuantumCircuit bound = program.bind(values);
        Statevector sv(3);
        sv.applyCircuit(bound);
        PauliString unsigned_obs = absorbed;
        unsigned_obs.setPhase(0);
        const double via_absorbed =
            absorbed.sign() * sv.expectation(unsigned_obs);
        const double direct = referenceState(boundTerms(ansatz, values))
                                  .expectation(obs);
        EXPECT_NEAR(via_absorbed, direct, 1e-9);
    }
}

TEST(ParameterizedTest, ZeroValuesGiveCliffordOnlyAction)
{
    Rng rng(2005);
    const auto ansatz = randomAnsatz(3, 5, 2, rng);
    const ParameterizedProgram program(ansatz, 2);
    const QuantumCircuit bound = program.bind({ 0.0, 0.0 });
    // All rotations vanish: circuit + tail acts as the identity.
    Statevector sv(3);
    sv.applyCircuit(bound);
    sv.applyCircuit(program.extraction().extractedClifford);
    Statevector id(3);
    EXPECT_TRUE(sv.equalsUpToGlobalPhase(id));
}

TEST(ParameterizedTest, SharedParameterScalesTogether)
{
    // Two terms on one parameter: binding 2x doubles both angles.
    std::vector<ParameterizedTerm> ansatz;
    ansatz.emplace_back(PauliString::fromLabel("ZZ"), 0, 0.5);
    ansatz.emplace_back(PauliString::fromLabel("XX"), 0, -0.25);
    const ParameterizedProgram program(ansatz, 1);

    const QuantumCircuit bound = program.bind({ 2.0 });
    const Statevector reference =
        referenceState(boundTerms(ansatz, { 2.0 }));
    Statevector sv(2);
    sv.applyCircuit(bound);
    sv.applyCircuit(program.extraction().extractedClifford);
    EXPECT_TRUE(reference.equalsUpToGlobalPhase(sv));
}

TEST(TableauAlgebraTest, ComposeMatchesCircuitConcatenation)
{
    Rng rng(2011);
    const uint32_t n = 5;
    QuantumCircuit a(n), b(n);
    for (int i = 0; i < 20; ++i) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(3)) {
          case 0: a.h(q); b.s(q); break;
          case 1:
            if (q != r) {
                a.cx(q, r);
                b.cx(r, q);
            }
            break;
          default: a.sdg(q); b.h(q); break;
        }
    }
    CliffordTableau ta = CliffordTableau::fromCircuit(a);
    const CliffordTableau tb = CliffordTableau::fromCircuit(b);
    ta.composeWith(tb); // b after a

    QuantumCircuit ab = a;
    ab.appendCircuit(b);
    EXPECT_EQ(ta, CliffordTableau::fromCircuit(ab));
}

TEST(TableauAlgebraTest, InverseComposesToIdentity)
{
    Rng rng(2017);
    const uint32_t n = 4;
    QuantumCircuit qc(n);
    for (int i = 0; i < 24; ++i) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(4)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.x(q); break;
          default:
            if (q != r)
                qc.cx(q, r);
            break;
        }
    }
    CliffordTableau t = CliffordTableau::fromCircuit(qc);
    CliffordTableau composed = t;
    composed.composeWith(t.inverse());
    EXPECT_TRUE(composed.isIdentity());
}

} // namespace
} // namespace quclear
