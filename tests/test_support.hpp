/**
 * @file
 * Shared randomized-input helpers for the test suites, so the gate
 * distributions and term generators driving the cross-check suites
 * stay identical everywhere (a gate-set change lands in one place).
 */
#ifndef QUCLEAR_TESTS_TEST_SUPPORT_HPP
#define QUCLEAR_TESTS_TEST_SUPPORT_HPP

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/quantum_circuit.hpp"
#include "core/clifford_extractor.hpp"
#include "pauli/pauli_string.hpp"
#include "pauli/pauli_term.hpp"
#include "reference_extractor.hpp"
#include "util/rng.hpp"

namespace quclear {

/** Uniform draw over the full Clifford gate set of the IR. */
inline Gate
randomCliffordGate(uint32_t n, Rng &rng)
{
    const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
    uint32_t r = q;
    if (n > 1) {
        while (r == q)
            r = static_cast<uint32_t>(rng.uniformInt(n));
    }
    switch (rng.uniformInt(n > 1 ? 11 : 8)) {
      case 0: return { GateType::H, q };
      case 1: return { GateType::S, q };
      case 2: return { GateType::Sdg, q };
      case 3: return { GateType::X, q };
      case 4: return { GateType::Y, q };
      case 5: return { GateType::Z, q };
      case 6: return { GateType::SX, q };
      case 7: return { GateType::SXdg, q };
      case 8: return { GateType::CX, q, r };
      case 9: return { GateType::CZ, q, r };
      default: return { GateType::Swap, q, r };
    }
}

/** Random Clifford circuit over the common {H, S, Sdg, X, CX} subset. */
inline QuantumCircuit
randomCliffordCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(5)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.sdg(q); break;
          case 3: qc.x(q); break;
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

/**
 * Random Pauli with uniform per-qubit operators (identity included),
 * skipping qubits with probability @p identity_bias, and a random
 * phase half the time — the tableau cross-check input distribution.
 */
inline PauliString
randomPhasedPauli(uint32_t n, Rng &rng, double identity_bias = 0.0)
{
    PauliString p(n);
    for (uint32_t q = 0; q < n; ++q) {
        if (identity_bias > 0.0 && rng.bernoulli(identity_bias))
            continue;
        p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
    }
    if (rng.bernoulli(0.5))
        p.setPhase(static_cast<uint8_t>(rng.uniformInt(4)));
    return p;
}

/**
 * Random phase-free Pauli placing a non-identity operator on each
 * qubit with probability 1 - @p identity_bias — the extraction-term
 * support distribution.
 */
inline PauliString
randomSupportPauli(uint32_t n, Rng &rng, double identity_bias)
{
    PauliString p(n);
    for (uint32_t q = 0; q < n; ++q) {
        if (!rng.bernoulli(identity_bias))
            p.setOp(q, static_cast<PauliOp>(1 + rng.uniformInt(3)));
    }
    return p;
}

/** Random non-identity rotation terms built on randomSupportPauli. */
inline std::vector<PauliTerm>
randomSupportTerms(uint32_t n, size_t m, double identity_bias, Rng &rng)
{
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p = randomSupportPauli(n, rng, identity_bias);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    return terms;
}

/** Gate-for-gate circuit equality (types, qubits, angles). */
inline void
expectSameCircuit(const QuantumCircuit &a, const QuantumCircuit &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.gate(i).type, b.gate(i).type) << "gate " << i;
        ASSERT_EQ(a.gate(i).q0, b.gate(i).q0) << "gate " << i;
        ASSERT_EQ(a.gate(i).q1, b.gate(i).q1) << "gate " << i;
        ASSERT_DOUBLE_EQ(a.gate(i).angle, b.gate(i).angle) << "gate " << i;
    }
}

/**
 * The production extractor and the seed one (referenceCliffordExtract)
 * compile @p terms identically: same U', tail, conjugator and rotation
 * count.
 */
inline void
expectMatchesReference(const std::vector<PauliTerm> &terms,
                       const ExtractionConfig &config, const std::string &what)
{
    const ExtractionResult got = CliffordExtractor(config).run(terms);
    const ExtractionResult want = referenceCliffordExtract(terms, config);
    EXPECT_EQ(got.optimized.numQubits(), want.optimized.numQubits()) << what;
    EXPECT_TRUE(got.optimized.gates() == want.optimized.gates())
        << what << ": U' differs (" << got.optimized.size() << " vs "
        << want.optimized.size() << " gates)";
    EXPECT_TRUE(got.extractedClifford.gates() ==
                want.extractedClifford.gates())
        << what << ": tail differs";
    EXPECT_TRUE(got.conjugator == want.conjugator)
        << what << ": conjugator differs";
    EXPECT_EQ(got.rotationTerms, want.rotationTerms) << what;
}

/**
 * The synthesis portfolio's beam candidates: exhaustive search off,
 * beam of @p width, commuting blocks on or off (kPortfolio's "beam8"
 * and "beam8-noblocks" at width 8).
 */
inline ExtractionConfig
beamConfig(uint32_t width, bool use_commuting_blocks)
{
    ExtractionConfig config;
    config.tree.exhaustiveThreshold = 0;
    config.tree.beamWidth = width;
    config.useCommutingBlocks = use_commuting_blocks;
    return config;
}

} // namespace quclear

#endif // QUCLEAR_TESTS_TEST_SUPPORT_HPP
