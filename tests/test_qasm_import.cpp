/**
 * @file
 * Tests for the OpenQASM 2.0 importer: round-trips with the exporter,
 * angle-expression evaluation, tolerated statements, and error
 * reporting on malformed input.
 */
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/naive_synthesis.hpp"
#include "benchgen/labs.hpp"
#include "benchgen/spin_chains.hpp"
#include "benchgen/suite.hpp"
#include "circuit/qasm.hpp"
#include "circuit/qasm_import.hpp"
#include "reference_frontend.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

constexpr double kPi = 3.14159265358979323846;

/**
 * fromQasm, checked against the seed importer on the same text: both
 * must build the same gates (angles bit for bit) or throw the same
 * message. Returns fromQasm's circuit or rethrows its error, so every
 * input of this suite is also a differential case.
 */
QuantumCircuit
importChecked(const std::string &qasm)
{
    std::optional<QuantumCircuit> got, want;
    std::string got_error, want_error;
    try {
        got = fromQasm(qasm);
    } catch (const std::invalid_argument &e) {
        got_error = e.what();
    }
    try {
        want = referenceFromQasm(qasm);
    } catch (const std::invalid_argument &e) {
        want_error = e.what();
    }
    const std::string input = qasm.substr(0, 200);
    EXPECT_EQ(got_error, want_error) << "input: " << input;
    EXPECT_EQ(got.has_value(), want.has_value()) << "input: " << input;
    if (got && want) {
        EXPECT_EQ(got->numQubits(), want->numQubits()) << "input: " << input;
        EXPECT_EQ(got->size(), want->size()) << "input: " << input;
        for (size_t i = 0; i < std::min(got->size(), want->size()); ++i) {
            const Gate &a = got->gate(i), &b = want->gate(i);
            EXPECT_TRUE(a.type == b.type && a.q0 == b.q0 && a.q1 == b.q1 &&
                        std::bit_cast<uint64_t>(a.angle) ==
                            std::bit_cast<uint64_t>(b.angle))
                << "gate " << i << " of input: " << input;
        }
    }
    if (!got)
        throw std::invalid_argument(got_error);
    return *got;
}

TEST(QasmImportTest, MinimalProgram)
{
    const QuantumCircuit qc = importChecked(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n");
    ASSERT_EQ(qc.size(), 2u);
    EXPECT_EQ(qc.numQubits(), 2u);
    EXPECT_EQ(qc.gate(0).type, GateType::H);
    EXPECT_EQ(qc.gate(1).type, GateType::CX);
    EXPECT_EQ(qc.gate(1).q0, 0u);
    EXPECT_EQ(qc.gate(1).q1, 1u);
}

TEST(QasmImportTest, RoundTripWithExporter)
{
    Rng rng(1601);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit qc(4);
        for (int i = 0; i < 25; ++i) {
            const uint32_t q = static_cast<uint32_t>(rng.uniformInt(4));
            switch (rng.uniformInt(6)) {
              case 0: qc.h(q); break;
              case 1: qc.sdg(q); break;
              case 2: qc.rz(q, rng.uniformReal(-3, 3)); break;
              case 3: qc.ry(q, rng.uniformReal(-3, 3)); break;
              default: {
                const uint32_t r =
                    static_cast<uint32_t>(rng.uniformInt(4));
                if (r != q)
                    qc.cx(q, r);
                break;
              }
            }
        }
        // Tiny angles print in exponent form (e.g. 2.08e-05).
        qc.rz(static_cast<uint32_t>(trial % 4), 2.08e-05);
        qc.ry(static_cast<uint32_t>(trial % 4), -3e-7);
        const QuantumCircuit back = importChecked(toQasm(qc));
        ASSERT_EQ(back.size(), qc.size());
        for (size_t i = 0; i < qc.size(); ++i) {
            EXPECT_EQ(back.gate(i).type, qc.gate(i).type);
            EXPECT_EQ(back.gate(i).q0, qc.gate(i).q0);
            EXPECT_EQ(back.gate(i).q1, qc.gate(i).q1);
            EXPECT_NEAR(back.gate(i).angle, qc.gate(i).angle, 1e-15);
        }
    }
}

TEST(QasmImportTest, PiExpressions)
{
    const QuantumCircuit qc = importChecked(
        "OPENQASM 2.0;\n"
        "qreg q[1];\n"
        "rz(pi/2) q[0];\n"
        "rz(-pi/4) q[0];\n"
        "rz(3*pi/4) q[0];\n"
        "rz(0.5) q[0];\n"
        "rz(pi) q[0];\n"
        "rz(2*pi - pi/2) q[0];\n"
        "rz(2.08e-05) q[0];\n"
        "rz(-3e-7) q[0];\n"
        "rz(1.5E+2) q[0];\n"
        "rz(2e-05*pi) q[0];\n"
        "rz(1e-3 - 2e-3) q[0];\n");
    ASSERT_EQ(qc.size(), 11u);
    EXPECT_NEAR(qc.gate(0).angle, kPi / 2, 1e-12);
    EXPECT_NEAR(qc.gate(1).angle, -kPi / 4, 1e-12);
    EXPECT_NEAR(qc.gate(2).angle, 3 * kPi / 4, 1e-12);
    EXPECT_NEAR(qc.gate(3).angle, 0.5, 1e-12);
    EXPECT_NEAR(qc.gate(4).angle, kPi, 1e-12);
    EXPECT_NEAR(qc.gate(5).angle, 2 * kPi - kPi / 2, 1e-12);
    EXPECT_DOUBLE_EQ(qc.gate(6).angle, 2.08e-05);
    EXPECT_DOUBLE_EQ(qc.gate(7).angle, -3e-7);
    EXPECT_DOUBLE_EQ(qc.gate(8).angle, 150.0);
    EXPECT_NEAR(qc.gate(9).angle, 2e-05 * kPi, 1e-18);
    EXPECT_NEAR(qc.gate(10).angle, -1e-3, 1e-18);
}

TEST(QasmImportTest, ParenthesisedAngles)
{
    // The parameter list ends at the ')' that balances its '(', not at
    // the first ')'.
    const QuantumCircuit qc = importChecked(
        "OPENQASM 2.0;\n"
        "qreg q[2];\n"
        "rz(-(pi/2)) q[0];\n"
        "rz((pi)/2) q[0];\n"
        "rz(pi*(1+1)/4) q[1];\n"
        "rz(((0.5))) q[1];\n"
        "rx( ( pi ) * 2 ) q[0];\n"
        "ry(-(1e-3 - 2e-3)*(pi)) q[1];\n"
        "rz(2 * -pi/4 - -pi) q[0];\n");
    ASSERT_EQ(qc.size(), 7u);
    EXPECT_NEAR(qc.gate(0).angle, -kPi / 2, 1e-12);
    EXPECT_NEAR(qc.gate(1).angle, kPi / 2, 1e-12);
    EXPECT_NEAR(qc.gate(2).angle, kPi / 2, 1e-12);
    EXPECT_EQ(qc.gate(2).q0, 1u);
    EXPECT_DOUBLE_EQ(qc.gate(3).angle, 0.5);
    EXPECT_EQ(qc.gate(4).type, GateType::Rx);
    EXPECT_NEAR(qc.gate(4).angle, 2 * kPi, 1e-12);
    EXPECT_NEAR(qc.gate(5).angle, 1e-3 * kPi, 1e-15);
    EXPECT_NEAR(qc.gate(6).angle, kPi / 2, 1e-12);
}

TEST(QasmImportTest, UnbalancedParenthesesAreRejected)
{
    for (const char *stmt : { "rz((pi) q[0];", "rz(pi)) q[0];",
                              "rz(pi)/2) q[0];", "rz(((0.5)) q[0];",
                              "rz(()) q[0];", "rz(pi/(2) q[0];" }) {
        EXPECT_THROW(
            importChecked(std::string("OPENQASM 2.0; qreg q[1]; ") + stmt),
            std::invalid_argument)
            << stmt;
    }
}

TEST(QasmImportTest, OverDeepAngleNestingIsRejected)
{
    const std::string head = "OPENQASM 2.0; qreg q[1]; rz(";
    auto nested = [](size_t depth) {
        return std::string(depth, '(') + "pi" + std::string(depth, ')');
    };
    auto angle = [&](const std::string &expr) {
        return importChecked(head + expr + ") q[0];").gate(0).angle;
    };
    // 64 levels inside the parameter list parse; 65 do not.
    EXPECT_NEAR(angle(nested(64)), kPi, 1e-12);
    EXPECT_THROW(angle(nested(65)), std::invalid_argument);
    // Sign runs and operator chains do not nest, however long.
    const size_t big = size_t(1) << 20;
    EXPECT_NEAR(angle(std::string(big + 1, '-') + "pi"), -kPi, 1e-12);
    std::string chain = "pi";
    for (size_t i = 0; i < big / 2; ++i)
        chain += "*1";
    EXPECT_NEAR(angle(chain), kPi, 1e-12);
    // A million levels, balanced or not, end in a classified error
    // rather than a stack overflow.
    for (const std::string &expr : { nested(big), std::string(big, '(') }) {
        try {
            angle(expr);
            ADD_FAILURE() << "accepted " << expr.size() << " characters";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("QASM parse error"),
                      std::string::npos);
        }
    }
}

TEST(QasmImportTest, ErrorsQuoteABoundedPrefixOfHostileInput)
{
    // Each statement is about 1 MB and fails at a different check that
    // quotes input; the message must stay short either way.
    const std::string big(size_t(1) << 20, '9');
    const std::string head = "OPENQASM 2.0; qreg q[2]; ";
    const std::vector<std::string> programs = {
        head + "rz(" + std::string(big.size(), '(') + "pi) q[0];",
        head + "rz(" + std::string(big.size(), 'x') + ") q[0];",
        head + "rz(" + big + ") q[0];", // overflows to inf
        head + "h " + std::string(big.size(), 'q') + ";",
        head + "h " + std::string(big.size(), 'r') + "[0];",
        head + "h q[" + big + "];",
        head + std::string(big.size(), 'a') + " q[0];",
        head + "cx q[0]," + std::string(big.size(), ' ') + "q[0];",
        "OPENQASM 2.0; qreg q[" + big + "];",
    };
    for (const std::string &qasm : programs) {
        try {
            importChecked(qasm);
            ADD_FAILURE() << "accepted a " << qasm.size() << "-byte program";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_LT(what.size(), 256u) << what.substr(0, 300);
            EXPECT_EQ(what.rfind("QASM parse error", 0), 0u) << what;
        }
    }
}

TEST(QasmImportTest, IgnoresMeasureCregBarrier)
{
    const QuantumCircuit qc = importChecked(
        "OPENQASM 2.0;\n"
        "qreg q[2]; creg c[2];\n"
        "h q[0]; barrier q[0],q[1];\n"
        "measure q[0] -> c[0];\n");
    EXPECT_EQ(qc.size(), 1u);
}

TEST(QasmImportTest, CommentsStripped)
{
    const QuantumCircuit qc = importChecked(
        "OPENQASM 2.0; // header\n"
        "qreg q[1];\n"
        "// a full-line comment with h q[0];\n"
        "x q[0]; // trailing\n");
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::X);
}

TEST(QasmImportTest, ErrorsOnMalformedInput)
{
    EXPECT_THROW(importChecked("qreg q[2]; h q[0];"), std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; t q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; h q[5];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; cx q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; rz q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; h r[0];"),
                 std::invalid_argument);
    // Repeated operands on a 2q gate.
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; swap q[1], q[1];"),
                 std::invalid_argument);
    // Non-finite angles.
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; rz(nan) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; rz(inf) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; rx(-inf) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; ry(1e999) q[1];"),
                 std::invalid_argument);
}

TEST(QasmImportTest, RegisterSizeIsOverflowChecked)
{
    // 2^32 + 2 once wrapped to a 2-qubit register and parsed cleanly.
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[4294967298]; h q[0];"),
                 std::invalid_argument);
    // Fits in 32 bits, but far past the cap: rejected before any
    // allocation is attempted.
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[4000000000]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(
        importChecked("OPENQASM 2.0; qreg q[99999999999999999999999];"),
        std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[65537]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[-2]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2x]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[]; h q[0];"),
                 std::invalid_argument);

    const QuantumCircuit at_cap = importChecked(
        "OPENQASM 2.0; qreg q[65536]; h q[65535]; cx q[0], q[65535];");
    EXPECT_EQ(at_cap.numQubits(), kMaxQasmQubits);
    ASSERT_EQ(at_cap.size(), 2u);
    EXPECT_EQ(at_cap.gate(0).q0, 65535u);
    EXPECT_EQ(importChecked("OPENQASM 2.0; qreg q[ 3 ]; x q[ 2 ];").numQubits(),
              3u);
}

TEST(QasmImportTest, QubitIndexIsOverflowChecked)
{
    // 2^32 + 1 once wrapped to qubit 1 of the register.
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; h q[4294967297];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; h q[-1];"),
                 std::invalid_argument);
    EXPECT_THROW(importChecked("OPENQASM 2.0; qreg q[2]; h q[1x];"),
                 std::invalid_argument);
}

TEST(QasmImportTest, SemanticRoundTrip)
{
    // The parsed circuit must implement the same unitary.
    QuantumCircuit qc(3);
    qc.h(0);
    qc.cx(0, 1);
    qc.rz(1, 0.77);
    qc.cz(1, 2);
    qc.sxdg(2);
    const QuantumCircuit back = importChecked(toQasm(qc));
    EXPECT_TRUE(circuitsEquivalent(qc, back));
}

TEST(QasmImportTest, MatchesReferenceOnBenchgenFamilies)
{
    // The QASM a served job sends: toQasm of a family's naive synthesis.
    std::vector<std::pair<std::string, std::vector<PauliTerm>>> programs;
    for (const std::string &name : smokeBenchmarkNames())
        programs.emplace_back(name, makeBenchmark(name).terms);
    programs.emplace_back("LABS-(n20)", labsQaoa(20));
    programs.emplace_back("TFIM-(n6)", tfimTrotter(6, 2, 1e-5));
    programs.emplace_back("XXZ-(n6)", heisenbergTrotter(6, 2));
    for (const auto &[name, terms] : programs) {
        const QuantumCircuit qc = naiveSynthesis(terms);
        EXPECT_EQ(importChecked(toQasm(qc)).size(), qc.size()) << name;
    }
}

/** Byte-level mutations of @p text, drawn from @p rng. */
std::string
mutate(std::string text, Rng &rng)
{
    static const std::string kBytes =
        std::string(" \t\n\r;/()[],.-+*eE0123456789qrhxyzcs_pi") + '\0';
    const auto pick = [&] {
        return rng.bernoulli(0.2)
                   ? static_cast<char>(rng.uniformInt(256))
                   : kBytes[rng.uniformInt(kBytes.size())];
    };
    const size_t edits = 1 + rng.uniformInt(3);
    for (size_t e = 0; e < edits && !text.empty(); ++e) {
        const size_t at = rng.uniformInt(text.size());
        const size_t span = 1 + rng.uniformInt(std::min<size_t>(
                                    8, text.size() - at));
        switch (rng.uniformInt(5)) {
          case 0: text[at] = pick(); break;
          case 1: text.insert(text.begin() + static_cast<long>(at), pick());
                  break;
          case 2: text.erase(at, span); break;
          case 3: text.insert(at, text.substr(at, span)); break;
          default: text.resize(at); break;
        }
    }
    return text;
}

TEST(QasmImportTest, MatchesReferenceOnMutatedPrograms)
{
    QuantumCircuit every_gate(3);
    every_gate.h(0);
    every_gate.append(Gate(GateType::S, 1u));
    every_gate.sdg(2);
    every_gate.x(0);
    every_gate.append(Gate(GateType::Y, 1u));
    every_gate.append(Gate(GateType::Z, 2u));
    every_gate.append(Gate(GateType::SX, 0u));
    every_gate.sxdg(1);
    every_gate.rz(2, -2.5e-05);
    every_gate.rx(0, 0.75);
    every_gate.ry(1, -1.25);
    every_gate.cx(0, 2);
    every_gate.cz(2, 1);
    every_gate.append(Gate(GateType::Swap, 1u, 0u));
    const std::string files[] = {
        "OPENQASM 2.0; // header\n"
        "include \"qelib1.inc\";\n"
        "qreg q[4]; creg c[4];\n"
        "h q[0]; cx q[0],\n  q[1]; // split operands\n"
        "rz(-(pi/2)*1e-3) q[1];\n"
        "rx( ( pi ) * 2 ) q[2]; ry(2 * -pi/4 - -pi) q[3];\n"
        "swap q[3], q[2]; barrier q[0],q[1];\n"
        "measure q[0] -> c[0];\n",
        toQasm(naiveSynthesis(labsQaoa(5))),
        toQasm(every_gate),
    };
    Rng rng(6151);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string &file = files[trial % 3];
        try {
            importChecked(mutate(file, rng));
        } catch (const std::invalid_argument &) {
            // Rejected; importChecked already compared the messages.
        }
        if (HasFailure())
            FAIL() << "trial " << trial;
    }
}

} // namespace
} // namespace quclear
