/**
 * @file
 * Tests for the OpenQASM 2.0 importer: round-trips with the exporter,
 * angle-expression evaluation, tolerated statements, and error
 * reporting on malformed input.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuit/qasm.hpp"
#include "circuit/qasm_import.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(QasmImportTest, MinimalProgram)
{
    const QuantumCircuit qc = fromQasm(
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
        const QuantumCircuit back = fromQasm(toQasm(qc));
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
    const QuantumCircuit qc = fromQasm(
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
    const QuantumCircuit qc = fromQasm(
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
        EXPECT_THROW(fromQasm(std::string("OPENQASM 2.0; qreg q[1]; ") +
                              stmt),
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
        return fromQasm(head + expr + ") q[0];").gate(0).angle;
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
            fromQasm(qasm);
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
    const QuantumCircuit qc = fromQasm(
        "OPENQASM 2.0;\n"
        "qreg q[2]; creg c[2];\n"
        "h q[0]; barrier q[0],q[1];\n"
        "measure q[0] -> c[0];\n");
    EXPECT_EQ(qc.size(), 1u);
}

TEST(QasmImportTest, CommentsStripped)
{
    const QuantumCircuit qc = fromQasm(
        "OPENQASM 2.0; // header\n"
        "qreg q[1];\n"
        "// a full-line comment with h q[0];\n"
        "x q[0]; // trailing\n");
    ASSERT_EQ(qc.size(), 1u);
    EXPECT_EQ(qc.gate(0).type, GateType::X);
}

TEST(QasmImportTest, ErrorsOnMalformedInput)
{
    EXPECT_THROW(fromQasm("qreg q[2]; h q[0];"), std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; t q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; h q[5];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; cx q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; rz q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; h r[0];"),
                 std::invalid_argument);
    // Repeated operands on a 2q gate.
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; swap q[1], q[1];"),
                 std::invalid_argument);
    // Non-finite angles.
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; rz(nan) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; rz(inf) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; rx(-inf) q[1];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; ry(1e999) q[1];"),
                 std::invalid_argument);
}

TEST(QasmImportTest, RegisterSizeIsOverflowChecked)
{
    // 2^32 + 2 once wrapped to a 2-qubit register and parsed cleanly.
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[4294967298]; h q[0];"),
                 std::invalid_argument);
    // Fits in 32 bits, but far past the cap: rejected before any
    // allocation is attempted.
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[4000000000]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[99999999999999999999999];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[65537]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[-2]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2x]; h q[0];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[]; h q[0];"),
                 std::invalid_argument);

    const QuantumCircuit at_cap = fromQasm(
        "OPENQASM 2.0; qreg q[65536]; h q[65535]; cx q[0], q[65535];");
    EXPECT_EQ(at_cap.numQubits(), kMaxQasmQubits);
    ASSERT_EQ(at_cap.size(), 2u);
    EXPECT_EQ(at_cap.gate(0).q0, 65535u);
    EXPECT_EQ(fromQasm("OPENQASM 2.0; qreg q[ 3 ]; x q[ 2 ];").numQubits(),
              3u);
}

TEST(QasmImportTest, QubitIndexIsOverflowChecked)
{
    // 2^32 + 1 once wrapped to qubit 1 of the register.
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; h q[4294967297];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; h q[-1];"),
                 std::invalid_argument);
    EXPECT_THROW(fromQasm("OPENQASM 2.0; qreg q[2]; h q[1x];"),
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
    const QuantumCircuit back = fromQasm(toQasm(qc));
    EXPECT_TRUE(circuitsEquivalent(qc, back));
}

} // namespace
} // namespace quclear
