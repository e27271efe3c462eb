/**
 * @file
 * Tests for the OpenQASM 2.0 importer: round-trips with the exporter,
 * angle-expression evaluation, tolerated statements, and error
 * reporting on malformed input.
 */
#include <gtest/gtest.h>

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
