/**
 * @file
 * Regression corpus of sign-convention and collapse-semantics pitfalls.
 *
 * Every case here encodes a bug class that has actually shipped in
 * mainstream quantum SDK stabilizer/Pauli code: dropped i^k phases in
 * Pauli products (X*Y vs Y*X), the Y = iXZ convention leaking a global
 * i into tableau signs, conjugation tables with S/Sdg or sqrt(X)
 * transposed, and measurement collapse that fails to pin later
 * correlated measurements. The assertions are exact (phases and
 * outcomes, not distributions) and the stateful scenarios run on the
 * row-major ReferenceStabilizerSimulator, so a convention slip fails
 * here with a named scenario instead of deep inside a randomized suite.
 */
#include <gtest/gtest.h>

#include "pauli/pauli_string.hpp"
#include "reference_stabilizer_simulator.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

/** One-qubit Pauli from an op code, phase 0. */
PauliString
pauli1(PauliOp op)
{
    PauliString p(1);
    p.setOp(0, op);
    return p;
}

/** a * b as PauliStrings (left-to-right operator order). */
PauliString
mul(const PauliString &a, const PauliString &b)
{
    PauliString r = a;
    r.mulRight(b);
    return r;
}

TEST(RegressionCorpus, SingleQubitPauliProductSigns)
{
    // The full multiplication table with phases: XY = iZ, YX = -iZ,
    // YZ = iX, ZY = -iX, ZX = iY, XZ = -iY, and squares are +I.
    // (Real-world bug class: the antisymmetric i^k term dropped or
    // transposed, which breaks every downstream tableau sign.)
    const PauliString X = pauli1(PauliOp::X);
    const PauliString Y = pauli1(PauliOp::Y);
    const PauliString Z = pauli1(PauliOp::Z);

    struct Case
    {
        const PauliString &a, &b;
        PauliOp result;
        uint8_t phase; // i^phase
        const char *name;
    };
    const Case cases[] = {
        { X, Y, PauliOp::Z, 1, "XY=+iZ" },
        { Y, X, PauliOp::Z, 3, "YX=-iZ" },
        { Y, Z, PauliOp::X, 1, "YZ=+iX" },
        { Z, Y, PauliOp::X, 3, "ZY=-iX" },
        { Z, X, PauliOp::Y, 1, "ZX=+iY" },
        { X, Z, PauliOp::Y, 3, "XZ=-iY" },
    };
    for (const Case &c : cases) {
        const PauliString r = mul(c.a, c.b);
        PauliString want = pauli1(c.result);
        want.setPhase(c.phase);
        EXPECT_EQ(r, want) << c.name;
    }
    for (const PauliString *p : { &X, &Y, &Z }) {
        const PauliString sq = mul(*p, *p);
        EXPECT_EQ(sq.weight(), 0u);
        EXPECT_EQ(sq.phase(), 0);
    }
}

TEST(RegressionCorpus, PauliProductAssociativityAndMultiQubit)
{
    const PauliString X = pauli1(PauliOp::X);
    const PauliString Y = pauli1(PauliOp::Y);
    const PauliString Z = pauli1(PauliOp::Z);
    // (XY)Z == X(YZ): i^k bookkeeping must associate. XYZ = iZ*Z = iI.
    const PauliString left = mul(mul(X, Y), Z);
    const PauliString right = mul(X, mul(Y, Z));
    EXPECT_EQ(left, right);
    EXPECT_EQ(left.weight(), 0u);
    EXPECT_EQ(left.phase(), 1);

    // Phases multiply across qubits: XX * ZZ = (-iY)(-iY) = -YY.
    const PauliString xx = PauliString::fromLabel("XX");
    const PauliString zz = PauliString::fromLabel("ZZ");
    PauliString minus_yy = PauliString::fromLabel("YY");
    minus_yy.setPhase(2);
    EXPECT_EQ(mul(xx, zz), minus_yy);

    // mulLeft is the transposed product: a.mulLeft(b) == b * a.
    PauliString r = X;
    r.mulLeft(Z); // Z * X = +iY
    PauliString want = pauli1(PauliOp::Y);
    want.setPhase(1);
    EXPECT_EQ(r, want);
}

TEST(RegressionCorpus, YIsIXZConvention)
{
    // Y = i * X * Z exactly (not -i, not phase-free): the convention
    // every tableau sign in this codebase leans on.
    const PauliString ixz = mul(pauli1(PauliOp::X), pauli1(PauliOp::Z));
    PauliString y = pauli1(PauliOp::Y);
    // X * Z = -iY, so multiplying by i on both sides: iXZ = Y.
    y.setPhase(static_cast<uint8_t>((y.phase() + 3) & 3)); // -iY
    EXPECT_EQ(ixz, y);
}

TEST(RegressionCorpus, CliffordConjugationSignTable)
{
    // The single-qubit conjugation table, signs included — the exact
    // entries real tableau implementations have historically gotten
    // wrong by transposing S with Sdg or sqrt(X) with its adjoint:
    //   H:  X ->  Z, Y -> -Y, Z ->  X
    //   S:  X ->  Y, Y -> -X, Z ->  Z
    //   Sdg:X -> -Y, Y ->  X, Z ->  Z
    //   SX: X ->  X, Y ->  Z, Z -> -Y
    //   SXdg: X -> X, Y -> -Z, Z ->  Y
    struct Entry
    {
        GateType gate;
        PauliOp in, out;
        uint8_t phase;
    };
    const Entry table[] = {
        { GateType::H, PauliOp::X, PauliOp::Z, 0 },
        { GateType::H, PauliOp::Y, PauliOp::Y, 2 },
        { GateType::H, PauliOp::Z, PauliOp::X, 0 },
        { GateType::S, PauliOp::X, PauliOp::Y, 0 },
        { GateType::S, PauliOp::Y, PauliOp::X, 2 },
        { GateType::S, PauliOp::Z, PauliOp::Z, 0 },
        { GateType::Sdg, PauliOp::X, PauliOp::Y, 2 },
        { GateType::Sdg, PauliOp::Y, PauliOp::X, 0 },
        { GateType::Sdg, PauliOp::Z, PauliOp::Z, 0 },
        { GateType::SX, PauliOp::X, PauliOp::X, 0 },
        { GateType::SX, PauliOp::Y, PauliOp::Z, 0 },
        { GateType::SX, PauliOp::Z, PauliOp::Y, 2 },
        { GateType::SXdg, PauliOp::X, PauliOp::X, 0 },
        { GateType::SXdg, PauliOp::Y, PauliOp::Z, 2 },
        { GateType::SXdg, PauliOp::Z, PauliOp::Y, 0 },
    };
    for (const Entry &e : table) {
        PauliString p = pauli1(e.in);
        applyGateToPauli(p, { e.gate, 0 });
        PauliString want = pauli1(e.out);
        want.setPhase(e.phase);
        EXPECT_EQ(p, want)
            << "gate " << static_cast<int>(e.gate) << " on op "
            << static_cast<int>(e.in);
    }
}

/** The stateful scenarios: measurement collapse and outcome
 *  determinism on the stabilizer simulator. */
TEST(RegressionCorpus, CollapseDeterminismReference)
{
    using Sim = ReferenceStabilizerSimulator;
    // |1> preparations that must ALL read 1 deterministically —
    // including via Y, whose i phase is global and must not leak into
    // the outcome, and via HZH, which exercises conjugation signs.
    {
        Sim sim(1);
        Rng rng(1);
        sim.applyGate({ GateType::X, 0 });
        EXPECT_TRUE(sim.measure(0, rng));
        EXPECT_TRUE(sim.measure(0, rng)); // collapse is stable
    }
    {
        Sim sim(1);
        Rng rng(2);
        sim.applyGate({ GateType::Y, 0 });
        EXPECT_TRUE(sim.measure(0, rng));
    }
    {
        Sim sim(1);
        Rng rng(3);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::Z, 0 });
        sim.applyGate({ GateType::H, 0 });
        EXPECT_TRUE(sim.measure(0, rng));
    }

    // A random |+> measurement collapses: the outcome repeats, a Z
    // afterwards cannot change it, an X afterwards must flip it.
    {
        Sim sim(1);
        Rng rng(4);
        sim.applyGate({ GateType::H, 0 });
        const bool first = sim.measure(0, rng);
        EXPECT_EQ(sim.measure(0, rng), first);
        sim.applyGate({ GateType::Z, 0 });
        EXPECT_EQ(sim.measure(0, rng), first);
        sim.applyGate({ GateType::X, 0 });
        EXPECT_EQ(sim.measure(0, rng), !first);
    }

    // GHZ: after measuring qubit 0, qubits 1 and 2 are pinned to the
    // same value (the collapse must propagate through the stabilizers,
    // not just the measured column).
    {
        Sim sim(3);
        Rng rng(5);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::CX, 0u, 1u });
        sim.applyGate({ GateType::CX, 0u, 2u });
        const bool first = sim.measure(0, rng);
        EXPECT_EQ(sim.measure(1, rng), first);
        EXPECT_EQ(sim.measure(2, rng), first);
    }

    // Bell-state observables: XX and ZZ stabilize, and because
    // XX * ZZ = -YY, the YY expectation must be -1 — the canonical
    // Y-phase-convention detector.
    {
        Sim sim(2);
        Rng rng(6);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::CX, 0u, 1u });
        EXPECT_EQ(sim.expectation(PauliString::fromLabel("XX")), 1);
        EXPECT_EQ(sim.expectation(PauliString::fromLabel("ZZ")), 1);
        EXPECT_EQ(sim.expectation(PauliString::fromLabel("YY")), -1);
        EXPECT_EQ(sim.expectation(PauliString::fromLabel("XZ")), 0);
        // Joint-parity measurement is deterministic on the Bell state
        // and must not collapse anything: ZZ reads +1 (false), YY
        // reads -1 (true), and both single qubits stay random-but-
        // correlated afterwards.
        EXPECT_FALSE(sim.measurePauli(PauliString::fromLabel("ZZ"), rng));
        EXPECT_TRUE(sim.measurePauli(PauliString::fromLabel("YY"), rng));
        const bool a = sim.measure(0, rng);
        EXPECT_EQ(sim.measure(1, rng), a);
    }

    // |i> = S H |0> is the +1 eigenstate of Y: a sign slip in the S
    // conjugation shows up as <Y> = -1 here.
    {
        Sim sim(1);
        Rng rng(7);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::S, 0 });
        EXPECT_EQ(sim.expectation(pauli1(PauliOp::Y)), 1);
        Sim sim_dg(1);
        sim_dg.applyGate({ GateType::H, 0 });
        sim_dg.applyGate({ GateType::Sdg, 0 });
        EXPECT_EQ(sim_dg.expectation(pauli1(PauliOp::Y)), -1);
    }

    // Anticommuting-observable measurement consumes exactly one RNG
    // draw: two identically seeded streams must stay in lockstep over
    // a mixed random/deterministic measurement sequence.
    {
        Sim sim_a(2);
        Sim sim_b(2);
        Rng rng_a(8);
        Rng rng_b(8);
        for (Sim *s : { &sim_a, &sim_b }) {
            s->applyGate({ GateType::H, 0 });
            s->applyGate({ GateType::CX, 0u, 1u });
        }
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(sim_a.measure(0, rng_a), sim_b.measure(0, rng_b));
            EXPECT_EQ(sim_a.measure(1, rng_a), sim_b.measure(1, rng_b));
            sim_a.applyGate({ GateType::H, 0 });
            sim_b.applyGate({ GateType::H, 0 });
        }
        EXPECT_EQ(rng_a(), rng_b()); // streams still aligned
    }

    // reset() pins the qubit to |0> from any entangled state.
    {
        Sim sim(2);
        Rng rng(9);
        sim.applyGate({ GateType::H, 0 });
        sim.applyGate({ GateType::CX, 0u, 1u });
        sim.reset(0, rng);
        EXPECT_FALSE(sim.measure(0, rng));
    }
}

} // namespace
} // namespace quclear
