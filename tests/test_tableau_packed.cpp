/**
 * @file
 * Randomized cross-check of the bit-sliced CliffordTableau against the
 * row-major ReferenceTableau (the preserved seed implementation).
 *
 * The two engines are driven gate by gate with identical streams at
 * qubit counts straddling the 64-bit word boundaries (1, 63, 64, 65,
 * 128, 256) and must stay bit-identical — including every row sign and
 * every conjugation phase — through appends, conjugation,
 * composition, inversion, and the toCircuit round trip.
 */
#include <gtest/gtest.h>

#include "reference_tableau.hpp"
#include "tableau/clifford_tableau.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

constexpr uint32_t kQubitCounts[] = { 1, 63, 64, 65, 128, 256 };

/** Every row image must match, signs included. */
void
expectEqualTableaux(const CliffordTableau &packed,
                    const ReferenceTableau &ref)
{
    ASSERT_EQ(packed.numQubits(), ref.numQubits());
    for (uint32_t q = 0; q < ref.numQubits(); ++q) {
        ASSERT_EQ(packed.imageX(q), ref.imageX(q)) << "rowX " << q;
        ASSERT_EQ(packed.imageZ(q), ref.imageZ(q)) << "rowZ " << q;
    }
}

TEST(PackedTableauCrossCheck, GateByGateAppends)
{
    for (uint32_t n : kQubitCounts) {
        Rng rng(1000 + n);
        CliffordTableau packed(n);
        ReferenceTableau ref(n);
        expectEqualTableaux(packed, ref);
        const size_t gates = n <= 64 ? 400 : 150;
        for (size_t i = 0; i < gates; ++i) {
            const Gate g = randomCliffordGate(n, rng);
            packed.appendGate(g);
            ref.appendGate(g);
            if (i % 25 == 0)
                expectEqualTableaux(packed, ref);
        }
        expectEqualTableaux(packed, ref);
    }
}

TEST(PackedTableauCrossCheck, ConjugatePhasesBitIdentical)
{
    for (uint32_t n : kQubitCounts) {
        Rng rng(2000 + n);
        CliffordTableau packed(n);
        ReferenceTableau ref(n);
        for (size_t i = 0; i < 6 * n + 20; ++i) {
            const Gate g = randomCliffordGate(n, rng);
            packed.appendGate(g);
            ref.appendGate(g);
        }
        for (int trial = 0; trial < 25; ++trial) {
            // Mix dense and sparse inputs so both conjugation paths
            // (column-parallel and gather/multiply) are exercised.
            const double bias = trial % 2 ? 0.9 : 0.2;
            const PauliString p = randomPhasedPauli(n, rng, bias);
            const PauliString got = packed.conjugate(p);
            const PauliString want = ref.conjugate(p);
            ASSERT_EQ(got, want)
                << "n=" << n << " trial=" << trial << " input "
                << p.toLabel();
        }
        // Identity stays identity, phase preserved.
        PauliString id(n);
        id.setPhase(3);
        ASSERT_EQ(packed.conjugate(id), ref.conjugate(id));
    }
}

TEST(PackedTableauCrossCheck, ComposeMatchesReference)
{
    for (uint32_t n : kQubitCounts) {
        Rng rng(4000 + n);
        CliffordTableau pa(n), pb(n);
        ReferenceTableau ra(n), rb(n);
        for (int i = 0; i < 80; ++i) {
            const Gate g = randomCliffordGate(n, rng);
            pa.appendGate(g);
            ra.appendGate(g);
            const Gate h = randomCliffordGate(n, rng);
            pb.appendGate(h);
            rb.appendGate(h);
        }
        pa.composeWith(pb);
        ra.composeWith(rb);
        expectEqualTableaux(pa, ra);
    }
}

TEST(PackedTableauCrossCheck, ToCircuitRoundTripAndInverse)
{
    for (uint32_t n : kQubitCounts) {
        if (n > 128)
            continue; // synthesis is O(n^2) gates; 256 is covered above
        Rng rng(5000 + n);
        CliffordTableau packed(n);
        ReferenceTableau ref(n);
        for (size_t i = 0; i < 4 * n + 10; ++i) {
            const Gate g = randomCliffordGate(n, rng);
            packed.appendGate(g);
            ref.appendGate(g);
        }
        // Same tableau must synthesize the same canonical circuit.
        const QuantumCircuit pc = packed.toCircuit();
        const QuantumCircuit rc = ref.toCircuit();
        ASSERT_EQ(pc.size(), rc.size()) << "n=" << n;
        for (size_t i = 0; i < pc.size(); ++i) {
            ASSERT_EQ(pc.gate(i).type, rc.gate(i).type);
            ASSERT_EQ(pc.gate(i).q0, rc.gate(i).q0);
            ASSERT_EQ(pc.gate(i).q1, rc.gate(i).q1);
        }
        // Round trip: replaying the synthesis reproduces the tableau.
        ASSERT_EQ(CliffordTableau::fromCircuit(pc), packed);
        // Inverse composes to the identity.
        CliffordTableau inv = packed.inverse();
        inv.composeWith(packed);
        ASSERT_TRUE(inv.isIdentity()) << "n=" << n;
    }
}

TEST(PackedTableauCrossCheck, WordBoundaryColumnsStayClean)
{
    // Appends at qubits 63/64/65 exercise the row-word seams; the
    // trailing bits past row 2n must never leak into comparisons.
    for (uint32_t n : { 63u, 64u, 65u }) {
        CliffordTableau t(n);
        for (uint32_t q = 0; q + 1 < n; ++q)
            t.appendCX(q, q + 1);
        for (uint32_t q = 0; q < n; ++q) {
            t.appendH(q);
            t.appendS(q);
        }
        CliffordTableau u(n);
        ASSERT_NE(t, u);
        const QuantumCircuit qc = t.toCircuit();
        ASSERT_EQ(CliffordTableau::fromCircuit(qc), t);
    }
}

} // namespace
} // namespace quclear
