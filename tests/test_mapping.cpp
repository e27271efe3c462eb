/**
 * @file
 * Tests for the device-mapping substrate of Fig. 11: coupling maps,
 * device topologies, layout selection, SABRE routing validity (every
 * two-qubit gate on an edge), semantic preservation and gate-for-gate
 * identity with the seed router, rejection of hostile routing input,
 * and the CNOT-network synthesis used by QAOA absorption.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "benchgen/labs.hpp"
#include "core/quclear.hpp"
#include "mapping/cnot_synthesis.hpp"
#include "mapping/devices.hpp"
#include "mapping/layout.hpp"
#include "mapping/sabre_router.hpp"
#include "reference_sabre_router.hpp"
#include "sim/statevector.hpp"
#include "util/rng.hpp"

namespace quclear {
namespace {

TEST(CouplingMapTest, DistancesOnALine)
{
    const CouplingMap line = lineDevice(5);
    EXPECT_EQ(line.distance(0, 4), 4u);
    EXPECT_EQ(line.distance(2, 3), 1u);
    EXPECT_TRUE(line.adjacent(1, 2));
    EXPECT_FALSE(line.adjacent(0, 2));
    EXPECT_TRUE(line.isConnected());
}

TEST(DeviceTest, ManhattanHeavyHex)
{
    const CouplingMap dev = manhattanHeavyHex();
    EXPECT_EQ(dev.numQubits(), 65u);
    EXPECT_EQ(dev.edges().size(), 72u);
    EXPECT_TRUE(dev.isConnected());
    // Heavy-hex degree bound: no qubit exceeds degree 3.
    for (uint32_t q = 0; q < dev.numQubits(); ++q)
        EXPECT_LE(dev.neighbors(q).size(), 3u);
}

TEST(DeviceTest, SycamoreGrid)
{
    const CouplingMap dev = sycamoreGrid();
    EXPECT_EQ(dev.numQubits(), 64u);
    EXPECT_EQ(dev.edges().size(), 2u * 8 * 7);
    EXPECT_TRUE(dev.isConnected());
    for (uint32_t q = 0; q < dev.numQubits(); ++q)
        EXPECT_LE(dev.neighbors(q).size(), 4u);
}

TEST(LayoutTest, GreedyLayoutIsValidPermutation)
{
    QuantumCircuit qc(6);
    Rng rng(31);
    for (int i = 0; i < 20; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(6));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(6));
        if (a != b)
            qc.cx(a, b);
    }
    const CouplingMap dev = gridDevice(3, 3);
    const auto layout = greedyLayout(qc, dev);
    ASSERT_EQ(layout.size(), 6u);
    std::set<uint32_t> used(layout.begin(), layout.end());
    EXPECT_EQ(used.size(), 6u); // injective
    for (uint32_t phys : layout)
        EXPECT_LT(phys, dev.numQubits());
}

TEST(LayoutTest, HeavyInteractionPairsPlacedAdjacent)
{
    QuantumCircuit qc(2);
    for (int i = 0; i < 10; ++i)
        qc.cx(0, 1);
    const CouplingMap dev = lineDevice(8);
    const auto layout = greedyLayout(qc, dev);
    EXPECT_EQ(dev.distance(layout[0], layout[1]), 1u);
}

void
expectRoutedValid(const QuantumCircuit &logical, const CouplingMap &dev,
                  const RoutingResult &result)
{
    for (const Gate &g : result.routed.gates()) {
        if (isTwoQubit(g.type)) {
            EXPECT_TRUE(dev.adjacent(g.q0, g.q1))
                << gateName(g.type) << " " << g.q0 << "," << g.q1;
        }
    }
    // Gate conservation: all original gates present (plus swaps).
    size_t non_swap = 0;
    for (const Gate &g : result.routed.gates())
        if (g.type != GateType::Swap)
            ++non_swap;
    EXPECT_EQ(non_swap, logical.size());
}

TEST(RouterTest, AdjacentGatesNeedNoSwaps)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 2);
    const CouplingMap dev = lineDevice(3);
    const auto result = sabreRoute(qc, dev, trivialLayout(3));
    EXPECT_EQ(result.swapCount, 0u);
    expectRoutedValid(qc, dev, result);
}

TEST(RouterTest, DistantGateGetsRouted)
{
    QuantumCircuit qc(4);
    qc.cx(0, 3);
    const CouplingMap dev = lineDevice(4);
    const auto result = sabreRoute(qc, dev, trivialLayout(4));
    EXPECT_GE(result.swapCount, 1u);
    expectRoutedValid(qc, dev, result);
}

/**
 * Routing preserves semantics: undo the final layout permutation with
 * SWAPs and compare against the logical circuit extended to the device
 * size.
 */
void
expectRoutingSemantics(const QuantumCircuit &logical,
                       const CouplingMap &dev)
{
    const auto layout0 = trivialLayout(logical.numQubits());
    const auto result = sabreRoute(logical, dev, layout0);
    expectRoutedValid(logical, dev, result);

    // Build the reference: logical circuit embedded at physical = logical
    // (trivial initial layout).
    QuantumCircuit reference(dev.numQubits());
    for (const Gate &g : logical.gates()) {
        Gate mapped = g;
        mapped.q0 = layout0[g.q0];
        if (isTwoQubit(g.type))
            mapped.q1 = layout0[g.q1];
        else
            mapped.q1 = mapped.q0;
        reference.append(mapped);
    }
    // Undo the routing permutation: map physical back.
    QuantumCircuit undo = result.routed;
    // final layout: logical q -> result.finalLayout[q]; append swaps to
    // restore physical q = layout0[q].
    std::vector<uint32_t> current = result.finalLayout;
    for (uint32_t q = 0; q < logical.numQubits(); ++q) {
        const uint32_t want = layout0[q];
        if (current[q] == want)
            continue;
        // Find the logical qubit (if any) currently at 'want'.
        uint32_t other = logical.numQubits();
        for (uint32_t r = 0; r < logical.numQubits(); ++r)
            if (current[r] == want)
                other = r;
        undo.swap(current[q], want);
        if (other != logical.numQubits())
            current[other] = current[q];
        current[q] = want;
    }
    EXPECT_TRUE(circuitsEquivalent(reference, undo));
}

TEST(RouterTest, SemanticsPreservedOnLine)
{
    Rng rng(37);
    QuantumCircuit qc(4);
    for (int i = 0; i < 12; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(4));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(4));
        if (a != b)
            qc.cx(a, b);
        else
            qc.rz(a, rng.uniformReal(-1, 1));
    }
    expectRoutingSemantics(qc, lineDevice(4));
}

TEST(RouterTest, SemanticsPreservedOnGrid)
{
    Rng rng(41);
    QuantumCircuit qc(6);
    for (int i = 0; i < 15; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(6));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(6));
        if (a != b)
            qc.cx(a, b);
        else
            qc.h(a);
    }
    expectRoutingSemantics(qc, gridDevice(2, 3));
}

TEST(RouterTest, LargeCircuitTerminates)
{
    Rng rng(43);
    QuantumCircuit qc(20);
    for (int i = 0; i < 400; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(20));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(20));
        if (a != b)
            qc.cx(a, b);
    }
    const CouplingMap dev = manhattanHeavyHex();
    const auto result = mapToDevice(qc, dev);
    expectRoutedValid(qc, dev, result);
    EXPECT_GT(result.swapCount, 0u);
}

QuantumCircuit
randomCxCircuit(uint32_t n, int gates, Rng &rng)
{
    QuantumCircuit qc(n);
    for (int i = 0; i < gates; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (a != b)
            qc.cx(a, b);
        else
            qc.h(a);
    }
    return qc;
}

/**
 * Every routed two-qubit gate must land on a physical edge, for every
 * device topology shipped in src/mapping/devices.cpp — the contract
 * the Fig. 11 hardware evaluation relies on.
 */
TEST(RouterTest, RoutedRespectsCouplingOnEveryDevice)
{
    struct NamedDevice
    {
        const char *name;
        CouplingMap map;
    };
    const NamedDevice devices[] = {
        { "manhattanHeavyHex", manhattanHeavyHex() },
        { "sycamoreGrid", sycamoreGrid() },
        { "gridDevice(4,4)", gridDevice(4, 4) },
        { "lineDevice(10)", lineDevice(10) },
        { "fullyConnected(8)", fullyConnected(8) },
    };
    Rng rng(53);
    for (const auto &device : devices) {
        SCOPED_TRACE(device.name);
        const uint32_t n =
            device.map.numQubits() < 10 ? device.map.numQubits() : 10;
        const QuantumCircuit qc = randomCxCircuit(n, 60, rng);
        const auto result = mapToDevice(qc, device.map);
        expectRoutedValid(qc, device.map, result);
    }
}

TEST(RouterTest, SwapCountBoundsOnLine)
{
    // A single maximally distant gate on a line: at least distance - 1
    // swaps are unavoidable, and a sane router stays within a small
    // multiple of the shortest-path cost.
    for (const uint32_t n : { 4u, 6u, 8u }) {
        const CouplingMap dev = lineDevice(n);
        QuantumCircuit qc(n);
        qc.cx(0, n - 1);
        const auto result = sabreRoute(qc, dev, trivialLayout(n));
        expectRoutedValid(qc, dev, result);
        EXPECT_GE(result.swapCount, static_cast<size_t>(n) - 2)
            << "n=" << n;
        EXPECT_LE(result.swapCount, 3u * (static_cast<size_t>(n) - 2) + 1)
            << "n=" << n;
    }

    // An adjacent-only chain needs no routing at all.
    const uint32_t n = 8;
    QuantumCircuit chain(n);
    for (uint32_t q = 0; q + 1 < n; ++q)
        chain.cx(q, q + 1);
    const auto routed = sabreRoute(chain, lineDevice(n), trivialLayout(n));
    EXPECT_EQ(routed.swapCount, 0u);
}

TEST(RouterTest, SwapCountBoundsOnGrid)
{
    // Opposite corners of a 3x3 grid are distance 4 apart: >= 3 swaps
    // for one gate, and the total stays within a shortest-path multiple
    // summed over gates.
    const CouplingMap dev = gridDevice(3, 3);
    QuantumCircuit qc(9);
    qc.cx(0, 8);
    const auto one = sabreRoute(qc, dev, trivialLayout(9));
    expectRoutedValid(qc, dev, one);
    EXPECT_GE(one.swapCount, dev.distance(0, 8) - 1);
    EXPECT_LE(one.swapCount, 3u * (dev.distance(0, 8) - 1) + 1);

    Rng rng(59);
    const QuantumCircuit many = randomCxCircuit(9, 30, rng);
    const auto result = sabreRoute(many, dev, trivialLayout(9));
    expectRoutedValid(many, dev, result);
    size_t path_bound = 0;
    for (const Gate &g : many.gates())
        if (isTwoQubit(g.type))
            path_bound += 3u * static_cast<size_t>(dev.distance(g.q0, g.q1));
    EXPECT_LE(result.swapCount, path_bound + many.size());
}

/**
 * Layout round trip: greedyLayout must be an injective in-range map on
 * every device, and replaying the routed circuit's SWAPs over the
 * initial layout must land exactly on the router's reported
 * finalLayout.
 */
TEST(RouterTest, LayoutRoundTripMatchesFinalLayout)
{
    const CouplingMap devices[] = { manhattanHeavyHex(), sycamoreGrid(),
                                    gridDevice(3, 4), lineDevice(9) };
    Rng rng(61);
    for (const CouplingMap &dev : devices) {
        const uint32_t n = 8;
        const QuantumCircuit qc = randomCxCircuit(n, 40, rng);

        const auto layout = greedyLayout(qc, dev);
        ASSERT_EQ(layout.size(), n);
        std::set<uint32_t> used(layout.begin(), layout.end());
        EXPECT_EQ(used.size(), n) << "layout must be injective";
        for (const uint32_t phys : layout)
            ASSERT_LT(phys, dev.numQubits());

        const auto result = sabreRoute(qc, dev, layout);
        expectRoutedValid(qc, dev, result);

        // Replay: every SWAP in the routed circuit permutes the
        // logical -> physical map; the end state must equal finalLayout.
        std::vector<uint32_t> current = layout;
        for (const Gate &g : result.routed.gates()) {
            if (g.type != GateType::Swap)
                continue;
            for (uint32_t q = 0; q < n; ++q) {
                if (current[q] == g.q0)
                    current[q] = g.q1;
                else if (current[q] == g.q1)
                    current[q] = g.q0;
            }
        }
        EXPECT_EQ(current, result.finalLayout);
    }
}

/** Random circuit over the routing vocabulary: 1q gates, CX, CZ, Swap. */
QuantumCircuit
randomRoutingCircuit(uint32_t n, size_t gates, Rng &rng)
{
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(6)) {
          case 0: qc.h(a); break;
          case 1: qc.rz(a, rng.uniformReal(-3, 3)); break;
          case 2: if (a != b) qc.cz(a, b); break;
          case 3: if (a != b) qc.swap(a, b); break;
          default: if (a != b) qc.cx(a, b); break;
        }
    }
    return qc;
}

/** Random injective layout of @p logical qubits on @p physical ones. */
std::vector<uint32_t>
randomLayout(uint32_t logical, uint32_t physical, Rng &rng)
{
    std::vector<uint32_t> phys(physical);
    std::iota(phys.begin(), phys.end(), 0u);
    rng.shuffle(phys);
    phys.resize(logical);
    return phys;
}

/** Gate-for-gate equality of two routings, naming the first mismatch. */
::testing::AssertionResult
sameRouting(const RoutingResult &got, const RoutingResult &want)
{
    if (got.swapCount != want.swapCount)
        return ::testing::AssertionFailure()
               << "swapCount " << got.swapCount << " vs " << want.swapCount;
    if (got.finalLayout != want.finalLayout)
        return ::testing::AssertionFailure() << "finalLayout differs";
    const auto &g = got.routed.gates();
    const auto &w = want.routed.gates();
    if (got.routed.numQubits() != want.routed.numQubits() ||
        g.size() != w.size())
        return ::testing::AssertionFailure()
               << "routed size " << g.size() << " vs " << w.size();
    for (size_t i = 0; i < g.size(); ++i)
        if (!(g[i] == w[i]))
            return ::testing::AssertionFailure()
                   << "gate " << i << ": " << gateName(g[i].type) << " "
                   << g[i].q0 << "," << g[i].q1 << " vs "
                   << gateName(w[i].type) << " " << w[i].q0 << ","
                   << w[i].q1;
    return ::testing::AssertionSuccess();
}

/**
 * The incremental router must make every decision the seed router
 * makes: random circuits and their inverses, from random injective
 * layouts with fewer logical than physical qubits, on every shipped
 * topology.
 */
TEST(RouterTest, MatchesReferenceRouterOnRandomCircuits)
{
    struct NamedDevice
    {
        const char *name;
        CouplingMap map;
    };
    const NamedDevice devices[] = {
        { "manhattanHeavyHex", manhattanHeavyHex() },
        { "sycamoreGrid", sycamoreGrid() },
        { "gridDevice(4,5)", gridDevice(4, 5) },
        { "lineDevice(12)", lineDevice(12) },
        { "fullyConnected(8)", fullyConnected(8) },
    };
    Rng rng(67);
    for (const auto &device : devices) {
        SCOPED_TRACE(device.name);
        const uint32_t phys = device.map.numQubits();
        const int64_t max_n = phys - 1 < 24 ? phys - 1 : 24;
        for (int trial = 0; trial < 25; ++trial) {
            const uint32_t n =
                static_cast<uint32_t>(rng.uniformRange(2, max_n));
            const size_t gates =
                static_cast<size_t>(rng.uniformRange(1, 400));
            const QuantumCircuit qc = randomRoutingCircuit(n, gates, rng);
            const auto layout = randomLayout(n, phys, rng);
            EXPECT_TRUE(sameRouting(sabreRoute(qc, device.map, layout),
                                    referenceSabreRoute(qc, device.map,
                                                        layout)))
                << "trial " << trial;
            const QuantumCircuit inv = qc.inverse();
            EXPECT_TRUE(sameRouting(sabreRoute(inv, device.map, layout),
                                    referenceSabreRoute(inv, device.map,
                                                        layout)))
                << "inverse, trial " << trial;
        }
        const QuantumCircuit qc =
            randomRoutingCircuit(static_cast<uint32_t>(max_n), 300, rng);
        EXPECT_TRUE(sameRouting(mapToDevice(qc, device.map),
                                referenceMapToDevice(qc, device.map)));
    }
}

/**
 * Candidates are only edges touching a current front-gate qubit. Found
 * by a search over 1.4M short random routings: in both cases a SWAP
 * between two non-front qubits would tie the chosen one (it lowers the
 * lookahead cost as much as the front SWAP lowers the front cost) and
 * win the lexicographic tie-break, costing an extra SWAP.
 */
TEST(RouterTest, MatchesReferenceRouterWhenOnlyLookaheadSwapsTie)
{
    struct Case
    {
        std::vector<std::pair<uint32_t, uint32_t>> gates; // {q, q}: H
        std::vector<uint32_t> layout;
        size_t swaps;
    };
    const Case cases[] = {
        { { { 11, 10 }, { 1, 7 }, { 9, 8 }, { 7, 4 }, { 0, 1 }, { 8, 3 },
            { 4, 4 }, { 9, 12 } },
          { 5, 16, 4, 9, 8, 15, 11, 14, 13, 2, 18, 7, 17, 10 },
          12 },
        { { { 9, 7 }, { 4, 4 }, { 6, 5 }, { 14, 4 }, { 11, 9 }, { 3, 8 },
            { 5, 14 }, { 7, 13 } },
          { 16, 15, 3, 17, 5, 2, 19, 10, 6, 9, 1, 18, 11, 12, 8 },
          14 },
    };
    const CouplingMap dev = gridDevice(4, 5);
    for (const Case &c : cases) {
        QuantumCircuit qc(static_cast<uint32_t>(c.layout.size()));
        for (const auto &[a, b] : c.gates) {
            if (a == b)
                qc.h(a);
            else
                qc.cx(a, b);
        }
        const RoutingResult got = sabreRoute(qc, dev, c.layout);
        EXPECT_EQ(got.swapCount, c.swaps);
        EXPECT_TRUE(
            sameRouting(got, referenceSabreRoute(qc, dev, c.layout)));
    }
}

/** The Fig. 11 path end to end: mapToDevice of a compiled U'. */
TEST(RouterTest, MatchesReferenceRouterOnCompiledCircuit)
{
    const CompiledProgram program = QuClear().compile(labsQaoa(20));
    for (const CouplingMap &dev : { sycamoreGrid(), manhattanHeavyHex() }) {
        const RoutingResult got = mapToDevice(program.circuit(), dev);
        EXPECT_GT(got.swapCount, 0u);
        EXPECT_TRUE(
            sameRouting(got, referenceMapToDevice(program.circuit(), dev)));
    }
}

TEST(RouterTest, RejectsDisconnectedDevice)
{
    // Used to spin forever in the stall fallback: no neighbour of qubit
    // 0 is closer to qubit 2 than "unreachable".
    const CouplingMap split(4, { { 0, 1 }, { 2, 3 } });
    EXPECT_FALSE(split.isConnected());
    QuantumCircuit qc(4);
    qc.cx(0, 2);
    EXPECT_THROW(sabreRoute(qc, split, trivialLayout(4)),
                 std::invalid_argument);
    EXPECT_THROW(mapToDevice(qc, split), std::invalid_argument);
}

TEST(RouterTest, RejectsCircuitLargerThanDevice)
{
    // Used to return a 1-gate "routed" circuit in Release builds.
    QuantumCircuit qc(5);
    for (uint32_t q = 0; q + 1 < 5; ++q)
        qc.cx(q, q + 1);
    const CouplingMap line = lineDevice(4);
    EXPECT_THROW(greedyLayout(qc, line), std::invalid_argument);
    EXPECT_THROW(mapToDevice(qc, line), std::invalid_argument);
}

TEST(RouterTest, RejectsInvalidInitialLayout)
{
    QuantumCircuit qc(3);
    qc.cx(0, 2);
    const CouplingMap line = lineDevice(4);
    const std::vector<std::vector<uint32_t>> bad = {
        { 0, 1, 1 }, // not injective
        { 0, 1, 4 }, // out of range
        { 0, 1 },    // too short
        { 0, 1, 2, 3 },
    };
    for (const auto &layout : bad)
        EXPECT_THROW(sabreRoute(qc, line, layout), std::invalid_argument);
    EXPECT_NO_THROW(sabreRoute(qc, line, { 3, 1, 0 }));
}

TEST(CnotSynthesisTest, RoundTripRandomNetworks)
{
    Rng rng(47);
    for (int trial = 0; trial < 20; ++trial) {
        const uint32_t n = 2 + static_cast<uint32_t>(rng.uniformInt(7));
        QuantumCircuit net(n);
        for (int i = 0; i < 3 * static_cast<int>(n); ++i) {
            const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
            const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
            if (a != b)
                net.cx(a, b);
        }
        const LinearFunction lf = LinearFunction::ofCircuit(net);
        const QuantumCircuit synth = synthesizeCnotNetwork(lf);
        EXPECT_EQ(LinearFunction::ofCircuit(synth), lf);
    }
}

TEST(CnotSynthesisTest, ApplyMatchesCircuitAction)
{
    QuantumCircuit net(3);
    net.cx(0, 1);
    net.cx(1, 2);
    const LinearFunction lf = LinearFunction::ofCircuit(net);
    // |110>: bits q0=0? basis bit q = (basis >> q) & 1. Input 0b011
    // (q0=1, q1=1): CX(0,1) -> q1 ^= q0 = 0; CX(1,2) -> q2 ^= q1 = 0.
    EXPECT_EQ(lf.apply(0b011), 0b001u);
    EXPECT_EQ(lf.apply(0b001), 0b111u); // q0=1 propagates through both
}

TEST(CnotSynthesisTest, IdentitySynthesizesEmpty)
{
    const auto qc = synthesizeCnotNetwork(LinearFunction::identity(5));
    EXPECT_EQ(qc.size(), 0u);
}

} // namespace
} // namespace quclear
