/**
 * @file
 * google-benchmark microbenchmarks for the classical kernels whose
 * complexity the paper quotes: tableau gate appends (bit-sliced O(n/64)
 * vs the row-major reference's O(n)), Pauli conjugation through a
 * tableau (O(n^2) bound, Sec. V-D), CNOT-tree synthesis, full Clifford
 * Extraction throughput, and CA-Post bitstring remapping (O(mk),
 * Sec. VI-B).
 *
 * The Packed/Reference benchmark pairs measure the bit-sliced engine
 * against the preserved row-major seed implementation on identical gate
 * and Pauli streams; the ...Batch variants record the batched
 * conjugation kernel against its scalar counterpart. CI records them
 * as JSON via
 *   bench_micro \
 *     --benchmark_filter='Tableau|Extraction|ExtractorCommutingBlock|Absorb' \
 *     --benchmark_out=BENCH_tableau.json --benchmark_out_format=json
 */
#include <benchmark/benchmark.h>

#include <string>

#include "benchgen/suite.hpp"
#include "core/absorption_post.hpp"
#include "core/absorption_pre.hpp"
#include "core/clifford_extractor.hpp"
#include "core/diagonalization.hpp"
#include "core/tree_synthesis.hpp"
#include "mapping/devices.hpp"
#include "mapping/sabre_router.hpp"
#include "sim/noise_model.hpp"
#include "sim/statevector.hpp"
#include "pauli/pauli_term.hpp"
#include "tableau/packed_tableau.hpp"
#include "tableau/reference_stabilizer_simulator.hpp"
#include "tableau/reference_tableau.hpp"
#include "tableau/stabilizer_simulator.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

namespace {

using namespace quclear;

PauliString
randomPauli(uint32_t n, Rng &rng)
{
    PauliString p(n);
    for (uint32_t q = 0; q < n; ++q)
        p.setOp(q, static_cast<PauliOp>(rng.uniformInt(4)));
    return p;
}

std::vector<PauliTerm>
randomTerms(uint32_t n, size_t m, uint64_t seed)
{
    Rng rng(seed);
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p = randomPauli(n, rng);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    return terms;
}

/** Deterministic random gate stream shared by the paired benchmarks. */
std::vector<Gate>
randomGateStream(uint32_t n, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Gate> gates;
    gates.reserve(count);
    while (gates.size() < count) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(4)) {
          case 0: gates.push_back({ GateType::H, q }); break;
          case 1: gates.push_back({ GateType::S, q }); break;
          default: {
            const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
            if (r != q)
                gates.push_back({ GateType::CX, q, r });
            break;
          }
        }
    }
    return gates;
}

template <typename Tableau>
void
scrambleTableau(Tableau &t, uint32_t n, uint64_t seed)
{
    for (const Gate &g : randomGateStream(n, 4 * n, seed))
        t.appendGate(g);
}

template <typename Tableau>
void
tableauAppendCx(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Tableau t(n);
    Rng rng(1);
    for (auto _ : state) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (b == a)
            b = (a + 1) % n;
        t.appendCX(a, b);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PackedTableauAppendCx(benchmark::State &state)
{
    tableauAppendCx<PackedTableau>(state);
}
BENCHMARK(BM_PackedTableauAppendCx)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauAppendCx(benchmark::State &state)
{
    tableauAppendCx<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauAppendCx)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

template <typename Tableau>
void
tableauConjugate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(2);
    Tableau t(n);
    scrambleTableau(t, n, 2);
    const PauliString p = randomPauli(n, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(t.conjugate(p));
    state.SetItemsProcessed(state.iterations());
}

void
BM_PackedTableauConjugate(benchmark::State &state)
{
    tableauConjugate<PackedTableau>(state);
}
BENCHMARK(BM_PackedTableauConjugate)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauConjugate(benchmark::State &state)
{
    tableauConjugate<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauConjugate)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

/**
 * The batched conjugation kernel: args are {qubits, batch size}. The
 * tableau transpose is paid once per call and amortized over the
 * batch, so per-item time should sit well below the scalar
 * BM_PackedTableauConjugate at the same qubit count (the acceptance
 * bar is >= 2x at 128 qubits on >= 16-term batches). The work vector
 * is refreshed element-wise each iteration, which reuses each string's
 * capacity — the same in-place update pattern the extractor's
 * conjugation cache uses.
 */
void
BM_PackedTableauConjugateBatch(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t batch = static_cast<size_t>(state.range(1));
    Rng rng(2);
    PackedTableau t(n);
    scrambleTableau(t, n, 2);
    std::vector<PauliString> inputs;
    for (size_t i = 0; i < batch; ++i)
        inputs.push_back(randomPauli(n, rng));
    std::vector<PauliString> work = inputs;
    for (auto _ : state) {
        for (size_t i = 0; i < batch; ++i)
            work[i] = inputs[i];
        t.conjugateBatch(work);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(batch));
}
BENCHMARK(BM_PackedTableauConjugateBatch)
    ->Args({ 128, 16 })
    ->Args({ 128, 64 })
    ->Args({ 128, 256 })
    ->Args({ 256, 64 });

/**
 * The extraction-shaped kernel behind the acceptance criterion: per
 * iteration, one rotation's worth of tableau work — a basis-layer +
 * CNOT-tree sized burst of gate appends followed by one term
 * conjugation — on identical streams for both layouts.
 */
template <typename Tableau>
void
tableauAppendConjugate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Tableau t(n);
    const auto gates = randomGateStream(n, 4096, 3);
    Rng rng(4);
    const PauliString p = randomPauli(n, rng);
    size_t g = 0;
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i) {
            t.appendGate(gates[g]);
            g = (g + 1) % gates.size();
        }
        benchmark::DoNotOptimize(t.conjugate(p));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PackedTableauAppendConjugate(benchmark::State &state)
{
    tableauAppendConjugate<PackedTableau>(state);
}
BENCHMARK(BM_PackedTableauAppendConjugate)->Arg(64)->Arg(128)->Arg(256);

void
BM_ReferenceTableauAppendConjugate(benchmark::State &state)
{
    tableauAppendConjugate<ReferenceTableau>(state);
}
BENCHMARK(BM_ReferenceTableauAppendConjugate)->Arg(64)->Arg(128)->Arg(256);

void
BM_TreeSynthesis(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(3);
    const PauliString current = [&] {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            p.setOp(q, PauliOp::Z);
        return p;
    }();
    const PauliString look = randomPauli(n, rng);
    for (auto _ : state) {
        CliffordTableau acc(n);
        QuantumCircuit tree(n);
        TreeSynthesizer synth(acc, tree, { look }, {});
        benchmark::DoNotOptimize(synth.synthesize(current.support()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeSynthesis)->Arg(8)->Arg(16)->Arg(32);

void
BM_CliffordExtraction(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t m = static_cast<size_t>(state.range(1));
    const auto terms = randomTerms(n, m, 4);
    ExtractionConfig config;
    config.threads = 1;
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_CliffordExtraction)
    ->Args({ 8, 64 })
    ->Args({ 16, 256 })
    ->Args({ 20, 512 })
    ->Args({ 64, 256 })
    ->Args({ 128, 256 });

/**
 * End-to-end extraction on the paper-scale fragmented ensemble
 * UCC-(6,12)x8 (96 qubits, 8 independent 12-qubit chains), sweeping
 * {threads, block_parallelism}. The /T/B suffixes are the two knobs:
 * /1/1 is the fully sequential baseline, /8/2 caps the chain runners
 * at two, and /T/0 runs up to T chains at once. Output is
 * bit-identical across every arg pair; only wall time moves.
 */
void
BM_CrossBlockExtraction(benchmark::State &state)
{
    const auto threads = static_cast<uint32_t>(state.range(0));
    const auto block_parallelism = static_cast<uint32_t>(state.range(1));
    static const Benchmark &bench = *[] {
        static Benchmark b = makeBenchmark("UCC-(6,12)x8");
        return &b;
    }();
    ExtractionConfig config;
    config.threads = threads;
    config.blockParallelism = block_parallelism;
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(bench.terms));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(bench.terms.size()));
}
BENCHMARK(BM_CrossBlockExtraction)
    ->Args({ 1, 1 })
    ->Args({ 4, 0 })
    ->Args({ 8, 2 })
    ->Args({ 8, 0 })
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * One commuting block at scale: the conjugation-cache + index-list
 * find_next_pauli path isolated from tree synthesis lookahead effects
 * (Z-only terms always commute, so the whole set is one block).
 */
void
BM_ExtractorCommutingBlock(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t m = static_cast<size_t>(state.range(1));
    Rng rng(11);
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.25))
                p.setOp(q, PauliOp::Z);
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    ExtractionConfig config;
    config.threads = 1; // keep the PR 2 perf-trend series sequential
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ExtractorCommutingBlock)->Args({ 64, 128 })->Args({ 128, 128 });

void
BM_AbsorbObservables(benchmark::State &state)
{
    const uint32_t n = 20;
    const size_t k = static_cast<size_t>(state.range(0));
    const auto terms = randomTerms(n, 128, 5);
    const ExtractionResult ext = CliffordExtractor().run(terms);
    Rng rng(6);
    std::vector<PauliString> observables;
    for (size_t i = 0; i < k; ++i)
        observables.push_back(randomPauli(n, rng));
    for (auto _ : state)
        benchmark::DoNotOptimize(absorbObservables(ext, observables));
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_AbsorbObservables)->Arg(10)->Arg(100)->Arg(1000);

void
BM_RemapBitstrings(benchmark::State &state)
{
    const uint32_t n = 20;
    Rng rng(7);
    ReducedClifford red;
    red.network = LinearFunction::identity(n);
    for (int i = 0; i < 64; ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (a != b)
            red.network.appendCx(a, b);
    }
    std::map<uint64_t, uint64_t> counts;
    const size_t k = static_cast<size_t>(state.range(0));
    while (counts.size() < k)
        counts[rng.uniformInt(1ULL << n)] += 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(remapCounts(red, counts));
    state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_RemapBitstrings)->Arg(100)->Arg(1000)->Arg(5000);


void
BM_DiagonalizeCommutingSet(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(8);
    // Commuting set by construction: random products of fixed
    // generators (Z-strings conjugated by one random Clifford).
    QuantumCircuit frame(n);
    for (uint32_t i = 0; i < 3 * n; ++i) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t r = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(3)) {
          case 0: frame.h(q); break;
          case 1: frame.s(q); break;
          default:
            if (q != r)
                frame.cx(q, r);
            break;
        }
    }
    std::vector<PauliString> set;
    for (uint32_t k = 0; k < n; ++k) {
        PauliString z(n);
        for (uint32_t q = 0; q < n; ++q)
            if (rng.bernoulli(0.4))
                z.setOp(q, PauliOp::Z);
        if (z.isIdentity())
            z.setOp(k, PauliOp::Z);
        frame.conjugatePauli(z);
        set.push_back(std::move(z));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(diagonalizeCommutingSet(set));
    state.SetItemsProcessed(state.iterations() * set.size());
}
BENCHMARK(BM_DiagonalizeCommutingSet)->Arg(8)->Arg(16)->Arg(32);

void
BM_SabreRouting(benchmark::State &state)
{
    const uint32_t n = 20;
    Rng rng(9);
    QuantumCircuit qc(n);
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        const uint32_t a = static_cast<uint32_t>(rng.uniformInt(n));
        const uint32_t b = static_cast<uint32_t>(rng.uniformInt(n));
        if (a != b)
            qc.cx(a, b);
    }
    const CouplingMap device = manhattanHeavyHex();
    for (auto _ : state)
        benchmark::DoNotOptimize(mapToDevice(qc, device));
    state.SetItemsProcessed(state.iterations() * qc.size());
}
BENCHMARK(BM_SabreRouting)->Arg(100)->Arg(400);

void
BM_StatevectorGate(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Statevector sv(n);
    Rng rng(10);
    for (auto _ : state) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        sv.applyGate({ GateType::H, q });
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorGate)->Arg(10)->Arg(14);

/**
 * @name Stabilizer-simulator engine pairs.
 *
 * The bit-sliced StabilizerSimulator against the preserved row-major
 * ReferenceStabilizerSimulator on identical gate and measurement
 * streams (twin RNG seeds keep the random-outcome draws aligned, so
 * both engines walk the same state sequence). The NoiseMc series is
 * the batched Monte-Carlo fault sampler's shot throughput: /1 is the
 * sequential baseline, /0 fans shot blocks over hardware concurrency
 * with bit-identical output.
 * @{
 */

template <typename Sim>
void
stabilizerSimGates(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Sim sim(n);
    const auto gates = randomGateStream(n, 4096, 21);
    size_t g = 0;
    for (auto _ : state) {
        sim.applyGate(gates[g]);
        g = (g + 1) % gates.size();
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_StabilizerSimGatesPacked(benchmark::State &state)
{
    stabilizerSimGates<StabilizerSimulator>(state);
}
BENCHMARK(BM_StabilizerSimGatesPacked)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void
BM_StabilizerSimGatesReference(benchmark::State &state)
{
    stabilizerSimGates<ReferenceStabilizerSimulator>(state);
}
BENCHMARK(BM_StabilizerSimGatesReference)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/**
 * Interleaved evolve-and-measure: eight gates of re-scrambling per
 * measurement keep a mix of random- and deterministic-outcome
 * measurements flowing (a measured qubit's outcome is deterministic
 * until later gates entangle it again).
 */
template <typename Sim>
void
stabilizerSimMeasure(benchmark::State &state)
{
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Sim sim(n);
    const auto gates = randomGateStream(n, 4096, 22);
    Rng rng(23);
    size_t g = 0;
    for (auto _ : state) {
        for (int i = 0; i < 8; ++i) {
            sim.applyGate(gates[g]);
            g = (g + 1) % gates.size();
        }
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        benchmark::DoNotOptimize(sim.measure(q, rng));
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_StabilizerSimMeasurePacked(benchmark::State &state)
{
    stabilizerSimMeasure<StabilizerSimulator>(state);
}
BENCHMARK(BM_StabilizerSimMeasurePacked)->Arg(64)->Arg(256)->Arg(1024);

void
BM_StabilizerSimMeasureReference(benchmark::State &state)
{
    stabilizerSimMeasure<ReferenceStabilizerSimulator>(state);
}
BENCHMARK(BM_StabilizerSimMeasureReference)->Arg(64)->Arg(256)->Arg(1024);

/** Batched noisy-expectation sampler; arg = SamplerOptions::threads. */
void
BM_StabilizerSimNoiseMc(benchmark::State &state)
{
    const uint32_t n = 24;
    Rng rng(24);
    QuantumCircuit qc(n);
    for (const Gate &g : randomGateStream(n, 512, 25))
        qc.append(g);
    PauliString obs(n);
    for (uint32_t q = 0; q < n; ++q)
        obs.setOp(q, PauliOp::Z);
    NoiseModel noise;
    noise.singleQubitError = 3e-4;
    noise.twoQubitError = 5e-3;
    const size_t shots = 4096;
    NoiseModel::SamplerOptions options;
    options.seed = 26;
    options.threads = static_cast<uint32_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            noise.noisyStabilizerExpectation(qc, obs, shots, options));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(shots));
}
BENCHMARK(BM_StabilizerSimNoiseMc)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime();

/** @} */

/**
 * @name Per-dispatch-level tableau kernels.
 *
 * The same four engine paths the tentpole SIMD backends accelerate —
 * gate appends, lone dense conjugation, batched conjugation, and
 * tableau composition — re-run with the kernel table pinned to every
 * level this host supports (scalar always; avx2/avx512 when compiled
 * in and CPUID-approved), so BENCH_tableau.json records the measured
 * gain per level on one machine. Registration happens at runtime in
 * main() because the supported set is a host property. Outputs are
 * bit-identical across levels; only the wall clock may move. The
 * Sparse variant conjugates fixed-weight terms through a scrambled
 * 1024-qubit tableau, where the hierarchical mask index lets the row
 * walk skip empty words — compare against the dense-input Batch series
 * at the same shape for the sparse-vs-dense crossover.
 * @{
 */

void
simdTableauAppendCx(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    tableauAppendCx<PackedTableau>(state);
    simd::resetLevel();
}

void
simdTableauConjugate(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    tableauConjugate<PackedTableau>(state);
    simd::resetLevel();
}

void
simdTableauConjugateBatch(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    BM_PackedTableauConjugateBatch(state);
    simd::resetLevel();
}

void
simdTableauConjugateBatchSparse(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    const size_t batch = static_cast<size_t>(state.range(1));
    const auto weight = static_cast<uint32_t>(state.range(2));
    Rng rng(12);
    PackedTableau t(n);
    scrambleTableau(t, n, 12);
    std::vector<PauliString> inputs;
    for (size_t i = 0; i < batch; ++i) {
        PauliString p(n);
        for (uint32_t k = 0; k < weight; ++k)
            p.setOp(static_cast<uint32_t>(rng.uniformInt(n)),
                    static_cast<PauliOp>(1 + rng.uniformInt(3)));
        inputs.push_back(std::move(p));
    }
    std::vector<PauliString> work = inputs;
    for (auto _ : state) {
        for (size_t i = 0; i < batch; ++i)
            work[i] = inputs[i];
        t.conjugateBatch(work);
        benchmark::DoNotOptimize(work.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(batch));
    simd::resetLevel();
}

void
simdTableauCompose(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    PackedTableau a(n), b(n);
    scrambleTableau(a, n, 13);
    scrambleTableau(b, n, 14);
    for (auto _ : state) {
        PackedTableau c = a;
        c.composeWith(b);
        benchmark::DoNotOptimize(&c);
    }
    state.SetItemsProcessed(state.iterations());
    simd::resetLevel();
}

/** Register the per-level series for every level this host supports. */
void
registerSimdTableauBenchmarks()
{
    for (simd::Level lvl : { simd::Level::Scalar, simd::Level::Avx2,
                             simd::Level::Avx512 }) {
        if (!simd::levelSupported(lvl))
            continue;
        const std::string tag = simd::levelName(lvl);
        benchmark::RegisterBenchmark(
            ("BM_SimdTableauAppendCx/" + tag).c_str(),
            simdTableauAppendCx, lvl)
            ->Arg(128)
            ->Arg(1024);
        benchmark::RegisterBenchmark(
            ("BM_SimdTableauConjugate/" + tag).c_str(),
            simdTableauConjugate, lvl)
            ->Arg(128)
            ->Arg(1024);
        benchmark::RegisterBenchmark(
            ("BM_SimdTableauConjugateBatch/" + tag).c_str(),
            simdTableauConjugateBatch, lvl)
            ->Args({ 128, 64 })
            ->Args({ 1024, 64 });
        benchmark::RegisterBenchmark(
            ("BM_SimdTableauConjugateBatchSparse/" + tag).c_str(),
            simdTableauConjugateBatchSparse, lvl)
            ->Args({ 1024, 64, 8 });
        benchmark::RegisterBenchmark(
            ("BM_SimdTableauCompose/" + tag).c_str(), simdTableauCompose,
            lvl)
            ->Arg(128)
            ->Arg(1024);
    }
}

/** @} */

} // namespace

int
main(int argc, char **argv)
{
    registerSimdTableauBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // Resolved dispatch state in every artifact's context block, so a
    // recorded BENCH_*.json is attributable to the exact kernel level
    // and host capability it ran with.
    benchmark::AddCustomContext("quclear_simd_level",
                                simd::levelName(simd::activeLevel()));
    benchmark::AddCustomContext("quclear_simd_override",
                                simd::configuredOverride());
    benchmark::AddCustomContext(
        "quclear_simd_best_supported",
        simd::levelName(simd::bestSupportedLevel()));
    benchmark::AddCustomContext("quclear_cpu_features",
                                simd::cpuFeatureString());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
