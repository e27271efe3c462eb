/**
 * @file
 * google-benchmark microbenchmarks for the classical kernels whose
 * complexity the paper quotes: tableau gate appends (bit-sliced O(n/64)
 * vs the row-major reference's O(n)), Pauli conjugation through a
 * tableau (O(n^2) bound, Sec. V-D), CNOT-tree synthesis, full Clifford
 * Extraction throughput, CA-Post bitstring remapping (O(mk),
 * Sec. VI-B), and entangling-depth scheduling.
 *
 * The Packed/Reference benchmark pairs measure the bit-sliced engine
 * against the preserved row-major seed implementation on identical gate
 * and Pauli streams, and the DepthScheduling pair measures the run-DAG
 * scheduler against the seed pairwise-DAG one, the SabreRouting
 * pair measures the incremental router against the seed
 * rebuild-per-SWAP one, the Level3 pair measures the level-3
 * pipeline against the same pipeline with the seed folding and
 * cancellation passes, and the ExtractorCommutingBlock /
 * ReferenceExtractor pair measures the bit-sliced pending cache and
 * pruned find_next_pauli against the seed extractor on one commuting
 * block (the 30/2048/1 arg is LABS-shaped), the QasmImport and
 * CircuitToPauliProgram pairs measure the service front end against
 * the seed importer and the seed prepend-per-gate rewrite on the QASM
 * a served job sends, TreeBeam times the portfolio's width-8 beam
 * search over one k-qubit support, and ServeIngest times the --serve
 * transport's read + parse + emit of serve-mix-sized job lines; the
 * ...Batch variants
 * record the batched conjugation kernel against its scalar
 * counterpart. CI records them
 * as JSON via
 *   bench_micro \
 *     --benchmark_filter='Tableau|Extraction|ExtractorCommutingBlock|ReferenceExtractor|Absorb|NoiseMc|NoiseExact|SimdPauli|DepthScheduling|Sabre|Level3|Qasm|CircuitToPauli|TreeBeam|ServeIngest' \
 *     --benchmark_out=BENCH_tableau.json --benchmark_out_format=json
 */
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "baselines/naive_synthesis.hpp"
#include "benchgen/labs.hpp"
#include "benchgen/suite.hpp"
#include "benchgen/uccsd.hpp"
#include "circuit/qasm.hpp"
#include "circuit/qasm_import.hpp"
#include "core/absorption_post.hpp"
#include "core/absorption_pre.hpp"
#include "core/circuit_to_paulis.hpp"
#include "core/clifford_extractor.hpp"
#include "core/quclear.hpp"
#include "core/diagonalization.hpp"
#include "core/tree_synthesis.hpp"
#include "mapping/devices.hpp"
#include "mapping/sabre_router.hpp"
#include "pauli/pauli_term.hpp"
#include "reference_depth_scheduling.hpp"
#include "reference_extractor.hpp"
#include "reference_frontend.hpp"
#include "reference_level3.hpp"
#include "reference_sabre_router.hpp"
#include "reference_tableau.hpp"
#include "sim/noise_model.hpp"
#include "service/server.hpp"
#include "sim/statevector.hpp"
#include "tableau/clifford_tableau.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/pass_manager.hpp"
#include "util/rng.hpp"
#include "util/json_writer.hpp"
#include "util/simd_dispatch.hpp"

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>

#include <thread>
#endif

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
    tableauAppendCx<CliffordTableau>(state);
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
    tableauConjugate<CliffordTableau>(state);
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
    CliffordTableau t(n);
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
    tableauAppendConjugate<CliffordTableau>(state);
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

/**
 * QASM as a served job sends it: toQasm of a benchgen family's naive
 * synthesis. Arg 0 = LABS-(n20), arg 1 = UCC-(2,12).
 */
const std::string &
frontEndQasm(int64_t which)
{
    static const std::string labs = toQasm(naiveSynthesis(labsQaoa(20)));
    static const std::string ucc =
        toQasm(naiveSynthesis(uccsdAnsatz(2, 12, 1)));
    return which == 0 ? labs : ucc;
}

template <QuantumCircuit (*Import)(const std::string &)>
void
qasmImport(benchmark::State &state)
{
    const std::string &qasm = frontEndQasm(state.range(0));
    size_t gates = 0;
    for (auto _ : state) {
        const QuantumCircuit qc = Import(qasm);
        gates = qc.size();
        benchmark::DoNotOptimize(qc.gates().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(gates));
}

void
BM_QasmImport(benchmark::State &state)
{
    qasmImport<fromQasm>(state);
}
BENCHMARK(BM_QasmImport)->Arg(0)->Arg(1);

void
BM_ReferenceQasmImport(benchmark::State &state)
{
    qasmImport<referenceFromQasm>(state);
}
BENCHMARK(BM_ReferenceQasmImport)->Arg(0)->Arg(1);

template <PauliProgram (*Rewrite)(const QuantumCircuit &)>
void
circuitToPauli(benchmark::State &state)
{
    const QuantumCircuit qc = fromQasm(frontEndQasm(state.range(0)));
    for (auto _ : state) {
        const PauliProgram program = Rewrite(qc);
        benchmark::DoNotOptimize(program.terms.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(qc.size()));
}

void
BM_CircuitToPauliProgram(benchmark::State &state)
{
    circuitToPauli<circuitToPauliProgram>(state);
}
BENCHMARK(BM_CircuitToPauliProgram)->Arg(0)->Arg(1);

void
BM_ReferenceCircuitToPauliProgram(benchmark::State &state)
{
    circuitToPauli<referenceCircuitToPauliProgram>(state);
}
BENCHMARK(BM_ReferenceCircuitToPauliProgram)->Arg(0)->Arg(1);

void
BM_TreeBeam(benchmark::State &state)
{
    // The portfolio's beam8 candidate on one k-qubit support, scored
    // against eight random lookahead Paulis.
    const uint32_t k = static_cast<uint32_t>(state.range(0));
    Rng rng(5);
    std::vector<PauliString> looks;
    for (int d = 0; d < 8; ++d)
        looks.push_back(randomPauli(k, rng));
    std::vector<uint32_t> support(k);
    for (uint32_t q = 0; q < k; ++q)
        support[q] = q;
    TreeSynthesisConfig config;
    config.exhaustiveThreshold = 0;
    config.beamWidth = 8;
    for (auto _ : state) {
        CliffordTableau acc(k);
        QuantumCircuit tree(k);
        TreeSynthesizer synth(acc, tree, looks, config);
        benchmark::DoNotOptimize(synth.synthesize(support));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeBeam)->Arg(4)->Arg(12)->Arg(30)->Arg(70);

#ifndef _WIN32
/**
 * The --serve ingest path: 200 copies of a ~26 KB job line (the
 * serve-mix average) through serveFds() from a pipe fed by a writer
 * thread. An unknown config key makes every line parse fully and then
 * answer `invalid-job`, so this times read + parse + emit without
 * compiling anything; bytes = job-line bytes.
 */
void
BM_ServeIngest(benchmark::State &state)
{
    std::string qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                       "qreg q[4];\n";
    while (qasm.size() < 24000)
        qasm += "cx q[0],q[1];\nrz(0.125) q[1];\ncx q[0],q[1];\nh q[3];\n";
    JsonValue job = JsonValue::object();
    job["id"] = "ingest";
    job["qasm"] = qasm;
    JsonValue config = JsonValue::object();
    config["no_such_key"] = 1;
    job["config"] = config;
    std::string line = job.dump(0);
    while (!line.empty() && line.back() == '\n')
        line.pop_back();
    std::string batch;
    for (int i = 0; i < 200; ++i)
        batch += line + "\n";

    const int sink = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (sink < 0) {
        state.SkipWithError("cannot open /dev/null");
        return;
    }
    service::ServeOptions options;
    options.workers = 1;
    uint64_t jobs = 0;
    for (auto _ : state) {
        int in_pipe[2];
        if (::pipe(in_pipe) != 0) {
            state.SkipWithError("pipe failed");
            break;
        }
        std::thread writer([&] {
            size_t sent = 0;
            while (sent < batch.size()) {
                const ssize_t n = ::write(in_pipe[1], batch.data() + sent,
                                          batch.size() - sent);
                if (n <= 0)
                    break;
                sent += static_cast<size_t>(n);
            }
            ::close(in_pipe[1]);
        });
        jobs = service::serveFds(in_pipe[0], sink, options);
        benchmark::DoNotOptimize(jobs);
        writer.join();
        ::close(in_pipe[0]);
    }
    ::close(sink);
    if (jobs != 200)
        state.SkipWithError("serveFds did not answer every line");
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_ServeIngest)->UseRealTime()->Unit(benchmark::kMillisecond);
#endif

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
/**
 * One commuting block of m Z-only terms on n qubits. With @p labs
 * false each qubit carries Z with probability 1/4; with it true every
 * term has weight 2-4 on distinct random qubits, the shape of a LABS
 * QAOA cost layer (LABS-(n30) has 2,135 such terms in one block).
 */
std::vector<PauliTerm>
commutingBlockTerms(uint32_t n, size_t m, bool labs)
{
    Rng rng(11);
    std::vector<PauliTerm> terms;
    while (terms.size() < m) {
        PauliString p(n);
        if (labs) {
            const uint64_t weight = 2 + rng.uniformInt(3);
            while (p.weight() < weight)
                p.setOp(static_cast<uint32_t>(rng.uniformInt(n)), PauliOp::Z);
        } else {
            for (uint32_t q = 0; q < n; ++q)
                if (rng.bernoulli(0.25))
                    p.setOp(q, PauliOp::Z);
        }
        if (!p.isIdentity())
            terms.emplace_back(std::move(p), rng.uniformReal(-1, 1));
    }
    return terms;
}

void
BM_ExtractorCommutingBlock(benchmark::State &state)
{
    const size_t m = static_cast<size_t>(state.range(1));
    const auto terms = commutingBlockTerms(
        static_cast<uint32_t>(state.range(0)), m, state.range(2) != 0);
    ExtractionConfig config;
    config.threads = 1; // sequential, like BM_ReferenceExtractor
    const CliffordExtractor extractor(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(extractor.run(terms));
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_ExtractorCommutingBlock)
    ->Args({ 64, 128, 0 })
    ->Args({ 128, 128, 0 })
    ->Args({ 30, 2048, 1 })
    ->Unit(benchmark::kMillisecond);

void
BM_ReferenceExtractor(benchmark::State &state)
{
    const size_t m = static_cast<size_t>(state.range(1));
    const auto terms = commutingBlockTerms(
        static_cast<uint32_t>(state.range(0)), m, state.range(2) != 0);
    ExtractionConfig config;
    config.threads = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(referenceCliffordExtract(terms, config));
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_ReferenceExtractor)
    ->Args({ 64, 128, 0 })
    ->Args({ 128, 128, 0 })
    ->Args({ 30, 2048, 1 })
    ->Unit(benchmark::kMillisecond);

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

/** mapToDevice (or its seed-router twin) of a fixed-seed random
 *  20-qubit CX circuit onto the heavy-hex lattice. */
template <RoutingResult (*Map)(const QuantumCircuit &, const CouplingMap &)>
void
sabreRouting(benchmark::State &state)
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
        benchmark::DoNotOptimize(Map(qc, device));
    state.SetItemsProcessed(state.iterations() * qc.size());
}

void
BM_SabreRouting(benchmark::State &state)
{
    sabreRouting<mapToDevice>(state);
}
BENCHMARK(BM_SabreRouting)->Arg(100)->Arg(400);

void
BM_ReferenceSabreRouting(benchmark::State &state)
{
    sabreRouting<referenceMapToDevice>(state);
}
BENCHMARK(BM_ReferenceSabreRouting)->Arg(400);

/**
 * Fixed-seed 12-qubit circuit in the U' gate vocabulary (H, S, Rz,
 * CX; CX on two draws in five), the input of the depth schedulers
 * below.
 */
QuantumCircuit
scheduleInput(size_t gates)
{
    const uint32_t n = 12;
    Rng rng(31);
    QuantumCircuit qc(n);
    while (qc.size() < gates) {
        const uint32_t q = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(5)) {
          case 0: qc.h(q); break;
          case 1: qc.s(q); break;
          case 2: qc.rz(q, rng.uniformReal(-3, 3)); break;
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

/** One scheduling pass per iteration (the input copy is included). */
template <typename Scheduler>
void
depthScheduling(benchmark::State &state)
{
    const QuantumCircuit input =
        scheduleInput(static_cast<size_t>(state.range(0)));
    const Scheduler scheduler;
    for (auto _ : state) {
        QuantumCircuit qc = input;
        benchmark::DoNotOptimize(scheduler.run(qc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}

void
BM_DepthScheduling(benchmark::State &state)
{
    depthScheduling<DepthScheduling>(state);
}
BENCHMARK(BM_DepthScheduling)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void
BM_ReferenceDepthScheduling(benchmark::State &state)
{
    depthScheduling<ReferenceDepthScheduling>(state);
}
BENCHMARK(BM_ReferenceDepthScheduling)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/** UCC-(8,16)'s U' as extraction emits it, before any local rewrite. */
const QuantumCircuit &
level3Input()
{
    static const QuantumCircuit qc = [] {
        QuClearOptions options;
        options.applyLocalOptimization = false;
        options.optimizeDepth = false;
        return QuClear(options)
            .compile(makeBenchmark("UCC-(8,16)").terms)
            .extraction.optimized;
    }();
    return qc;
}

/** One level-3 fixpoint per iteration (the input copy is included). */
void
level3(benchmark::State &state, const PassManager &pm)
{
    const QuantumCircuit &input = level3Input();
    for (auto _ : state) {
        QuantumCircuit qc = input;
        benchmark::DoNotOptimize(pm.run(qc));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(input.size()));
}

void
BM_Level3(benchmark::State &state)
{
    level3(state, PassManager::level3());
}
BENCHMARK(BM_Level3)->Unit(benchmark::kMillisecond);

void
BM_ReferenceLevel3(benchmark::State &state)
{
    level3(state, referenceLevel3());
}
BENCHMARK(BM_ReferenceLevel3)->Unit(benchmark::kMillisecond);

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
 * @name Noisy expectations.
 *
 * The batched depolarizing fault sampler's shot throughput (/1 is the
 * sequential baseline, /0 fans shot blocks over hardware concurrency
 * with bit-identical output) and the closed form it converges to, on
 * the same 512-gate Clifford circuit and all-Z observable.
 * @{
 */

/** A 24-qubit, 512-gate random Clifford circuit and the all-Z
 *  observable the noise benchmarks measure on it. */
std::pair<QuantumCircuit, PauliString>
noiseBenchInput()
{
    const uint32_t n = 24;
    QuantumCircuit qc(n);
    for (const Gate &g : randomGateStream(n, 512, 25))
        qc.append(g);
    PauliString obs(n);
    for (uint32_t q = 0; q < n; ++q)
        obs.setOp(q, PauliOp::Z);
    return { std::move(qc), std::move(obs) };
}

/** Batched noisy-expectation sampler; arg = SamplerOptions::threads. */
void
BM_NoiseMc(benchmark::State &state)
{
    const auto [qc, obs] = noiseBenchInput();
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
BENCHMARK(BM_NoiseMc)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime();

/** Exact noisy expectation: one pull-back, no shots; items = gates. */
void
BM_NoiseExact(benchmark::State &state)
{
    const auto [qc, obs] = noiseBenchInput();
    NoiseModel noise;
    noise.singleQubitError = 3e-4;
    noise.twoQubitError = 5e-3;
    for (auto _ : state)
        benchmark::DoNotOptimize(noise.exactStabilizerExpectation(qc, obs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(qc.size()));
}
BENCHMARK(BM_NoiseExact);

/** @} */

/**
 * @name Per-dispatch-level kernels.
 *
 * The engine paths the SIMD kernel tables serve — gate appends, lone
 * dense conjugation, batched conjugation, tableau composition, and
 * Pauli multiply/commute — re-run with the kernel table pinned to every
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
    tableauAppendCx<CliffordTableau>(state);
    simd::resetLevel();
}

void
simdTableauConjugate(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    tableauConjugate<CliffordTableau>(state);
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
    CliffordTableau t(n);
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
    CliffordTableau a(n), b(n);
    scrambleTableau(a, n, 13);
    scrambleTableau(b, n, 14);
    for (auto _ : state) {
        CliffordTableau c = a;
        c.composeWith(b);
        benchmark::DoNotOptimize(&c);
    }
    state.SetItemsProcessed(state.iterations());
    simd::resetLevel();
}

/**
 * PauliString multiply plus commutation test through the dispatched
 * mulWords / anticommuteParity folds (strings wider than one word).
 */
void
simdPauliMulCommute(benchmark::State &state, simd::Level lvl)
{
    if (!simd::forceLevel(lvl)) {
        state.SkipWithError("dispatch level unsupported on this host");
        return;
    }
    const uint32_t n = static_cast<uint32_t>(state.range(0));
    Rng rng(15);
    std::vector<PauliString> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(randomPauli(n, rng));
    PauliString acc = randomPauli(n, rng);
    size_t i = 0;
    int64_t commuting = 0;
    for (auto _ : state) {
        acc.mulRight(pool[i & 63]);
        commuting += acc.commutesWith(pool[(i + 1) & 63]) ? 1 : 0;
        ++i;
        benchmark::DoNotOptimize(commuting);
    }
    benchmark::DoNotOptimize(acc);
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
            ->Args({ 64, 64 })
            ->Args({ 128, 64 })
            ->Args({ 256, 64 })
            ->Args({ 512, 64 })
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
        benchmark::RegisterBenchmark(
            ("BM_SimdPauliMulCommute/" + tag).c_str(), simdPauliMulCommute,
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
