/**
 * @file
 * compile-mid and compile-large: wall time of QuClear::compile per
 * instance (untraced), or of the same stages called one at a time
 * through their public functions (traced).
 */
#include <cmath>
#include <complex>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "core/quclear.hpp"
#include "instances.hpp"
#include "sim/expectation.hpp"
#include "tableau/clifford_tableau.hpp"
#include "transpile/depth_scheduling.hpp"
#include "transpile/pass_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace quclear;

namespace {

/** Widest instance the dense statevector check runs on. */
constexpr uint32_t kDenseCheckQubits = 12;

using Counts = std::map<std::string, double>;

/**
 * The stages of QuClear::compile, called one at a time through their
 * public functions with a span around each call. Mirrors compile()
 * exactly (same passes, same adoption rule, same cap), so the output
 * must match it gate for gate. Fills @p counts with this compile's
 * per-layer work counters.
 */
CompiledProgram
stagedCompile(const Instance &inst, const QuClearOptions &options,
              Tracer &tracer, int64_t group, Counts &counts)
{
    const int64_t root = tracer.begin("compile", -1, group);
    ExtractionResult r = tracer.span("core.extract", root, group, [&] {
        return CliffordExtractor(options.extraction).run(inst.terms);
    });
    counts["core.extract.terms"] += static_cast<double>(inst.terms.size());
    const size_t cx_before = r.optimized.twoQubitCount(true);
    const size_t gates_before = r.optimized.size();
    counts["core.extract.cx_out"] += static_cast<double>(cx_before);
    counts["core.extract.tail_gates"] +=
        static_cast<double>(r.extractedClifford.size());

    const PassManager pm = PassManager::level3();
    const size_t sweeps = tracer.span("transpile.level3", root, group,
                                      [&] { return pm.run(r.optimized); });
    counts["transpile.level3.sweeps"] += static_cast<double>(sweeps);
    counts["transpile.level3.cx_removed"] += static_cast<double>(
        cx_before - r.optimized.twoQubitCount(true));
    counts["transpile.level3.gates_removed"] +=
        static_cast<double>(gates_before - r.optimized.size());

    if (!r.extractedClifford.empty()) {
        counts["transpile.tail_opt.attempted"] += 1;
        QuantumCircuit tail = r.extractedClifford;
        tracer.span("transpile.tail_opt", root, group,
                    [&] { pm.run(tail); });
        const bool adopt =
            tail.size() < r.extractedClifford.size() &&
            tracer.span("tableau.replay", root, group, [&] {
                return CliffordTableau::fromCircuit(tail) ==
                       CliffordTableau::fromCircuit(r.extractedClifford);
            });
        if (adopt) {
            counts["transpile.tail_opt.adopted"] += 1;
            counts["transpile.tail_opt.gates_removed"] += static_cast<double>(
                r.extractedClifford.size() - tail.size());
            r.extractedClifford = std::move(tail);
        }
    }

    if (options.optimizeDepth &&
        r.optimized.size() <= options.depthSchedulingGateLimit) {
        const size_t depth_before = entanglingDepth(r.optimized);
        tracer.span("transpile.depth_sched", root, group,
                    [&] { DepthScheduling().run(r.optimized); });
        counts["transpile.depth_sched.runs"] += 1;
        counts["transpile.depth_sched.depth_saved"] += static_cast<double>(
            depth_before - entanglingDepth(r.optimized));
    } else {
        counts["transpile.depth_sched.skipped"] += 1;
    }
    tracer.end(root);
    return CompiledProgram{ std::move(r), {} };
}

bool
sameCircuit(const QuantumCircuit &a, const QuantumCircuit &b)
{
    return a.numQubits() == b.numQubits() && a.gates() == b.gates();
}

bool
sameProgram(const CompiledProgram &a, const CompiledProgram &b)
{
    return sameCircuit(a.extraction.optimized, b.extraction.optimized) &&
           sameCircuit(a.extraction.extractedClifford,
                       b.extraction.extractedClifford);
}

/** |<reference(terms) | U_CL U' |0>| >= 1 - 1e-9. */
bool
statevectorMatches(const Instance &inst, const CompiledProgram &program,
                   bool corrupt)
{
    QuantumCircuit full = program.extraction.optimized;
    if (corrupt && !full.empty())
        full.mutableGates().pop_back();
    full.appendCircuit(program.extraction.extractedClifford);
    const Statevector expected = referenceState(inst.terms);
    const Statevector actual = runCircuit(full);
    return std::abs(expected.innerProduct(actual)) >= 1.0 - 1e-9;
}

double
sumOfMedians(const std::vector<std::vector<double>> &per_item)
{
    double total = 0.0;
    for (const std::vector<double> &samples : per_item)
        total += median(samples);
    return total;
}

} // namespace

void
runCompileWorkload(const Args &args, Report &report, bool large)
{
    QuClearOptions options;
    options.extraction.threads = large ? 0 : 1;
    options.extraction.blockParallelism = large ? 0 : 1;
    report.meta()["threads"] = options.extraction.threads;
    report.meta()["block_parallelism"] =
        options.extraction.blockParallelism;
    const QuClear compiler(options);

    // Set-up, 15 times: generate the instances, then warm up on the
    // smallest one (the first call also resolves the SIMD level).
    std::vector<Instance> instances;
    std::vector<double> gen_times;
    const double setup_s = medianSeconds(15, [&](int) {
        const double t0 = now();
        instances = large ? compileLargeInstances(args.seed, args.smoke)
                          : compileMidInstances(args.seed, args.smoke);
        gen_times.push_back(now() - t0);
        size_t smallest = 0;
        for (size_t i = 1; i < instances.size(); ++i)
            if (instances[i].terms.size() < instances[smallest].terms.size())
                smallest = i;
        compiler.compile(instances[smallest].terms);
    });
    JsonValue &names = report.meta()["instances"];
    names = JsonValue::array();
    for (const Instance &inst : instances)
        names.append(inst.name);

    const size_t n = instances.size();
    std::vector<std::vector<PauliString>> observables(n);
    for (size_t i = 0; i < n; ++i)
        if (!instances[i].qaoa)
            observables[i] = observablesFor(instances[i], args.seed);
    std::vector<std::vector<double>> plain(n), traced(n);
    std::vector<std::optional<CompiledProgram>> reference(n);
    std::map<std::string, std::vector<std::vector<double>>> stage_times;
    Counts counts;
    Tracer tracer;
    int64_t group = 0;

    // One compile of instance i, untraced: QuClear::compile.
    auto plain_compile = [&](size_t i, bool timed) {
        const double c0 = now();
        CompiledProgram out = compiler.compile(instances[i].terms);
        if (timed)
            plain[i].push_back(now() - c0);
        return out;
    };
    // One compile of instance i, traced: the staged pipeline, then
    // absorption; @p count_work adds its counters to the run totals.
    auto traced_compile = [&](size_t i, bool count_work) {
        Counts local;
        const size_t root = tracer.spans().size();
        CompiledProgram out =
            stagedCompile(instances[i], options, tracer, group, local);
        traced[i].push_back(tracer.duration(static_cast<int64_t>(root)));
        const int64_t absorb_id = tracer.begin("core.absorb", -1, group);
        if (instances[i].qaoa)
            compiler.absorbProbabilities(out);
        else
            compiler.absorbObservables(out, observables[i]);
        tracer.end(absorb_id);
        for (size_t s = root + 1; s < tracer.spans().size(); ++s) {
            const Span &span = tracer.spans()[s];
            auto &per_item = stage_times[span.name];
            per_item.resize(n);
            per_item[i].push_back(span.end - span.start);
        }
        local["core.absorb.observables"] +=
            static_cast<double>(observables[i].size());
        if (count_work)
            for (const auto &[k, v] : local)
                counts[k] += v;
        ++group;
        return out;
    };

    // Pass 0 warms up, gives the reference outputs and sizes the
    // repetitions; it is not timed. A traced run then alternates plain
    // and traced passes, so the two see the same machine state and
    // their difference is the tracing overhead.
    std::vector<size_t> reps(n, 1);
    const size_t passes =
        runPasses(args.seconds, args.trace ? 5 : 3, [&](size_t p) {
            const bool traced_pass = args.trace && p > 0 && p % 2 == 0;
            // One thread: move it to the next CPU each pass (each
            // plain/traced pair of passes when tracing).
            if (!large)
                pinToCpu(args.trace ? (p + 1) / 2 : p);
            for (size_t i = 0; i < n; ++i) {
                if (p == 0) {
                    const double c0 = now();
                    reference[i].emplace(plain_compile(i, false));
                    reps[i] = repetitionsFor(now() - c0);
                    continue;
                }
                for (size_t r = 0; r < reps[i]; ++r) {
                    const CompiledProgram out =
                        traced_pass ? traced_compile(i, p == 2 && r == 0)
                                    : plain_compile(i, true);
                    report.check(
                        sameProgram(out, *reference[i]),
                        instances[i].name +
                            (traced_pass ? ": staged pipeline differs "
                                           "from QuClear::compile"
                                         : ": output differs between reps"));
                }
            }
        });
    report.meta()["passes"] = passes;

    size_t dense_checked = 0;
    for (size_t i = 0; i < n; ++i) {
        if (instances[i].qubits > kDenseCheckQubits)
            continue;
        ++dense_checked;
        report.check(statevectorMatches(instances[i], *reference[i],
                                        args.corrupt),
                     instances[i].name + ": U_CL U' differs from the "
                                         "reference state");
    }
    report.meta()["dense_checked"] = dense_checked;

    if (!args.trace) {
        std::vector<std::string> item_names;
        for (const Instance &inst : instances)
            item_names.push_back(inst.name);
        recordItemMedians(report, item_names, plain);
        reportItemTimes(report, plain);
        double cnot = 0.0, depth = 0.0;
        for (const std::optional<CompiledProgram> &prog : reference) {
            cnot += static_cast<double>(
                prog->extraction.optimized.twoQubitCount(true));
            depth += static_cast<double>(
                entanglingDepth(prog->extraction.optimized));
        }
        report.metric("cnot", cnot, "count");
        report.metric("entangling_depth", depth, "count");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    reportIdle(report, Layers::Routing);
    reportIdle(report, Layers::Serving);
    report.metric("trace.overhead_s", traceOverhead(plain, traced), "s");
    report.metric("benchgen.s", median(gen_times), "s");
    for (const char *stage :
         { "core.extract", "transpile.level3", "transpile.tail_opt",
           "tableau.replay", "transpile.depth_sched", "core.absorb" }) {
        const auto it = stage_times.find(stage);
        report.metric(std::string(stage) + ".s",
                      it == stage_times.end() ? 0.0
                                              : sumOfMedians(it->second),
                      "s");
    }
    for (const char *counter :
         { "core.extract.terms", "core.extract.cx_out",
           "core.extract.tail_gates", "transpile.level3.sweeps",
           "transpile.level3.cx_removed", "transpile.level3.gates_removed",
           "transpile.tail_opt.gates_removed", "transpile.depth_sched.runs",
           "transpile.depth_sched.skipped",
           "transpile.depth_sched.depth_saved", "core.absorb.observables" })
        report.metric(counter, counts[counter], "count");
    const double attempted = counts["transpile.tail_opt.attempted"];
    report.metric("transpile.tail_opt.adopted_ratio",
                  attempted > 0 ? counts["transpile.tail_opt.adopted"] /
                                      attempted
                                : 0.0,
                  "ratio");
    tracer.write(args.outDir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json");
}

} // namespace perfbench
