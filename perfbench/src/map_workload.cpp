/**
 * @file
 * map-device: the instances are compiled during set-up; the timed
 * region is mapToDevice of each U' onto the Sycamore-style grid and the
 * heavy-hex lattice, so no compile layer runs inside it.
 */
#include <string>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "core/quclear.hpp"
#include "instances.hpp"
#include "mapping/devices.hpp"
#include "mapping/layout.hpp"
#include "mapping/sabre_router.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace quclear;

namespace {

struct Device
{
    std::string name;
    CouplingMap map;
};

/**
 * mapToDevice, called stage by stage through the public layout and
 * router functions with a span around each call. Mirrors
 * mapToDevice exactly, so the routed circuit must match it gate for
 * gate.
 */
RoutingResult
stagedRoute(const QuantumCircuit &qc, const CouplingMap &device,
            Tracer &tracer, int64_t group, std::vector<double> &layout_s,
            std::vector<double> &sabre_s)
{
    const int64_t root = tracer.begin("route", -1, group);
    const int64_t layout_id = tracer.begin("mapping.layout", root, group);
    std::vector<uint32_t> layout = greedyLayout(qc, device);
    tracer.end(layout_id);
    layout_s.push_back(tracer.duration(layout_id));

    double sabre = 0.0;
    auto route = [&](const QuantumCircuit &c,
                     const std::vector<uint32_t> &initial) {
        const int64_t id = tracer.begin("mapping.sabre", root, group);
        RoutingResult r = sabreRoute(c, device, initial);
        tracer.end(id);
        sabre += tracer.duration(id);
        return r;
    };
    const QuantumCircuit reversed = qc.inverse();
    for (int round = 0; round < 2; ++round) {
        const RoutingResult forward = route(qc, layout);
        layout = route(reversed, forward.finalLayout).finalLayout;
    }
    RoutingResult result = route(qc, layout);
    sabre_s.push_back(sabre);
    tracer.end(root);
    return result;
}

bool
onDeviceEdges(const QuantumCircuit &routed, const CouplingMap &device)
{
    for (const Gate &g : routed.gates())
        if (isTwoQubit(g.type) && !device.adjacent(g.q0, g.q1))
            return false;
    return true;
}

} // namespace

void
runMapWorkload(const Args &args, Report &report)
{
    const std::vector<Device> devices = {
        { "sycamore", sycamoreGrid() },
        { "manhattan", manhattanHeavyHex() },
    };
    const QuClear compiler; // library defaults
    report.meta()["threads"] = 0;
    report.meta()["block_parallelism"] = 0;

    // Set-up, three times: generate and compile every instance.
    std::vector<Instance> instances;
    std::vector<QuantumCircuit> compiled;
    std::vector<double> gen_times;
    const double setup_s = medianSeconds(3, [&](int) {
        const double t0 = now();
        instances = mapDeviceInstances(args.seed, args.smoke);
        gen_times.push_back(now() - t0);
        compiled.clear();
        for (const Instance &inst : instances)
            compiled.push_back(compiler.compile(inst.terms).circuit());
    });
    // peak_rss_mb is the routing's peak, not the set-up compiles'.
    report.meta()["peak_rss_reset"] = resetPeakRss();

    struct Pair
    {
        size_t instance;
        size_t device;
    };
    std::vector<Pair> pairs;
    JsonValue &names = report.meta()["instances"];
    names = JsonValue::array();
    for (size_t i = 0; i < instances.size(); ++i) {
        names.append(instances[i].name);
        for (size_t d = 0; d < devices.size(); ++d)
            pairs.push_back({ i, d });
    }

    const size_t n = pairs.size();
    std::vector<std::vector<double>> plain(n), traced(n), layout_s(n),
        sabre_s(n);
    std::vector<RoutingResult> reference(n);
    double swaps = 0.0;
    Tracer tracer;
    int64_t group = 0;

    // Pass 0 warms up, gives the reference routings and sizes the
    // repetitions; it is not timed. A traced run then alternates plain
    // and traced passes.
    std::vector<size_t> reps(n, 1);
    const size_t passes =
        runPasses(args.seconds, args.trace ? 5 : 3, [&](size_t p) {
            const bool traced_pass = args.trace && p > 0 && p % 2 == 0;
            // Routing is single-threaded: the next CPU each pass (each
            // plain/traced pair of passes when tracing).
            pinToCpu(args.trace ? (p + 1) / 2 : p);
            for (size_t k = 0; k < n; ++k) {
                const QuantumCircuit &qc = compiled[pairs[k].instance];
                const CouplingMap &device = devices[pairs[k].device].map;
                if (p == 0) {
                    const double r0 = now();
                    reference[k] = mapToDevice(qc, device);
                    reps[k] = repetitionsFor(now() - r0);
                    continue;
                }
                for (size_t r = 0; r < reps[k]; ++r) {
                    RoutingResult out;
                    if (traced_pass) {
                        const size_t root = tracer.spans().size();
                        out = stagedRoute(qc, device, tracer, group++,
                                          layout_s[k], sabre_s[k]);
                        traced[k].push_back(
                            tracer.duration(static_cast<int64_t>(root)));
                        if (p == 2 && r == 0)
                            swaps += static_cast<double>(out.swapCount);
                    } else {
                        const double r0 = now();
                        out = mapToDevice(qc, device);
                        plain[k].push_back(now() - r0);
                    }
                    report.check(out.routed.gates() ==
                                     reference[k].routed.gates(),
                                 instances[pairs[k].instance].name + " on " +
                                     devices[pairs[k].device].name +
                                     (traced_pass
                                          ? ": staged routing differs "
                                            "from mapToDevice"
                                          : ": routing differs between "
                                            "reps"));
                }
            }
        });
    report.meta()["passes"] = passes;

    for (size_t k = 0; k < n; ++k)
        report.check(onDeviceEdges(reference[k].routed,
                                   devices[pairs[k].device].map),
                     instances[pairs[k].instance].name + " on " +
                         devices[pairs[k].device].name +
                         ": two-qubit gate off the coupling map");

    if (!args.trace) {
        std::vector<std::string> item_names;
        for (const Pair &pair : pairs)
            item_names.push_back(instances[pair.instance].name + "@" +
                                 devices[pair.device].name);
        recordItemMedians(report, item_names, plain);
        reportItemTimes(report, plain);
        double cnot = 0.0, depth = 0.0;
        for (const RoutingResult &r : reference) {
            cnot += static_cast<double>(r.routed.twoQubitCount(true));
            depth += static_cast<double>(entanglingDepth(r.routed));
        }
        report.metric("cnot", cnot, "count");
        report.metric("entangling_depth", depth, "count");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    double layout_total = 0.0, sabre_total = 0.0;
    for (size_t k = 0; k < n; ++k) {
        layout_total += median(layout_s[k]);
        sabre_total += median(sabre_s[k]);
    }
    reportIdle(report, Layers::Compile);
    reportIdle(report, Layers::Serving);
    report.metric("trace.overhead_s", traceOverhead(plain, traced), "s");
    report.metric("benchgen.s", median(gen_times), "s");
    report.metric("mapping.layout.s", layout_total, "s");
    report.metric("mapping.sabre.s", sabre_total, "s");
    report.metric("mapping.sabre.swaps", swaps, "count");
    tracer.write(args.outDir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json");
}

} // namespace perfbench
