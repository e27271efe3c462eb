#include "common.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

using quclear::JsonValue;

namespace {

const Clock::time_point kEpoch = Clock::now();

/** One-line JSON (dump(0) ends with a newline). */
std::string
compact(const JsonValue &doc)
{
    std::string text = doc.dump(0);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb(long pid)
{
    std::ostringstream path;
    path << "/proc/";
    if (pid == 0)
        path << "self";
    else
        path << pid;
    path << "/status";
    std::ifstream in(path.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

bool
resetPeakRss()
{
    malloc_trim(0);
    // "5" resets VmHWM (Documentation/filesystems/proc.rst).
    std::ofstream out("/proc/self/clear_refs");
    out << "5" << std::flush;
    return static_cast<bool>(out);
}

void
pinToCpu(size_t k)
{
    // The CPUs this process may use, read before the first pin.
    static const std::vector<int> allowed = [] {
        std::vector<int> cpus;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus.push_back(c);
        return cpus;
    }();
    if (allowed.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[k % allowed.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

int64_t
Tracer::begin(const std::string &name, int64_t parent, int64_t group)
{
    spans_.push_back(Span{ name, now(), 0.0, parent, group });
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::end(int64_t id)
{
    spans_[static_cast<size_t>(id)].end = now();
}

int64_t
Tracer::record(const std::string &name, double start, double end,
               int64_t parent, int64_t group)
{
    spans_.push_back(Span{ name, start, end, parent, group });
    return static_cast<int64_t>(spans_.size()) - 1;
}

double
Tracer::duration(int64_t id) const
{
    const Span &s = spans_[static_cast<size_t>(id)];
    return s.end - s.start;
}

void
Tracer::write(const std::string &path) const
{
    JsonValue doc = JsonValue::object();
    JsonValue &list = doc["spans"];
    list = JsonValue::array();
    for (const Span &s : spans_) {
        JsonValue row = JsonValue::object();
        row["name"] = s.name;
        row["start"] = s.start;
        row["end"] = s.end;
        row["parent"] = s.parent;
        row["group"] = s.group;
        list.append(std::move(row));
    }
    std::ofstream out(path);
    out << compact(doc) << '\n';
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: check failed: " << what << '\n';
    }
}

void
Report::metric(const std::string &name, double value, const char *unit)
{
    JsonValue m = JsonValue::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics_[name] = std::move(m);
}

void
Report::print() const
{
    JsonValue meta_line = JsonValue::object();
    meta_line["meta"] = meta_;
    std::cout << compact(meta_line) << '\n';

    JsonValue doc = JsonValue::object();
    doc["correct"] = failed_ == 0;
    doc["attempted"] = attempted_;
    doc["failed"] = failed_;
    doc["metrics"] = metrics_;
    std::cout << compact(doc) << std::endl;
}

void
reportIdle(Report &report, Layers layers)
{
    struct Metric
    {
        const char *name;
        const char *unit;
    };
    static const std::vector<Metric> kCompile = {
        { "core.extract.s", "s" },
        { "core.extract.terms", "count" },
        { "core.extract.cx_out", "count" },
        { "core.extract.tail_gates", "count" },
        { "transpile.level3.s", "s" },
        { "transpile.level3.sweeps", "count" },
        { "transpile.level3.cx_removed", "count" },
        { "transpile.level3.gates_removed", "count" },
        { "transpile.tail_opt.s", "s" },
        { "transpile.tail_opt.gates_removed", "count" },
        { "transpile.tail_opt.adopted_ratio", "ratio" },
        { "tableau.replay.s", "s" },
        { "transpile.depth_sched.s", "s" },
        { "transpile.depth_sched.runs", "count" },
        { "transpile.depth_sched.skipped", "count" },
        { "transpile.depth_sched.depth_saved", "count" },
        { "core.absorb.s", "s" },
        { "core.absorb.observables", "count" },
    };
    static const std::vector<Metric> kRouting = {
        { "mapping.layout.s", "s" },
        { "mapping.sabre.s", "s" },
        { "mapping.sabre.swaps", "count" },
    };
    static const std::vector<Metric> kServing = {
        { "service.protocol.parse_s", "s" },
        { "circuit.qasm_import.s", "s" },
        { "core.circuit_to_paulis.s", "s" },
        { "service.scheduler.queue_wait_s", "s" },
        { "service.scheduler.reorder_wait_s", "s" },
        { "service.scheduler.rejected", "count" },
        { "service.job_runner.s", "s" },
        { "sim.noise.s", "s" },
        { "sim.noise.shots", "count" },
        { "sim.noise.shots_per_s", "1/s" },
    };
    const std::vector<Metric> &group = layers == Layers::Compile ? kCompile
                                       : layers == Layers::Routing
                                           ? kRouting
                                           : kServing;
    for (const Metric &m : group)
        report.metric(m.name, 0.0, m.unit);
}

void
reportItemTimes(Report &report,
                const std::vector<std::vector<double>> &samples,
                double completed, double elapsed)
{
    std::vector<double> medians, p90s;
    double suite = 0.0;
    for (const std::vector<double> &s : samples) {
        medians.push_back(median(s));
        p90s.push_back(quantile(s, 0.9));
        suite += medians.back();
    }
    report.metric("item_s", geomean(medians), "s");
    report.metric("item_p90_s", geomean(p90s), "s");
    report.metric("suite_s", suite, "s");
    report.metric("items_per_s",
                  elapsed > 0.0
                      ? completed / elapsed
                      : static_cast<double>(samples.size()) / suite,
                  "1/s");
}

double
traceOverhead(const std::vector<std::vector<double>> &plain,
              const std::vector<std::vector<double>> &traced)
{
    std::vector<double> plain_medians, traced_medians;
    for (size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
        if (plain[i].empty() || traced[i].empty())
            continue;
        plain_medians.push_back(median(plain[i]));
        traced_medians.push_back(median(traced[i]));
    }
    return geomean(traced_medians) - geomean(plain_medians);
}

size_t
repetitionsFor(double seconds_per_call)
{
    constexpr double kItemSecondsPerPass = 0.05;
    const double reps = std::ceil(kItemSecondsPerPass / seconds_per_call);
    return static_cast<size_t>(std::clamp(reps, 1.0, 64.0));
}

void
recordItemMedians(Report &report, const std::vector<std::string> &names,
                  const std::vector<std::vector<double>> &samples)
{
    JsonValue &rows = report.meta()["item_medians_s"];
    rows = JsonValue::object();
    for (size_t i = 0; i < names.size() && i < samples.size(); ++i)
        rows[names[i]] = median(samples[i]);
}

} // namespace perfbench
