/**
 * @file
 * Shared pieces of the benchmark program: the run arguments, summary
 * statistics, process probes (peak RSS, load average), the in-memory
 * span tracer, and the Report that collects checks, metrics and run
 * metadata and prints the result document.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json_writer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds on the steady clock since the program started. */
double now();

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cli;         //!< quclear_cli binary (serve-mix)
    std::string outDir = "."; //!< where spans and service lines go
    bool smoke = false;      //!< tiny instance set, for the self-test
    bool corrupt = false;    //!< drop U''s last gate before checking
    unsigned nproc = 1;      //!< online CPUs, resolved once in main
};

/** Median (mean of the middle pair for even sizes); 0 for empty. */
double median(std::vector<double> values);

/** Linear-interpolated quantile, q in [0, 1]; 0 for empty. */
double quantile(std::vector<double> values, double q);

/** Geometric mean of positive values; 0 for empty. */
double geomean(const std::vector<double> &values);

/** Peak resident set (VmHWM) of @p pid, or of this process when 0. */
double peakRssMb(long pid = 0);

/**
 * Pin the calling thread to the k-th CPU (modulo their count) of those
 * the process could use at the first call. A single-threaded workload
 * calls this once per pass, so every item is timed on every CPU: on a
 * shared host the speed of one virtual CPU drifts by up to about 1.5x,
 * and a run that stayed on one would inherit its luck.
 */
void pinToCpu(size_t k);

/** First three fields of /proc/loadavg. */
std::string loadAverage();

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1; //!< index of the causing span, -1 for a root
    int64_t group = -1;  //!< compile or job id shared by related spans
};

/**
 * Spans kept in memory for the whole run and written out at the end
 * (ids are indices into spans()).
 */
class Tracer
{
  public:
    int64_t begin(const std::string &name, int64_t parent, int64_t group);
    void end(int64_t id);

    /** Add a span whose times were taken elsewhere. */
    int64_t record(const std::string &name, double start, double end,
                   int64_t parent, int64_t group);

    /** Time @p fn as one span; returns fn's result. */
    template <class Fn>
    auto
    span(const std::string &name, int64_t parent, int64_t group, Fn &&fn)
    {
        const int64_t id = begin(name, parent, group);
        struct Closer
        {
            Tracer &tracer;
            int64_t id;
            ~Closer() { tracer.end(id); }
        } closer{ *this, id };
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }
    double duration(int64_t id) const;

    /** Write every span as one JSON document. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/**
 * Checks, metrics and metadata of one run. Every check counts as one
 * attempt; a failed check is also logged on stderr.
 */
class Report
{
  public:
    void check(bool ok, const std::string &what);
    void metric(const std::string &name, double value, const char *unit);
    quclear::JsonValue &meta() { return meta_; }

    /**
     * Print the metadata line and then, as the last line of stdout, the
     * result document.
     */
    void print() const;

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    quclear::JsonValue metrics_ = quclear::JsonValue::object();
    quclear::JsonValue meta_ = quclear::JsonValue::object();
};

/** Groups of per-layer metrics, one per part of the stack. */
enum class Layers
{
    Compile, //!< the stages of QuClear::compile, and absorption
    Routing, //!< the layout and SABRE calls of mapToDevice
    Serving, //!< the job service and the calls its runner makes
};

/**
 * Report every per-layer metric of @p layers as 0. A traced run calls
 * this for the groups it does not split out, so that each per-layer
 * metric is reported by the workload itself and a missing one is an
 * error rather than a silent 0.
 */
void reportIdle(Report &report, Layers layers);

/**
 * Reset this process's peak resident set (VmHWM) to its current
 * resident set, after returning freed heap to the system. Returns
 * false when the kernel does not allow it.
 */
bool resetPeakRss();

/**
 * End-to-end timing metrics from per-item samples (an item is one
 * instance, one (instance, device) pair, or one distinct job):
 * item_s = geomean of per-item medians, item_p90_s = geomean of
 * per-item 90th percentiles, suite_s = sum of per-item medians.
 * items_per_s is @p completed items per second of @p elapsed when
 * given (served jobs), else the items per second of one call of each
 * item (suite size over suite_s).
 */
void reportItemTimes(Report &report,
                     const std::vector<std::vector<double>> &samples,
                     double completed = 0.0, double elapsed = 0.0);

/**
 * Tracing overhead: geomean of the traced per-item medians minus that
 * of the plain ones, over items with samples on both sides.
 */
double traceOverhead(const std::vector<std::vector<double>> &plain,
                     const std::vector<std::vector<double>> &traced);

/** Per-item median times into the metadata, one row per item. */
void recordItemMedians(Report &report, const std::vector<std::string> &names,
                       const std::vector<std::vector<double>> &samples);

/**
 * Call @p pass(index) repeatedly for about @p budget seconds: at least
 * @p min_passes times, and again only while one more pass (as long as
 * the longest so far) still fits. Returns the number of passes.
 */
template <class Fn>
size_t
runPasses(double budget, size_t min_passes, Fn &&pass)
{
    const double t0 = now();
    double longest = 0.0;
    size_t n = 0;
    while (n < min_passes || now() - t0 + longest <= budget) {
        const double p0 = now();
        pass(n);
        longest = std::max(longest, now() - p0);
        ++n;
    }
    return n;
}

/**
 * Calls of one item per pass so that cheap items get as many samples
 * as their time allows: about 50 ms of calls, between 1 and 64.
 */
size_t repetitionsFor(double seconds_per_call);

/** Median of @p reps timings of @p fn (set-up time). */
template <class Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const double t0 = now();
        fn(r);
        times.push_back(now() - t0);
    }
    return median(times);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
