/**
 * @file
 * serve-mix: a closed-loop client of the real `quclear_cli --serve
 * --threads <nproc>` over its stdin/stdout, with at most nproc jobs
 * outstanding (each result frees a slot). The traced run drives an
 * in-process JobScheduler instead, whose injected runner wraps
 * service::runJobLine and records pickup and finish times, and then
 * attributes runner time to parse, QASM import, circuit-to-Pauli and
 * noise stages in a separate pass.
 */
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "circuit/qasm_import.hpp"
#include "core/circuit_to_paulis.hpp"
#include "core/quclear.hpp"
#include "instances.hpp"
#include "service/job_runner.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "sim/noise_model.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char **environ;

namespace perfbench {

using namespace quclear;

namespace {

/** A result line and the time the client saw it. */
struct Arrival
{
    double time;
    std::string line;
};

/** A `quclear_cli --serve` child process on two pipes. */
class ServerProcess
{
  public:
    ServerProcess(const std::string &cli, unsigned threads)
    {
        int to_child[2], from_child[2];
        if (::pipe2(to_child, O_CLOEXEC) != 0 ||
            ::pipe2(from_child, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
        posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
        const std::string thread_arg = std::to_string(threads);
        const char *argv[] = { cli.c_str(), "--serve", "--threads",
                               thread_arg.c_str(), nullptr };
        const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                                   const_cast<char *const *>(argv),
                                   environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(to_child[0]);
        ::close(from_child[1]);
        toChild_ = to_child[1];
        fromChild_ = from_child[0];
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("cannot start " + cli);
        }
        ::fcntl(toChild_, F_SETFL, O_NONBLOCK);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    ~ServerProcess()
    {
        closeInput();
        if (fromChild_ >= 0)
            ::close(fromChild_);
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    long pid() const { return pid_; }

    void
    send(const std::string &line)
    {
        outbox_ += line;
        outbox_ += '\n';
        flushSome();
    }

    /**
     * Wait up to @p timeout_s for result lines, appending them to
     * @p out. Returns false on EOF or timeout with nothing read.
     */
    bool
    receive(std::vector<Arrival> &out, double timeout_s)
    {
        const double deadline = now() + timeout_s;
        const size_t before = out.size();
        while (out.size() == before) {
            const double left = deadline - now();
            if (left <= 0.0)
                return false;
            pollfd fds[2] = { { fromChild_, POLLIN, 0 },
                              { toChild_, POLLOUT, 0 } };
            const nfds_t count = outbox_.empty() || toChild_ < 0 ? 1 : 2;
            if (::poll(fds, count, static_cast<int>(left * 1000) + 1) < 0)
                continue;
            if (count == 2 && (fds[1].revents & POLLOUT))
                flushSome();
            if (fds[0].revents & (POLLIN | POLLHUP)) {
                char buf[1 << 16];
                const ssize_t n = ::read(fromChild_, buf, sizeof buf);
                if (n <= 0)
                    return out.size() > before;
                const double t = now();
                for (ssize_t i = 0; i < n; ++i) {
                    if (buf[i] == '\n') {
                        out.push_back({ t, std::move(inbox_) });
                        inbox_.clear();
                    } else {
                        inbox_.push_back(buf[i]);
                    }
                }
            }
        }
        return true;
    }

    /**
     * Close the server's input, collect the remaining lines, and wait
     * for it to exit. Returns its exit status (-1 if it did not exit
     * normally).
     */
    int
    finish(std::vector<Arrival> &out)
    {
        while (!outbox_.empty() && toChild_ >= 0) {
            pollfd fd = { toChild_, POLLOUT, 0 };
            ::poll(&fd, 1, 1000);
            flushSome();
        }
        closeInput();
        while (receive(out, 60.0)) {
        }
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    void
    flushSome()
    {
        while (!outbox_.empty() && toChild_ >= 0) {
            const ssize_t n =
                ::write(toChild_, outbox_.data(), outbox_.size());
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                return;
            if (n <= 0) {
                // The server closed its input: nothing more can be sent.
                outbox_.clear();
                closeInput();
                return;
            }
            outbox_.erase(0, static_cast<size_t>(n));
        }
    }

    void
    closeInput()
    {
        if (toChild_ >= 0) {
            ::close(toChild_);
            toChild_ = -1;
        }
    }

    pid_t pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    std::string outbox_;
    std::string inbox_;
};

/**
 * Output stream target for the in-process scheduler: timestamps each
 * complete line as the scheduler emits it and hands it to the client.
 */
class LineSink : public std::streambuf
{
  public:
    /** Block until at least one line arrived; move them into @p out. */
    void
    take(std::vector<Arrival> &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return !lines_.empty(); });
        for (Arrival &a : lines_)
            out.push_back(std::move(a));
        lines_.clear();
    }

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            put(traits_type::to_char_type(ch));
        return traits_type::not_eof(ch);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            put(s[i]);
        return n;
    }

  private:
    // The scheduler writes under its own lock, so partial_ has one
    // writer at a time; lines_ is shared with the client thread.
    void
    put(char c)
    {
        if (c != '\n') {
            partial_.push_back(c);
            return;
        }
        const double t = now();
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            lines_.push_back({ t, std::move(partial_) });
        }
        partial_.clear();
        ready_.notify_one();
    }

    std::string partial_;
    std::mutex mutex_;
    std::condition_variable ready_;
    std::vector<Arrival> lines_;
};

/** Pickup and finish times of one in-process job, keyed by seq. */
struct RunnerTimes
{
    double pickup = 0.0;
    double finish = 0.0;
};

/** Per-job numbers every result line of that job must repeat. */
struct Expected
{
    uint64_t cnot = 0;
    uint64_t depth = 0;
};

Expected
compileInProcess(const Job &job)
{
    QuClearOptions options;
    options.extraction.threads = 1;
    options.synthesisPortfolio = job.portfolio;
    const CompiledProgram program =
        QuClear(options).compileCircuit(fromQasm(job.qasm));
    const CircuitStats stats = computeStats(program.circuit());
    return { stats.cxCount, stats.entanglingDepth };
}

/**
 * Check one result line against its job: status ok, id echoed, and
 * the CNOT count equal to the in-process compile. Returns the line's
 * (cnot, depth).
 */
Expected
checkLine(Report &report, const Arrival &arrival, const Job &job,
          const Expected &expected)
{
    Expected got;
    bool ok = false;
    try {
        const JsonValue doc = parseJson(arrival.line);
        const JsonValue *status = doc.find("status");
        const JsonValue *id = doc.find("id");
        const JsonValue *results = doc.find("results");
        if (status && status->asString() == "ok" && id &&
            id->asString() == job.name && results) {
            const JsonValue *q = results->find("quclear");
            got.cnot = q->find("cnot")->asUint();
            got.depth = q->find("depth")->asUint();
            ok = got.cnot == expected.cnot;
        }
    } catch (const std::exception &) {
        ok = false;
    }
    report.check(ok, job.name + ": result line is not ok or its cnot "
                                "differs from an in-process compile: " +
                         arrival.line.substr(0, 200));
    return got;
}

/** Job order for the closed loop: seeded permutations, back to back. */
class JobOrder
{
  public:
    JobOrder(size_t count, uint64_t seed) : count_(count), rng_(seed) {}

    size_t
    next()
    {
        if (pos_ == order_.size()) {
            order_.resize(count_);
            for (size_t i = 0; i < count_; ++i)
                order_[i] = i;
            rng_.shuffle(order_);
            pos_ = 0;
        }
        return order_[pos_++];
    }

  private:
    size_t count_;
    Rng rng_;
    std::vector<size_t> order_;
    size_t pos_ = 0;
};

/** Smallest job by line length: the warm-up job. */
size_t
smallestJob(const std::vector<Job> &jobs)
{
    size_t best = 0;
    for (size_t j = 1; j < jobs.size(); ++j)
        if (jobs[j].line.size() < jobs[best].line.size())
            best = j;
    return best;
}

/** Scheduler attribution summed over the traced in-process jobs. */
struct SchedulerTotals
{
    double queueWait = 0.0;
    double runner = 0.0;
    double reorderWait = 0.0;
    double jobs = 0.0;
    double rejected = 0.0;
};

/**
 * One closed-loop phase against the in-process scheduler; latency per
 * job is admission to emission. With @p tracer set, the runner records
 * pickup and finish times, and each job becomes a span with its queue
 * wait, runner and reorder wait as children.
 */
void
inProcessPhase(const std::vector<Job> &jobs,
               const std::vector<service::JobRequest> &requests,
               unsigned slots, double budget, JobOrder &order,
               std::vector<std::vector<double>> &latency,
               std::vector<Arrival> &lines, std::vector<size_t> &line_job,
               Tracer *tracer, SchedulerTotals &totals)
{
    LineSink sink;
    std::ostream out(&sink);
    std::mutex times_mutex;
    std::map<uint64_t, RunnerTimes> runner_times;
    service::JobScheduler::Runner runner =
        [&](const service::JobRequest &request, uint64_t seq) {
            if (!tracer)
                return service::runJobLine(request, seq, slots);
            const double pickup = now();
            std::string line = service::runJobLine(request, seq, slots);
            const double finish = now();
            const std::lock_guard<std::mutex> lock(times_mutex);
            runner_times[seq] = { pickup, finish };
            return line;
        };
    service::JobScheduler scheduler(slots, 64, runner, out);

    std::deque<std::pair<size_t, double>> pending;
    std::vector<double> admit_times, emit_times;
    const double t0 = now();
    std::vector<Arrival> got;
    while (true) {
        while (pending.size() < slots && now() - t0 < budget) {
            const size_t j = order.next();
            const uint64_t seq = admit_times.size();
            admit_times.push_back(now());
            pending.emplace_back(j, admit_times.back());
            if (!scheduler.trySchedule(requests[j], seq)) {
                totals.rejected += 1;
                scheduler.emit(seq, service::errorResultLine(
                                        seq, jobs[j].name,
                                        service::ServiceError::QueueFull,
                                        "rejected"));
            }
        }
        if (pending.empty())
            break;
        got.clear();
        sink.take(got);
        for (Arrival &a : got) {
            const auto [j, admit] = pending.front();
            pending.pop_front();
            latency[j].push_back(a.time - admit);
            emit_times.push_back(a.time);
            line_job.push_back(j);
            lines.push_back(std::move(a));
        }
    }
    scheduler.drain();
    if (!tracer)
        return;
    for (const auto &[seq, t] : runner_times) {
        const auto k = static_cast<size_t>(seq);
        const auto group = static_cast<int64_t>(seq);
        const int64_t job = tracer->record("service.job", admit_times[k],
                                           emit_times[k], -1, group);
        tracer->record("service.scheduler.queue_wait", admit_times[k],
                       t.pickup, job, group);
        tracer->record("service.job_runner", t.pickup, t.finish, job, group);
        tracer->record("service.scheduler.reorder_wait", t.finish,
                       emit_times[k], job, group);
        totals.queueWait += t.pickup - admit_times[k];
        totals.runner += t.finish - t.pickup;
        totals.reorderWait += emit_times[k] - t.finish;
        totals.jobs += 1;
    }
}

} // namespace

void
runServeWorkload(const Args &args, Report &report)
{
    const unsigned slots = args.nproc;
    report.meta()["server_threads"] = slots;
    report.meta()["outstanding_jobs"] = slots;
    report.meta()["job_threads"] = 1;

    std::vector<Job> jobs;
    std::vector<double> gen_times;
    std::vector<Arrival> lines;   // every result line, in order
    std::vector<size_t> line_job; // job index of each line
    std::unique_ptr<ServerProcess> server;

    // Set-up, 15 times: generate the jobs, then (untraced) start the
    // server and wait for its first warm-up result. The last server is
    // kept for the timed loop.
    const double setup_s = medianSeconds(15, [&](int) {
        const double t0 = now();
        jobs = serveJobs(args.seed, args.smoke);
        gen_times.push_back(now() - t0);
        if (args.trace)
            return;
        server.reset();
        lines.clear();
        line_job.clear();
        server = std::make_unique<ServerProcess>(args.cli, slots);
        const size_t warm = smallestJob(jobs);
        server->send(jobs[warm].line);
        if (!server->receive(lines, 60.0))
            throw std::runtime_error("server gave no warm-up result");
        line_job.push_back(warm);
    });
    report.meta()["jobs"] = jobs.size();
    size_t portfolio = 0, noisy = 0;
    for (const Job &job : jobs) {
        portfolio += job.portfolio ? 1 : 0;
        noisy += job.shots > 0 ? 1 : 0;
    }
    report.meta()["portfolio_jobs"] = portfolio;
    report.meta()["noise_jobs"] = noisy;

    std::vector<std::vector<double>> latency(jobs.size());
    JobOrder order(jobs.size(), args.seed ^ 0x0DE5);
    double elapsed = 0.0;
    size_t completed = 0;
    double server_rss = 0.0;
    Tracer tracer;
    std::vector<std::vector<double>> traced_latency(jobs.size());
    SchedulerTotals totals;

    if (!args.trace) {
        std::deque<std::pair<size_t, double>> pending;
        const double t0 = now();
        std::vector<Arrival> got;
        while (true) {
            while (pending.size() < slots && now() - t0 < args.seconds) {
                const size_t j = order.next();
                pending.emplace_back(j, now());
                server->send(jobs[j].line);
            }
            if (pending.empty())
                break;
            got.clear();
            if (!server->receive(got, 60.0)) {
                report.check(false, "server stopped answering");
                break;
            }
            for (Arrival &a : got) {
                const auto [j, sent] = pending.front();
                pending.pop_front();
                latency[j].push_back(a.time - sent);
                ++completed;
                line_job.push_back(j);
                lines.push_back(std::move(a));
            }
        }
        elapsed = now() - t0;
        server_rss = peakRssMb(server->pid());
        std::vector<Arrival> rest;
        const int status = server->finish(rest);
        report.check(status == 0 && rest.empty(),
                     "server exit status " + std::to_string(status) +
                         " with " + std::to_string(rest.size()) +
                         " unexpected lines");
        server.reset();
    } else {
        std::vector<service::JobRequest> requests;
        for (const Job &job : jobs) {
            const service::ParsedJob parsed =
                service::parseJobLine(job.line, 0);
            report.check(parsed.error == service::ServiceError::None,
                         job.name + ": job line does not parse");
            requests.push_back(parsed.request);
        }
        // Alternate untraced and traced phases so both see the same
        // machine state; the traced phases supply the per-layer times.
        for (int phase = 0; phase < 4; ++phase) {
            const bool traced = phase % 2 == 1;
            inProcessPhase(jobs, requests, slots, args.seconds / 4, order,
                           traced ? traced_latency : latency, lines,
                           line_job, traced ? &tracer : nullptr, totals);
        }
    }

    // Output checks, outside timing: every line ok and its CNOT count
    // equal to an in-process compile of the same QASM.
    std::vector<Expected> expected(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j)
        expected[j] = compileInProcess(jobs[j]);
    double cnot = 0.0, depth = 0.0;
    std::vector<bool> seen(jobs.size(), false);
    for (size_t k = 0; k < lines.size(); ++k) {
        const size_t j = line_job[k];
        const Expected got =
            checkLine(report, lines[k], jobs[j], expected[j]);
        if (!seen[j]) {
            seen[j] = true;
            cnot += static_cast<double>(got.cnot);
            depth += static_cast<double>(got.depth);
        }
    }
    report.meta()["lines"] = lines.size();

    if (!args.trace) {
        // The result lines go to the repository's own contract checker
        // (tools/check_service_result.py), run by the wrapper script.
        const std::string path = args.outDir + "/service-lines-" +
                                 std::to_string(args.seed) + ".jsonl";
        std::ofstream out(path);
        for (const Arrival &a : lines)
            out << a.line << '\n';
        report.meta()["service_lines"] = path;
        report.meta()["service_line_count"] = lines.size();

        std::vector<std::vector<double>> timed;
        for (std::vector<double> &l : latency)
            if (!l.empty())
                timed.push_back(std::move(l));
        reportItemTimes(report, timed, static_cast<double>(completed),
                        elapsed);
        report.metric("cnot", cnot, "count");
        report.metric("entangling_depth", depth, "count");
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", server_rss, "MB");
        return;
    }

    const double per_job = totals.jobs > 0 ? 1.0 / totals.jobs : 0.0;

    // Stage attribution: one pass over the distinct jobs through the
    // public functions the runner calls, a span around each.
    double parse_s = 0.0, import_s = 0.0, to_paulis_s = 0.0;
    double noise_s = 0.0, shots = 0.0;
    for (size_t j = 0; j < jobs.size(); ++j) {
        const auto group = static_cast<int64_t>(j);
        const int64_t root = tracer.begin("job", -1, group);
        const service::ParsedJob parsed = tracer.span(
            "service.protocol.parse", root, group,
            [&] { return service::parseJobLine(jobs[j].line, 0); });
        const QuantumCircuit qc = tracer.span(
            "circuit.qasm_import", root, group,
            [&] { return fromQasm(parsed.request.payload); });
        tracer.span("core.circuit_to_paulis", root, group,
                    [&] { return circuitToPauliProgram(qc); });
        parse_s += tracer.duration(root + 1);
        import_s += tracer.duration(root + 2);
        to_paulis_s += tracer.duration(root + 3);
        if (jobs[j].shots > 0) {
            QuClearOptions options;
            options.extraction.threads = 1;
            options.synthesisPortfolio = jobs[j].portfolio;
            const CompiledProgram program =
                QuClear(options).compileCircuit(qc);
            NoiseModel::SamplerOptions sampler;
            sampler.seed = jobs[j].noiseSeed;
            sampler.threads = 1;
            const int64_t id = tracer.begin("sim.noise", root, group);
            NoiseModel().noisyStabilizerExpectation(
                program.extraction.extractedClifford,
                PauliString::fromLabel(jobs[j].observable),
                static_cast<size_t>(jobs[j].shots), sampler);
            tracer.end(id);
            noise_s += tracer.duration(id);
            shots += static_cast<double>(jobs[j].shots);
        }
        tracer.end(root);
    }

    reportIdle(report, Layers::Compile);
    reportIdle(report, Layers::Routing);
    report.metric("trace.overhead_s", traceOverhead(latency, traced_latency),
                  "s");
    report.metric("benchgen.s", median(gen_times), "s");
    report.metric("service.protocol.parse_s", parse_s, "s");
    report.metric("circuit.qasm_import.s", import_s, "s");
    report.metric("core.circuit_to_paulis.s", to_paulis_s, "s");
    report.metric("service.scheduler.queue_wait_s",
                  totals.queueWait * per_job, "s");
    report.metric("service.scheduler.reorder_wait_s",
                  totals.reorderWait * per_job, "s");
    report.metric("service.scheduler.rejected", totals.rejected, "count");
    report.metric("service.job_runner.s", totals.runner * per_job, "s");
    report.metric("sim.noise.s", noise_s, "s");
    report.metric("sim.noise.shots", shots, "count");
    report.metric("sim.noise.shots_per_s",
                  noise_s > 0 ? shots / noise_s : 0.0, "1/s");
    tracer.write(args.outDir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json");
}

} // namespace perfbench
