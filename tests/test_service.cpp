/**
 * @file
 * Tests for the compilation service (src/service/, docs/SERVICE.md):
 * the JSONL job parser's documented error codes, the JSON reader, the
 * bounded scheduler's queue-full/timeout/ordering semantics, the serve
 * loop's resilience to malformed input, the determinism contract
 * (concurrent results bit-identical to sequential one-shot compiles),
 * and the raw-fd transport over a loopback TCP socket, pipes and a
 * regular file.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <regex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "circuit/qasm_import.hpp"
#include "core/quclear.hpp"
#include "service/job_runner.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "sim/noise_model.hpp"
#include "tableau/clifford_tableau.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/worker_pool.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace quclear {
namespace {

using namespace quclear::service;

const char *const kSmokeQasm =
    "OPENQASM 2.0;\n"
    "include \"qelib1.inc\";\n"
    "qreg q[3];\n"
    "h q[0];\n"
    "cx q[0],q[1];\n"
    "rz(0.5) q[1];\n"
    "cx q[1],q[2];\n"
    "rz(-0.25) q[2];\n"
    "cx q[1],q[2];\n"
    "cx q[0],q[1];\n"
    "h q[0];\n";

/** The smoke circuit as an inline-QASM job line. */
std::string
smokeJobLine(const std::string &id, const std::string &config_json = "")
{
    JsonValue doc = JsonValue::object();
    doc["id"] = id;
    doc["qasm"] = kSmokeQasm;
    std::string line = doc.dump(0);
    while (!line.empty() && line.back() == '\n')
        line.pop_back();
    if (!config_json.empty()) {
        line.pop_back(); // '}'
        line += ",\"config\":" + config_json + "}";
    }
    return line;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Parse a result line and sanity-check the schema envelope. */
JsonValue
parseResult(const std::string &line)
{
    const JsonValue doc = parseJson(line);
    EXPECT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("schema")->asString(), kResultSchema);
    EXPECT_NE(doc.find("id"), nullptr);
    EXPECT_NE(doc.find("seq"), nullptr);
    EXPECT_NE(doc.find("status"), nullptr);
    return doc;
}

std::string
errorCodeOf(const JsonValue &result)
{
    EXPECT_EQ(result.find("status")->asString(), "error");
    return result.find("error")->find("code")->asString();
}

// --------------------------------------------------------------------
// JSON reader
// --------------------------------------------------------------------

TEST(JsonReader, RoundTripsWriterOutput)
{
    JsonValue doc = JsonValue::object();
    doc["int"] = -42;
    doc["uint"] = uint64_t{1} << 63;
    doc["double"] = 0.1;
    doc["bool"] = true;
    doc["null"] = JsonValue();
    doc["text"] = "line\nbreak \"quoted\" \\ slash";
    JsonValue &arr = doc["arr"];
    arr.append(1);
    arr.append("two");
    arr.append(JsonValue::object())["nested"] = 3;

    const JsonValue parsed = parseJson(doc.dump(2));
    EXPECT_EQ(parsed.dump(2), doc.dump(2));
    EXPECT_EQ(parsed.find("int")->asInt(), -42);
    EXPECT_EQ(parsed.find("uint")->asUint(), uint64_t{1} << 63);
    EXPECT_DOUBLE_EQ(parsed.find("double")->asDouble(), 0.1);
    EXPECT_TRUE(parsed.find("bool")->asBool());
    EXPECT_EQ(parsed.find("text")->asString(),
              "line\nbreak \"quoted\" \\ slash");
    EXPECT_EQ(parsed.find("arr")->at(1).asString(), "two");
}

TEST(JsonReader, ParsesEscapesAndUnicode)
{
    const JsonValue v = parseJson(R"({"s":"a\u00e9\u0041\ud83d\ude00"})");
    EXPECT_EQ(v.find("s")->asString(), "a\xC3\xA9"
                                       "A\xF0\x9F\x98\x80");
}

TEST(JsonReader, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "[1,]",
        "{\"a\":1,}",
        "{\"a\":1}{",
        "{'a':1}",
        "{\"a\":01}",
        "{\"a\":+1}",
        "{\"a\":nul}",
        "{\"a\":\"\\x\"}",
        "{\"a\":\"\\ud800\"}",
        "{\"a\":1,\"a\":2}",
        "NaN",
    };
    for (const char *text : bad)
        EXPECT_THROW(parseJson(text), std::invalid_argument) << text;
    // Nesting bound.
    std::string deep;
    for (int i = 0; i < 80; ++i)
        deep += '[';
    EXPECT_THROW(parseJson(deep), std::invalid_argument);
}

// --------------------------------------------------------------------
// Job-line parsing: every documented error code is reachable
// --------------------------------------------------------------------

TEST(JobParse, ValidJobWithFullConfig)
{
    const ParsedJob parsed = parseJobLine(
        smokeJobLine("j1", R"({"threads":4,"local_opt":false,)"
                           R"("commuting_blocks":false,)"
                           R"("optimize_depth":false,"timeout_ms":250,)"
                           R"("noise":{"p1":0.001,"p2":0.01,"shots":10,)"
                           R"("seed":3,"observable":"ZZI"}})"),
        7);
    ASSERT_EQ(parsed.error, ServiceError::None);
    const JobRequest &r = parsed.request;
    EXPECT_EQ(r.id, "j1");
    EXPECT_EQ(r.source, JobSource::InlineQasm);
    EXPECT_EQ(r.threads, 4u);
    EXPECT_FALSE(r.localOpt);
    EXPECT_FALSE(r.commutingBlocks);
    EXPECT_FALSE(r.optimizeDepth);
    EXPECT_EQ(r.timeoutMs, 250u);
    ASSERT_TRUE(r.noise.enabled);
    EXPECT_DOUBLE_EQ(r.noise.singleQubitError, 0.001);
    EXPECT_EQ(r.noise.shots, 10u);
    EXPECT_EQ(r.noise.observable, "ZZI");
}

TEST(JobParse, DefaultsMatchContract)
{
    const ParsedJob parsed =
        parseJobLine(R"json({"benchmark":"LABS-(n10)"})json", 3);
    ASSERT_EQ(parsed.error, ServiceError::None);
    EXPECT_EQ(parsed.request.id, "job-3");
    EXPECT_EQ(parsed.request.source, JobSource::Benchmark);
    EXPECT_EQ(parsed.request.threads, 1u);
    EXPECT_TRUE(parsed.request.localOpt);
    EXPECT_EQ(parsed.request.timeoutMs, 0u);
    EXPECT_FALSE(parsed.request.noise.enabled);
}

TEST(JobParse, PortfolioConfigKey)
{
    const ParsedJob parsed =
        parseJobLine(smokeJobLine("j10", R"({"portfolio":true})"), 1);
    ASSERT_EQ(parsed.error, ServiceError::None);
    EXPECT_TRUE(parsed.request.portfolio);

    // Default off: portfolio multiplies compile time.
    const ParsedJob defaulted =
        parseJobLine(R"json({"benchmark":"LABS-(n10)"})json", 2);
    ASSERT_EQ(defaulted.error, ServiceError::None);
    EXPECT_FALSE(defaulted.request.portfolio);
}

TEST(JobParse, BlockParallelismConfigKey)
{
    const ParsedJob parsed = parseJobLine(
        smokeJobLine("j9", R"({"threads":8,"block_parallelism":2})"), 1);
    ASSERT_EQ(parsed.error, ServiceError::None);
    EXPECT_EQ(parsed.request.threads, 8u);
    EXPECT_EQ(parsed.request.blockParallelism, 2u);

    const ParsedJob defaulted =
        parseJobLine(R"json({"benchmark":"LABS-(n10)"})json", 2);
    ASSERT_EQ(defaulted.error, ServiceError::None);
    EXPECT_EQ(defaulted.request.blockParallelism, 0u);
}

TEST(JobRunner, ClampJobThreadsRespectsMachineCapacity)
{
    const uint32_t hw = WorkerPool::resolveThreadCount(0);
    // A lone scheduler worker never clamps — one job owns the machine.
    EXPECT_EQ(clampJobThreads(1, 1), 1u);
    EXPECT_EQ(clampJobThreads(3, 1), 3u);
    EXPECT_EQ(clampJobThreads(0, 1), hw);
    // Oversubscribed: resolved * workers above capacity shrinks the
    // per-job pool to capacity / workers, floored at one.
    EXPECT_EQ(clampJobThreads(hw, 2), std::max(1u, hw / 2));
    EXPECT_EQ(clampJobThreads(1024, 4), std::max(1u, hw / 4));
    EXPECT_EQ(clampJobThreads(1, 1024), 1u);
    // Requests that fit beside their sibling workers pass through.
    if (hw >= 4) {
        EXPECT_EQ(clampJobThreads(2, 2), 2u);
    }
}

TEST(JobRunner, ThreadClampInvisibleOnTheWire)
{
    // The clamp changes only how a job is computed, never its result
    // line: the same request must serialize identically whether the
    // server runs one scheduler worker or enough to force the per-job
    // thread pool down to one.
    const ParsedJob parsed = parseJobLine(
        smokeJobLine("clamp", R"({"threads":4,"block_parallelism":2})"),
        1);
    ASSERT_EQ(parsed.error, ServiceError::None);
    JsonValue solo = parseResult(runJobLine(parsed.request, 1, 1));
    JsonValue crowded = parseResult(runJobLine(parsed.request, 1, 64));
    // Wall-clock is the one legitimately run-dependent field.
    solo["results"]["quclear"]["seconds"] = 0.0;
    crowded["results"]["quclear"]["seconds"] = 0.0;
    EXPECT_EQ(crowded.dump(), solo.dump());
    EXPECT_EQ(solo.find("config")->find("threads")->asUint(), 4u);
    EXPECT_EQ(solo.find("config")->find("block_parallelism")->asUint(),
              2u);
}

TEST(JobParse, ErrorCodeMapping)
{
    const struct
    {
        const char *line;
        ServiceError expected;
    } kCases[] = {
        {"not json at all", ServiceError::InvalidJson},
        {"[1,2,3]", ServiceError::InvalidJob},
        {"{}", ServiceError::InvalidJob},
        {R"({"qasm":"x","qasm_file":"y"})", ServiceError::InvalidJob},
        {R"({"qasm":""})", ServiceError::InvalidJob},
        {R"({"qasm":"x","frobnicate":1})", ServiceError::InvalidJob},
        {R"({"qasm":"x","config":{"thread":2}})", ServiceError::InvalidJob},
        {R"({"qasm":"x","config":{"threads":-1}})",
         ServiceError::InvalidJob},
        {R"({"qasm":"x","config":{"threads":2000}})",
         ServiceError::InvalidJob},
        {R"({"qasm":"x","config":{"noise":{"p1":1.5}}})",
         ServiceError::InvalidJob},
        {R"({"qasm":"x","config":{"noise":{"shots":5}}})",
         ServiceError::InvalidJob},
        {R"({"id":"","qasm":"x"})", ServiceError::InvalidJob},
    };
    for (const auto &c : kCases) {
        const ParsedJob parsed = parseJobLine(c.line, 0);
        EXPECT_EQ(parsed.error, c.expected) << c.line;
        EXPECT_FALSE(parsed.message.empty()) << c.line;
    }
}

TEST(JobParse, ErrorLineKeepsClientId)
{
    // The id parsed before the failure so the client can correlate.
    const ParsedJob parsed =
        parseJobLine(R"({"id":"mine","qasm":"x","bogus":1})", 0);
    EXPECT_EQ(parsed.error, ServiceError::InvalidJob);
    EXPECT_EQ(parsed.request.id, "mine");
}

TEST(Protocol, ErrorCodesAndRetryability)
{
    EXPECT_STREQ(errorCode(ServiceError::QueueFull), "queue-full");
    EXPECT_STREQ(errorCode(ServiceError::Timeout), "timeout");
    EXPECT_STREQ(errorCode(ServiceError::UnsupportedGate),
                 "unsupported-gate");
    EXPECT_TRUE(errorRetryable(ServiceError::QueueFull));
    EXPECT_TRUE(errorRetryable(ServiceError::Timeout));
    EXPECT_FALSE(errorRetryable(ServiceError::InvalidJson));
    EXPECT_FALSE(errorRetryable(ServiceError::InvalidJob));
    EXPECT_FALSE(errorRetryable(ServiceError::QasmParse));
    EXPECT_FALSE(errorRetryable(ServiceError::Internal));
}

// --------------------------------------------------------------------
// Job runner: per-job failures map to documented codes
// --------------------------------------------------------------------

TEST(JobRunner, RunnerErrorCodes)
{
    const struct
    {
        const char *line;
        const char *code;
    } kCases[] = {
        {R"({"qasm":"OPENQASM 2.0; bad"})", "qasm-parse"},
        // Rejected by the importer's register cap, not by a failed
        // allocation (which would surface as "internal").
        {R"({"qasm":"OPENQASM 2.0;\nqreg q[4000000000];\nh q[0];\n"})",
         "qasm-parse"},
        {R"({"qasm":"OPENQASM 2.0;\nqreg q[4294967298];\nh q[0];\n"})",
         "qasm-parse"},
        {R"({"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\n)"
         R"(qreg q[2];\nccz q[0],q[1];\n"})",
         "unsupported-gate"},
        {R"({"benchmark":"No-Such-Bench"})", "unknown-benchmark"},
        {R"({"qasm_file":"/nonexistent/path.qasm"})", "io-error"},
    };
    for (const auto &c : kCases) {
        const ParsedJob parsed = parseJobLine(c.line, 0);
        ASSERT_EQ(parsed.error, ServiceError::None) << c.line;
        const JsonValue result =
            parseResult(runJobLine(parsed.request, 0));
        EXPECT_EQ(errorCodeOf(result), c.code) << c.line;
        EXPECT_FALSE(
            result.find("error")->find("retryable")->asBool());
    }
}

TEST(JobRunner, HostileQasmLineGetsAShortQasmParseError)
{
    // A 1 MB statement must come back as a short classified error,
    // not as a result line that repeats it.
    const std::string line = R"({"qasm":"OPENQASM 2.0; qreg q[1]; rz()" +
                             std::string(size_t(1) << 20, '(') +
                             R"(pi) q[0];"})";
    const ParsedJob parsed = parseJobLine(line, 0);
    ASSERT_EQ(parsed.error, ServiceError::None);
    const std::string out = runJobLine(parsed.request, 0);
    EXPECT_LT(out.size(), 1024u);
    EXPECT_EQ(errorCodeOf(parseResult(out)), "qasm-parse");
}

TEST(JobRunner, NoiseObservableMismatchIsInvalidJob)
{
    const ParsedJob parsed = parseJobLine(
        smokeJobLine("j", R"({"noise":{"shots":5,"observable":"ZZ"}})"),
        0);
    ASSERT_EQ(parsed.error, ServiceError::None);
    const JsonValue result = parseResult(runJobLine(parsed.request, 0));
    EXPECT_EQ(errorCodeOf(result), "invalid-job");
}

TEST(JobRunner, NoiseExpectationIsExactAndSeedFree)
{
    // The observable is a stabilizer of the compiled tail's output
    // state, so its ideal expectation is +-1 and the damping shows.
    const QuClear compiler; // the job's default knobs
    const CompiledProgram program =
        compiler.compileCircuit(fromQasm(kSmokeQasm));
    const QuantumCircuit &tail = program.extraction.extractedClifford;
    ASSERT_GT(tail.size(), 0u);
    const PauliString observable =
        CliffordTableau::fromCircuit(tail).imageZ(0);
    NoiseModel model;
    model.singleQubitError = 0.01;
    model.twoQubitError = 0.05;
    const double exact = model.exactStabilizerExpectation(tail, observable);
    EXPECT_NE(exact, 0.0);
    EXPECT_LT(std::abs(exact), 1.0);

    // Two jobs that differ only in seed and threads.
    const std::string noise = R"("noise":{"p1":0.01,"p2":0.05,"shots":100,)"
                              R"("observable":")" +
                              observable.toLabel() + R"(",)";
    const ParsedJob a = parseJobLine(
        smokeJobLine("j", "{\"threads\":1," + noise + R"("seed":11}})"), 0);
    const ParsedJob b = parseJobLine(
        smokeJobLine("j", "{\"threads\":3," + noise + R"("seed":99}})"), 0);
    ASSERT_EQ(a.error, ServiceError::None) << a.message;
    ASSERT_EQ(b.error, ServiceError::None) << b.message;
    const JsonValue ra = parseResult(runJobLine(a.request, 0));
    const JsonValue rb = parseResult(runJobLine(b.request, 0));
    const JsonValue *na = ra.find("results")->find("noise");
    const JsonValue *nb = rb.find("results")->find("noise");
    ASSERT_NE(na, nullptr);
    ASSERT_NE(nb, nullptr);
    EXPECT_EQ(na->find("tail_expectation")->asDouble(), exact);
    EXPECT_EQ(nb->find("tail_expectation")->asDouble(), exact);
    EXPECT_EQ(na->find("seed")->asUint(), 11u);
    EXPECT_EQ(nb->find("seed")->asUint(), 99u);
    EXPECT_EQ(na->find("fault_sites")->asUint(), 100 * tail.size());
    EXPECT_EQ(nb->find("fault_sites")->asUint(), 100 * tail.size());
    EXPECT_EQ(na->find("error_events"), nullptr);
    EXPECT_EQ(nb->find("error_events"), nullptr);
}

// --------------------------------------------------------------------
// Scheduler: backpressure, timeout, ordering
// --------------------------------------------------------------------

JobRequest
dummyRequest(const std::string &id)
{
    JobRequest request;
    request.id = id;
    request.source = JobSource::InlineQasm;
    request.payload = "unused";
    return request;
}

TEST(Scheduler, QueueFullRejectsAtAdmission)
{
    std::ostringstream out;
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    JobScheduler scheduler(
        2, 1,
        [gate](const JobRequest &request, uint64_t) {
            gate.wait();
            return "done:" + request.id;
        },
        out);

    EXPECT_TRUE(scheduler.trySchedule(dummyRequest("a"), 0));
    // Window of 1 is occupied (queued or running) -> reject.
    EXPECT_FALSE(scheduler.trySchedule(dummyRequest("b"), 1));
    scheduler.emit(1, errorResultLine(1, "b", ServiceError::QueueFull,
                                      "full"));
    release.set_value();
    scheduler.drain();

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "done:a");
    EXPECT_EQ(errorCodeOf(parseResult(lines[1])), "queue-full");
    EXPECT_TRUE(parseResult(lines[1])
                    .find("error")
                    ->find("retryable")
                    ->asBool());
}

TEST(Scheduler, ExpiredDeadlineEmitsTimeout)
{
    std::ostringstream out;
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    // 2 threads = 1 pool worker executing tasks; the gated head job
    // holds it so the second job's 1 ms deadline expires in queue.
    JobScheduler scheduler(
        2, 8,
        [gate](const JobRequest &request, uint64_t) {
            gate.wait();
            return "done:" + request.id;
        },
        out);

    EXPECT_TRUE(scheduler.trySchedule(dummyRequest("slow"), 0));
    JobRequest timed = dummyRequest("timed");
    timed.timeoutMs = 1;
    EXPECT_TRUE(scheduler.trySchedule(std::move(timed), 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
    scheduler.drain();

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "done:slow");
    const JsonValue result = parseResult(lines[1]);
    EXPECT_EQ(errorCodeOf(result), "timeout");
    EXPECT_TRUE(result.find("error")->find("retryable")->asBool());
}

TEST(Scheduler, EmitsInSubmissionOrderDespiteCompletionOrder)
{
    std::ostringstream out;
    JobScheduler scheduler(
        1, 16,
        [](const JobRequest &request, uint64_t) {
            return "line:" + request.id;
        },
        out);
    // Fill slots out of order through emit() directly: 2, 0, 1.
    scheduler.emit(2, "two");
    EXPECT_TRUE(out.str().empty());
    scheduler.emit(0, "zero");
    EXPECT_EQ(out.str(), "zero\n");
    scheduler.emit(1, "one");
    EXPECT_EQ(out.str(), "zero\none\ntwo\n");
}

TEST(Scheduler, RunnerExceptionBecomesInternalError)
{
    std::ostringstream out;
    JobScheduler scheduler(
        1, 4,
        [](const JobRequest &, uint64_t) -> std::string {
            throw std::runtime_error("boom");
        },
        out);
    EXPECT_TRUE(scheduler.trySchedule(dummyRequest("x"), 0));
    scheduler.drain();
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(errorCodeOf(parseResult(lines[0])), "internal");
}

// --------------------------------------------------------------------
// Serve loop: resilience, ordering, determinism vs one-shot compiles
// --------------------------------------------------------------------

TEST(ServeStream, MalformedLinesNeverKillTheServer)
{
    std::istringstream in(
        "garbage\n"
        "\n"
        "   \n"
        "{\"qasm\":123}\n" +
        smokeJobLine("good") +
        "\n"
        "{\"benchmark\":\"No-Such-Bench\"}\n");
    std::ostringstream out;
    ServeOptions options;
    options.workers = 1;
    const uint64_t jobs = serveStream(in, out, options);
    EXPECT_EQ(jobs, 4u); // blank lines carry no sequence number

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(errorCodeOf(parseResult(lines[0])), "invalid-json");
    EXPECT_EQ(errorCodeOf(parseResult(lines[1])), "invalid-job");
    EXPECT_EQ(parseResult(lines[2]).find("status")->asString(), "ok");
    EXPECT_EQ(errorCodeOf(parseResult(lines[3])), "unknown-benchmark");
    // Sequence numbers are dense and ordered.
    for (uint64_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(parseResult(lines[i]).find("seq")->asUint(), i);
}

/**
 * Input buffer that generates its bytes on demand from (text, repeat)
 * pieces, 64 KiB at a time, so a test can stream lines far longer than
 * kMaxJobLineBytes without ever allocating them.
 */
class GeneratedInput : public std::streambuf
{
  public:
    struct Piece
    {
        std::string text;
        size_t repeat;
    };

    explicit GeneratedInput(std::vector<Piece> pieces)
        : pieces_(std::move(pieces))
    {
    }

  protected:
    int_type underflow() override
    {
        size_t filled = 0;
        while (filled < sizeof chunk_ && piece_ < pieces_.size()) {
            const Piece &p = pieces_[piece_];
            const size_t total = p.text.size() * p.repeat;
            if (done_ == total) {
                ++piece_;
                done_ = 0;
                continue;
            }
            const size_t n = std::min(sizeof chunk_ - filled, total - done_);
            if (p.text.size() == 1) // the long runs
                std::memset(chunk_ + filled, p.text[0], n);
            else
                for (size_t i = 0; i < n; ++i)
                    chunk_[filled + i] =
                        p.text[(done_ + i) % p.text.size()];
            filled += n;
            done_ += n;
        }
        if (filled == 0)
            return traits_type::eof();
        setg(chunk_, chunk_, chunk_ + filled);
        return traits_type::to_int_type(*chunk_);
    }

  private:
    std::vector<Piece> pieces_;
    size_t piece_ = 0; // current piece
    size_t done_ = 0;  // bytes of it already generated
    char chunk_[64 * 1024];
};

TEST(ServeStream, OversizeLinesAreAnsweredWithoutBufferingThem)
{
    // A line of exactly the cap plus CRLF is in bounds (and merely bad
    // JSON); one byte past it is refused by length; an oversize blank
    // line is skipped like any blank line; the stream then resumes.
    GeneratedInput gen({ { "x", kMaxJobLineBytes },
                         { "\r\n", 1 },
                         { "x", kMaxJobLineBytes + 4096 },
                         { "\n", 1 },
                         { " ", kMaxJobLineBytes + 4096 },
                         { "\n", 1 },
                         { smokeJobLine("after") + "\n", 1 } });
    std::istream in(&gen);
    std::ostringstream out;
    ServeOptions options;
    options.workers = 1;
    EXPECT_EQ(serveStream(in, out, options), 3u);

    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 3u);
    const auto message = [](const JsonValue &result) {
        return result.find("error")->find("message")->asString();
    };
    const JsonValue at_cap = parseResult(lines[0]);
    EXPECT_EQ(errorCodeOf(at_cap), "invalid-json");
    EXPECT_EQ(message(at_cap).find("exceeds"), std::string::npos);
    const JsonValue over_cap = parseResult(lines[1]);
    EXPECT_EQ(errorCodeOf(over_cap), "invalid-json");
    EXPECT_NE(message(over_cap).find("exceeds"), std::string::npos);
    const JsonValue after = parseResult(lines[2]);
    EXPECT_EQ(after.find("status")->asString(), "ok");
    EXPECT_EQ(after.find("id")->asString(), "after");
    for (uint64_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(parseResult(lines[i]).find("seq")->asUint(), i);
}

/** Strip the wall-clock field so result lines compare bit-exactly. */
JsonValue
withoutSeconds(const JsonValue &doc)
{
    const JsonValue parsed = parseJson(doc.dump(0));
    JsonValue copy = JsonValue::object();
    for (const auto &member : parsed.members()) {
        if (member.first != "results") {
            copy[member.first] = member.second;
            continue;
        }
        JsonValue &results = copy["results"];
        for (const auto &group : member.second.members()) {
            JsonValue &group_copy = results[group.first];
            for (const auto &leaf : group.second.members())
                if (leaf.first != "seconds")
                    group_copy[leaf.first] = leaf.second;
        }
    }
    return copy;
}

TEST(ServeStream, ConcurrentResultsBitIdenticalToSequential)
{
    // A mixed batch: inline QASM at several thread counts, a file-less
    // benchmark job, and a no-local-opt variant.
    std::string batch;
    batch += smokeJobLine("q1") + "\n";
    batch += smokeJobLine("q2", R"({"threads":3})") + "\n";
    batch += smokeJobLine("q3", R"({"local_opt":false})") + "\n";
    batch += R"json({"id":"b1","benchmark":"LABS-(n10)"})json"
             "\n";
    batch += R"json({"id":"b2","benchmark":"LABS-(n10)",)json"
             R"("config":{"threads":2}})"
             "\n";

    ServeOptions sequential;
    sequential.workers = 1;
    std::istringstream in_seq(batch);
    std::ostringstream out_seq;
    EXPECT_EQ(serveStream(in_seq, out_seq, sequential), 5u);

    ServeOptions concurrent;
    concurrent.workers = 4;
    std::istringstream in_par(batch);
    std::ostringstream out_par;
    EXPECT_EQ(serveStream(in_par, out_par, concurrent), 5u);

    const auto seq_lines = splitLines(out_seq.str());
    const auto par_lines = splitLines(out_par.str());
    ASSERT_EQ(seq_lines.size(), 5u);
    ASSERT_EQ(par_lines.size(), 5u);
    for (size_t i = 0; i < seq_lines.size(); ++i) {
        const JsonValue seq_doc = parseResult(seq_lines[i]);
        const JsonValue par_doc = parseResult(par_lines[i]);
        EXPECT_EQ(withoutSeconds(seq_doc).dump(0),
                  withoutSeconds(par_doc).dump(0))
            << "result " << i << " differs between workers=1 and "
            << "workers=4";
    }
}

TEST(ServeStream, ResultsMatchOneShotCompilation)
{
    // The service's determinism contract: a job's metrics are exactly
    // what a one-shot compile of the same program and config produces.
    std::istringstream in(smokeJobLine("job") + "\n");
    std::ostringstream out;
    ServeOptions options;
    options.workers = 2;
    EXPECT_EQ(serveStream(in, out, options), 1u);
    const auto lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), 1u);
    const JsonValue result = parseResult(lines[0]);
    ASSERT_EQ(result.find("status")->asString(), "ok");

    const QuantumCircuit circuit = fromQasm(kSmokeQasm);
    const QuClear compiler; // one-shot defaults
    const CompiledProgram program = compiler.compileCircuit(circuit);
    const CircuitStats stats = computeStats(program.circuit());

    const JsonValue *quclear_group =
        result.find("results")->find("quclear");
    ASSERT_NE(quclear_group, nullptr);
    EXPECT_EQ(quclear_group->find("cnot")->asUint(), stats.cxCount);
    EXPECT_EQ(quclear_group->find("depth")->asUint(),
              stats.entanglingDepth);
    EXPECT_EQ(quclear_group->find("gates")->asUint(),
              program.circuit().size());
    EXPECT_EQ(quclear_group->find("clifford_tail")->asUint(),
              program.extraction.extractedClifford.size());
}

// --------------------------------------------------------------------
// WorkerPool task queue
// --------------------------------------------------------------------

TEST(WorkerPoolTasks, DrainRethrowsFirstTaskError)
{
    WorkerPool pool(1); // inline path
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.drainTasks(), std::runtime_error);
    // The error slot is consumed; a clean drain follows.
    pool.drainTasks();
}

TEST(WorkerPoolTasks, TasksAndParallelForCoexist)
{
    WorkerPool pool(4);
    std::atomic<int> task_sum{0};
    for (int i = 1; i <= 10; ++i)
        pool.submit([&task_sum, i] { task_sum += i; });
    std::vector<int> slots(1000, 0);
    pool.parallelFor(slots.size(), [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j)
            slots[j] = 1;
    });
    pool.drainTasks();
    EXPECT_EQ(task_sum.load(), 55);
    for (const int s : slots)
        EXPECT_EQ(s, 1);
}

// --------------------------------------------------------------------
// TCP transport
// --------------------------------------------------------------------

#ifndef _WIN32

TEST(ServeTcp, OneConnectionRoundTrip)
{
    ServeOptions options;
    options.workers = 2;
    std::promise<uint16_t> port_promise;
    auto port_future = port_promise.get_future();
    std::thread server([&] {
        serveTcp(0, options, 1, [&](uint16_t port) {
            port_promise.set_value(port);
        });
    });
    // serveTcp never calls on_listening when socket/bind fails (a
    // sandboxed environment may deny them), so don't block forever.
    if (port_future.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
        server.join();
        GTEST_SKIP() << "server socket unavailable in this sandbox";
    }
    const uint16_t port = port_future.get();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        server.detach(); // server is blocked in accept(); leak it
        GTEST_SKIP() << "client socket unavailable in this sandbox";
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        server.join();
        GTEST_SKIP() << "loopback TCP unavailable in this sandbox";
    }

    const std::string request = smokeJobLine("tcp") + "\n" +
                                "broken json\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    ::shutdown(fd, SHUT_WR);

    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    server.join();

    const auto lines = splitLines(response);
    ASSERT_EQ(lines.size(), 2u);
    const JsonValue ok = parseResult(lines[0]);
    EXPECT_EQ(ok.find("status")->asString(), "ok");
    EXPECT_EQ(ok.find("id")->asString(), "tcp");
    EXPECT_EQ(errorCodeOf(parseResult(lines[1])), "invalid-json");
}

// --------------------------------------------------------------------
// Raw-fd transport (the --serve stdin/stdout path)
// --------------------------------------------------------------------

/** Result text with every wall-clock "seconds" value zeroed. */
std::string
maskSeconds(const std::string &text)
{
    static const std::regex seconds("\"seconds\":[-+0-9.eE]+");
    return std::regex_replace(text, seconds, "\"seconds\":0");
}

/**
 * A batch for the fd transport: a compiling job line longer than the
 * 64 KiB read buffer (so it spans reads), a CRLF line, blank lines, a
 * non-JSON line and an unknown config key among ordinary jobs.
 */
std::string
fdTransportBatch()
{
    std::string long_qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                            "qreg q[3];\nh q[0];\n";
    while (long_qasm.size() < (80u << 10))
        long_qasm += "cx q[0],q[1];\nrz(0.125) q[1];\ncx q[0],q[1];\n"
                     "h q[2];\n";
    JsonValue long_job = JsonValue::object();
    long_job["id"] = "long";
    long_job["qasm"] = long_qasm;
    std::string long_line = long_job.dump(0);
    while (!long_line.empty() && long_line.back() == '\n')
        long_line.pop_back();
    EXPECT_GT(long_line.size(), size_t{ 1 } << 16);

    return smokeJobLine("first") + "\n" + long_line + "\n" +
           smokeJobLine("crlf", R"({"threads":2})") + "\r\n" + "\n" +
           "   \n" + "not json at all\n" +
           smokeJobLine("bad-knob", R"({"frobnicate":1})") + "\n" +
           R"json({"id":"bench","benchmark":"LABS-(n10)"})json" + "\n";
}

/** Bytes of @p fd from its current offset to EOF. */
std::string
readAll(int fd)
{
    std::string text;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
        text.append(buf, static_cast<size_t>(n));
    return text;
}

/**
 * serveFds() over a pipe fed by a writer thread, writing results to
 * @p out_fd; returns the number of jobs served.
 */
uint64_t
serveFromPipe(const std::string &batch, int out_fd, uint32_t workers)
{
    int in_pipe[2];
    if (::pipe(in_pipe) != 0) {
        ADD_FAILURE() << "pipe failed";
        return 0;
    }
    std::thread writer([&] {
        size_t sent = 0;
        while (sent < batch.size()) {
            const ssize_t n =
                ::write(in_pipe[1], batch.data() + sent, batch.size() - sent);
            if (n <= 0)
                break;
            sent += static_cast<size_t>(n);
        }
        ::close(in_pipe[1]);
    });
    ServeOptions options;
    options.workers = workers;
    const uint64_t jobs = serveFds(in_pipe[0], out_fd, options);
    writer.join();
    ::close(in_pipe[0]);
    return jobs;
}

TEST(ServeFds, PipeAndFileOutputMatchStringStreams)
{
    const std::string batch = fdTransportBatch();
    for (const uint32_t workers : { 1u, 4u }) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        ServeOptions options;
        options.workers = workers;
        std::istringstream ref_in(batch);
        std::ostringstream ref_out;
        const uint64_t ref_jobs = serveStream(ref_in, ref_out, options);
        EXPECT_EQ(ref_jobs, 6u); // blank lines carry no sequence number
        const std::string expected = maskSeconds(ref_out.str());
        const auto lines = splitLines(ref_out.str());
        ASSERT_EQ(lines.size(), 6u);
        EXPECT_EQ(parseResult(lines[1]).find("id")->asString(), "long");
        EXPECT_EQ(parseResult(lines[1]).find("status")->asString(), "ok");
        EXPECT_EQ(parseResult(lines[2]).find("id")->asString(), "crlf");
        EXPECT_EQ(parseResult(lines[2]).find("status")->asString(), "ok");
        EXPECT_EQ(errorCodeOf(parseResult(lines[3])), "invalid-json");
        EXPECT_EQ(errorCodeOf(parseResult(lines[4])), "invalid-job");

        // Results into a second pipe, drained by a reader thread.
        int out_pipe[2];
        ASSERT_EQ(::pipe(out_pipe), 0);
        std::string piped;
        std::thread reader([&] { piped = readAll(out_pipe[0]); });
        EXPECT_EQ(serveFromPipe(batch, out_pipe[1], workers), ref_jobs);
        ::close(out_pipe[1]);
        reader.join();
        ::close(out_pipe[0]);
        EXPECT_EQ(maskSeconds(piped), expected);

        // Results into a regular file (the write() path, no socket).
        std::FILE *file = std::tmpfile();
        ASSERT_NE(file, nullptr);
        const int file_fd = ::fileno(file);
        EXPECT_EQ(serveFromPipe(batch, file_fd, workers), ref_jobs);
        ASSERT_EQ(::lseek(file_fd, 0, SEEK_SET), 0);
        EXPECT_EQ(maskSeconds(readAll(file_fd)), expected);
        std::fclose(file);
    }
}

#endif // !_WIN32

} // namespace
} // namespace quclear
