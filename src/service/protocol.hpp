/**
 * @file
 * The compilation service's wire contract (docs/SERVICE.md).
 *
 * One JSONL job request in, one schema-versioned
 * `quclear-service-result/v1` JSON line out, per job. This header owns
 * the request model (JobRequest), the stable error-code table with its
 * retryability column, the job-line parser, and the result-line
 * builders; the scheduler and server layers above it never invent
 * protocol strings of their own. The CLI's process exit codes live
 * here too so one-shot and serve mode cannot drift apart.
 */
#ifndef QUCLEAR_SERVICE_PROTOCOL_HPP
#define QUCLEAR_SERVICE_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "util/json_writer.hpp"

namespace quclear::service {

/** Schema tag stamped on every result line. */
inline constexpr const char *kResultSchema = "quclear-service-result/v1";

/**
 * Process exit codes, shared by one-shot and serve mode (README
 * "Exit codes"). Job-level failures in serve mode are reported in-band
 * as error result lines and never affect the process exit code.
 */
enum ExitCode : int
{
    kExitOk = 0,      //!< success / clean server shutdown
    kExitRuntime = 1, //!< runtime failure (I/O, verify, bind, ...)
    kExitUsage = 2,   //!< bad flags or malformed flag values
};

/**
 * Stable machine-readable job error codes. The enumerator order is
 * frozen by docs/SERVICE.md; new codes append at the end. `None` is
 * never serialized.
 */
enum class ServiceError
{
    None,
    InvalidJson,     //!< job line is not a JSON object
    InvalidJob,      //!< schema violation (fields, types, payloads)
    QasmParse,       //!< OpenQASM payload failed to parse
    UnsupportedGate, //!< OpenQASM parsed but used an unsupported gate
    UnknownBenchmark,//!< benchgen name not in the suite registry
    IoError,         //!< qasm_file unreadable
    Timeout,         //!< deadline expired while the job sat in queue
    QueueFull,       //!< bounded queue rejected the job at admission
    Internal,        //!< unexpected compiler failure (bug guard)
};

/** Wire string for an error code, e.g. "queue-full". */
const char *errorCode(ServiceError error);

/**
 * Whether a client should retry the identical job later: true only for
 * load-induced failures (Timeout, QueueFull); every other code is a
 * property of the job itself and will fail again.
 */
bool errorRetryable(ServiceError error);

/** How a job names its input program. */
enum class JobSource
{
    InlineQasm, //!< "qasm": OpenQASM 2.0 text inline in the job line
    QasmFile,   //!< "qasm_file": server-side path to OpenQASM 2.0
    Benchmark,  //!< "benchmark": benchgen suite name, e.g. "LABS-(n10)"
};

/** Wire string for a job source ("qasm" | "qasm_file" | "benchmark"). */
const char *sourceName(JobSource source);

/** Optional per-job noise analysis (results.noise group). */
struct JobNoiseSpec
{
    bool enabled = false;

    /** Depolarizing rates; defaults mirror sim/noise_model.hpp. */
    double singleQubitError = 3e-4;
    double twoQubitError = 5e-3;

    /**
     * Any value > 0 requests the exact noisy expectation of
     * `observable` on the extracted Clifford tail and scales the
     * echoed fault-site count (0 = analytic success probabilities
     * only). Requires `observable`.
     */
    uint64_t shots = 0;

    /** Echoed on the result line; changes no output. */
    uint64_t seed = 1;

    /** Pauli label whose noisy expectation is reported, e.g. "ZZI". */
    std::string observable;
};

/**
 * One parsed job. Config fields default to the serve-mode baseline:
 * within a job the compiler runs sequentially (`threads` = 1) because
 * cross-job concurrency is the scheduler's; every toggle matches the
 * one-shot CLI defaults so a bare job compiles exactly like
 * `quclear_cli input.qasm`.
 */
struct JobRequest
{
    /** Client-chosen id echoed on the result ("job-<seq>" if absent). */
    std::string id;

    JobSource source = JobSource::InlineQasm;

    /** QASM text, file path, or benchmark name, per `source`. */
    std::string payload;

    /**
     * ExtractionConfig::threads for this job's compile. The value here
     * is the client's request; the runner clamps the effective count
     * when requested threads x scheduler workers would oversubscribe
     * the machine (docs/SERVICE.md "Sizing"). The clamp is invisible
     * on the wire — thread count never changes a result line.
     */
    uint32_t threads = 1;

    /**
     * ExtractionConfig::blockParallelism: cross-block chain runners
     * inside this job's compile (0 = auto, 1 = sequential chains).
     * Like `threads`, never changes the result line.
     */
    uint32_t blockParallelism = 0;

    /** QuClearOptions::applyLocalOptimization. */
    bool localOpt = true;

    /** ExtractionConfig::useCommutingBlocks. */
    bool commutingBlocks = true;

    /** QuClearOptions::optimizeDepth. */
    bool optimizeDepth = true;

    /**
     * QuClearOptions::synthesisPortfolio: re-synthesize with the
     * alternate tree configurations and keep the min-CX result.
     * Default off — it multiplies compile time by the candidate count
     * (local_opt semantics stay the paper's otherwise).
     */
    bool portfolio = false;

    /**
     * Admission deadline in milliseconds (0 = none): a job still
     * waiting in the queue when its deadline expires fails with
     * `timeout` instead of compiling. Running jobs are never preempted.
     */
    uint64_t timeoutMs = 0;

    JobNoiseSpec noise;
};

/** Outcome of parsing one job line. */
struct ParsedJob
{
    ServiceError error = ServiceError::None;

    /** Human-readable detail for error result lines. */
    std::string message;

    /** Valid only when error == None. */
    JobRequest request;
};

/**
 * Parse and validate one JSONL job line against the docs/SERVICE.md
 * schema. Strict: unknown keys, wrong types, duplicate payloads, and
 * out-of-range knobs are all `invalid-job` (catching a misspelled knob
 * beats silently compiling with its default). Never throws — protocol
 * violations come back as the error field.
 * @param seq zero-based job sequence number, used for the default id
 */
ParsedJob parseJobLine(const std::string &line, uint64_t seq);

/**
 * Build the error result line for @p seq/@p id (compact, no trailing
 * newline).
 */
std::string errorResultLine(uint64_t seq, const std::string &id,
                            ServiceError error,
                            const std::string &message);

/**
 * Shell of a success result line: schema/id/seq/status plus the job's
 * echoed config; the runner fills `job` and `results`.
 */
JsonValue successResultShell(uint64_t seq, const JobRequest &request);

/**
 * Serialize a result document as the compact single-line wire form
 * (no trailing newline — the emitter owns line framing).
 */
std::string compactResultLine(const JsonValue &doc);

} // namespace quclear::service

#endif // QUCLEAR_SERVICE_PROTOCOL_HPP
