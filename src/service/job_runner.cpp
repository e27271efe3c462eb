#include "service/job_runner.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "benchgen/suite.hpp"
#include "circuit/circuit_stats.hpp"
#include "circuit/qasm_import.hpp"
#include "core/quclear.hpp"
#include "sim/noise_model.hpp"
#include "util/timer.hpp"
#include "util/worker_pool.hpp"

namespace quclear::service {

namespace {

/** Classified job failure, rendered as an in-band error line. */
struct JobError : std::runtime_error
{
    JobError(ServiceError code_in, const std::string &message)
        : std::runtime_error(message), code(code_in)
    {
    }

    ServiceError code;
};

/**
 * Map a QASM importer exception onto the contract's two codes: the
 * importer prefixes everything with "QASM parse error:" and names
 * rejected gates with "unsupported gate '<name>'".
 */
[[noreturn]] void
rethrowQasmError(const std::invalid_argument &e)
{
    const std::string message = e.what();
    if (message.find("unsupported gate") != std::string::npos)
        throw JobError(ServiceError::UnsupportedGate, message);
    throw JobError(ServiceError::QasmParse, message);
}

QuantumCircuit
loadCircuit(const JobRequest &request)
{
    std::string qasm_text;
    if (request.source == JobSource::QasmFile) {
        std::ifstream in(request.payload);
        if (!in)
            throw JobError(ServiceError::IoError,
                           "cannot open '" + request.payload + "'");
        std::stringstream buffer;
        buffer << in.rdbuf();
        if (in.bad())
            throw JobError(ServiceError::IoError,
                           "cannot read '" + request.payload + "'");
        qasm_text = buffer.str();
    } else {
        qasm_text = request.payload;
    }
    try {
        return fromQasm(qasm_text);
    } catch (const std::invalid_argument &e) {
        rethrowQasmError(e);
    }
}

QuClearOptions
optionsFor(const JobRequest &request, uint32_t scheduler_workers)
{
    QuClearOptions options;
    options.applyLocalOptimization = request.localOpt;
    options.optimizeDepth = request.optimizeDepth;
    options.synthesisPortfolio = request.portfolio;
    options.extraction.threads =
        clampJobThreads(request.threads, scheduler_workers);
    options.extraction.blockParallelism = request.blockParallelism;
    options.extraction.useCommutingBlocks = request.commutingBlocks;
    return options;
}

void
writeStats(JsonValue &group, const CircuitStats &stats, size_t gates)
{
    group["gates"] = gates;
    group["cnot"] = stats.cxCount;
    group["single_qubit"] = stats.singleQubitCount;
    group["depth"] = stats.entanglingDepth;
    group["total_depth"] = stats.totalDepth;
}

void
writeNoiseGroup(JsonValue &results, const JobNoiseSpec &spec,
                const QuantumCircuit *input, const CompiledProgram &program)
{
    NoiseModel model;
    model.singleQubitError = spec.singleQubitError;
    model.twoQubitError = spec.twoQubitError;

    JsonValue &noise = results["noise"];
    noise["p1"] = spec.singleQubitError;
    noise["p2"] = spec.twoQubitError;
    if (input)
        noise["input_success_probability"] =
            model.estimatedSuccessProbability(*input);
    noise["optimized_success_probability"] =
        model.estimatedSuccessProbability(program.circuit());

    if (spec.shots == 0)
        return;
    PauliString observable;
    try {
        observable = PauliString::fromLabel(spec.observable);
    } catch (const std::exception &e) {
        throw JobError(ServiceError::InvalidJob,
                       std::string("bad noise observable: ") + e.what());
    }
    if (observable.numQubits() != program.circuit().numQubits())
        throw JobError(ServiceError::InvalidJob,
                       "noise observable is on " +
                           std::to_string(observable.numQubits()) +
                           " qubits but the program is on " +
                           std::to_string(program.circuit().numQubits()));
    // Exact noisy expectation on the extracted Clifford tail: the tail
    // is Clifford by construction, so the depolarizing damping has a
    // closed form. The degradation is exactly what executing the tail
    // on hardware would cost — the quantity Clifford Absorption saves
    // (docs/SERVICE.md).
    const QuantumCircuit &tail = program.extraction.extractedClifford;
    noise["observable"] = spec.observable;
    noise["shots"] = spec.shots;
    noise["seed"] = spec.seed;
    noise["tail_expectation"] =
        model.exactStabilizerExpectation(tail, observable);
    noise["fault_sites"] = static_cast<size_t>(spec.shots) * tail.size();
}

std::string
runJobLineOrThrow(const JobRequest &request, uint64_t seq,
                  uint32_t scheduler_workers)
{
    QuantumCircuit circuit;
    Benchmark benchmark;
    if (request.source == JobSource::Benchmark) {
        try {
            benchmark = makeBenchmark(request.payload);
        } catch (const std::invalid_argument &e) {
            throw JobError(ServiceError::UnknownBenchmark, e.what());
        }
    } else {
        circuit = loadCircuit(request);
    }

    const QuClear compiler(optionsFor(request, scheduler_workers));
    Timer timer;
    const CompiledProgram program =
        request.source == JobSource::Benchmark
            ? compiler.compile(benchmark.terms)
            : compiler.compileCircuit(circuit);
    const double seconds = timer.seconds();

    JsonValue doc = successResultShell(seq, request);
    JsonValue &job = doc["job"];
    job["source"] = sourceName(request.source);
    job["qubits"] = program.circuit().numQubits();
    if (request.source == JobSource::Benchmark) {
        job["benchmark"] = request.payload;
        job["terms"] = benchmark.terms.size();
    }

    JsonValue &results = doc["results"];
    if (request.source != JobSource::Benchmark)
        writeStats(results["input"], computeStats(circuit),
                   circuit.size());
    JsonValue &quclear_group = results["quclear"];
    writeStats(quclear_group, computeStats(program.circuit()),
               program.circuit().size());
    quclear_group["clifford_tail"] =
        program.extraction.extractedClifford.size();
    quclear_group["seconds"] = seconds;

    if (request.noise.enabled) {
        const QuantumCircuit *input =
            request.source == JobSource::Benchmark ? nullptr : &circuit;
        writeNoiseGroup(results, request.noise, input, program);
    }
    return compactResultLine(doc);
}

} // namespace

uint32_t
clampJobThreads(uint32_t requested, uint32_t scheduler_workers)
{
    const uint32_t resolved = WorkerPool::resolveThreadCount(requested);
    if (scheduler_workers <= 1)
        return resolved;
    const unsigned hw = std::thread::hardware_concurrency();
    const auto capacity = static_cast<uint64_t>(hw != 0 ? hw : 1);
    if (static_cast<uint64_t>(resolved) * scheduler_workers <= capacity)
        return resolved; // fits: no clamp
    return static_cast<uint32_t>(
        std::max<uint64_t>(1, capacity / scheduler_workers));
}

std::string
runJobLine(const JobRequest &request, uint64_t seq,
           uint32_t scheduler_workers)
{
    try {
        return runJobLineOrThrow(request, seq, scheduler_workers);
    } catch (const JobError &e) {
        return errorResultLine(seq, request.id, e.code, e.what());
    } catch (const std::exception &e) {
        return errorResultLine(seq, request.id, ServiceError::Internal,
                               e.what());
    } catch (...) {
        return errorResultLine(seq, request.id, ServiceError::Internal,
                               "unknown failure");
    }
}

} // namespace quclear::service
