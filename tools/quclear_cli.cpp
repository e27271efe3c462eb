/**
 * @file
 * Command-line front end: optimize an OpenQASM 2.0 circuit with
 * QuCLEAR, one-shot or as a long-lived compilation service.
 *
 * One-shot mode:
 *   quclear_cli [options] input.qasm
 *     -o FILE            write the optimized circuit as OpenQASM 2.0
 *     --observables STR  comma-separated Pauli labels to absorb
 *     --qaoa             probability mode: reduce the tail per Prop. 1
 *     --no-local-opt     skip the local-rewrite pipeline
 *     --verify           prove input == optimized + tail (<= 12 qubits)
 *     --noise P1,P2      report estimated fidelity with the given
 *                        1q/2q depolarizing rates
 *
 * Serve mode (docs/SERVICE.md):
 *   quclear_cli --serve [--max-queue N] [--threads N]
 *   quclear_cli --listen PORT [--max-queue N] [--threads N]
 *     JSONL jobs in (stdin or TCP), one quclear-service-result/v1
 *     JSON line out per job.
 *
 * Exit codes are shared by both modes (service::ExitCode): 0 success /
 * clean shutdown, 1 runtime failure, 2 usage error. Serve-mode job
 * failures are in-band error lines, never process exits.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit_stats.hpp"
#include "core/measurement_plan.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/expectation.hpp"
#include "circuit/qasm.hpp"
#include "circuit/qasm_import.hpp"
#include "core/quclear.hpp"
#include "service/server.hpp"
#include "sim/noise_model.hpp"
#include "util/timer.hpp"
#include "verify/equivalence.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

using namespace quclear;
using service::kExitOk;
using service::kExitRuntime;
using service::kExitUsage;

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

void
printUsage()
{
    std::fputs(
        "usage: quclear_cli [options] input.qasm\n"
        "       quclear_cli --serve [--max-queue N] [--threads N]\n"
        "       quclear_cli --listen PORT [--max-queue N] [--threads N]\n"
        "  -o FILE            write optimized OpenQASM 2.0\n"
        "  --observables STR  comma-separated Pauli labels to absorb\n"
        "  --qaoa             probability-mode absorption (Prop. 1)\n"
        "  --no-local-opt     skip the local-rewrite pipeline\n"
        "  --threads N        one-shot: chain runners compiling\n"
        "                     independent commuting-block chains at\n"
        "                     once; serve mode: concurrent jobs\n"
        "                     (0 = hardware concurrency, 1 = sequential;\n"
        "                     compiled output is identical for every\n"
        "                     value)\n"
        "  --block-parallelism N\n"
        "                     one-shot: independent commuting-block\n"
        "                     chains compiled concurrently (0 = auto,\n"
        "                     1 = sequential chains; output identical\n"
        "                     for every value; serve mode sets it per\n"
        "                     job via config.block_parallelism)\n"
        "  --verify           prove equivalence (dense sim, <= 12 qubits)\n"
        "  --noise P1,P2      fidelity estimate with depolarizing rates\n"
        "  --hamiltonian FILE absorb a Pauli-sum Hamiltonian (text\n"
        "                     format: 'coeff label' per line) and plan\n"
        "                     grouped measurements; verifies the energy\n"
        "                     on <= 12 qubits\n"
        "  --serve            JSONL job server on stdin/stdout\n"
        "                     (docs/SERVICE.md)\n"
        "  --listen PORT      same protocol on 127.0.0.1:PORT (0 = pick\n"
        "                     an ephemeral port)\n"
        "  --max-queue N      serve mode: in-flight job bound before\n"
        "                     retryable queue-full rejections "
        "(default 64)\n"
        "exit codes (both modes): 0 success, 1 runtime failure, "
        "2 usage error\n",
        stderr);
}

/**
 * Parse a digits-only integer flag value with an inclusive upper
 * bound; returns false (with a diagnostic) on anything else. stoul
 * alone silently wraps negatives, hence the digits check.
 */
bool
parseCountFlag(const char *flag, const std::string &value,
               unsigned long max_value, unsigned long &out)
{
    const bool digits_only =
        !value.empty() &&
        value.find_first_not_of("0123456789") == std::string::npos;
    unsigned long parsed = 0;
    if (digits_only) {
        try {
            parsed = std::stoul(value);
        } catch (const std::exception &) {
            parsed = max_value + 1; // out_of_range -> rejected below
        }
    }
    if (!digits_only || parsed > max_value) {
        std::fprintf(stderr, "invalid %s value: %s\n", flag,
                     value.c_str());
        return false;
    }
    out = parsed;
    return true;
}

/**
 * Parse the --noise value "P1,P2": exactly two finite rates in [0, 1].
 * Returns false (with a diagnostic) on anything else.
 */
bool
parseNoiseFlag(const std::string &value, NoiseModel &out)
{
    const auto parts = splitCommas(value);
    double rates[2] = { 0.0, 0.0 };
    bool ok = parts.size() == 2;
    for (size_t i = 0; ok && i < parts.size(); ++i) {
        char *end = nullptr;
        rates[i] = std::strtod(parts[i].c_str(), &end);
        ok = end != parts[i].c_str() && *end == '\0' &&
             std::isfinite(rates[i]) && rates[i] >= 0.0 && rates[i] <= 1.0;
    }
    if (!ok) {
        std::fprintf(stderr,
                     "invalid --noise value: %s (want P1,P2 in [0, 1])\n",
                     value.c_str());
        return false;
    }
    out.singleQubitError = rates[0];
    out.twoQubitError = rates[1];
    return true;
}

/** Everything the one-shot mode reads from the command line. */
struct OneShotArgs
{
    std::string inputPath, outputPath, observables, hamiltonianPath;
    bool qaoa = false, verify = false, localOpt = true;
    /** Set when --noise was given. */
    bool noise = false;
    NoiseModel noiseModel;
    uint32_t threads = 0;
    uint32_t blockParallelism = 0;
};

/** Compile one QASM file and report on it; returns the exit code. */
int
runOneShot(const OneShotArgs &args)
{
    std::ifstream in(args.inputPath);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", args.inputPath.c_str());
        return kExitRuntime;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    QuantumCircuit circuit;
    try {
        circuit = fromQasm(buffer.str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitRuntime;
    }

    QuClearOptions options;
    options.applyLocalOptimization = args.localOpt;
    options.extraction.threads = args.threads;
    options.extraction.blockParallelism = args.blockParallelism;
    const QuClear compiler(options);

    Timer timer;
    const CompiledProgram program = compiler.compileCircuit(circuit);
    const double seconds = timer.seconds();

    const CircuitStats before = computeStats(circuit);
    const CircuitStats after = computeStats(program.circuit());
    std::printf("input   : %u qubits, %zu gates, %zu CNOTs, "
                "entangling depth %zu\n",
                circuit.numQubits(), circuit.size(), before.cxCount,
                before.entanglingDepth);
    std::printf("output  : %zu gates, %zu CNOTs, entangling depth %zu "
                "(+ %zu-gate classical Clifford tail)\n",
                program.circuit().size(), after.cxCount,
                after.entanglingDepth,
                program.extraction.extractedClifford.size());
    std::printf("compile : %.4f s\n", seconds);

    if (args.noise) {
        const NoiseModel &noise = args.noiseModel;
        std::printf("fidelity: %.4f -> %.4f (depolarizing %g/%g)\n",
                    noise.estimatedSuccessProbability(circuit),
                    noise.estimatedSuccessProbability(program.circuit()),
                    noise.singleQubitError, noise.twoQubitError);
    }

    if (args.verify) {
        QuantumCircuit recombined = program.circuit();
        recombined.appendCircuit(program.extraction.extractedClifford);
        const auto verdict = checkEquivalence(circuit, recombined);
        std::printf("verify  : %s\n", verdictName(verdict).c_str());
        if (verdict == EquivalenceVerdict::NotEquivalent)
            return kExitRuntime;
    }

    if (!args.observables.empty()) {
        std::vector<PauliString> observables;
        try {
            for (const auto &label : splitCommas(args.observables))
                observables.push_back(PauliString::fromLabel(label));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return kExitRuntime;
        }
        const auto absorbed =
            compiler.absorbObservables(program, observables);
        std::printf("absorbed observables:\n");
        for (const auto &a : absorbed) {
            std::printf("  %s -> %s\n", a.original.toLabel().c_str(),
                        a.transformed.toLabel().c_str());
        }
    }

    if (args.qaoa) {
        try {
            const auto pa = compiler.absorbProbabilities(program);
            std::printf("QAOA reduction: H layer on device, %zu-CNOT "
                        "network + xmask 0x%llx post-processed "
                        "classically\n",
                        pa.reduction.networkCircuit.size(),
                        static_cast<unsigned long long>(
                            pa.reduction.xMask));
        } catch (...) {
            std::printf("QAOA reduction: tail lacks the Prop. 1 "
                        "structure\n");
        }
    }

    if (!args.hamiltonianPath.empty()) {
        std::ifstream hin(args.hamiltonianPath);
        if (!hin) {
            std::fprintf(stderr, "cannot open %s\n",
                         args.hamiltonianPath.c_str());
            return kExitRuntime;
        }
        std::stringstream hbuf;
        hbuf << hin.rdbuf();
        Hamiltonian hamiltonian;
        try {
            hamiltonian = Hamiltonian::fromText(hbuf.str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return kExitRuntime;
        }
        if (hamiltonian.numQubits() != circuit.numQubits()) {
            std::fprintf(stderr,
                         "Hamiltonian qubit count (%u) does not match "
                         "the circuit (%u)\n",
                         hamiltonian.numQubits(), circuit.numQubits());
            return kExitRuntime;
        }
        const auto plan = planMeasurements(program.extraction,
                                           hamiltonian.observables());
        std::printf("hamiltonian: %zu terms measured with %zu grouped "
                    "circuits\n",
                    hamiltonian.size(), plan.circuitCount());
        if (circuit.numQubits() <= 12) {
            // Exact cross-check: energy on the input circuit vs the
            // grouped measurement plan on the optimized circuit.
            Statevector original(circuit.numQubits());
            original.applyCircuit(circuit);
            double energy_in = 0.0;
            for (const auto &term : hamiltonian.terms())
                energy_in +=
                    term.coefficient * original.expectation(term.pauli);

            double energy_out = 0.0;
            for (const auto &group : plan.groups) {
                const auto probs = outputProbabilities(
                    groupCircuit(program.extraction, group));
                std::map<uint64_t, uint64_t> counts;
                for (uint64_t b = 0; b < probs.size(); ++b) {
                    const auto c = static_cast<uint64_t>(
                        std::llround(probs[b] * 100000000));
                    if (c)
                        counts[b] = c;
                }
                for (size_t slot = 0;
                     slot < group.observableIndices.size(); ++slot) {
                    const size_t idx = group.observableIndices[slot];
                    energy_out +=
                        hamiltonian.terms()[idx].coefficient *
                        expectationFromGroupCounts(group, slot, counts);
                }
            }
            std::printf("energy   : %.9f (input) vs %.9f (optimized, "
                        "grouped measurement)\n",
                        energy_in, energy_out);
        }
    }

    if (!args.outputPath.empty()) {
        std::ofstream out(args.outputPath);
        out << toQasm(program.circuit());
        std::printf("wrote   : %s\n", args.outputPath.c_str());
    }
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    OneShotArgs args;
    bool serve = false, listen = false;
    uint16_t listen_port = 0;
    bool block_parallelism_set = false;
    size_t max_queue = 64;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc) {
            args.outputPath = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            unsigned long parsed = 0;
            if (!parseCountFlag("--threads", argv[++i], 1024, parsed))
                return kExitUsage;
            args.threads = static_cast<uint32_t>(parsed);
        } else if (arg == "--block-parallelism" && i + 1 < argc) {
            unsigned long parsed = 0;
            if (!parseCountFlag("--block-parallelism", argv[++i], 1024,
                                parsed))
                return kExitUsage;
            args.blockParallelism = static_cast<uint32_t>(parsed);
            block_parallelism_set = true;
        } else if (arg == "--max-queue" && i + 1 < argc) {
            unsigned long parsed = 0;
            if (!parseCountFlag("--max-queue", argv[++i], 1'000'000,
                                parsed))
                return kExitUsage;
            if (parsed == 0) {
                std::fprintf(stderr, "invalid --max-queue value: 0\n");
                return kExitUsage;
            }
            max_queue = parsed;
        } else if (arg == "--listen" && i + 1 < argc) {
            unsigned long parsed = 0;
            if (!parseCountFlag("--listen", argv[++i], 65535, parsed))
                return kExitUsage;
            listen = true;
            listen_port = static_cast<uint16_t>(parsed);
        } else if (arg == "--serve") {
            serve = true;
        } else if (arg == "--observables" && i + 1 < argc) {
            args.observables = argv[++i];
        } else if (arg == "--noise" && i + 1 < argc) {
            if (!parseNoiseFlag(argv[++i], args.noiseModel))
                return kExitUsage;
            args.noise = true;
        } else if (arg == "--hamiltonian" && i + 1 < argc) {
            args.hamiltonianPath = argv[++i];
        } else if (arg == "--qaoa") {
            args.qaoa = true;
        } else if (arg == "--verify") {
            args.verify = true;
        } else if (arg == "--no-local-opt") {
            args.localOpt = false;
        } else if (arg == "-h" || arg == "--help") {
            printUsage();
            return kExitOk;
        } else if (!arg.empty() && arg[0] != '-' && args.inputPath.empty()) {
            args.inputPath = arg;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            printUsage();
            return kExitUsage;
        }
    }

    if (serve || listen) {
        // Serve mode owns stdin/stdout (or the socket); every one-shot
        // flag besides --threads/--max-queue is a usage error, not a
        // silent no-op.
        if (!args.inputPath.empty() || !args.outputPath.empty() ||
            !args.observables.empty() || args.noise ||
            !args.hamiltonianPath.empty() || args.qaoa || args.verify ||
            !args.localOpt || block_parallelism_set) {
            std::fprintf(stderr,
                         "--serve/--listen take jobs as JSONL; per-job "
                         "options belong in the job lines "
                         "(docs/SERVICE.md)\n");
            return kExitUsage;
        }
        service::ServeOptions serve_options;
        serve_options.workers = args.threads;
        serve_options.maxQueue = max_queue;
        if (listen)
            return service::serveTcp(listen_port, serve_options);
#ifdef _WIN32
        const uint64_t jobs =
            service::serveStream(std::cin, std::cout, serve_options);
#else
        const uint64_t jobs = service::serveFds(STDIN_FILENO, STDOUT_FILENO,
                                                serve_options);
#endif
        std::fprintf(stderr, "quclear_cli: served %llu job(s)\n",
                     static_cast<unsigned long long>(jobs));
        return kExitOk;
    }

    if (args.inputPath.empty()) {
        printUsage();
        return kExitUsage;
    }

    // Any failure past argument parsing (an allocation too large for
    // the machine, say) is a runtime failure with a message, never an
    // abort.
    try {
        return runOneShot(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "quclear_cli: %s\n", e.what());
    } catch (...) {
        std::fprintf(stderr, "quclear_cli: unknown failure\n");
    }
    return kExitRuntime;
}
