/**
 * @file
 * perfbench: runs one benchmark workload and prints a metadata
 * line followed by the result document (last line of stdout). Normally
 * started by perfbench/run.py, which builds it first.
 *
 *   perfbench --workload compile-mid --seed 7 --seconds 15
 *                    [--trace 0|1] [--cli path/to/quclear_cli]
 *                    [--out-dir DIR] [--smoke] [--corrupt]
 */
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/simd_dispatch.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload "
                 "compile-mid|compile-large|map-device|serve-mix --seed N "
                 "--seconds S [--trace 0|1] [--cli PATH] [--out-dir DIR] "
                 "[--smoke] [--corrupt]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = value() != "0";
        else if (flag == "--cli")
            args.cli = value();
        else if (flag == "--out-dir")
            args.outDir = value();
        else if (flag == "--smoke")
            args.smoke = true;
        else if (flag == "--corrupt")
            args.corrupt = true;
        else
            usage("unknown flag " + flag);
    }
    if (args.seconds <= 0.0)
        usage("--seconds must be positive");
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    args.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // A server that dies must surface as a failed write, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    Report report;
    quclear::JsonValue &meta = report.meta();
    meta["workload"] = args.workload;
    meta["seed"] = args.seed;
    meta["seconds"] = args.seconds;
    meta["trace"] = args.trace;
    meta["smoke"] = args.smoke;
    meta["nproc"] = args.nproc;
    meta["loadavg_start"] = loadAverage();

    try {
        if (args.workload == "compile-mid")
            runCompileWorkload(args, report, false);
        else if (args.workload == "compile-large")
            runCompileWorkload(args, report, true);
        else if (args.workload == "map-device")
            runMapWorkload(args, report);
        else if (args.workload == "serve-mix") {
            if (args.cli.empty())
                usage("serve-mix needs --cli");
            runServeWorkload(args, report);
        } else
            usage("unknown workload '" + args.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
    // Read after the run, so that resolving the level is part of the
    // workload's set-up.
    meta["simd_level"] =
        quclear::simd::levelName(quclear::simd::activeLevel());
    meta["simd_override"] = quclear::simd::configuredOverride();
    meta["cpu_features"] = quclear::simd::cpuFeatureString();
    meta["loadavg_end"] = loadAverage();
    report.print();
    return 0;
}
