/**
 * @file
 * The benchmark workloads. Each one generates its seeded inputs, times
 * calls into the library's public API for Args::seconds, checks the
 * outputs, and fills the Report: end-to-end metrics on an untraced run,
 * per-layer metrics (from spans recorded around each public call) on a
 * traced run.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

/**
 * compile-mid (@p large false: threads=1, blockParallelism=1) or
 * compile-large (@p large true: threads=0, blockParallelism=0, the
 * library defaults): QuClear::compile per instance.
 */
void runCompileWorkload(const Args &args, Report &report, bool large);

/** map-device: mapToDevice of compiled U' onto Sycamore and heavy-hex. */
void runMapWorkload(const Args &args, Report &report);

/** serve-mix: closed-loop client of `quclear_cli --serve`. */
void runServeWorkload(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
