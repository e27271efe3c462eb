/**
 * @file
 * Long-lived serve loops for `quclear_cli --serve` (docs/SERVICE.md).
 *
 * One protocol over one fd transport: serveStream() reads JSONL jobs
 * from an input stream until EOF and writes one result line per job in
 * submission order; serveFds() runs that loop over raw file
 * descriptors (stdin/stdout for --serve), and serveTcp() accepts
 * loopback TCP connections and runs serveFds() over each socket.
 * Malformed input never terminates the server — every job line is
 * answered in-band, and only transport-level failures (a dead socket,
 * an unreadable stdin) end a loop.
 */
#ifndef QUCLEAR_SERVICE_SERVER_HPP
#define QUCLEAR_SERVICE_SERVER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>

#include "service/scheduler.hpp"

namespace quclear::service {

/**
 * Upper bound on one job line. Inline-QASM payloads for paper-scale
 * circuits are a few MB; 64 MiB leaves an order of magnitude of
 * headroom. A longer line is answered with `invalid-json` and is
 * never buffered whole: the serve loop keeps at most this many bytes
 * (plus one) of any line.
 */
inline constexpr size_t kMaxJobLineBytes = 64u << 20;

/** Server-level knobs (per-job knobs travel in the job lines). */
struct ServeOptions
{
    /**
     * Concurrent compilations (scheduler workers over the shared
     * WorkerPool): 0 = hardware concurrency, 1 = sequential. The
     * CLI's --threads flag in serve mode.
     */
    uint32_t workers = 0;

    /** In-flight job bound before `queue-full` rejections (--max-queue). */
    size_t maxQueue = 64;
};

/**
 * Serve one JSONL stream to completion: parse each job line, schedule
 * it, and emit exactly one result line per job (blank lines are
 * skipped and carry no sequence number). Returns after EOF once every
 * in-flight job has drained.
 * @return number of result lines emitted
 */
uint64_t serveStream(std::istream &in, std::ostream &out,
                     const ServeOptions &options);

#ifndef _WIN32
/**
 * serveStream() over raw file descriptors through one unsynchronised
 * buffer: 64 KiB read() calls on @p in_fd, buffered writes to
 * @p out_fd, flushed once per emitted batch and at the end. Writes use
 * send(MSG_NOSIGNAL) when @p out_fd is a socket (a hung-up client is a
 * stream error) and write() otherwise (a closed pipe raises SIGPIPE,
 * as stdio does). Neither fd is closed.
 * @return number of result lines emitted
 */
uint64_t serveFds(int in_fd, int out_fd, const ServeOptions &options);
#endif

/**
 * Serve the same protocol over TCP on 127.0.0.1:@p port (0 = pick an
 * ephemeral port). Loopback only by design — the protocol has no
 * authentication, so remote exposure belongs to a fronting proxy.
 * Connections are served one at a time in accept order, each with the
 * full scheduler.
 *
 * @param max_connections stop after this many connections (0 = serve
 *        until the process is killed; tests use 1)
 * @param on_listening invoked with the bound port once accepting —
 *        called from this thread before the first accept
 * @return kExitOk on a clean stop, kExitRuntime on socket failures
 *         (diagnostic on stderr)
 */
int serveTcp(uint16_t port, const ServeOptions &options,
             size_t max_connections = 0,
             const std::function<void(uint16_t)> &on_listening = {});

} // namespace quclear::service

#endif // QUCLEAR_SERVICE_SERVER_HPP
