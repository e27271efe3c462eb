#include "service/server.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "service/job_runner.hpp"
#include "util/worker_pool.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <streambuf>
#endif

namespace quclear::service {

namespace {

bool
isBlank(const std::string &line)
{
    for (const char c : line)
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/**
 * std::getline with a memory bound: reads one '\n'-terminated line of
 * @p in, keeping at most kMaxJobLineBytes + 1 bytes of it in @p line
 * and discarding the rest as it streams past, so a runaway line costs
 * O(kMaxJobLineBytes) memory however long it is. Drops a trailing '\r'
 * (CRLF clients). Sets @p too_long for a non-blank line longer than
 * kMaxJobLineBytes; a blank line of any length stays blank.
 * @return false at end of input with nothing read
 */
bool
readJobLine(std::istream &in, std::string &line, bool &too_long)
{
    static constexpr char kSpace[] = " \t\n\v\f\r";
    line.clear();
    bool read_any = false;
    bool dropped = false;      // bytes past the kept prefix
    bool dropped_text = false; // ... and some of them not whitespace
    char chunk[4096];
    for (;;) {
        // Stops after the delimiter (extracted, not stored; good()), at
        // end of input, or with the chunk full (failbit; line goes on).
        in.getline(chunk, sizeof chunk);
        const auto got = static_cast<size_t>(in.gcount());
        const size_t stored = in.good() ? got - 1 : got;
        read_any = read_any || got > 0;
        const size_t keep =
            std::min(stored, kMaxJobLineBytes + 1 - line.size());
        // Doubling the buffer up to the cap would briefly hold two
        // copies of a near-cap prefix; past 1 MiB, jump straight to
        // the cap so at most one large buffer is ever resident.
        if (line.size() + keep > line.capacity() &&
            line.size() >= (1u << 20))
            line.reserve(kMaxJobLineBytes + 1);
        line.append(chunk, keep);
        if (keep < stored) {
            dropped = true;
            // getline NUL-terminates the chunk, so strspn stops at the
            // end of the stored bytes or at the first non-space one.
            dropped_text = dropped_text ||
                           std::strspn(chunk + keep, kSpace) < stored - keep;
        }
        if (in.eof() || !in.fail() || got == 0)
            break;
        in.clear();
    }
    if (!dropped && !line.empty() && line.back() == '\r')
        line.pop_back();
    too_long = dropped_text ||
               (!isBlank(line) && (dropped || line.size() > kMaxJobLineBytes));
    return read_any;
}

} // namespace

uint64_t
serveStream(std::istream &in, std::ostream &out,
            const ServeOptions &options)
{
    // Resolve the scheduler concurrency once and hand it to every job:
    // the runner clamps per-job threads so requested threads x workers
    // never oversubscribes the machine (docs/SERVICE.md "Sizing").
    const uint32_t workers =
        WorkerPool::resolveThreadCount(options.workers);
    JobScheduler scheduler(options.workers, options.maxQueue,
                           [workers](const JobRequest &request,
                                     uint64_t seq) {
                               return runJobLine(request, seq, workers);
                           },
                           out);
    uint64_t seq = 0;
    std::string line;
    bool too_long = false;
    while (readJobLine(in, line, too_long)) {
        if (too_long) {
            scheduler.emit(
                seq, errorResultLine(
                         seq, "", ServiceError::InvalidJson,
                         "job line exceeds " +
                             std::to_string(kMaxJobLineBytes) + " bytes"));
            ++seq;
            continue;
        }
        if (isBlank(line))
            continue;
        ParsedJob parsed = parseJobLine(line, seq);
        if (parsed.error != ServiceError::None) {
            scheduler.emit(seq,
                           errorResultLine(seq, parsed.request.id,
                                           parsed.error, parsed.message));
            ++seq;
            continue;
        }
        const std::string id = parsed.request.id;
        if (!scheduler.trySchedule(std::move(parsed.request), seq)) {
            scheduler.emit(
                seq,
                errorResultLine(seq, id, ServiceError::QueueFull,
                                "in-flight job limit of " +
                                    std::to_string(options.maxQueue) +
                                    " reached; retry later"));
        }
        ++seq;
    }
    scheduler.drain();
    return seq;
}

#ifndef _WIN32

namespace {

/**
 * std::streambuf over a raw input fd and a raw output fd (the same
 * socket for a TCP connection, stdin/stdout for --serve). The get and
 * put areas are disjoint, so one thread may read while another writes.
 */
class FdStreamBuf : public std::streambuf
{
  public:
    FdStreamBuf(int in_fd, int out_fd)
        : inFd_(in_fd), outFd_(out_fd), outIsSocket_(isSocket(out_fd))
    {
        setg(inBuf_, inBuf_, inBuf_);
        setp(outBuf_, outBuf_ + sizeof outBuf_);
    }

  protected:
    int_type underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        ssize_t n;
        do {
            n = ::read(inFd_, inBuf_, sizeof inBuf_);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return traits_type::eof();
        setg(inBuf_, inBuf_, inBuf_ + n);
        return traits_type::to_int_type(*gptr());
    }

    int_type overflow(int_type ch) override
    {
        if (flushOut() != 0)
            return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    int sync() override { return flushOut(); }

  private:
    static bool isSocket(int fd)
    {
        struct stat st{};
        return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
    }

    int flushOut()
    {
        const char *data = pbase();
        size_t remaining = static_cast<size_t>(pptr() - pbase());
        while (remaining > 0) {
            // A client socket that hangs up must surface as a stream
            // error (MSG_NOSIGNAL), not a process-killing SIGPIPE; a
            // closed stdout pipe raises SIGPIPE as stdio would.
            const ssize_t n =
                outIsSocket_ ? ::send(outFd_, data, remaining, MSG_NOSIGNAL)
                             : ::write(outFd_, data, remaining);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return -1;
            }
            data += n;
            remaining -= static_cast<size_t>(n);
        }
        setp(outBuf_, outBuf_ + sizeof outBuf_);
        return 0;
    }

    const int inFd_;
    const int outFd_;
    const bool outIsSocket_;
    char inBuf_[1 << 16];
    char outBuf_[1 << 16];
};

} // namespace

uint64_t
serveFds(int in_fd, int out_fd, const ServeOptions &options)
{
    FdStreamBuf buf(in_fd, out_fd);
    // Distinct stream objects over the shared buffer: getline() hitting
    // EOF sets failbit on the input stream, and that must not poison
    // the output side, since results drain after EOF. The input stream
    // is untied, so the reader never flushes while a worker emits.
    std::istream in(&buf);
    std::ostream out(&buf);
    const uint64_t jobs = serveStream(in, out, options);
    out.flush();
    return jobs;
}

int
serveTcp(uint16_t port, const ServeOptions &options,
         size_t max_connections,
         const std::function<void(uint16_t)> &on_listening)
{
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
        std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
        return kExitRuntime;
    }
    const int enable = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof enable);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd, 16) != 0) {
        std::fprintf(stderr, "cannot listen on 127.0.0.1:%u: %s\n",
                     static_cast<unsigned>(port), std::strerror(errno));
        ::close(listen_fd);
        return kExitRuntime;
    }
    socklen_t addr_len = sizeof addr;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                      &addr_len) != 0) {
        std::fprintf(stderr, "getsockname: %s\n", std::strerror(errno));
        ::close(listen_fd);
        return kExitRuntime;
    }
    const uint16_t bound_port = ntohs(addr.sin_port);
    std::fprintf(stderr, "quclear_cli: serving on 127.0.0.1:%u\n",
                 static_cast<unsigned>(bound_port));
    if (on_listening)
        on_listening(bound_port);

    size_t served = 0;
    while (max_connections == 0 || served < max_connections) {
        int conn_fd;
        do {
            conn_fd = ::accept(listen_fd, nullptr, nullptr);
        } while (conn_fd < 0 && errno == EINTR);
        if (conn_fd < 0) {
            std::fprintf(stderr, "accept: %s\n", std::strerror(errno));
            ::close(listen_fd);
            return kExitRuntime;
        }
        const uint64_t jobs = serveFds(conn_fd, conn_fd, options);
        ::close(conn_fd);
        ++served;
        std::fprintf(stderr,
                     "quclear_cli: connection closed after %llu job(s)\n",
                     static_cast<unsigned long long>(jobs));
    }
    ::close(listen_fd);
    return kExitOk;
}

#else // _WIN32

int
serveTcp(uint16_t, const ServeOptions &, size_t,
         const std::function<void(uint16_t)> &)
{
    std::fprintf(stderr, "--listen is not supported on this platform\n");
    return kExitRuntime;
}

#endif

} // namespace quclear::service
