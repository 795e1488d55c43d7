#include "net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace wg::serve {

namespace {

std::string
errnoString(const char* what)
{
    return std::string(what) + ": " + std::strerror(errno);
}

/**
 * Wait for @p events on @p fd within @p timeoutMs.
 * @return 1 ready, 0 timeout, -1 error.
 */
int
waitFd(int fd, short events, int timeoutMs)
{
    struct pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    for (;;) {
        int rc = ::poll(&p, 1, timeoutMs);
        if (rc < 0 && errno == EINTR)
            continue;
        return rc < 0 ? -1 : (rc == 0 ? 0 : 1);
    }
}

/** Milliseconds left until @p deadline (clamped at 0). */
int
remainingMs(std::chrono::steady_clock::time_point deadline)
{
    // Wire timeouts only — never feeds simulation state.
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline)
        return 0;
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - now)
                  .count();
    return ms > 1000 * 3600 ? 1000 * 3600 : static_cast<int>(ms);
}

sockaddr_in
loopbackAddr(std::uint16_t port)
{
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
}

/**
 * Send small writes at once. Replies and stream frames are short
 * lines; with Nagle's algorithm on, a job's last frames could wait for
 * the peer's delayed ACK (tens of milliseconds) before leaving.
 */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

void
Fd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

Fd
listenTcp(std::uint16_t port, std::uint16_t& boundPort,
          std::string& error)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoString("socket");
        return Fd();
    }
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = loopbackAddr(port);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        error = errnoString("bind");
        return Fd();
    }
    if (::listen(fd.get(), 64) != 0) {
        error = errnoString("listen");
        return Fd();
    }
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
        error = errnoString("getsockname");
        return Fd();
    }
    boundPort = ntohs(bound.sin_port);
    error.clear();
    return fd;
}

Fd
acceptConn(int listenFd, int timeoutMs, std::string& error)
{
    error.clear();
    int rc = waitFd(listenFd, POLLIN, timeoutMs);
    if (rc < 0) {
        error = errnoString("poll");
        return Fd();
    }
    if (rc == 0)
        return Fd(); // timeout: error stays empty
    Fd conn(::accept(listenFd, nullptr, nullptr));
    if (!conn.valid()) {
        // A peer that vanished between poll and accept is not an
        // error worth surfacing; the caller just polls again.
        if (errno != ECONNABORTED && errno != EAGAIN &&
            errno != EWOULDBLOCK)
            error = errnoString("accept");
        return Fd();
    }
    setNoDelay(conn.get());
    return conn;
}

Fd
connectTcp(std::uint16_t port, int timeoutMs, std::string& error)
{
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        error = errnoString("socket");
        return Fd();
    }
    sockaddr_in addr = loopbackAddr(port);
    // Loopback connects either succeed immediately or fail fast
    // (ECONNREFUSED); a blocking connect with a poll-checked retry
    // window keeps the client code simple.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
            setNoDelay(fd.get());
            error.clear();
            return fd;
        }
        if (errno != ECONNREFUSED || remainingMs(deadline) == 0) {
            error = errnoString("connect");
            return Fd();
        }
        // Daemon not listening yet (startup race): back off briefly.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        fd = Fd(::socket(AF_INET, SOCK_STREAM, 0));
        if (!fd.valid()) {
            error = errnoString("socket");
            return Fd();
        }
    }
}

bool
sendAll(int fd, const std::string& data, std::string& error)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("send");
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    error.clear();
    return true;
}

LineReader::Status
LineReader::readLine(std::string& out, int timeoutMs, std::string& error)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs < 0 ? 0
                                                            : timeoutMs);
    for (;;) {
        std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            out.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            if (!out.empty() && out.back() == '\r')
                out.pop_back();
            return Status::Line;
        }
        if (buf_.size() > max_line_) {
            error = "line exceeds " + std::to_string(max_line_) +
                    " bytes";
            return Status::Error;
        }
        if (eof_) {
            if (buf_.empty())
                return Status::Eof;
            // Final unterminated line: accept it (e.g. printf | nc).
            out = std::move(buf_);
            buf_.clear();
            return Status::Line;
        }
        int wait = timeoutMs < 0 ? -1 : remainingMs(deadline);
        int rc = waitFd(fd_, POLLIN, wait);
        if (rc < 0) {
            error = errnoString("poll");
            return Status::Error;
        }
        if (rc == 0)
            return Status::Timeout;
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = errnoString("recv");
            return Status::Error;
        }
        if (n == 0)
            eof_ = true;
        else
            buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace wg::serve
