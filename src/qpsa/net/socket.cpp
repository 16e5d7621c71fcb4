#include "qpsa/net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace qpsa::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw net_error("net: " + what + ": " + std::strerror(errno));
}

/// Build the sockaddr for an endpoint; returns the usable length.
/// Only numeric IPv4 hosts are supported ("127.0.0.1" loopback in
/// practice) -- fleet nodes address each other by IP, and resolving
/// names would drag in a resolver dependency the daemons do not need.
socklen_t fill_sockaddr(const endpoint& ep, sockaddr_storage& ss) {
    std::memset(&ss, 0, sizeof ss);
    if (ep.transport == endpoint::kind::tcp) {
        auto* in = reinterpret_cast<sockaddr_in*>(&ss);
        in->sin_family = AF_INET;
        in->sin_port = htons(ep.port);
        if (::inet_pton(AF_INET, ep.host.c_str(), &in->sin_addr) != 1)
            throw net_error("net: bad IPv4 host '" + ep.host + "'");
        return sizeof(sockaddr_in);
    }
    auto* un = reinterpret_cast<sockaddr_un*>(&ss);
    un->sun_family = AF_UNIX;
    if (ep.path.size() + 1 > sizeof un->sun_path)
        throw net_error("net: unix path too long: " + ep.path);
    std::memcpy(un->sun_path, ep.path.c_str(), ep.path.size() + 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  ep.path.size() + 1);
}

int make_socket(const endpoint& ep) {
    const int domain =
        ep.transport == endpoint::kind::tcp ? AF_INET : AF_UNIX;
    const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw_errno("socket");
    if (ep.transport == endpoint::kind::tcp) {
        // Small frames, request/ack exchanges: Nagle would add 40 ms
        // stalls to every flush barrier.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return fd;
}

}  // namespace

endpoint endpoint::parse(const std::string& text) {
    endpoint ep;
    if (text.rfind("unix:", 0) == 0) {
        ep.transport = kind::unix_path;
        ep.path = text.substr(5);
        if (ep.path.empty())
            throw net_error("net: empty unix path in '" + text + "'");
        return ep;
    }
    if (text.rfind("tcp:", 0) == 0) {
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0)
            throw net_error("net: expected tcp:host:port in '" + text + "'");
        ep.transport = kind::tcp;
        ep.host = rest.substr(0, colon);
        const std::string port_s = rest.substr(colon + 1);
        if (port_s.empty() ||
            port_s.find_first_not_of("0123456789") != std::string::npos)
            throw net_error("net: bad port in '" + text + "'");
        const unsigned long port = std::stoul(port_s);
        if (port > 0xFFFF)
            throw net_error("net: port out of range in '" + text + "'");
        ep.port = static_cast<std::uint16_t>(port);
        return ep;
    }
    throw net_error("net: endpoint must start with tcp: or unix: ('" + text +
                    "')");
}

std::string endpoint::to_string() const {
    if (transport == kind::unix_path) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

// ------------------------------------------------------------ socket_conn

socket_conn::socket_conn(int fd, int io_timeout_ms)
    : fd_(fd), io_timeout_ms_(io_timeout_ms) {}

socket_conn::~socket_conn() { close(); }

socket_conn::socket_conn(socket_conn&& o) noexcept
    : fd_(o.fd_.exchange(-1)),
      io_timeout_ms_(o.io_timeout_ms_),
      bytes_sent_(o.bytes_sent_),
      bytes_received_(o.bytes_received_),
      frames_sent_(o.frames_sent_),
      frames_received_(o.frames_received_) {}

socket_conn& socket_conn::operator=(socket_conn&& o) noexcept {
    if (this != &o) {
        close();
        fd_.store(o.fd_.exchange(-1));
        io_timeout_ms_ = o.io_timeout_ms_;
        bytes_sent_ = o.bytes_sent_;
        bytes_received_ = o.bytes_received_;
        frames_sent_ = o.frames_sent_;
        frames_received_ = o.frames_received_;
    }
    return *this;
}

void socket_conn::close() noexcept {
    // exchange: exactly one thread performs the ::close even if the
    // owner and a stopper race here.
    const int fd = fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
}

void socket_conn::shutdown() noexcept {
    // Wakes a thread blocked in poll()/recv() on this socket (a plain
    // ::close from another thread would NOT -- poll keeps waiting on the
    // stale descriptor).  The fd stays open; the owner closes it.
    const int fd = fd_.load(std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void socket_conn::wait_readable() {
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, io_timeout_ms_);
    if (r < 0) throw_errno("poll");
    if (r == 0) throw net_error("net: receive timed out");
}

void socket_conn::wait_writable() {
    pollfd p{fd_, POLLOUT, 0};
    const int r = ::poll(&p, 1, io_timeout_ms_);
    if (r < 0) throw_errno("poll");
    if (r == 0) throw net_error("net: send timed out");
}

void socket_conn::send_all(const std::uint8_t* p, std::size_t n) {
    // Sockets stay in blocking mode; polling for readiness *before* each
    // syscall is what enforces the per-operation deadline.
    while (n > 0) {
        wait_writable();
        const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
                continue;
            throw_errno("send");
        }
        p += w;
        n -= static_cast<std::size_t>(w);
        bytes_sent_ += static_cast<std::uint64_t>(w);
    }
}

bool socket_conn::recv_all(std::uint8_t* p, std::size_t n, bool eof_ok) {
    std::size_t got = 0;
    while (got < n) {
        wait_readable();
        const ssize_t r = ::recv(fd_, p + got, n - got, 0);
        if (r < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
                continue;
            throw_errno("recv");
        }
        if (r == 0) {
            if (got == 0 && eof_ok) return false;
            throw net_error("net: peer closed mid-frame");
        }
        got += static_cast<std::size_t>(r);
        bytes_received_ += static_cast<std::uint64_t>(r);
    }
    return true;
}

void socket_conn::send_frame(msg_type type,
                             std::span<const std::uint8_t> body) {
    if (fd_ < 0) throw net_error("net: send on closed connection");
    const std::vector<std::uint8_t> bytes = encode_frame(type, body);
    send_all(bytes.data(), bytes.size());
    ++frames_sent_;
}

std::optional<frame> socket_conn::recv_frame() {
    if (fd_ < 0) throw net_error("net: receive on closed connection");
    std::uint8_t header[frame_header_bytes];
    if (!recv_all(header, sizeof header, /*eof_ok=*/true))
        return std::nullopt;
    const std::uint32_t len =
        decode_frame_header({header, sizeof header});
    std::vector<std::uint8_t> payload(len);
    recv_all(payload.data(), payload.size(), /*eof_ok=*/false);
    ++frames_received_;
    return decode_frame_payload(
        service::load_le<std::uint32_t>(header + 8), payload);
}

// --------------------------------------------------------------- listener

listener::listener(const endpoint& ep) : local_(ep) {
    fd_ = make_socket(ep);
    if (ep.transport == endpoint::kind::tcp) {
        int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    } else {
        // A stale socket file from a crashed daemon blocks bind; fresh
        // starts take the address over.
        ::unlink(ep.path.c_str());
    }
    sockaddr_storage ss;
    const socklen_t len = fill_sockaddr(ep, ss);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&ss), len) != 0)
        throw_errno("bind " + ep.to_string());
    if (::listen(fd_, 64) != 0) throw_errno("listen " + ep.to_string());

    if (ep.transport == endpoint::kind::tcp && ep.port == 0) {
        sockaddr_in bound{};
        socklen_t blen = sizeof bound;
        if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) !=
            0)
            throw_errno("getsockname");
        local_.port = ntohs(bound.sin_port);
    }
}

listener::~listener() { close(); }

listener::listener(listener&& o) noexcept
    : fd_(o.fd_), local_(std::move(o.local_)) {
    o.fd_ = -1;
}

std::optional<socket_conn> listener::accept(int timeout_ms,
                                            int conn_io_timeout_ms) {
    pollfd p{fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0) {
        if (errno == EINTR) return std::nullopt;
        throw_errno("poll");
    }
    if (r == 0) return std::nullopt;
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
        throw_errno("accept");
    }
    if (local_.transport == endpoint::kind::tcp) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    return socket_conn(fd, conn_io_timeout_ms);
}

void listener::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (local_.transport == endpoint::kind::unix_path)
            ::unlink(local_.path.c_str());
    }
}

// ------------------------------------------------------------------- dial

socket_conn try_dial(const endpoint& ep, int io_timeout_ms) {
    sockaddr_storage ss;
    const socklen_t len = fill_sockaddr(ep, ss);
    const int fd = make_socket(ep);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&ss), len) != 0) {
        ::close(fd);
        return socket_conn{};
    }
    return socket_conn(fd, io_timeout_ms);
}

socket_conn dial(const endpoint& ep, const dial_options& opt) {
    int backoff = opt.initial_backoff_ms;
    for (int attempt = 0; attempt < opt.max_attempts; ++attempt) {
        if (attempt > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff = std::min(backoff * 2, opt.max_backoff_ms);
        }
        socket_conn c = try_dial(ep, opt.io_timeout_ms);
        if (c.valid()) return c;
    }
    throw net_error("net: dial " + ep.to_string() + " failed after " +
                    std::to_string(opt.max_attempts) + " attempts");
}

}  // namespace qpsa::net
