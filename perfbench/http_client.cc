#include "http_client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>

namespace perfbench
{

namespace
{

/** Closes the socket on every return path. */
struct Fd
{
    int fd;
    ~Fd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // namespace

HttpResult
httpGet(int port, const std::string &target, int timeout_ms)
{
    HttpResult res;
    Fd s{::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)};
    if (s.fd < 0)
        return res;
    const int one = 1;
    ::setsockopt(s.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(s.fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        return res;
    const std::string req = "GET " + target +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    std::size_t sent = 0;
    while (sent < req.size()) {
        const ssize_t n = ::send(s.fd, req.data() + sent,
                                 req.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return res;
        sent += static_cast<std::size_t>(n);
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::string raw;
    char buf[16384];
    for (;;) {
        const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
        if (left <= 0)
            return res;
        pollfd pfd{s.fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left)) <= 0)
            return res;
        const ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
        if (n < 0)
            return res;
        if (n == 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    const auto head_end = raw.find("\r\n\r\n");
    if (raw.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos ||
        raw.size() < 12)
        return res;
    res.status = std::atoi(raw.c_str() + 9);
    res.body = raw.substr(head_end + 4);
    return res;
}

} // namespace perfbench
