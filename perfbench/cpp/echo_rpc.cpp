// echo_rpc — loopback request/reply through lwt::io sockets. A gol runtime
// serves one goroutine per connection on the reactor; the client is the
// main thread driving 4 connections in a closed loop (each connection has
// one request outstanding). Requests are seeded 64 B or 4 KiB payloads
// behind a header carrying the connection and request id, and every server
// read and write has its own Deadline. A region is 16 requests on each
// connection.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "gol/gol.hpp"
#include "io/io.hpp"
#include "obs/introspect.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kConns = 4;
constexpr std::size_t kReqsPerConn = 16;  // per region
constexpr std::size_t kHeader = 16;
constexpr std::size_t kSmall = 64;
constexpr std::size_t kLarge = 4096;
constexpr std::uint32_t kMagic = 0x4c575431;
constexpr int kWarmupRegions = 4;
constexpr int kRegionsPerRound = 1000;
constexpr int kMinRounds = 3;
constexpr auto kOpDeadline = std::chrono::seconds(5);
constexpr int kClientPollMs = 5000;

/// One request: header (magic, body length, connection, request id) plus a
/// seeded body. The reply must equal it byte for byte.
std::vector<std::uint8_t> make_request(std::uint64_t seed, std::uint32_t conn,
                                       std::uint32_t id) {
    const std::uint64_t key = mix64(seed ^ (static_cast<std::uint64_t>(conn) << 32 | id));
    const std::size_t body = key % 4 == 0 ? kLarge : kSmall;
    std::vector<std::uint8_t> req(kHeader + body);
    const std::array<std::uint32_t, 4> hdr{kMagic, static_cast<std::uint32_t>(body), conn, id};
    std::memcpy(req.data(), hdr.data(), kHeader);
    std::uint64_t x = key;
    for (std::size_t i = kHeader; i < req.size(); i += 8) {
        x = mix64(x);
        std::memcpy(req.data() + i, &x, std::min<std::size_t>(8, req.size() - i));
    }
    return req;
}

/// Server side of one connection: echo each request until the peer closes.
void serve(lwt::io::Socket sock, std::atomic<std::uint64_t>& errors) {
    using lwt::io::Deadline;
    std::vector<std::uint8_t> buf(kHeader + kLarge);
    Span conn_span("server.conn");
    for (;;) {
        Span read_span("server.read", conn_span.id());
        auto hdr = sock.read_exact(buf.data(), kHeader, Deadline::in(kOpDeadline));
        if (!hdr) {
            if (hdr.error().kind != lwt::io::ErrorKind::kClosed) {
                errors.fetch_add(1, std::memory_order_relaxed);
            }
            return;
        }
        std::uint32_t fields[2];
        std::memcpy(fields, buf.data(), sizeof fields);
        if (fields[0] != kMagic || fields[1] > kLarge) {
            errors.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (!sock.read_exact(buf.data() + kHeader, fields[1], Deadline::in(kOpDeadline))) {
            errors.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        read_span.end();
        Span write_span("server.write", conn_span.id());
        if (!sock.write_all(buf.data(), kHeader + fields[1], Deadline::in(kOpDeadline))) {
            errors.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool write_fully(int fd, const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w <= 0) {
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/// One GET /metrics against the introspection endpoint; returns its wall
/// time in ms, or a negative value when the scrape failed.
double scrape_metrics(const std::string& addr) {
    const auto colon = addr.rfind(':');
    if (colon == std::string::npos) {
        return -1;
    }
    const auto t0 = Clock::now();
    const int fd = connect_loopback(static_cast<std::uint16_t>(std::stoi(addr.substr(colon + 1))));
    if (fd < 0) {
        return -1;
    }
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    bool ok = write_fully(fd, reinterpret_cast<const std::uint8_t*>(req), sizeof req - 1);
    std::string resp;
    char buf[4096];
    pollfd pfd{fd, POLLIN, 0};
    while (ok && ::poll(&pfd, 1, kClientPollMs) == 1) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0) {
            break;
        }
        resp.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    const double ms = us_between(t0, Clock::now()) * 1e-3;
    return ok && resp.rfind("HTTP/1.0 200", 0) == 0 ? ms : -1;
}

struct ClientConn {
    int fd = -1;
    std::size_t sent = 0;  // requests sent this region
    const std::vector<std::uint8_t>* cur = nullptr;
    std::vector<std::uint8_t> rx;
    std::size_t have = 0;
    Clock::time_point t_send{};
};

}  // namespace

void run_echo_rpc(const Options& opt, Report& rep) {
    Regions regions;
    std::vector<double> setups;
    std::vector<double> rtt_us;
    std::vector<double> scrape_ms;
    int max_threads = 0;
    int scrape_failures = 0;
    std::uint32_t next_id = 0;  // request ids run on across the whole run
    const Counters before = read_counters();
    // The gol workers, the reactor's poller thread and the client (this
    // thread) share the CPU budget.
    const std::size_t workers = cpu_budget() > 2 ? cpu_budget() - 2 : 1;
    auto last_scrape = Clock::now();

    run_rounds(opt, kMinRounds, regions, [&](int round) {
        const auto t_boot = Clock::now();
        lwt::gol::Config gcfg;
        gcfg.num_threads = workers;
        lwt::gol::Library lib(gcfg);
        auto listener = lwt::io::Listener::listen(0);
        if (!listener) {
            rep.check("echo_rpc", "gol", "listen", listener.error().message());
            return;
        }
        lwt::io::Listener& lst = listener.value();
        std::atomic<std::uint64_t> server_errors{0};
        lwt::gol::WaitGroup served;
        served.add(1);
        lib.go([&] {
            for (std::size_t c = 0; c < kConns; ++c) {
                auto s = lst.accept(lwt::io::Deadline::in(kOpDeadline));
                if (!s) {
                    server_errors.fetch_add(1, std::memory_order_relaxed);
                    break;
                }
                const int one = 1;
                ::setsockopt(s.value().fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
                served.add(1);
                lib.go([sock = std::move(s.value()), &server_errors, &served]() mutable {
                    serve(std::move(sock), server_errors);
                    served.done();
                });
            }
            served.done();
        });
        std::array<ClientConn, kConns> conns;
        for (ClientConn& c : conns) {
            c.fd = connect_loopback(lst.port());
            c.rx.resize(kHeader + kLarge);
        }
        std::array<pollfd, kConns> pfds{};
        for (std::size_t c = 0; c < kConns; ++c) {
            pfds[c] = {conns[c].fd, POLLIN, 0};
        }

        // One region: kReqsPerConn requests on every connection, closed loop.
        auto region = [&](bool measured) {
            std::array<std::vector<std::vector<std::uint8_t>>, kConns> reqs;
            for (std::size_t c = 0; c < kConns; ++c) {
                for (std::size_t k = 0; k < kReqsPerConn; ++k) {
                    reqs[c].push_back(make_request(opt.seed, static_cast<std::uint32_t>(c), next_id++));
                }
            }
            where("gol", "region", round);
            Span span("region");
            std::size_t outstanding = 0;
            const auto t0 = Clock::now();
            auto send_next = [&](std::size_t c) {
                ClientConn& cc = conns[c];
                cc.cur = &reqs[c][cc.sent++];
                cc.have = 0;
                cc.t_send = Clock::now();
                if (write_fully(cc.fd, cc.cur->data(), cc.cur->size())) {
                    ++outstanding;
                    return true;
                }
                rep.check("echo_rpc", "gol", "send", "write to the server failed");
                return false;
            };
            bool ok = true;
            for (std::size_t c = 0; c < kConns && ok; ++c) {
                conns[c].sent = 0;
                ok = conns[c].fd >= 0 && send_next(c);
            }
            while (ok && outstanding > 0) {
                if (::poll(pfds.data(), kConns, kClientPollMs) <= 0) {
                    rep.check("echo_rpc", "gol", "reply", "no reply within the deadline");
                    ok = false;
                    break;
                }
                for (std::size_t c = 0; c < kConns && ok; ++c) {
                    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                        continue;
                    }
                    ClientConn& cc = conns[c];
                    const std::size_t want = cc.cur->size();
                    const ssize_t n = ::read(cc.fd, cc.rx.data() + cc.have, want - cc.have);
                    if (n <= 0) {
                        rep.check("echo_rpc", "gol", "reply", "connection closed by the server");
                        ok = false;
                        break;
                    }
                    cc.have += static_cast<std::size_t>(n);
                    if (cc.have < want) {
                        continue;
                    }
                    --outstanding;
                    const double us = us_between(cc.t_send, Clock::now());
                    rep.check("echo_rpc", "gol", "echo_bytes",
                              check_echo(cc.rx.data(), cc.have, cc.cur->data(), want));
                    if (measured) {
                        rtt_us.push_back(us);
                    }
                    if (cc.sent < kReqsPerConn) {
                        ok = send_next(c);
                    }
                }
            }
            const double us = us_between(t0, Clock::now());
            span.end();
            if (measured && ok) {
                regions.add("gol/echo", us, kConns * kReqsPerConn);
            }
            return ok;
        };

        bool ok = true;
        for (int w = 0; w < kWarmupRegions && ok; ++w) {
            ok = region(false);
        }
        setups.push_back(us_between(t_boot, Clock::now()) * 1e-6);
        max_threads = std::max(max_threads, os_threads_now());
        const std::string addr = opt.trace ? lwt::obs::introspect_bound_addr() : "";
        regions.begin_block();
        for (int k = 0; k < kRegionsPerRound && ok; ++k) {
            ok = region(true);
            if (!addr.empty() && us_between(last_scrape, Clock::now()) >= 1e6) {
                const double ms = scrape_metrics(addr);
                ms >= 0 ? scrape_ms.push_back(ms) : void(++scrape_failures);
                last_scrape = Clock::now();
            }
        }
        regions.end_block();
        for (ClientConn& c : conns) {
            if (c.fd >= 0) {
                ::close(c.fd);  // the server goroutine sees EOF and returns
            }
        }
        served.wait();
        rep.check("echo_rpc", "gol", "server_errors",
                  server_errors.load() == 0 ? "" : "the server saw a failed read or write");
    });

    const Counters after = read_counters();
    report_common(opt, rep, regions, setups, before, after,
                  opt.trace ? rss_after_settle_mib() : 0.0, max_threads);
    rep.ledger("req_per_s", ratio(static_cast<double>(regions.ops()), regions.total_us() * 1e-6),
               "1/s");
    rep.ledger("rtt_us_p50", percentile(rtt_us, 0.5), "us");
    rep.ledger("rtt_us_p99", percentile(rtt_us, 0.99), "us");
    rep.ledger("requests_measured", static_cast<double>(rtt_us.size()), "count");
    rep.ledger("regions_per_series_min", static_cast<double>(regions.min_samples()), "count");
    if (opt.trace) {
        const double reqs = static_cast<double>(regions.ops());
        rep.ledger("io.reactor.wakes_per_req",
                   ratio(static_cast<double>(after.reactor_wakes - before.reactor_wakes), reqs),
                   "count");
        rep.ledger("io.reactor.polls_per_req",
                   ratio(static_cast<double>(after.reactor_polls - before.reactor_polls), reqs),
                   "count");
        rep.ledger("io.timer.fires_per_kreq",
                   ratio(1000.0 * static_cast<double>(after.timer_fires - before.timer_fires),
                         reqs),
                   "count");
        const auto& log = SpanLog::instance();
        rep.ledger("io.read_wait_us_p50", percentile(log.durations_us("server.read"), 0.5), "us");
        rep.ledger("io.write_us_p50", percentile(log.durations_us("server.write"), 0.5), "us");
        rep.ledger("obs.scrape_ms", median(scrape_ms), "ms");
        rep.ledger("obs.scrapes", static_cast<double>(scrape_ms.size()), "count");
        rep.ledger("obs.scrape_failures", scrape_failures, "count");
    }
}

}  // namespace perfbench
