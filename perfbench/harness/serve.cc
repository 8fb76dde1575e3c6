// The serve probe: `serve --cascade-data` over loopback TCP — an epoll
// serve::ParseServer with 1 event loop and a ParseService with 2 workers,
// every request routed through cascade::CascadeParser. One single-threaded
// load generator (this thread) sends Zipf-skewed traffic over a record set
// several times the result-cache capacity: a warm-up, a closed-loop phase
// with a fixed window per connection, then an open-loop phase at a fixed
// rate, each request timed from when it was due.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "cascade/cascade.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/random.h"
#include "whois/json_export.h"
#include "workloads.h"

namespace perfbench {

namespace wh = whoiscrf::whois;
namespace serve = whoiscrf::serve;
namespace cascade = whoiscrf::cascade;

namespace {

constexpr size_t kWorkers = 2;
constexpr size_t kCacheEntries = 4096;  // `serve` default
constexpr size_t kQueueCapacity = 128;  // `serve` default
constexpr size_t kConnections = 8;
constexpr size_t kWindow = 8;  // closed loop: outstanding per connection
constexpr double kZipfExponent = 1.0;
constexpr double kOpenRate = 4000.0;  // open loop: requests per second
constexpr double kLatencyLimitMs = 20.0;
constexpr uint64_t kSpinNs = 2000000;  // open loop: spin this close to due
constexpr uint64_t kDrainNs = 5000000000;  // wait for stragglers
constexpr size_t kWindows = 5;  // capacity = median over this many slices

// Zipf(kZipfExponent) draws over `domains`, with popularity ranks shuffled
// so rank does not follow generation order.
std::vector<uint32_t> ZipfSequence(size_t domains, uint64_t seed, size_t n) {
  whoiscrf::util::Rng rng(seed * 0x2545F4914F6CDD1DULL + 11);
  std::vector<double> cdf(domains);
  double sum = 0.0;
  for (size_t k = 0; k < domains; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
    cdf[k] = sum;
  }
  std::vector<uint32_t> rank_to_domain(domains);
  std::iota(rank_to_domain.begin(), rank_to_domain.end(), 0u);
  for (size_t k = domains; k > 1; --k) {
    std::swap(rank_to_domain[k - 1], rank_to_domain[rng.NextU64() % k]);
  }
  std::vector<uint32_t> out(n);
  for (uint32_t& d : out) {
    const double u = rng.UniformDouble() * sum;
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    d = rank_to_domain[std::min(rank, domains - 1)];
  }
  return out;
}

std::string RequestFrame(const std::string& record) {
  std::string frame(4, '\0');
  const uint32_t n = static_cast<uint32_t>(record.size());
  for (size_t i = 0; i < 4; ++i) frame[i] = static_cast<char>(n >> (8 * i));
  frame += record;
  return frame;
}

struct PhaseStats {
  uint64_t sent = 0, ok = 0, failed = 0, late = 0;
  uint64_t busy = 0, deadline = 0, error = 0, mismatch = 0, lost = 0;
  std::vector<double> latency_ms;  // open loop: from due; closed: from send
  std::vector<double> gen_late_ms;
  std::vector<uint64_t> done_ns;
  uint64_t start_ns = 0, end_ns = 0;  // issuing interval
};

// Single-threaded load generator over non-blocking loopback connections.
// Responses arrive in request order per connection, so each connection
// keeps a FIFO of its outstanding requests.
class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, const std::vector<std::string>& frames,
                const std::vector<std::string>& expected,
                const std::vector<uint32_t>& sequence)
      : frames_(frames), expected_(expected), sequence_(sequence) {
    for (size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      sockaddr_in addr = {};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        ::close(fd);
        throw std::runtime_error("connect failed: " +
                                 std::string(std::strerror(errno)));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }
  ~LoadGenerator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  PhaseStats OpenLoop(double rate, double seconds) {
    PhaseStats st;
    const double interval_ns = 1e9 / rate;
    st.start_ns = NowNs();
    st.end_ns = st.start_ns + static_cast<uint64_t>(seconds * 1e9);
    uint64_t issued = 0;
    bool issuing = true;
    for (;;) {
      const uint64_t now = NowNs();
      while (issuing) {
        const uint64_t due =
            st.start_ns + static_cast<uint64_t>(static_cast<double>(issued) *
                                                interval_ns);
        if (due >= st.end_ns) {
          issuing = false;
          break;
        }
        if (due > now) break;
        Conn* c = NextConn(issued);
        if (c == nullptr) {
          issuing = false;
          break;
        }
        Enqueue(*c, due);
        ++st.sent;
        st.gen_late_ms.push_back(static_cast<double>(now - due) * 1e-6);
        ++issued;
      }
      if (!issuing && Outstanding() == 0) break;
      if (!issuing && now > st.end_ns + kDrainNs) {
        DropOutstanding(st);
        break;
      }
      // Spin (zero-timeout polls) while the next request is due within
      // kSpinNs: timed sleeps on a virtual machine wake milliseconds late,
      // which would skew the schedule the latencies are measured from.
      uint64_t wait_ns = 5000000;
      if (issuing) {
        const uint64_t next =
            st.start_ns + static_cast<uint64_t>(static_cast<double>(issued) *
                                                interval_ns);
        const uint64_t now2 = NowNs();
        wait_ns = next > now2 + kSpinNs ? next - now2 - kSpinNs : 0;
      }
      Poll(wait_ns, st);
    }
    for (double ms : st.latency_ms) {
      if (ms > kLatencyLimitMs) ++st.late;
    }
    return st;
  }

  PhaseStats ClosedLoop(size_t window, double seconds) {
    PhaseStats st;
    st.start_ns = NowNs();
    st.end_ns = st.start_ns + static_cast<uint64_t>(seconds * 1e9);
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      for (size_t w = 0; w < window; ++w) {
        Enqueue(conns_[i], NowNs());
        ++st.sent;
      }
    }
    refill_ = true;
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= st.end_ns) refill_ = false;
      if (!refill_ && Outstanding() == 0) break;
      if (now > st.end_ns + kDrainNs) {
        DropOutstanding(st);
        break;
      }
      Poll(1000000, st);
    }
    refill_ = false;
    return st;
  }

 private:
  struct Pending {
    uint32_t domain;
    uint64_t ref_ns;  // due time (open loop) or send time (closed loop)
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
  };

  Conn* NextConn(uint64_t n) {
    for (size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = conns_[(n + k) % conns_.size()];
      if (c.fd >= 0) return &c;
    }
    return nullptr;
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  void Enqueue(Conn& c, uint64_t ref_ns) {
    const uint32_t domain = sequence_[cursor_++ % sequence_.size()];
    c.out += frames_[domain];
    c.pending.push_back({domain, ref_ns});
    Flush(c);
  }

  void Flush(Conn& c) {
    while (c.fd >= 0 && c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Close(c);
        return;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void Close(Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    lost_ += c.pending.size();
    c.pending.clear();
  }

  void DropOutstanding(PhaseStats& st) {
    for (Conn& c : conns_) Close(c);
    st.failed += lost_;
    st.lost += lost_;
    lost_ = 0;
  }

  void Poll(uint64_t wait_ns, PhaseStats& st) {
    pollfd fds[kConnections];
    size_t n = 0;
    for (const Conn& c : conns_) {
      fds[n].fd = c.fd;  // negative fds are ignored by poll
      fds[n].events = static_cast<short>(
          (c.pending.empty() ? 0 : POLLIN) | (c.out.empty() ? 0 : POLLOUT));
      fds[n].revents = 0;
      ++n;
    }
    const timespec wait = {static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds, n, &wait, nullptr);
    if (ready <= 0) return;
    for (size_t i = 0; i < n; ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Receive(c, st);
    }
    if (lost_ > 0) {
      st.failed += lost_;
      st.lost += lost_;
      lost_ = 0;
    }
  }

  void Receive(Conn& c, PhaseStats& st) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Consume(c, st);
      Close(c);  // EOF or error: whatever is still pending is lost
      return;
    }
    Consume(c, st);
  }

  void Consume(Conn& c, PhaseStats& st) {
    size_t off = 0;
    while (c.in.size() - off >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(c.in.data() + off);
      const uint32_t len = static_cast<uint32_t>(p[0]) |
                           (static_cast<uint32_t>(p[1]) << 8) |
                           (static_cast<uint32_t>(p[2]) << 16) |
                           (static_cast<uint32_t>(p[3]) << 24);
      if (c.in.size() - off - 4 < len) break;
      const uint64_t now = NowNs();
      if (c.pending.empty() || len == 0) {
        ++st.failed;
        ++st.error;
        off += 4 + len;
        continue;
      }
      const Pending req = c.pending.front();
      c.pending.pop_front();
      st.latency_ms.push_back(static_cast<double>(now - req.ref_ns) * 1e-6);
      st.done_ns.push_back(now);
      const char status = c.in[off + 4];
      const std::string_view body(c.in.data() + off + 5, len - 1);
      if (status == static_cast<char>(serve::Status::kOk) &&
          body == expected_[req.domain]) {
        ++st.ok;
      } else {
        ++st.failed;
        switch (static_cast<serve::Status>(status)) {
          case serve::Status::kBusy: ++st.busy; break;
          case serve::Status::kDeadline: ++st.deadline; break;
          case serve::Status::kError: ++st.error; break;
          default: ++st.mismatch; break;
        }
      }
      off += 4 + len;
      if (refill_) {
        Enqueue(c, NowNs());
        ++st.sent;
      }
    }
    c.in.erase(0, off);
  }

  const std::vector<std::string>& frames_;
  const std::vector<std::string>& expected_;
  const std::vector<uint32_t>& sequence_;
  std::vector<Conn> conns_;
  size_t cursor_ = 0;
  uint64_t lost_ = 0;
  bool refill_ = false;  // closed loop: each response triggers a new request
};

// Completed responses per second in each of kWindows equal slices of
// the phase; their median is the capacity figure.
double MedianWindowRate(const PhaseStats& st) {
  std::vector<double> counts(kWindows, 0.0);
  const double span = static_cast<double>(st.end_ns - st.start_ns);
  for (uint64_t t : st.done_ns) {
    if (t < st.start_ns || t >= st.end_ns) continue;
    const size_t w = static_cast<size_t>(
        static_cast<double>(t - st.start_ns) / span * kWindows);
    counts[std::min(w, kWindows - 1)] += 1.0;
  }
  for (double& c : counts) c /= span * 1e-9 / kWindows;
  return Median(counts);
}

uint64_t ServeCounter(const char* name) { return CounterValue(name); }

}  // namespace

void RunServeProbe(const WhoisParser& parser,
                   const std::vector<LabeledRecord>& train,
                   const std::vector<std::string>& records,
                   const std::vector<KeyHashes>& truth, uint64_t seed,
                   double seconds, RunResult& result) {
  const cascade::CascadeParser cascade_parser(&parser, train);

  // Expected responses: offline ToJson of the cascade parse.
  std::vector<std::string> frames, expected;
  uint64_t agree = 0;
  {
    wh::ParseWorkspace ws;
    for (size_t d = 0; d < records.size(); ++d) {
      const ParsedWhois parsed = cascade_parser.ParseRecord(records[d], ws);
      agree += AgreeingKeyFields(parsed, truth[d]);
      expected.push_back(wh::ToJson(parsed));
      frames.push_back(RequestFrame(records[d]));
    }
  }
  const std::vector<uint32_t> sequence =
      ZipfSequence(records.size(), seed, size_t{1} << 20);

  serve::ParseServerOptions options;
  options.frontend = serve::Frontend::kEpoll;
  options.event_loops = 1;
  options.service.threads = kWorkers;
  options.service.cache_entries = kCacheEntries;
  options.service.queue_capacity = kQueueCapacity;
  options.service.parse_override = [&cascade_parser](const std::string& record,
                                                     wh::ParseWorkspace& ws) {
    ScopedSpan span(SpanName::kCascade, 0);
    cascade::CascadeResult r = cascade_parser.Parse(record, ws);
    span.set_tag(static_cast<uint8_t>(r.tier));
    return std::move(r.parsed);
  };
  serve::ParseServer server(parser, options);
  LoadGenerator load(server.port(), frames, expected, sequence);

  const auto account = [&](const PhaseStats& st, const char* what) {
    result.attempted += st.sent;
    result.failed += st.failed;
    if (st.failed > 0) {
      result.Fail(std::string(what) + ": " + std::to_string(st.failed) +
                  " of " + std::to_string(st.sent) + " requests failed (busy " +
                  std::to_string(st.busy) + ", deadline " +
                  std::to_string(st.deadline) + ", error " +
                  std::to_string(st.error) + ", wrong body " +
                  std::to_string(st.mismatch) + ", lost " +
                  std::to_string(st.lost) + ")");
    }
  };

  // Warm-up fills the result cache; spans start with the measured phases.
  account(load.ClosedLoop(kWindow, 0.2 * seconds), "serve warm-up");
  const uint64_t hits0 = ServeCounter("whoiscrf_serve_cache_hits_total");
  const uint64_t misses0 = ServeCounter("whoiscrf_serve_cache_misses_total");
  const uint64_t wakeups0 = ServeCounter("whoiscrf_serve_epoll_wakeups_total");
  const uint64_t stalls0 =
      ServeCounter("whoiscrf_serve_backpressure_stalls_total");
  Tracer::SetEnabled(true);
  const PhaseStats closed = load.ClosedLoop(kWindow, 0.4 * seconds);
  account(closed, "serve closed loop");
  const uint64_t open_misses0 =
      ServeCounter("whoiscrf_serve_cache_misses_total");
  const PhaseStats open = load.OpenLoop(kOpenRate, 0.4 * seconds);
  account(open, "serve open loop");
  const uint64_t open_parses =
      ServeCounter("whoiscrf_serve_cache_misses_total") - open_misses0;
  const uint64_t hits = ServeCounter("whoiscrf_serve_cache_hits_total") - hits0;
  const uint64_t misses =
      ServeCounter("whoiscrf_serve_cache_misses_total") - misses0;
  const uint64_t wakeups =
      ServeCounter("whoiscrf_serve_epoll_wakeups_total") - wakeups0;
  const uint64_t stalls =
      ServeCounter("whoiscrf_serve_backpressure_stalls_total") - stalls0;
  server.Shutdown();  // joins the workers before their spans are read
  Tracer::SetEnabled(false);

  const auto layers = Tracer::Summarize();
  double parse_us = 0.0;
  if (const auto it = layers.find(SpanName::kCascade); it != layers.end()) {
    const Tracer::Layer& layer = it->second;
    const double n = static_cast<double>(std::max<uint64_t>(1, layer.count));
    parse_us = layer.total_us / n;
    const char* tiers[3] = {"template", "rule", "crf"};
    for (uint8_t t = 0; t < 3; ++t) {
      const auto tag = layer.by_tag.find(t);
      const std::vector<double> none;
      const std::vector<double>& us =
          tag == layer.by_tag.end() ? none : tag->second;
      const double count = static_cast<double>(us.size());
      const double sum = std::accumulate(us.begin(), us.end(), 0.0);
      result.Set(std::string("cascade.") + tiers[t] + "_share", count / n,
                 "ratio");
      result.Set(std::string("cascade.parse_us_") + tiers[t],
                 count > 0 ? sum / count : 0.0, "us");
    }
  }
  const double requests =
      static_cast<double>(std::max<uint64_t>(1, hits + misses));
  double open_mean_ms = 0.0;
  for (double ms : open.latency_ms) open_mean_ms += ms;
  const double answered =
      static_cast<double>(std::max<size_t>(1, open.latency_ms.size()));
  open_mean_ms /= answered;
  result.Set("serve.capacity_rps", MedianWindowRate(closed), "1/s");
  result.Set("serve.latency_ms_p50", Percentile(open.latency_ms, 0.50), "ms");
  result.Set("serve.latency_ms_p99", Percentile(open.latency_ms, 0.99), "ms");
  result.Set("serve.parse_us", parse_us, "us");
  result.Set("serve.nonparse_us",
             open_mean_ms * 1e3 -
                 parse_us * static_cast<double>(open_parses) / answered,
             "us");
  result.Set("serve.cache_hit_ratio", static_cast<double>(hits) / requests,
             "ratio");
  result.Set("serve.epoll_wakeups_per_request",
             static_cast<double>(wakeups) / requests, "count");
  result.Set("serve.backpressure_stalls", static_cast<double>(stalls),
             "count");
  result.Set("serve.field_accuracy",
             static_cast<double>(agree) /
                 static_cast<double>(records.size() * kKeyFields),
             "ratio");
  result.Set("harness.gen_late_ms_p99", Percentile(open.gen_late_ms, 0.99),
             "ms");
  result.Set("harness.open_sent", static_cast<double>(open.sent), "count");
  result.Set("harness.open_ok", static_cast<double>(open.ok), "count");
  result.Set("harness.open_failed", static_cast<double>(open.failed), "count");
  result.Set("harness.open_late", static_cast<double>(open.late), "count");
  result.Set("harness.closed_sent", static_cast<double>(closed.sent), "count");
  result.Set("harness.closed_ok", static_cast<double>(closed.ok), "count");
  result.Set("harness.closed_failed", static_cast<double>(closed.failed),
             "count");
}

}  // namespace perfbench
