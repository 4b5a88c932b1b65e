// perfbench_gen: the load generator of the serving benchmark.
//
// Starts varade-served as a separate process (the system under test), loads
// it from this one process over two Unix-domain connections, checks every
// returned score and ALARM frame bit for bit against a sequential
// OnlineMonitor reference, and prints one JSON record as its last line.
//
// One run, in order:
//   1. reference: train the daemon's detector in-process (same seeds) and
//      score the workload's base series sequentially;
//   2. setup: start the daemon that serves the load, timing exec to its
//      "serving" line, and time two more throwaway starts per cycle below, so
//      setup is sampled across the whole run;
//   3. a closed-loop warm-up, then cycles of `sat` (closed loop with a fixed
//      in-flight window per connection), `lo` and `hi` (open loop at fixed
//      mean rates, lo on a clock and hi with seeded Poisson gaps; latency
//      counts from each sample's intended send time). Each phase drains
//      before the next starts and is measured in windows, one per cycle;
//   4. with --trace 1: spans around every call into net::Client during the
//      `sat` windows, an untraced `sat` window in each cycle for the tracing
//      overhead, one /metrics scrape after the load, and
//      in-process timings of the nn, core, net.wire and serve.runtime entry
//      points once the daemon has exited.
//
// On a host with at least 4 CPUs each daemon thread (poll thread, two scorer
// shards) gets a CPU of its own and the generator the fourth, so neither
// preempts the other and thread placement is the same in every run.
//
// Usage (see run.py, which builds this and passes the workload's settings):
//   perfbench_gen --served PATH --detector NAME --streams N --unit K
//                 --inflight W --rate-lo R --rate-hi R --seconds S --seed N
//                 --trace 0|1 [--sock PATH]
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_math.hpp"
#include "varade/core/profiles.hpp"
#include "varade/core/varade.hpp"
#include "varade/eval/metrics.hpp"
#include "varade/net/client.hpp"
#include "varade/obs/telemetry.hpp"
#include "varade/serve/runtime.hpp"
#include "workload.hpp"

namespace {

using namespace varade;
using perfbench::Index;

struct Options {
  std::string served;
  std::string detector = "VARADE";
  Index streams = 16;
  Index unit = 1;  // samples per send: 1 = a SAMPLE frame, K > 1 = push_batch of K
  Index inflight = 4096;  // closed-loop window per connection, in samples
  double rate_lo = 0.0;   // open-loop offered load, samples/s
  double rate_hi = 0.0;
  double seconds = 0.0;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string sock = ".bench_build/run/perfbench.sock";
  bool pin = false;  // set when the host has at least 4 CPUs (see the header)
};

// The daemon's scorer shards: with its poll thread they fill three of the
// reference host's four CPUs, leaving the fourth to the generator.
constexpr Index kShards = 2;
// Samples in the base series every stream replays (workload.hpp).
constexpr Index kPeriod = 40000;
// A phase whose sends ran later than this behind schedule (p99) is invalid.
constexpr double kMaxLagMs = 50.0;

std::vector<pid_t> g_daemons;  // running daemons, killed on any error exit

void kill_daemons() {
  for (const pid_t pid : g_daemons) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  g_daemons.clear();
}

double parse_double(const char* flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') fail("perfbench: ", flag, " expects a number, got \"", v, "\"");
  return d;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string f = argv[a];
    if (a + 1 >= argc) fail("perfbench: flag ", f, " needs a value");
    const char* v = argv[++a];
    if (f == "--served") o.served = v;
    else if (f == "--detector") o.detector = v;
    else if (f == "--streams") o.streams = bench::parse_long_arg("--streams", v);
    else if (f == "--unit") o.unit = bench::parse_long_arg("--unit", v);
    else if (f == "--inflight") o.inflight = bench::parse_long_arg("--inflight", v);
    else if (f == "--rate-lo") o.rate_lo = parse_double("--rate-lo", v);
    else if (f == "--rate-hi") o.rate_hi = parse_double("--rate-hi", v);
    else if (f == "--seconds") o.seconds = parse_double("--seconds", v);
    else if (f == "--seed") o.seed = static_cast<std::uint64_t>(bench::parse_long_arg("--seed", v));
    else if (f == "--trace") o.trace = bench::parse_long_arg("--trace", v) != 0;
    else if (f == "--sock") o.sock = v;
    else fail("perfbench: unknown flag ", f);
  }
  check(!o.served.empty(), "perfbench: --served is required");
  check(o.streams >= 4 && o.streams % 4 == 0, "perfbench: --streams must be a multiple of 4");
  check(o.unit >= 1 && o.inflight >= o.unit, "perfbench: need 1 <= --unit <= --inflight");
  check(o.rate_lo > 0.0 && o.rate_hi > o.rate_lo, "perfbench: need 0 < --rate-lo < --rate-hi");
  check(o.seconds > 0.0, "perfbench: need --seconds > 0");
  o.pin = ::sysconf(_SC_NPROCESSORS_ONLN) >= 4;
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Spans. Names are the layer entry points the benchmark calls into; a span's
// self time excludes its children (bench_math's self_time). Only per-span
// aggregates are kept.

enum SpanId {
  kIter,         // one generator loop iteration (parent of the net.client spans)
  kSend,         // net::Client::send_sample / push_batch, per connection and iteration
  kFlush,        // net::Client::flush
  kPoll,         // one net::Client::poll_event call (work: 1 when it returned an event)
  kWait,         // the generator waiting in ppoll() for either connection
  kTrunk,        // VaradeModel::trunk().forward_inference
  kLogvarHead,   // logvar_head().forward_inference
  kMuHead,       // mu_head().forward_inference
  kScoreBatch,   // AnomalyDetector::score_batch
  kScoreStep,    // AnomalyDetector::score_step
  kDecodeFrame,  // FrameReader::next + decode_sample
  kDecodeBatch,  // FrameReader::next + decode_sample_batch
  kPush,         // AsyncScoringRuntime::push
  kSpanCount
};

class Tracer {
 public:
  struct Agg {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    double work = 0.0;  // samples, rows or events the spans covered
    std::vector<double> durations;  // ns, kept for kFlush only
  };

  Tracer() : agg_(kSpanCount) {}
  bool on() const { return on_; }
  void enable(bool on) { on_ = on; }

  void begin(SpanId id) {
    frames_.push_back({id, obs::now_ns(), {}});
  }

  void end(double work = 1.0) {
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    const perfbench::Interval span{f.start, obs::now_ns()};
    Agg& a = agg_[f.id];
    a.total_ns += span.end - span.start;
    a.self_ns += perfbench::self_time(span, f.children);
    a.work += work;
    if (f.id == kFlush) a.durations.push_back(static_cast<double>(span.end - span.start));
    if (!frames_.empty()) frames_.back().children.push_back(span);
  }

  const Agg& agg(SpanId id) const { return agg_[static_cast<std::size_t>(id)]; }

 private:
  struct Frame {
    SpanId id;
    std::int64_t start;
    std::vector<perfbench::Interval> children;
  };
  bool on_ = false;
  std::vector<Agg> agg_;
  std::vector<Frame> frames_;
};

/// Times calls of `fn` (each one span of `work` units) for at least
/// `min_seconds`, after a short warm-up; returns ns per work unit.
template <typename Fn>
double time_calls(Tracer& tracer, SpanId id, double work, double min_seconds, Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  const std::int64_t before = tracer.agg(id).total_ns;
  const double work_before = tracer.agg(id).work;
  const std::int64_t deadline = obs::now_ns() + static_cast<std::int64_t>(min_seconds * 1e9);
  do {
    tracer.begin(id);
    fn();
    tracer.end(work);
  } while (obs::now_ns() < deadline);
  return static_cast<double>(tracer.agg(id).total_ns - before) / (tracer.agg(id).work - work_before);
}

// ---------------------------------------------------------------------------
// The daemon process.

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;  // read end of its stdout
  int metrics_port = -1;
  double setup_s = 0.0;
};

/// Restricts the calling process to CPUs [first, last).
void pin_to_cpus(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c < last; ++c) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

/// Gives each of the daemon's threads a CPU of its own among 0-2, in
/// thread-id order (poll thread, then the scorer shards), so the placement
/// is the same in every run.
void pin_daemon_threads(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::vector<pid_t> tids;
  for (int attempt = 0; attempt < 100 && tids.size() < 3; ++attempt) {
    tids.clear();
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const dirent* e = ::readdir(d))
        if (e->d_name[0] != '.') tids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
      ::closedir(d);
    }
    if (tids.size() < 3) ::usleep(10000);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size(); ++i) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(i % 3), &set);
    ::sched_setaffinity(tids[i], sizeof(set), &set);
  }
}

Daemon start_daemon(const Options& o, const std::string& sock) {
  int fds[2];
  check(::pipe(fds) == 0, "perfbench: pipe() failed");
  const std::string listen = "unix:" + sock;
  const std::string streams = std::to_string(o.streams);
  const std::string shards = std::to_string(kShards);
  std::vector<const char*> argv = {o.served.c_str(), "--listen", listen.c_str(),
                                   "--metrics", "tcp:127.0.0.1:0", "--streams",
                                   streams.c_str(), "--shards", shards.c_str(),
                                   "--detector", o.detector.c_str(), "--quiet", nullptr};
  Daemon d;
  const std::int64_t t0 = obs::now_ns();
  d.pid = ::fork();
  check(d.pid >= 0, "perfbench: fork() failed");
  if (d.pid == 0) {
    if (o.pin) pin_to_cpus(0, 3);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(o.served.c_str(), const_cast<char* const*>(argv.data()));
    std::_Exit(127);
  }
  g_daemons.push_back(d.pid);
  ::close(fds[1]);
  d.out_fd = fds[0];
  std::string text;
  const std::int64_t deadline = t0 + 120'000'000'000LL;
  for (;;) {
    std::size_t nl;
    while ((nl = text.find('\n')) != std::string::npos) {
      const std::string line = text.substr(0, nl);
      text.erase(0, nl + 1);
      int port = -1;
      if (std::sscanf(line.c_str(), "metrics on tcp:127.0.0.1:%d", &port) == 1) d.metrics_port = port;
      if (line.rfind("serving ", 0) == 0) {
        d.setup_s = static_cast<double>(obs::now_ns() - t0) * 1e-9;
        check(d.metrics_port > 0, "perfbench: daemon announced no metrics port");
        return d;
      }
    }
    const std::int64_t left_ms = (deadline - obs::now_ns()) / 1'000'000;
    check(left_ms > 0, "perfbench: daemon did not start serving within 120 s");
    pollfd p{d.out_fd, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>(left_ms));
    char buf[512];
    const ssize_t n = ::read(d.out_fd, buf, sizeof(buf));
    check(n != 0, "perfbench: daemon exited before serving");
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
  }
}

/// Waits for the daemon to exit (SIGKILL after `grace_ms`); true on exit 0.
bool reap_daemon(Daemon& d, int grace_ms) {
  int status = 0;
  const std::int64_t deadline = obs::now_ns() + static_cast<std::int64_t>(grace_ms) * 1'000'000;
  while (::waitpid(d.pid, &status, WNOHANG) == 0) {
    if (obs::now_ns() > deadline) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, &status, 0);
      break;
    }
    ::usleep(2000);
  }
  ::close(d.out_fd);
  g_daemons.erase(std::find(g_daemons.begin(), g_daemons.end(), d.pid));
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string scrape_metrics(int port) {
  net::Socket sock = net::tcp_connect("127.0.0.1", port);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  net::send_all(sock.fd(), req.data(), req.size());
  std::string resp;
  char buf[65536];
  for (;;) {
    check(net::wait_readable(sock.fd(), 10000), "perfbench: /metrics scrape timed out");
    const long n = net::read_some(sock.fd(), buf, sizeof(buf));
    if (n == 0) break;
    if (n > 0) resp.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t body = resp.find("\r\n\r\n");
  check(resp.rfind("HTTP/1.0 200", 0) == 0 && body != std::string::npos,
        "perfbench: bad /metrics response");
  return resp.substr(body + 4);
}

/// The lowest free descriptor: the socket a Client constructed next will
/// get, since this process opens descriptors from one thread only.
int next_free_fd() {
  const int fd = ::open("/dev/null", O_RDONLY);
  check(fd >= 0, "perfbench: cannot open /dev/null");
  ::close(fd);
  return fd;
}

// ---------------------------------------------------------------------------
// The load.

/// One phase of the load, or the same phase accumulated over the run's
/// cycles: one window per cycle, so a stall of the shared host moves a few
/// windows and a phase reports a quantile over its windows (run()).
constexpr double kLatencyQ[3] = {0.5, 0.9, 0.99};
constexpr const char* kLatencyName[3] = {"lat_p50_ms", "lat_p90_ms", "lat_p99_ms"};

struct PhaseResult {
  double seconds = 0.0;
  long sent = 0;
  long scored = 0;                                 // scores received in the phase
  std::vector<double> window_rate;                 // closed loop: scores/s per window
  // Open loop: per window, the latency percentiles of kLatencyQ (ms, from
  // each sample's due time) and the sample count behind them.
  std::vector<std::array<double, 3>> window_latency;
  std::size_t latency_n = 0;
  std::vector<double> lag_ms;       // per send, how late it left
  std::vector<long> inflight;       // sampled every 10 ms (open loop)
  long long cpu_ticks = 0;          // daemon utime + stime over one window
  std::vector<double> window_cpu_us;  // open loop: daemon CPU per scored sample, us
  std::int64_t wait_ns = 0;         // traced closed loop: generator idle in ppoll()
  int growing_windows = 0;          // open loop: windows whose backlog kept growing

  /// Appends another window of the same phase.
  void add(PhaseResult&& w) {
    seconds += w.seconds;
    sent += w.sent;
    scored += w.scored;
    window_rate.insert(window_rate.end(), w.window_rate.begin(), w.window_rate.end());
    window_latency.insert(window_latency.end(), w.window_latency.begin(), w.window_latency.end());
    latency_n += w.latency_n;
    lag_ms.insert(lag_ms.end(), w.lag_ms.begin(), w.lag_ms.end());
    window_cpu_us.insert(window_cpu_us.end(), w.window_cpu_us.begin(), w.window_cpu_us.end());
    wait_ns += w.wait_ns;
    growing_windows += w.growing_windows;
  }
};

class Load {
 public:
  Load(const Options& o, const perfbench::Workload& w, const perfbench::Reference& ref,
       const std::string& sock, pid_t daemon, Tracer& tracer)
      : o_(o), w_(w), ref_(ref), daemon_(daemon), tracer_(tracer),
        streams_(static_cast<std::size_t>(o.streams)) {
    const net::Endpoint ep = net::parse_endpoint("unix:" + sock);
    for (int c = 0; c < 2; ++c) {
      fd_[c] = next_free_fd();
      client_[c] = std::make_unique<net::Client>(ep);
      struct stat st {};
      check(::fstat(fd_[c], &st) == 0 && S_ISSOCK(st.st_mode),
            "perfbench: could not locate the client socket");
    }
    for (Index s = 0; s < o.streams; ++s) owned_[owner(s)].push_back(s);
    scratch_.resize(static_cast<std::size_t>(o.unit * perfbench::Workload::kChannels));
  }

  const net::Welcome& welcome() const { return client_[0]->welcome(); }

  /// Connection owning a stream: pairs of streams alternate, so each
  /// connection feeds both daemon shards (shard = stream % 2).
  static int owner(Index s) { return static_cast<int>((s / 2) % 2); }

  PhaseResult closed_loop(double seconds, bool keep_scores) {
    keep_scores_ = keep_scores;
    PhaseResult r;
    begin_phase(r);
    const std::int64_t t0 = obs::now_ns();
    const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t wait0 = tracer_.agg(kWait).total_ns;
    std::size_t cursor[2] = {0, 0};
    for (;;) {
      const std::int64_t now = obs::now_ns();
      if (now >= t_end) break;
      if (tracer_.on()) tracer_.begin(kIter);
      for (int c = 0; c < 2; ++c) {
        if (inflight_[c] + o_.unit > o_.inflight) continue;
        if (tracer_.on()) tracer_.begin(kSend);
        long n = 0;
        while (inflight_[c] + o_.unit <= o_.inflight) {
          const Index s = owned_[c][cursor[c]];
          cursor[c] = (cursor[c] + 1) % owned_[c].size();
          send_unit(c, s, now);
          n += o_.unit;
        }
        if (tracer_.on()) tracer_.end(static_cast<double>(n));
        flush(c);
      }
      receive(1'000'000);
      if (tracer_.on()) tracer_.end();
    }
    r.seconds = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    r.scored = scored_;
    r.window_rate.push_back(static_cast<double>(r.scored) / r.seconds);
    r.wait_ns = tracer_.agg(kWait).total_ns - wait0;
    drain();
    end_phase(r);
    return r;
  }

  PhaseResult open_loop(double rate, perfbench::Arrivals arrivals, double seconds,
                        bool keep_scores) {
    keep_scores_ = keep_scores;
    PhaseResult r;
    begin_phase(r);
    const double unit_ns = static_cast<double>(o_.unit) * 1e9 / rate;
    const std::int64_t t0 = obs::now_ns() + 1'000'000;  // first send 1 ms out
    const auto n_units = static_cast<long>(seconds * rate / static_cast<double>(o_.unit));
    const std::vector<double> at = perfbench::send_schedule(
        static_cast<std::size_t>(n_units) + 1, unit_ns, arrivals, (o_.seed << 16) + ++windows_);
    const auto due_of = [&](long u) {
      return t0 + static_cast<std::int64_t>(at[static_cast<std::size_t>(u)]);
    };
    latency_.clear();
    record_latency_ = true;
    std::int64_t next_sample = t0;
    long u = 0;
    while (u < n_units) {
      std::int64_t now = obs::now_ns();
      if (now >= next_sample) {
        r.inflight.push_back(inflight_[0] + inflight_[1]);
        next_sample += 10'000'000;
      }
      if (tracer_.on()) tracer_.begin(kIter);
      // Every unit that has come due, in schedule order, each stamped with
      // the time it was due.
      bool sent[2] = {false, false};
      long n = 0;
      if (tracer_.on()) tracer_.begin(kSend);
      while (u < n_units) {
        const std::int64_t due = due_of(u);
        if (due > now) break;
        const Index s = static_cast<Index>(u % o_.streams);
        const int c = owner(s);
        send_unit(c, s, due);
        r.lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
        sent[c] = true;
        n += o_.unit;
        ++u;
        now = obs::now_ns();
      }
      if (tracer_.on()) tracer_.end(static_cast<double>(n));
      for (int c = 0; c < 2; ++c)
        if (sent[c]) flush(c);
      // Sleep until the next send is due or a score arrives, whichever is
      // first: a spinning generator would take a core from the daemon.
      const std::int64_t next_due = due_of(u);
      receive(std::clamp<std::int64_t>(next_due - obs::now_ns(), 0, 1'000'000));
      if (tracer_.on()) tracer_.end();
    }
    r.seconds = seconds;
    drain();
    r.scored = scored_;
    record_latency_ = false;
    std::sort(latency_.begin(), latency_.end());
    std::array<double, 3> pct{};
    for (std::size_t i = 0; i < pct.size(); ++i) {
      const auto p = perfbench::tail_percentile(latency_, kLatencyQ[i]);
      if (!p) fail("perfbench: too few samples in an open-loop window for p", kLatencyQ[i]);
      pct[i] = p->value;
    }
    r.window_latency.push_back(pct);
    r.latency_n = latency_.size();
    end_phase(r);
    r.window_cpu_us.push_back(static_cast<double>(r.cpu_ticks) * 1e6 /
                              static_cast<double>(::sysconf(_SC_CLK_TCK)) /
                              static_cast<double>(std::max(1L, r.scored)));
    return r;
  }

  /// Orderly end: SHUTDOWN, then every score and the GOODBYE on both
  /// connections.
  void shutdown() {
    client_[0]->request_shutdown();
    const std::int64_t deadline = obs::now_ns() + 60'000'000'000LL;
    net::ClientEvent ev;
    for (int c = 0; c < 2; ++c)
      while (!client_[c]->closed() && obs::now_ns() < deadline)
        if (client_[c]->poll_event(ev, 100)) handle(c, ev, obs::now_ns());
  }

  // --- results ---
  long attempted() const { return attempted_; }
  long correct() const { return correct_; }
  long mismatched() const { return mismatched_; }
  long unexpected() const { return unexpected_; }
  long nacked() const { return nacked_; }
  long alarm_frames() const {
    long n = 0;
    for (const StreamState& st : streams_) n += static_cast<long>(st.alarms.size());
    return n;
  }
  const std::vector<perfbench::ReceivedScore>& kept_scores() const { return kept_; }

  /// ALARM frames that differ from the reference's, over all streams.
  long alarm_mismatches(const core::MonitorConfig& config) const {
    long bad = 0;
    for (Index s = 0; s < o_.streams; ++s) {
      const StreamState& st = streams_[static_cast<std::size_t>(s)];
      bad += perfbench::alarm_mismatches(st.alarms, ref_.expected_alarms(s, st.received, config));
    }
    return bad;
  }

  /// Bytes one send unit puts on the wire, per sample.
  double wire_bytes_per_sample() const {
    std::vector<std::uint8_t> buf;
    const float* x = w_.sample(0, 0);
    std::vector<float> block(scratch_.size(), *x);
    if (o_.unit == 1)
      net::append_sample(buf, 0, 0, x, perfbench::Workload::kChannels);
    else
      net::append_sample_batch(buf, 0, 0, block.data(), o_.unit, perfbench::Workload::kChannels);
    return static_cast<double>(buf.size()) / static_cast<double>(o_.unit);
  }

 private:
  struct StreamState {
    Index sent = 0;      // next sequence number
    Index received = 0;  // scores received
    std::deque<std::int64_t> due;  // intended send time per in-flight sample
    std::vector<net::AlarmData> alarms;
  };

  void begin_phase(PhaseResult& r) {
    scored_ = 0;
    r.cpu_ticks = -cpu_ticks();
    r.sent = -attempted_;
  }
  void end_phase(PhaseResult& r) {
    r.cpu_ticks += cpu_ticks();
    r.sent += attempted_;
  }

  long long cpu_ticks() const {
    const auto t =
        perfbench::parse_stat_cpu_ticks(read_file("/proc/" + std::to_string(daemon_) + "/stat"));
    check(t.has_value(), "perfbench: cannot parse the daemon's /proc stat");
    return *t;
  }

  void send_unit(int c, Index s, std::int64_t due) {
    StreamState& st = streams_[static_cast<std::size_t>(s)];
    net::Client& client = *client_[c];
    if (o_.unit == 1) {
      client.send_sample(s, static_cast<std::uint64_t>(st.sent), w_.sample(s, st.sent));
    } else {
      const Index ch = perfbench::Workload::kChannels;
      for (Index i = 0; i < o_.unit; ++i)
        std::memcpy(scratch_.data() + i * ch, w_.sample(s, st.sent + i), sizeof(float) * ch);
      client.push_batch(s, static_cast<std::uint64_t>(st.sent), scratch_.data(), o_.unit);
    }
    for (Index i = 0; i < o_.unit; ++i) st.due.push_back(due);
    st.sent += o_.unit;
    inflight_[c] += o_.unit;
    attempted_ += o_.unit;
  }

  void flush(int c) {
    if (tracer_.on()) tracer_.begin(kFlush);
    client_[c]->flush();
    if (tracer_.on()) tracer_.end();
  }

  /// Handles what both connections have ready, waiting up to timeout_ns for
  /// the first byte when neither has any.
  void receive(std::int64_t timeout_ns) {
    pollfd p[2] = {{fd_[0], POLLIN, 0}, {fd_[1], POLLIN, 0}};
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    if (tracer_.on()) tracer_.begin(kWait);
    const int ready = ::ppoll(p, 2, &timeout, nullptr);
    if (tracer_.on()) tracer_.end();
    if (ready <= 0) return;
    net::ClientEvent ev;
    for (int c = 0; c < 2; ++c) {
      if ((p[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // The socket is readable, so the first call reads without waiting
      // (poll_event rounds its deadline down to whole milliseconds, so a
      // 1 ms timeout would return before reading); the rest return frames
      // already buffered.
      int wait = 2;
      for (;;) {
        if (tracer_.on()) tracer_.begin(kPoll);
        const bool got = client_[c]->poll_event(ev, wait);
        if (tracer_.on()) tracer_.end(got ? 1.0 : 0.0);
        if (!got) break;
        handle(c, ev, obs::now_ns());
        wait = 0;
      }
    }
  }

  void handle(int c, const net::ClientEvent& ev, std::int64_t now) {
    switch (ev.kind) {
      case net::ClientEvent::Kind::Score: {
        const net::ScoreData& sc = ev.score;
        if (sc.stream < 0 || sc.stream >= o_.streams || owner(sc.stream) != c) {
          ++unexpected_;
          return;
        }
        StreamState& st = streams_[static_cast<std::size_t>(sc.stream)];
        if (st.due.empty()) {
          ++unexpected_;
          return;
        }
        const Index t = st.received++;
        if (sc.sample == static_cast<std::uint64_t>(t) && ref_.matches(sc.stream, t, sc.score))
          ++correct_;
        else
          ++mismatched_;
        if (record_latency_) latency_.push_back(static_cast<double>(now - st.due.front()) * 1e-6);
        if (keep_scores_ && kept_.size() < kMaxKept) kept_.push_back({sc.stream, t, sc.score});
        st.due.pop_front();
        --inflight_[c];
        ++scored_;
        return;
      }
      case net::ClientEvent::Kind::Alarm:
        if (ev.alarm.stream < 0 || ev.alarm.stream >= o_.streams) {
          ++unexpected_;
          return;
        }
        streams_[static_cast<std::size_t>(ev.alarm.stream)].alarms.push_back(ev.alarm);
        return;
      case net::ClientEvent::Kind::Nack:
        ++nacked_;
        return;
      default:
        return;
    }
  }

  /// Waits until every sample sent so far has its score (60 s at most).
  void drain() {
    const std::int64_t deadline = obs::now_ns() + 60'000'000'000LL;
    while (inflight_[0] + inflight_[1] > 0) {
      if (obs::now_ns() >= deadline)
        fail("perfbench: scores still missing 60 s after the phase (in flight ", inflight_[0], "+",
             inflight_[1], ", sent ", attempted_, ", correct ", correct_, ", mismatched ",
             mismatched_, ", unexpected ", unexpected_, ", nacked ", nacked_, ")");
      receive(10'000'000);
    }
  }

 public:

 private:
  const Options& o_;
  const perfbench::Workload& w_;
  const perfbench::Reference& ref_;
  pid_t daemon_;
  Tracer& tracer_;
  std::unique_ptr<net::Client> client_[2];
  int fd_[2] = {-1, -1};
  std::vector<Index> owned_[2];
  std::vector<StreamState> streams_;
  std::vector<float> scratch_;
  long inflight_[2] = {0, 0};
  long attempted_ = 0;
  long correct_ = 0;
  long mismatched_ = 0;
  long unexpected_ = 0;
  long nacked_ = 0;
  long scored_ = 0;
  bool keep_scores_ = false;
  std::uint64_t windows_ = 0;  // open-loop windows so far, for their schedule seeds
  bool record_latency_ = false;  // open loop: latency of every score, from its due time
  std::vector<double> latency_;
  // Scores kept for the AUC: the first kMaxKept of the `hi` phase (24 MB).
  static constexpr std::size_t kMaxKept = 1 << 20;
  std::vector<perfbench::ReceivedScore> kept_;
};

// ---------------------------------------------------------------------------
// Output.

struct Record {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, double>> info;  // sample counts and context

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& name, double value) { info.push_back({name, value}); }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_record(const Record& rec, bool correct, long attempted, long failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    const auto& [name, vu] = rec.metrics[i];
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + json_number(vu.first) +
           ", \"unit\": \"" + vu.second + "\"}";
  }
  out += "}, \"info\": {";
  for (std::size_t i = 0; i < rec.info.size(); ++i)
    out += (i ? ", \"" : "\"") + rec.info[i].first + "\": " + json_number(rec.info[i].second);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Adds latency p50, p90 and p99 of one open-loop phase: each the 25th
/// percentile over the phase's windows of that window's percentile (the
/// host's stalls only ever add latency; bench_math's window_quantile), with
/// the phase's sample count (a window's percentile needs ten samples beyond
/// it).
void latency_metrics(Record& rec, const std::string& tag, const PhaseResult& r) {
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> per_window;
    for (const auto& pct : r.window_latency) per_window.push_back(pct[i]);
    const std::string name = std::string(kLatencyName[i]) + "." + tag;
    rec.metric(name, perfbench::window_quantile(per_window, 0.25), "ms");
    rec.note("n." + name, static_cast<double>(r.latency_n));
    rec.note("windows." + name, static_cast<double>(per_window.size()));
  }
}

/// Marks an open-loop window whose backlog kept growing.
void mark_backlog(const Options& o, PhaseResult& w, double rate) {
  const long slack = static_cast<long>(rate * 0.05) + 64 * o.unit;
  w.growing_windows = perfbench::backlog_growing(w.inflight, slack) ? 1 : 0;
}

/// Rejects a phase whose backlog kept growing in most of its windows, and a
/// phase whose generator fell behind: their latencies would not describe the
/// offered rate. One window can grow when the shared host stalls the daemon
/// for part of it; a rate above the daemon's capacity grows them all.
void check_backlog(const std::string& tag, const PhaseResult& r, double rate) {
  if (2 * static_cast<std::size_t>(r.growing_windows) > r.window_latency.size())
    fail("perfbench: phase ", tag, " invalid: backlog kept growing at ", rate,
         " samples/s in ", r.growing_windows, " of ", r.window_latency.size(), " windows");
}

void check_lag(const std::string& tag, const PhaseResult& r) {
  std::vector<double> lag = r.lag_ms;
  std::sort(lag.begin(), lag.end());
  const auto p = perfbench::tail_percentile(lag, 0.99);
  if (!p) fail("perfbench: too few sends in phase ", tag);
  if (p->value > kMaxLagMs)
    fail("perfbench: phase ", tag, " invalid: generator lag p99 ", p->value, " ms exceeds ",
         kMaxLagMs, " ms");
}

// ---------------------------------------------------------------------------
// In-process layer timings (traced run, daemon already gone).

void layer_timings(Record& rec, Tracer& tracer, const Options& o, core::AnomalyDetector& det,
                   const data::MultivariateSeries& train, const data::MinMaxNormalizer& norm,
                   float threshold, const perfbench::Workload& w, Index rows) {
  const Index ch = perfbench::Workload::kChannels;
  const Index window = det.context_window();
  Tensor contexts({rows, ch, window});
  Tensor observed({rows, ch});
  for (Index r = 0; r < rows; ++r) {
    const Index k0 = r * 97;  // spread rows over the base series
    for (Index t = 0; t <= window; ++t) {
      float x[perfbench::Workload::kChannels];
      norm.transform_sample(w.base_sample(k0 + t), x);
      for (Index c = 0; c < ch; ++c) {
        if (t < window) contexts[(r * ch + c) * window + t] = x[c];
        else observed[r * ch + c] = x[c];
      }
    }
  }
  std::vector<float> out(static_cast<std::size_t>(rows));
  const double batch_ns = time_calls(tracer, kScoreBatch, static_cast<double>(rows), 0.3,
                                     [&] { det.score_batch(contexts, observed, out.data()); });
  const Tensor ctx1 = contexts.slice0(0, 1).reshaped({ch, window});
  const Tensor obs1 = observed.slice0(0, 1).reshaped({ch});
  const double step_ns = time_calls(tracer, kScoreStep, 1.0, 0.3,
                                    [&] { (void)det.score_step(ctx1, obs1); });
  rec.metric("core.score_batch_ns_per_row", batch_ns, "ns");
  rec.metric("core.score_step_ns", step_ns, "ns");
  rec.metric("core.batch_speedup", step_ns / batch_ns, "x");

  // nn: VARADE's trunk and heads at the same rows. A workload serving
  // another detector times a VARADE model trained the daemon's way: the nn
  // layer is off its path, so a change there should not move its end-to-end
  // metrics.
  std::unique_ptr<core::AnomalyDetector> own;
  auto* varade = dynamic_cast<core::VaradeDetector*>(&det);
  if (varade == nullptr) {
    own = core::make_detector(bench::tiny_serve_profile(), "VARADE");
    own->fit(train);
    varade = static_cast<core::VaradeDetector*>(own.get());
  }
  check(varade->context_window() == window, "perfbench: VARADE window differs from the detector's");
  core::VaradeModel& m = *varade->model();
  const Tensor h = m.trunk().forward_inference(contexts);
  const double r = static_cast<double>(rows);
  const double trunk =
      time_calls(tracer, kTrunk, r, 0.3, [&] { (void)m.trunk().forward_inference(contexts); });
  const double logvar =
      time_calls(tracer, kLogvarHead, r, 0.2, [&] { (void)m.logvar_head().forward_inference(h); });
  const double mu =
      time_calls(tracer, kMuHead, r, 0.2, [&] { (void)m.mu_head().forward_inference(h); });
  rec.metric("nn.trunk_ns_per_row", trunk, "ns");
  rec.metric("nn.logvar_head_ns_per_row", logvar, "ns");
  rec.metric("nn.mu_head_ns_per_row", mu, "ns");

  // net.wire: the daemon's decode path for both frame kinds.
  const auto decode_ns = [&](SpanId id, Index per_frame) {
    std::vector<std::uint8_t> wire;
    std::vector<float> block(static_cast<std::size_t>(per_frame * ch));
    const Index frames = std::max<Index>(1, 4096 / per_frame);
    for (Index f = 0; f < frames; ++f) {
      for (Index i = 0; i < per_frame; ++i)
        std::memcpy(block.data() + i * ch, w.base_sample(f * per_frame + i), sizeof(float) * ch);
      if (per_frame == 1) net::append_sample(wire, f % o.streams, static_cast<std::uint64_t>(f), block.data(), ch);
      else net::append_sample_batch(wire, f % o.streams, 0, block.data(), per_frame, ch);
    }
    net::SampleData sample;
    net::SampleBatchData batch;
    return time_calls(tracer, id, static_cast<double>(frames * per_frame), 0.2, [&] {
      net::FrameReader reader;
      reader.feed(wire.data(), wire.size());
      net::Frame frame;
      while (reader.next(frame)) {
        if (per_frame == 1) net::decode_sample(frame, ch, sample);
        else net::decode_sample_batch(frame, ch, batch);
      }
    });
  };
  rec.metric("net.wire.decode_ns_per_sample.frame", decode_ns(kDecodeFrame, 1), "ns");
  rec.metric("net.wire.decode_ns_per_sample.batch", decode_ns(kDecodeBatch, 64), "ns");

  // serve.runtime push: bursts of pushes per stream, each round drained
  // before the next so a full ring never blocks the push being timed.
  serve::AsyncRuntimeConfig rc;
  rc.n_shards = kShards;
  serve::AsyncScoringRuntime runtime(det, norm, rc);
  runtime.add_streams(o.streams);
  runtime.set_threshold(threshold);
  runtime.start();
  const Index burst = std::max<Index>(o.unit, 8);
  long pushed = 0, scored = 0;
  Index seq = 0;
  const std::int64_t deadline = obs::now_ns() + 300'000'000;
  while (obs::now_ns() < deadline) {
    for (Index s = 0; s < o.streams; ++s) {
      tracer.begin(kPush);
      for (Index i = 0; i < burst; ++i) runtime.push(s, w.sample(s, seq + i), ch);
      tracer.end(static_cast<double>(burst));
    }
    seq += burst;
    pushed += static_cast<long>(burst * o.streams);
    while (scored < pushed) scored += static_cast<long>(runtime.drain_scores().size());
  }
  runtime.close();
  const Tracer::Agg& push = tracer.agg(kPush);
  rec.metric("serve.runtime.push_ns", static_cast<double>(push.total_ns) / push.work, "ns");
}

/// Per-layer metrics read from the daemon's /metrics after the load.
/// Returns the engine's mean rows per forward call.
double daemon_metrics(Record& rec, const perfbench::Exposition& m, Index max_batch) {
  using E = perfbench::Exposition;
  const double scored = std::max(1.0, m.value("varade_samples_scored_total"));
  const auto phase = [&](const char* name) {
    return m.histogram("varade_step_phase_seconds", std::string("phase=\"") + name + "\"");
  };
  const double ns = 1e9;
  const double step_sum = m.histogram("varade_engine_step_seconds").sum * ns;
  const double score_sum = phase("score").sum * ns;
  const double round_sum = m.histogram("varade_scorer_round_seconds").sum * ns;
  const double decode_sum = m.histogram("varade_net_frame_decode_seconds").sum * ns;
  rec.metric("serve.engine.self_ns_per_sample", (step_sum - score_sum) / scored, "ns");
  for (const char* p : {"stage", "normalize", "gather", "alarm"})
    rec.metric(std::string("serve.engine.") + p + "_ns_per_sample", phase(p).sum * ns / scored, "ns");
  // Ready rows per scoring round, split into forward calls of <= max_batch.
  const double rows_per_round = scored / std::max(1.0, phase("score").count);
  const double forwards = std::ceil(rows_per_round / static_cast<double>(max_batch));
  const double rows_per_forward = rows_per_round / std::max(1.0, forwards);
  rec.metric("serve.engine.rows_per_forward", rows_per_forward / static_cast<double>(max_batch), "ratio");

  const E::Histogram& round = m.histogram("varade_scorer_round_seconds");
  const E::Histogram& p2s = m.histogram("varade_push_to_score_seconds");
  const double round_mean = round.count > 0 ? round.sum / round.count * ns : 0.0;
  rec.metric("serve.runtime.ring_wait_ns.p50", std::max(0.0, E::quantile(p2s, 0.50) * ns - round_mean), "ns");
  rec.metric("serve.runtime.ring_wait_ns.p99", std::max(0.0, E::quantile(p2s, 0.99) * ns - round_mean), "ns");
  rec.metric("serve.runtime.round_ns.p50", E::quantile(round, 0.50) * ns, "ns");
  const double rounds = std::max(1.0, m.total("varade_scorer_rounds_total"));
  rec.metric("serve.runtime.samples_per_round", scored / rounds, "count");
  rec.metric("serve.runtime.naps_per_ksample", 1000.0 * m.total("varade_scorer_naps_total") / scored, "count");
  rec.metric("serve.runtime.wake_to_drain_ns.p99",
             E::quantile(m.histogram("varade_wake_to_drain_seconds"), 0.99) * ns, "ns");
  rec.metric("serve.runtime.rejected", m.value("varade_samples_rejected_total"), "count");
  rec.metric("serve.runtime.dropped", m.value("varade_samples_dropped_total"), "count");

  rec.metric("net.server.frame_decode_ns.p50",
             E::quantile(m.histogram("varade_net_frame_decode_seconds"), 0.50) * ns, "ns");
  rec.metric("net.server.out_buffer_bytes.p99",
             E::quantile(m.histogram("varade_net_out_buffer_bytes"), 0.99), "bytes");
  rec.metric("net.server.flush_stalls", m.value("varade_net_flush_stalls_total"), "count");
  rec.metric("net.server.frames_nacked", m.value("varade_net_frames_nacked_total"), "count");
  rec.metric("net.server.protocol_errors", m.value("varade_net_protocol_errors_total"), "count");
  rec.metric("net.server.scores_unrouted", m.value("varade_net_scores_unrouted_total"), "count");

  // Where the daemon's time per sample goes, as disjoint shares: the
  // detector (nn + core), the engine around it, the scorer loop around the
  // engine, and the poll thread's frame decode + dispatch.
  const double model = score_sum, engine = step_sum - score_sum;
  const double runtime = std::max(0.0, round_sum - step_sum), net = decode_sum;
  const double total = std::max(1.0, model + engine + runtime + net);
  rec.metric("share.nn_core", model / total, "ratio");
  rec.metric("share.serve_engine", engine / total, "ratio");
  rec.metric("share.serve_runtime", runtime / total, "ratio");
  rec.metric("share.net_server", net / total, "ratio");
  rec.note("daemon_ns_per_sample", total / scored);
  return rows_per_forward;
}

int run(const Options& o) {
  // Sleeps in the open loop end on time, not up to the default 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  // 1. Reference: the daemon's training, replayed in-process.
  const core::Profile profile = bench::tiny_serve_profile();
  const data::MultivariateSeries train_raw = bench::make_sine(1200, 1);
  data::MinMaxNormalizer normalizer;
  normalizer.fit(train_raw);
  const data::MultivariateSeries train = normalizer.transform(train_raw);
  const std::unique_ptr<core::AnomalyDetector> detector = core::make_detector(profile, o.detector);
  detector->fit(train);
  const core::MonitorConfig monitor_config;
  const float threshold = core::calibrate_threshold(*detector, train, monitor_config);
  const perfbench::Workload workload(o.seed, o.streams, kPeriod);
  const perfbench::Reference ref(*detector, normalizer, threshold, workload);

  // 2. Setup: the daemon that serves the load, then two throwaway starts per
  // cycle (the host's speed drifts over seconds; one burst of starts would
  // sample a single moment of it).
  Daemon daemon = start_daemon(o, o.sock);
  std::vector<double> setups = {daemon.setup_s};
  const auto time_setup = [&] {
    Daemon extra = start_daemon(o, o.sock + ".setup");
    setups.push_back(extra.setup_s);
    ::kill(extra.pid, SIGTERM);
    check(reap_daemon(extra, 10000), "perfbench: daemon failed to stop on SIGTERM");
  };

  if (o.pin) pin_to_cpus(3, 4);
  Tracer tracer;
  Load load(o, workload, ref, o.sock, daemon.pid, tracer);
  if (o.pin) pin_daemon_threads(daemon.pid);
  const float daemon_threshold = load.welcome().threshold;
  check(std::memcmp(&daemon_threshold, &threshold, sizeof(float)) == 0,
        "perfbench: the daemon's threshold differs from the reference's");

  Record rec;

  // 3. Phases. After a warm-up, the run cycles sat (0.75 s), lo (0.75 s)
  // and hi (1 s), so every phase samples the whole run and a slow stretch of
  // the shared host lands in one window of each. A traced run traces the sat
  // windows only (spans perturb the open-loop latency tail) and adds an
  // untraced sat window to each cycle for the tracing overhead.
  //
  // lo sends on a fixed clock, hi with Poisson gaps. The daemon writes a
  // score out when its poll thread next wakes, that is, when the next frame
  // comes in. On a clock, latency therefore falls in clusters one send gap
  // apart: at a gap well above the time to score a sample (lo) every score
  // leaves with the next frame and the p50 sits inside one cluster, but at a
  // gap near that time (hi) the p50 lies between two clusters and jumps
  // from one to the other as the host's speed drifts. Poisson gaps spread
  // the wait for the next frame, so hi's p50 moves smoothly instead.
  const double S = o.seconds;
  load.closed_loop(std::max(1.0, 0.1 * S), false);
  const int cycles = std::max(2, static_cast<int>(std::lround(0.9 * S / 2.5)));
  PhaseResult sat, sat_untraced, lo, hi;
  for (int k = 0; k < cycles; ++k) {
    time_setup();
    time_setup();
    if (o.trace) sat_untraced.add(load.closed_loop(0.75, false));
    tracer.enable(o.trace);
    sat.add(load.closed_loop(0.75, false));
    tracer.enable(false);
    PhaseResult w = load.open_loop(o.rate_lo, perfbench::Arrivals::kClock, 0.75, false);
    mark_backlog(o, w, o.rate_lo);
    lo.add(std::move(w));
    w = load.open_loop(o.rate_hi, perfbench::Arrivals::kPoisson, 1.0, true);
    mark_backlog(o, w, o.rate_hi);
    hi.add(std::move(w));
  }
  check_backlog("lo", lo, o.rate_lo);
  check_backlog("hi", hi, o.rate_hi);
  check_lag("lo", lo);
  check_lag("hi", hi);
  rec.note("backlog_windows.lo", lo.growing_windows);
  rec.note("backlog_windows.hi", hi.growing_windows);
  rec.metric("setup_s", perfbench::window_quantile(setups, 0.5), "s");
  rec.note("n.setup_s", static_cast<double>(setups.size()));

  const auto hwm_kb = perfbench::parse_vmhwm_kb(
      read_file("/proc/" + std::to_string(daemon.pid) + "/status"));
  check(hwm_kb.has_value(), "perfbench: cannot read the daemon's VmHWM");
  std::string exposition;
  if (o.trace) exposition = scrape_metrics(daemon.metrics_port);
  load.shutdown();
  check(reap_daemon(daemon, 30000), "perfbench: daemon did not exit cleanly after SHUTDOWN");

  // 4. End-to-end metrics and the correctness gate.
  // Rates and CPU time are medians over their windows: contention slows a
  // window in proportion, without the long tail it gives latency.
  const double sat_sps = perfbench::window_quantile(sat.window_rate, 0.5);
  rec.metric("sat_sps", sat_sps, "1/s");
  rec.note("windows.sat_sps", static_cast<double>(sat.window_rate.size()));
  latency_metrics(rec, "lo", lo);
  latency_metrics(rec, "hi", hi);
  rec.metric("cpu_us_per_sample.hi", perfbench::window_quantile(hi.window_cpu_us, 0.5), "us");
  rec.metric("rss_mb", static_cast<double>(*hwm_kb) / 1024.0, "MB");
  std::vector<float> scores;
  std::vector<int> labels;
  perfbench::align_scores(load.kept_scores(), ref.window(),
                          [&](Index s, Index t) { return workload.anomalous(s, t); }, scores,
                          labels);
  rec.metric("auc", eval::auc_roc(scores, labels), "1");

  const long attempted = load.attempted();
  const long alarm_bad = load.alarm_mismatches(monitor_config);
  const long failed = (attempted - load.correct()) + alarm_bad + load.unexpected();
  rec.note("n.sat", static_cast<double>(sat.scored));
  rec.note("n.lo", static_cast<double>(lo.scored));
  rec.note("n.hi", static_cast<double>(hi.scored));
  rec.note("n.auc", static_cast<double>(scores.size()));
  rec.note("check.mismatched_scores", static_cast<double>(load.mismatched()));
  rec.note("check.missing_scores",
           static_cast<double>(attempted - load.correct() - load.mismatched()));
  rec.note("check.nacks", static_cast<double>(load.nacked()));
  rec.note("check.alarm_frames", static_cast<double>(load.alarm_frames()));
  rec.note("check.alarm_mismatches", static_cast<double>(alarm_bad));
  rec.note("check.unexpected_frames", static_cast<double>(load.unexpected()));

  // 5. Per-layer metrics (traced run only), timed with every CPU available.
  if (o.trace) {
    if (o.pin) pin_to_cpus(0, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)));
    const perfbench::Exposition m(exposition);
    const Index max_batch = serve::ScoringEngineConfig{}.max_batch;
    const double rows = daemon_metrics(rec, m, max_batch);
    const Index b = std::clamp<Index>(static_cast<Index>(std::lround(rows)), 1, max_batch);
    rec.note("core_rows", static_cast<double>(b));
    layer_timings(rec, tracer, o, *detector, train, normalizer, threshold, workload, b);
    const Tracer::Agg& send = tracer.agg(kSend);
    const Tracer::Agg& flush = tracer.agg(kFlush);
    const Tracer::Agg& poll = tracer.agg(kPoll);
    const Tracer::Agg& iter = tracer.agg(kIter);
    rec.metric("net.wire.bytes_per_sample", load.wire_bytes_per_sample(), "bytes");
    rec.metric("net.client.send_ns_per_sample",
               static_cast<double>(send.total_ns) / std::max(1.0, send.work), "ns");
    std::vector<double> flushes = flush.durations;
    std::sort(flushes.begin(), flushes.end());
    // A short run may flush fewer than the 1000 times a p99 needs; it then
    // reports the nearest-rank p99 anyway, with its count.
    const auto flush_p99 = perfbench::tail_percentile(flushes, 0.99, 0);
    rec.metric("net.client.flush_ns.p99", flush_p99 ? flush_p99->value : 0.0, "ns");
    rec.note("n.net.client.flush_ns.p99", static_cast<double>(flushes.size()));
    rec.metric("net.client.poll_ns_per_event",
               static_cast<double>(poll.total_ns) / std::max(1.0, poll.work), "ns");
    std::vector<double> lag = lo.lag_ms;
    lag.insert(lag.end(), hi.lag_ms.begin(), hi.lag_ms.end());
    std::sort(lag.begin(), lag.end());
    rec.metric("bench.gen_lag_ms.p99", perfbench::tail_percentile(lag, 0.99)->value, "ms");
    rec.metric("bench.gen_self_ns_per_sample",
               static_cast<double>(iter.self_ns) / static_cast<double>(std::max(1L, sat.sent)),
               "ns");
    // Near 0, the generator never waited for the daemon: sat_sps then
    // measures the generator, not the daemon.
    rec.metric("bench.gen_idle_share.sat", static_cast<double>(sat.wait_ns) * 1e-9 / sat.seconds,
               "ratio");
    const double sat_plain = perfbench::window_quantile(sat_untraced.window_rate, 0.5);
    rec.metric("bench.trace_overhead", sat_sps / sat_plain, "ratio");
    rec.metric("bench.fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio");
    rec.note("sat_sps.untraced", sat_plain);
  }

  const bool correct = failed == 0;
  print_record(rec, correct, attempted, failed);
  if (!correct)
    std::fprintf(stderr, "perfbench_gen: %ld of %ld samples failed the bit-exact check\n", failed,
                 attempted);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    kill_daemons();
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 2;
  }
}
