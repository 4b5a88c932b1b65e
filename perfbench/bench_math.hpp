// The serving benchmark's own arithmetic: percentiles with a tail-size rule,
// the summary of a run's windows, open-loop send schedules, the
// growing-backlog detector, span self-time, score/label alignment for the
// AUC, and parsing of the daemon's /proc files and /metrics exposition.
// Header-only and free of the measured program, so test_bench_math.cpp pins
// every rule on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile read from a sample, with the sample count it came from and
/// the number of samples strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Nearest-rank q-quantile (0 < q <= 1) of an ascending sample. Reported only
/// when at least `min_beyond` samples lie beyond its rank: a p99 needs 1000
/// samples, because with fewer it is set by fewer than ten observations.
inline std::optional<Percentile> tail_percentile(const std::vector<double>& sorted, double q,
                                                 std::size_t min_beyond = 10) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  // The epsilon keeps q * n = 990.0000000000001 from becoming rank 991.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  return Percentile{sorted[rank - 1], n, beyond};
}

/// Nearest-rank q-quantile (0 < q <= 1) of an unsorted sample, 0 for an
/// empty one. The benchmark summarises a run's windows with it: the host's
/// stalls only ever add latency, so a window's latency percentile has a long
/// tail across windows when the host is contended, and the 25th percentile of
/// the windows stays with the quiet ones where a mean or median follows the
/// share of stalled windows.
inline double window_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return tail_percentile(v, q, 0)->value;
}

/// True when an open-loop phase left a growing backlog: the median of the
/// in-flight counts sampled over the last third of the phase exceeds the
/// median over the first third by more than `slack` samples. A queue that
/// only fluctuates passes; one fed faster than it drains does not. Needs at
/// least six observations; fewer cannot show a trend and report false.
inline bool backlog_growing(const std::vector<long>& inflight, long slack) {
  const std::size_t n = inflight.size();
  if (n < 6) return false;
  const auto median_of = [](std::vector<long> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  const std::size_t third = n / 3;
  const std::vector<long> first(inflight.begin(), inflight.begin() + static_cast<long>(third));
  const std::vector<long> last(inflight.end() - static_cast<long>(third), inflight.end());
  return median_of(last) > median_of(first) + slack;
}

/// How an open-loop phase spaces its sends.
enum class Arrivals {
  kClock,    // evenly, one every mean gap
  kPoisson,  // exponential gaps with that mean, drawn from a seed
};

/// Send times of an open-loop phase, in ns from its first send: `n` sends
/// `gap_ns` apart on average. Poisson gaps come from splitmix64 over `seed`,
/// so the same seed gives the same schedule on every host.
inline std::vector<double> send_schedule(std::size_t n, double gap_ns, Arrivals arrivals,
                                         std::uint64_t seed) {
  std::vector<double> at(n);
  std::uint64_t state = seed;
  double t = 0.0;
  for (double& a : at) {
    a = t;
    if (arrivals == Arrivals::kClock) {
      t += gap_ns;
      continue;
    }
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const double u = (static_cast<double>(z >> 11) + 0.5) * 0x1.0p-53;  // in (0, 1)
    t -= std::log(u) * gap_ns;
  }
  return at;
}

/// Half-open time interval [start, end) in nanoseconds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// A span's self time: its duration minus the part of it that its child
/// spans cover. Children are clipped to the parent and overlapping children
/// are counted once.
inline std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  std::int64_t covered = 0;
  std::int64_t reach = parent.start;  // end of the covered prefix so far
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  for (const Interval& c : children) {
    const std::int64_t lo = std::max({c.start, parent.start, reach});
    const std::int64_t hi = std::min(c.end, parent.end);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, hi);
  }
  return (parent.end - parent.start) - covered;
}

/// One score as the client received it.
struct ReceivedScore {
  std::int64_t stream = 0;
  std::int64_t sample = 0;  // 0-based position within the stream
  float score = 0.0F;
};

/// Pairs each received score with the label of the very sample it scored.
/// Warm-up scores (sample < window) have no context behind them and are
/// left out, as are negative scores.
template <typename LabelFn>
void align_scores(const std::vector<ReceivedScore>& got, std::int64_t window,
                  const LabelFn& label_of, std::vector<float>& scores, std::vector<int>& labels) {
  scores.clear();
  labels.clear();
  for (const ReceivedScore& r : got) {
    if (r.sample < window || r.score < 0.0F) continue;
    scores.push_back(r.score);
    labels.push_back(label_of(r.stream, r.sample) ? 1 : 0);
  }
}

/// utime + stime in clock ticks from the text of /proc/PID/stat. The command
/// name (field 2) is parenthesised and may itself hold spaces or ')', so the
/// fields are counted from the last ')'.
inline std::optional<long long> parse_stat_cpu_ticks(const std::string& stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream in(stat.substr(close + 1));
  std::string field;
  long long utime = 0;
  long long stime = 0;
  // After ')' come field 3 (state) onward; utime is field 14, stime 15.
  for (int f = 3; f <= 15; ++f) {
    if (!(in >> field)) return std::nullopt;
    if (f == 14 || f == 15) {
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0' || v < 0) return std::nullopt;
      (f == 14 ? utime : stime) = v;
    }
  }
  return utime + stime;
}

/// The VmHWM line of /proc/PID/status (peak resident set), in kB.
inline std::optional<long> parse_vmhwm_kb(const std::string& status) {
  std::istringstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    long kb = 0;
    std::string unit;
    if (!(fields >> kb >> unit) || unit != "kB" || kb < 0) return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

/// Prometheus text exposition, parsed into plain samples ("name{labels}" ->
/// value) and histograms (family + labels without `le` -> cumulative buckets).
class Exposition {
 public:
  struct Histogram {
    std::vector<std::pair<double, double>> buckets;  // (upper edge, cumulative count)
    double sum = 0.0;
    double count = 0.0;
  };

  explicit Exposition(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      const std::string key = line.substr(0, space);
      const double value = std::strtod(line.c_str() + space + 1, nullptr);
      samples_[key] = value;
      add_to_histogram(key, value);
    }
  }

  /// A plain sample by its full key (name plus {labels}, if any); 0 when absent.
  double value(const std::string& key) const {
    const auto it = samples_.find(key);
    return it == samples_.end() ? 0.0 : it->second;
  }

  /// Sum of every sample of a family, over all its label sets.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const auto& [key, v] : samples_) {
      if (key.rfind(name, 0) != 0) continue;
      const std::string rest = key.substr(name.size());
      if (!rest.empty() && rest[0] != '{') continue;
      sum += v;
    }
    return sum;
  }

  /// The histogram of family `name` with exactly `labels` (without `le`).
  const Histogram& histogram(const std::string& name, const std::string& labels = "") const {
    static const Histogram empty;
    const auto it = histograms_.find(name + "{" + labels + "}");
    return it == histograms_.end() ? empty : it->second;
  }

  /// The q-quantile, interpolated linearly inside the bucket that holds it
  /// (Prometheus' histogram_quantile rule; the exposition lists only
  /// non-empty buckets, so a bucket spans back to the previous listed edge).
  /// 0 when empty; the last finite edge when the quantile is in +Inf.
  static double quantile(const Histogram& h, double q) {
    if (h.count <= 0.0) return 0.0;
    const double target = q * h.count;
    double lower = 0.0;
    double below = 0.0;  // cumulative count under `lower`
    for (const auto& [edge, cum] : h.buckets) {
      if (!std::isfinite(edge)) break;
      if (cum >= target) return lower + (edge - lower) * (target - below) / (cum - below);
      lower = edge;
      below = cum;
    }
    return lower;
  }

 private:
  void add_to_histogram(const std::string& key, double value) {
    const std::size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    std::string labels = brace == std::string::npos ? "" : key.substr(brace + 1, key.size() - brace - 2);
    const auto ends_with = [&](const char* suffix) {
      const std::string s(suffix);
      return name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_bucket")) {
      const std::size_t le = labels.find("le=\"");
      if (le == std::string::npos) return;
      const std::size_t close = labels.find('"', le + 4);
      const std::string edge = labels.substr(le + 4, close - le - 4);
      const double upper = edge == "+Inf" ? INFINITY : std::strtod(edge.c_str(), nullptr);
      std::string rest = labels.substr(0, le) + labels.substr(std::min(close + 1, labels.size()));
      if (!rest.empty() && rest.back() == ',') rest.pop_back();
      if (!rest.empty() && rest.front() == ',') rest.erase(0, 1);
      histograms_[name.substr(0, name.size() - 7) + "{" + rest + "}"].buckets.emplace_back(upper,
                                                                                          value);
    } else if (ends_with("_sum")) {
      histograms_[name.substr(0, name.size() - 4) + "{" + labels + "}"].sum = value;
    } else if (ends_with("_count")) {
      histograms_[name.substr(0, name.size() - 6) + "{" + labels + "}"].count = value;
    }
  }

  std::map<std::string, double> samples_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace perfbench
