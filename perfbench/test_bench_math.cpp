// Tests of the serving benchmark's own arithmetic and of its correctness
// gate. Run with: ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "bench_math.hpp"
#include "varade/core/profiles.hpp"
#include "varade/eval/metrics.hpp"
#include "varade/serve/scoring_engine.hpp"
#include "workload.hpp"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_needs_ten_beyond() {
  const auto p99 = perfbench::tail_percentile(iota(1000), 0.99);
  EXPECT(p99.has_value());
  EXPECT(p99->value == 990.0);
  EXPECT(p99->beyond == 10);
  EXPECT(!perfbench::tail_percentile(iota(999), 0.99).has_value());
  EXPECT(perfbench::tail_percentile(iota(20), 0.5).has_value());
  EXPECT(!perfbench::tail_percentile(iota(19), 0.5).has_value());
  EXPECT(!perfbench::tail_percentile({}, 0.5).has_value());
  EXPECT(perfbench::tail_percentile(iota(21), 0.5)->value == 11.0);
}

void percentile_reports_its_sample_count() {
  const auto p = perfbench::tail_percentile(iota(4321), 0.99);
  EXPECT(p.has_value());
  EXPECT(p->n == 4321);
  EXPECT(p->beyond == 4321 - 4278);
}

void window_quantile_of_unsorted_windows() {
  EXPECT(perfbench::window_quantile({5, 1, 4, 2, 3}, 0.5) == 3.0);
  // Three stalled windows of twelve (7, 8, 9) move neither quantile.
  const std::vector<double> w = {1.0, 1.1, 0.9, 9.0, 1.05, 0.95, 8.0, 1.0, 7.0, 1.02, 0.98, 1.01};
  EXPECT(perfbench::window_quantile(w, 0.25) == 0.98);
  EXPECT(perfbench::window_quantile(w, 0.5) == 1.01);
  EXPECT(perfbench::window_quantile({7}, 0.25) == 7.0);
  EXPECT(perfbench::window_quantile({}, 0.5) == 0.0);
}

void backlog_detector() {
  // A queue that fluctuates around a level is not a growing backlog.
  std::vector<long> flat;
  for (int i = 0; i < 60; ++i) flat.push_back(400 + (i % 7) * 30);
  EXPECT(!perfbench::backlog_growing(flat, 100));
  // One fed faster than it drains is.
  std::vector<long> ramp;
  for (int i = 0; i < 60; ++i) ramp.push_back(400 + i * 50);
  EXPECT(perfbench::backlog_growing(ramp, 100));
  // Growth within the slack passes; too few points show no trend.
  EXPECT(!perfbench::backlog_growing(ramp, 5000));
  EXPECT(!perfbench::backlog_growing({1, 100, 10000, 100000, 1000000}, 0));
}

void send_schedule_spacing() {
  using perfbench::Arrivals;
  const std::vector<double> clock = perfbench::send_schedule(5, 100.0, Arrivals::kClock, 7);
  EXPECT(clock == std::vector<double>({0.0, 100.0, 200.0, 300.0, 400.0}));
  // Poisson: the same seed gives the same schedule, another seed another;
  // gaps average the mean gap and spread like an exponential (sd = mean).
  const std::size_t n = 200001;
  const std::vector<double> a = perfbench::send_schedule(n, 100.0, Arrivals::kPoisson, 7);
  EXPECT(a == perfbench::send_schedule(n, 100.0, Arrivals::kPoisson, 7));
  EXPECT(a != perfbench::send_schedule(n, 100.0, Arrivals::kPoisson, 8));
  EXPECT(a[0] == 0.0);
  double sum = 0.0, sq = 0.0;
  bool ascending = true;
  for (std::size_t i = 1; i < n; ++i) {
    const double gap = a[i] - a[i - 1];
    ascending = ascending && gap > 0.0;
    sum += gap;
    sq += gap * gap;
  }
  const double mean = sum / static_cast<double>(n - 1);
  const double sd = std::sqrt(sq / static_cast<double>(n - 1) - mean * mean);
  EXPECT(ascending);
  EXPECT(std::fabs(mean - 100.0) < 1.0);
  EXPECT(std::fabs(sd - 100.0) < 2.0);
}

void span_self_time() {
  using perfbench::Interval;
  EXPECT(perfbench::self_time({0, 100}, {}) == 100);
  // Overlapping children count once; children are clipped to the parent.
  EXPECT(perfbench::self_time({0, 100}, {{10, 20}, {15, 30}, {90, 120}, {-5, 5}}) == 65);
  // A child nested inside another child adds nothing.
  EXPECT(perfbench::self_time({0, 100}, {{10, 60}, {20, 30}}) == 50);
  EXPECT(perfbench::self_time({0, 100}, {{0, 100}}) == 0);
}

void auc_aligns_scores_with_their_own_samples() {
  // Sample t of stream s is anomalous when t % 10 == 0, and the detector
  // scores exactly those samples high. Warm-up scores (t < window) are -1.
  const std::int64_t window = 4;
  const auto label = [](std::int64_t, std::int64_t t) { return t % 10 == 0; };
  std::vector<perfbench::ReceivedScore> got;
  for (std::int64_t s = 0; s < 3; ++s)
    for (std::int64_t t = 0; t < 200; ++t)
      got.push_back({s, t, t < window ? -1.0F : (label(s, t) ? 5.0F : 1.0F + 0.001F * t)});
  std::vector<float> scores;
  std::vector<int> labels;
  perfbench::align_scores(got, window, label, scores, labels);
  EXPECT(scores.size() == 3 * (200 - window));
  EXPECT(varade::eval::auc_roc(scores, labels) == 1.0);
  // Labelling each score with its neighbour's label loses the signal.
  perfbench::align_scores(got, window, [&](std::int64_t s, std::int64_t t) { return label(s, t + 1); },
                          scores, labels);
  EXPECT(varade::eval::auc_roc(scores, labels) < 0.6);
}

void proc_parsing() {
  // The command name may hold spaces and ')'; fields count from the last ')'.
  const std::string stat =
      "4242 (varade (x) served) S 1 2 3 4 5 6 7 8 9 10 300 45 0 0 20 0 3 0 100 0 0\n";
  EXPECT(perfbench::parse_stat_cpu_ticks(stat) == 345);
  EXPECT(!perfbench::parse_stat_cpu_ticks("4242 (short) S 1 2 3").has_value());
  EXPECT(!perfbench::parse_stat_cpu_ticks("no parens at all").has_value());
  const std::string status = "Name:\tvarade-served\nVmPeak:\t  99999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
  EXPECT(perfbench::parse_vmhwm_kb(status) == 51200L);
  EXPECT(!perfbench::parse_vmhwm_kb("VmRSS:\t 40000 kB\n").has_value());
}

void exposition_parsing() {
  const perfbench::Exposition m(
      "# TYPE h histogram\n"
      "h_bucket{phase=\"score\",le=\"1e-06\"} 10\n"
      "h_bucket{phase=\"score\",le=\"2e-06\"} 90\n"
      "h_bucket{phase=\"score\",le=\"4e-06\"} 100\n"
      "h_bucket{phase=\"score\",le=\"+Inf\"} 100\n"
      "h_sum{phase=\"score\"} 0.00015\n"
      "h_count{phase=\"score\"} 100\n"
      "c_total{shard=\"0\"} 3\n"
      "c_total{shard=\"1\"} 4\n"
      "g 7\n");
  const auto& h = m.histogram("h", "phase=\"score\"");
  EXPECT(h.count == 100.0);
  // Interpolated inside the holding bucket: 50 is 40/80 of (1e-6, 2e-6].
  EXPECT(std::fabs(perfbench::Exposition::quantile(h, 0.5) - 1.5e-6) < 1e-12);
  EXPECT(std::fabs(perfbench::Exposition::quantile(h, 0.99) - 3.8e-6) < 1e-12);
  EXPECT(std::fabs(perfbench::Exposition::quantile(h, 0.05) - 0.5e-6) < 1e-12);
  EXPECT(m.total("c_total") == 7.0);
  EXPECT(m.value("g") == 7.0);
  EXPECT(m.value("absent") == 0.0);
}

void workload_is_a_function_of_the_seed() {
  const perfbench::Workload a(5, 8, 500), b(5, 8, 500), c(6, 8, 500);
  bool same = true, differs = false;
  for (varade::Index s = 0; s < 8; ++s)
    for (varade::Index t = 0; t < 600; ++t) {
      same = same && std::memcmp(a.sample(s, t), b.sample(s, t), 3 * sizeof(float)) == 0;
      differs = differs || std::memcmp(a.sample(s, t), c.sample(s, t), 3 * sizeof(float)) != 0;
    }
  EXPECT(same);
  EXPECT(differs);
}

/// The gate against a real engine: the periodic reference equals the
/// engine's scores and alarms bit for bit, and one corrupted score or alarm
/// is caught.
void checker_catches_one_corrupted_score() {
  using namespace varade;
  const core::Profile profile = bench::tiny_serve_profile();
  const data::MultivariateSeries raw = bench::make_sine(1200, 1);
  data::MinMaxNormalizer norm;
  norm.fit(raw);
  const data::MultivariateSeries train = norm.transform(raw);
  const std::unique_ptr<core::AnomalyDetector> det = core::make_detector(profile, "GBRF");
  det->fit(train);
  const core::MonitorConfig config;
  const float threshold = core::calibrate_threshold(*det, train, config);
  const perfbench::Workload w(3, 4, 3200);
  const perfbench::Reference ref(*det, norm, threshold, w);

  serve::ScoringEngine engine(*det, norm);
  engine.add_streams(4);
  engine.set_threshold(threshold);
  const Index n = 4000;
  for (Index t = 0; t < n; ++t)
    for (Index s = 0; s < 4; ++s) engine.push(s, w.sample(s, t), 3);
  std::vector<serve::StreamScore> scores = engine.step();
  EXPECT(static_cast<Index>(scores.size()) == 4 * n);
  long bad = 0;
  for (const serve::StreamScore& sc : scores) bad += ref.matches(sc.stream, sc.sample, sc.score) ? 0 : 1;
  EXPECT(bad == 0);

  // Flip the lowest mantissa bit of one warm score.
  serve::StreamScore& victim = scores[4 * 2500 + 2];
  std::uint32_t bits;
  std::memcpy(&bits, &victim.score, sizeof bits);
  bits ^= 1U;
  std::memcpy(&victim.score, &bits, sizeof bits);
  bad = 0;
  for (const serve::StreamScore& sc : scores) bad += ref.matches(sc.stream, sc.sample, sc.score) ? 0 : 1;
  EXPECT(bad == 1);

  // Alarms: the last frame per event is the engine's final event.
  long events = 0;
  for (Index s = 0; s < 4; ++s) {
    const std::vector<net::AlarmData> frames = ref.expected_alarms(s, n, config);
    std::vector<core::AnomalyEvent> final_events;
    for (const net::AlarmData& a : frames) {
      if (a.raised) final_events.push_back({});
      final_events.back() = {static_cast<Index>(a.onset_sample), static_cast<Index>(a.last_sample),
                             a.peak_score};
    }
    const std::vector<core::AnomalyEvent>& want = engine.events(s);
    EXPECT(final_events.size() == want.size());
    for (std::size_t i = 0; i < std::min(want.size(), final_events.size()); ++i)
      EXPECT(final_events[i].onset_sample == want[i].onset_sample &&
             final_events[i].last_sample == want[i].last_sample &&
             final_events[i].peak_score == want[i].peak_score);
    events += static_cast<long>(want.size());
    std::vector<net::AlarmData> corrupted = frames;
    EXPECT(perfbench::alarm_mismatches(corrupted, frames) == 0);
    if (!corrupted.empty()) {
      corrupted.back().last_sample += 1;
      EXPECT(perfbench::alarm_mismatches(corrupted, frames) == 1);
      corrupted.pop_back();
      EXPECT(perfbench::alarm_mismatches(corrupted, frames) == 1);
    }
  }
  EXPECT(events > 0);  // the workload's bursts do raise alarms
}

}  // namespace

int main() {
  percentile_needs_ten_beyond();
  percentile_reports_its_sample_count();
  window_quantile_of_unsorted_windows();
  backlog_detector();
  send_schedule_spacing();
  span_self_time();
  auc_aligns_scores_with_their_own_samples();
  proc_parsing();
  exposition_parsing();
  workload_is_a_function_of_the_seed();
  checker_catches_one_corrupted_score();
  if (g_failures == 0) std::printf("test_bench_math: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
