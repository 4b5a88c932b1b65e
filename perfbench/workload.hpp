// The benchmark's inputs and the reference it checks the daemon against.
//
// Inputs: every stream replays one seeded base series of `period` samples
// (a 3-channel noisy sine, like the series the daemon trains on, with
// seeded anomaly bursts), each from its own seeded offset, so bursts are
// staggered across streams. The same seed gives the same inputs.
//
// Reference: a detector's score at sample t is a pure function of the
// `window` samples before t. A stream's input is periodic, so from t = window
// on its score equals the base series' steady-state score at position
// (t + offset) mod period. One sequential OnlineMonitor over period + window
// base samples therefore yields every reference score of every stream, and
// the debounce/hold-off AlarmTracker replayed over those scores yields every
// ALARM frame the daemon must send.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "varade/core/monitor.hpp"
#include "varade/net/wire.hpp"
#include "varade/tensor/rng.hpp"

namespace perfbench {

using varade::Index;

class Workload {
 public:
  static constexpr Index kChannels = 3;

  Workload(std::uint64_t seed, Index n_streams, Index period) : period_(period) {
    varade::Rng rng(seed);
    // Bursts: one per 800 samples at a seeded position within its slot, 64
    // samples long (twice the detectors' 32-sample context, so a burst is
    // visible from inside it), noise amplitude cycling 0.4 / 0.55 / 0.7 /
    // 0.9: the seed moves the bursts but not how hard they are to detect.
    constexpr float kSigma[] = {0.4F, 0.55F, 0.7F, 0.9F};
    constexpr Index kBurstLen = 64;
    std::vector<float> burst_sigma(static_cast<std::size_t>(period), 0.0F);
    const Index n_bursts = std::max<Index>(1, period / 800);
    const Index slot = period / n_bursts;
    for (Index b = 0; b < n_bursts; ++b) {
      const Index start = b * slot + rng.uniform_int(0, static_cast<int>(slot - kBurstLen - 1));
      for (Index t = start; t < start + kBurstLen; ++t)
        burst_sigma[static_cast<std::size_t>(t)] = kSigma[b % 4];
    }
    // A whole number of sine periods fits the base series, so the replay
    // wraps without a seam: the whole number nearest to the training
    // series' frequency of 0.05 rad/sample.
    const double omega = 2.0 * std::numbers::pi *
                         std::round(static_cast<double>(period) * 0.05 / (2.0 * std::numbers::pi)) /
                         static_cast<double>(period);
    base_.resize(static_cast<std::size_t>(period * kChannels));
    label_.resize(static_cast<std::size_t>(period));
    for (Index t = 0; t < period; ++t) {
      const float sigma = burst_sigma[static_cast<std::size_t>(t)];
      label_[static_cast<std::size_t>(t)] = sigma > 0.0F ? 1 : 0;
      for (Index c = 0; c < kChannels; ++c)
        base_[static_cast<std::size_t>(t * kChannels + c)] =
            static_cast<float>(std::sin(omega * static_cast<double>(t) + static_cast<double>(c))) +
            rng.normal(0.0F, sigma > 0.0F ? sigma : 0.03F);
    }
    offset_.resize(static_cast<std::size_t>(n_streams));
    for (Index& o : offset_) o = static_cast<Index>(rng.next_u64() % static_cast<std::uint64_t>(period));
  }

  Index period() const { return period_; }
  Index n_streams() const { return static_cast<Index>(offset_.size()); }
  /// Base position of sample t of `stream`.
  Index position(Index stream, Index t) const {
    return (t + offset_[static_cast<std::size_t>(stream)]) % period_;
  }
  const float* sample(Index stream, Index t) const {
    return base_.data() + position(stream, t) * kChannels;
  }
  const float* base_sample(Index k) const { return base_.data() + (k % period_) * kChannels; }
  bool anomalous(Index stream, Index t) const {
    return label_[static_cast<std::size_t>(position(stream, t))] != 0;
  }

 private:
  Index period_;
  std::vector<float> base_;           // [period, channels]
  std::vector<std::uint8_t> label_;   // [period], 1 inside a burst
  std::vector<Index> offset_;         // per stream
};

/// Bit-exact reference scores for every (stream, sample) of a Workload.
class Reference {
 public:
  /// Runs one sequential OnlineMonitor over period + window base samples.
  Reference(varade::core::AnomalyDetector& detector, const varade::data::MinMaxNormalizer& normalizer,
            float threshold, const Workload& workload)
      : workload_(&workload), window_(detector.context_window()), threshold_(threshold) {
    varade::check(workload.period() >= window_, "perfbench: period shorter than the window");
    varade::core::OnlineMonitor monitor(detector, normalizer);
    monitor.set_threshold(threshold);
    steady_.resize(static_cast<std::size_t>(workload.period()));
    for (Index k = 0; k < workload.period() + window_; ++k) {
      const float score = monitor.push(workload.base_sample(k));
      if (k >= window_) steady_[static_cast<std::size_t>(k % workload.period())] = score;
    }
  }

  Index window() const { return window_; }
  float threshold() const { return threshold_; }

  float expected(Index stream, Index t) const {
    if (t < window_) return -1.0F;  // the engine's warm-up score
    return steady_[static_cast<std::size_t>(workload_->position(stream, t))];
  }

  /// True when `score` is bit-identical to the reference for (stream, t).
  bool matches(Index stream, Index t, float score) const {
    const float want = expected(stream, t);
    return std::memcmp(&want, &score, sizeof(float)) == 0;
  }

  /// The ALARM frames the daemon must send for the first n samples of a
  /// stream: the engine's AlarmTracker fed the reference scores from sample
  /// `window` on, announced whenever the newest event changes (the routing
  /// rule of net::Server).
  std::vector<varade::net::AlarmData> expected_alarms(Index stream, Index n,
                                                      const varade::core::MonitorConfig& config) const {
    std::vector<varade::net::AlarmData> out;
    varade::core::AlarmTracker tracker(config);
    std::size_t n_events = 0;
    varade::core::AnomalyEvent last{};
    for (Index t = window_; t < n; ++t) {
      tracker.update(expected(stream, t), threshold_, t);
      const std::vector<varade::core::AnomalyEvent>& events = tracker.events();
      if (events.empty()) continue;
      const varade::core::AnomalyEvent& e = events.back();
      const bool is_new = events.size() != n_events;
      if (!is_new && e.onset_sample == last.onset_sample && e.last_sample == last.last_sample &&
          e.peak_score == last.peak_score)
        continue;
      varade::net::AlarmData a;
      a.stream = stream;
      a.onset_sample = static_cast<std::uint64_t>(e.onset_sample);
      a.last_sample = static_cast<std::uint64_t>(e.last_sample);
      a.peak_score = e.peak_score;
      a.raised = is_new;
      out.push_back(a);
      n_events = events.size();
      last = e;
    }
    return out;
  }

 private:
  const Workload* workload_;
  Index window_;
  float threshold_;
  std::vector<float> steady_;  // steady-state score by base position
};

/// Number of positions at which two ALARM frame sequences differ (field by
/// field, scores bit for bit), counting a length difference as mismatches.
inline long alarm_mismatches(const std::vector<varade::net::AlarmData>& got,
                             const std::vector<varade::net::AlarmData>& want) {
  long bad = static_cast<long>(got.size() > want.size() ? got.size() - want.size()
                                                        : want.size() - got.size());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    const varade::net::AlarmData& a = got[i];
    const varade::net::AlarmData& b = want[i];
    if (a.stream != b.stream || a.onset_sample != b.onset_sample ||
        a.last_sample != b.last_sample || a.raised != b.raised ||
        std::memcmp(&a.peak_score, &b.peak_score, sizeof(float)) != 0)
      ++bad;
  }
  return bad;
}

}  // namespace perfbench
