// Parity of VARADE's packed inference plan with the untouched module path.
//
// Every VARADE scoring path (score_step, score_batch, variance_score,
// forecast_error_score) runs the detector's packed plan, so comparing
// score_batch with score_step cannot catch a changed bit. This suite pins
// the plan against the reference that training uses, VaradeModel::forward:
//  1. the plan's logvar and mu heads equal forward(x)'s bit for bit on every
//     kernel set this host can run, across windows 8-512, base widths 1-128
//     (including the paper's 512/128), channel doubling on and off, 1/3/7
//     input channels, 1-257 rows, and inputs of +-0, subnormals and large
//     magnitudes;
//  2. a fitted detector's scores equal score_from_logvar of the reference
//     logvar, and forecast_error_score matches the reference mu;
//  3. the plan is rebuilt whenever the weights change: after a second fit(),
//     after load(), and in a clone;
//  4. load() is transactional: a truncated file throws and leaves a fitted
//     detector's scores bit-identical, and an unfitted one unfitted;
//  5. two threads scoring through one detector get the single-thread bits
//     (this suite carries the concurrency label, so ci.sh --tsan race-checks
//     it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "varade/core/varade.hpp"
#include "varade/nn/kernels.hpp"

namespace varade::core {
namespace {

std::uint32_t bits_of(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Bitwise comparison: EXPECT_EQ would accept -0.0f == 0.0f and reject
/// identical NaNs; the contract is "the same bits".
void expect_bits(const float* got, const float* want, Index n, const std::string& label) {
  for (Index i = 0; i < n; ++i)
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << label << " element " << i << " (" << got[i] << " vs " << want[i] << ")";
}

/// Random rows in roughly the normalised range, sprinkled with the values a
/// vectorised kernel is most likely to round differently: signed zeros,
/// subnormals and magnitudes large enough to overflow a float activation.
Tensor hostile_inputs(Index rows, Index channels, Index window, std::uint64_t seed) {
  static const float kSpecial[] = {0.0F,   -0.0F,  1e-40F, -1e-40F, 1.4e-45F, -1.4e-45F,
                                   1e20F, -1e20F, 3e38F,  -3e38F,  1e-30F,   65504.0F};
  Rng rng(seed);
  Tensor x({rows, channels, window});
  for (Index i = 0; i < x.numel(); ++i) {
    x[i] = rng.normal(0.0F, 1.0F);
    if (rng.bernoulli(0.08))
      x[i] = kSpecial[static_cast<std::size_t>(rng.uniform(0.0F, 12.0F)) % std::size(kSpecial)];
  }
  return x;
}

/// Random weights and biases (the constructor leaves biases at zero, which
/// would hide a misplaced bias).
void randomise(VaradeModel& model, std::uint64_t seed) {
  Rng rng(seed);
  for (nn::Parameter* p : model.parameters())
    for (Index i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal(0.0F, 0.4F);
}

struct ModelCase {
  Index window;
  Index base;
  bool doubling;
  Index channels;
  Index rows;
};

void check_plan_matches_forward(const ModelCase& c, std::uint64_t seed) {
  VaradeConfig config;
  config.window = c.window;
  config.base_channels = c.base;
  config.channel_doubling = c.doubling;
  Rng rng(seed);
  VaradeModel model(c.channels, config, rng);
  randomise(model, seed + 1);
  const nn::PackedHalvingNet plan = model.packed();
  const Tensor x = hostile_inputs(c.rows, c.channels, c.window, seed + 2);
  const VaradeModel::Output ref = model.forward(x);

  const std::string label = "window " + std::to_string(c.window) + " base " +
                            std::to_string(c.base) + (c.doubling ? " doubling" : " flat") +
                            " channels " + std::to_string(c.channels) + " rows " +
                            std::to_string(c.rows);
  for (const nn::KernelTable* kernels : nn::runnable_kernel_tables()) {
    std::vector<float> logvar(static_cast<std::size_t>(c.rows * c.channels), -7.0F);
    std::vector<float> mu(logvar.size(), -7.0F);
    float* outs[2] = {};
    outs[VaradeModel::kPackedLogvar] = logvar.data();
    outs[VaradeModel::kPackedMu] = mu.data();
    plan.forward(x.data(), c.rows, outs, *kernels);
    expect_bits(logvar.data(), ref.logvar.data(), ref.logvar.numel(),
                label + " logvar [" + kernels->name + "]");
    expect_bits(mu.data(), ref.mu.data(), ref.mu.numel(), label + " mu [" + kernels->name + "]");

    // Variance scoring skips the mu head: logvar alone, mu never written.
    std::fill(logvar.begin(), logvar.end(), -7.0F);
    std::fill(mu.begin(), mu.end(), -7.0F);
    outs[VaradeModel::kPackedMu] = nullptr;
    plan.forward(x.data(), c.rows, outs, *kernels);
    expect_bits(logvar.data(), ref.logvar.data(), ref.logvar.numel(),
                label + " logvar without mu [" + kernels->name + "]");
    EXPECT_EQ(mu, std::vector<float>(mu.size(), -7.0F)) << label << " wrote a skipped head";
  }
}

TEST(VaradePlanParity, LogvarAndMuMatchModuleForwardOnEveryKernelSet) {
  const Index rows_cycle[] = {1, 2, 5, 17, 64, 257};
  std::uint64_t seed = 100;
  std::size_t n = 0;
  for (const Index window : {8, 16, 32, 64})
    for (const Index base : {1, 3, 8, 16, 33})
      for (const bool doubling : {true, false})
        for (const Index channels : {1, 3, 7}) {
          const Index rows = rows_cycle[n++ % std::size(rows_cycle)];
          check_plan_matches_forward({window, base, doubling, channels, rows}, seed);
          if (HasFatalFailure()) return;
          seed += 10;
        }
}

TEST(VaradePlanParity, WideAndDeepConfigurationsIncludingThePaperModel) {
  const ModelCase cases[] = {
      {512, 128, true, 3, 2},   // the paper's model: T = 512, 128 -> 1024 maps
      {256, 128, false, 7, 3},  // wide flat trunk
      {512, 1, true, 7, 257},   // deep and narrow, many rows
      {128, 64, true, 1, 9},
      {8, 128, false, 3, 40},   // two layers deep but wide
  };
  std::uint64_t seed = 9000;
  for (const ModelCase& c : cases) {
    check_plan_matches_forward(c, seed);
    if (HasFatalFailure()) return;
    seed += 10;
  }
}

data::MultivariateSeries make_sine(Index length, std::uint64_t seed, float phase = 0.0F) {
  Rng rng(seed);
  data::MultivariateSeries s(3);
  std::vector<float> row(3);
  for (Index t = 0; t < length; ++t) {
    for (Index c = 0; c < 3; ++c)
      row[static_cast<std::size_t>(c)] =
          0.8F * std::sin(0.05F * static_cast<float>(t) + static_cast<float>(c) + phase) +
          rng.normal(0.0F, 0.03F);
    s.append(row);
  }
  return s;
}

VaradeConfig small_config(std::uint64_t seed = 1) {
  VaradeConfig cfg;
  cfg.window = 16;
  cfg.base_channels = 8;
  cfg.epochs = 1;
  cfg.learning_rate = 1e-3F;
  cfg.train_stride = 4;
  cfg.seed = seed;
  return cfg;
}

/// score_from_logvar of the reference forward, per row.
std::vector<float> reference_scores(VaradeDetector& det, const Tensor& contexts) {
  const VaradeModel::Output ref = det.model()->forward(contexts);
  const Index channels = contexts.dim(1);
  std::vector<float> scores(static_cast<std::size_t>(contexts.dim(0)));
  for (Index r = 0; r < contexts.dim(0); ++r)
    scores[static_cast<std::size_t>(r)] =
        VaradeDetector::score_from_logvar(ref.logvar.data() + r * channels, channels);
  return scores;
}

std::vector<float> batch_scores(AnomalyDetector& det, const Tensor& contexts) {
  std::vector<float> out(static_cast<std::size_t>(contexts.dim(0)), -1.0F);
  det.score_batch(contexts, Tensor({contexts.dim(0), contexts.dim(1)}), out.data());
  return out;
}

Tensor row_of(const Tensor& contexts, Index r) {
  return contexts.slice0(r, r + 1).reshaped({contexts.dim(1), contexts.dim(2)});
}

TEST(VaradeDetectorParity, ScoresEqualScoreFromLogvarOfTheReferenceForward) {
  VaradeDetector det(small_config());
  det.fit(make_sine(400, 1));
  std::uint64_t seed = 300;
  for (const Index rows : {1, 2, 7, 32, 257}) {
    const Tensor contexts = hostile_inputs(rows, 3, 16, seed++);
    const std::vector<float> want = reference_scores(det, contexts);
    const std::vector<float> got = batch_scores(det, contexts);
    expect_bits(got.data(), want.data(), rows, "score_batch rows " + std::to_string(rows));
    const VaradeModel::Output ref = det.model()->forward(contexts);
    for (Index r = 0; r < std::min<Index>(rows, 9); ++r) {
      const Tensor ctx = row_of(contexts, r);
      const float step = det.score_step(ctx, Tensor({3}));
      expect_bits(&step, &want[static_cast<std::size_t>(r)], 1, "score_step");
      // forecast_error_score reads the mu head: ||observed - mu||_2 with
      // observed = 0 is the reference mu's norm.
      double acc = 0.0;
      for (Index c = 0; c < 3; ++c) {
        const double d = 0.0 - static_cast<double>(ref.mu[r * 3 + c]);
        acc += d * d;
      }
      const float want_err = static_cast<float>(std::sqrt(acc));
      const float got_err = det.forecast_error_score(ctx, Tensor({3}));
      expect_bits(&got_err, &want_err, 1, "forecast_error_score");
    }
  }
}

TEST(VaradeDetectorParity, PlanIsRebuiltAfterRefitLoadAndClone) {
  const Tensor contexts = hostile_inputs(33, 3, 16, 77);

  VaradeDetector det(small_config(1));
  det.fit(make_sine(400, 1));
  const std::vector<float> first = batch_scores(det, contexts);

  // A second fit on other data with another seed: new weights, new plan.
  VaradeConfig cfg2 = small_config(2);
  VaradeDetector other(cfg2);
  other.fit(make_sine(400, 5, 1.3F));
  det.fit(make_sine(400, 5, 1.3F));
  const std::vector<float> refit = batch_scores(det, contexts);
  const std::vector<float> refit_want = reference_scores(det, contexts);
  expect_bits(refit.data(), refit_want.data(), 33, "after refit");
  EXPECT_NE(refit, first) << "the refit produced the first fit's scores";

  // load() replaces weights and plan: the loaded detector scores like the
  // file's model, not like its own previous fit.
  const std::string path = ::testing::TempDir() + "/varade_parity_other.bin";
  other.save(path);
  det.load(path);
  const std::vector<float> loaded = batch_scores(det, contexts);
  expect_bits(loaded.data(), reference_scores(det, contexts).data(), 33, "after load");
  expect_bits(loaded.data(), batch_scores(other, contexts).data(), 33, "load == saved");
  EXPECT_NE(loaded, refit);

  // A clone carries its own plan of the same weights.
  const std::unique_ptr<AnomalyDetector> clone = det.clone_fitted();
  auto& varade_clone = dynamic_cast<VaradeDetector&>(*clone);
  const std::vector<float> cloned = batch_scores(*clone, contexts);
  expect_bits(cloned.data(), reference_scores(varade_clone, contexts).data(), 33, "clone");
  expect_bits(cloned.data(), loaded.data(), 33, "clone == original");
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes, std::size_t n) {
  std::ofstream f(path, std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(n));
}

TEST(VaradeLoad, TruncatedFileLeavesAFittedDetectorBitIdentical) {
  VaradeDetector saved(small_config(3));
  saved.fit(make_sine(400, 3));
  const std::string path = ::testing::TempDir() + "/varade_parity_full.bin";
  saved.save(path);
  const std::vector<char> bytes = read_file(path);
  ASSERT_GT(bytes.size(), 64U);

  // A fitted detector with a different architecture (window 32) and weights.
  VaradeConfig cfg = small_config(4);
  cfg.window = 32;
  VaradeDetector det(cfg);
  det.fit(make_sine(400, 4));
  const Tensor contexts = hostile_inputs(9, 3, 32, 11);
  const std::vector<float> before = batch_scores(det, contexts);

  const std::string cut = ::testing::TempDir() + "/varade_parity_cut.bin";
  // Cuts inside the header, inside the weight table, and one byte short.
  for (const std::size_t n : {std::size_t{6}, std::size_t{30}, bytes.size() / 2, bytes.size() - 1}) {
    write_file(cut, bytes, n);
    EXPECT_THROW(det.load(cut), Error) << "cut at " << n;
    ASSERT_TRUE(det.fitted());
    EXPECT_EQ(det.config().window, 32);
    EXPECT_EQ(det.context_window(), 32);
    const std::vector<float> after = batch_scores(det, contexts);
    expect_bits(after.data(), before.data(), 9, "cut at " + std::to_string(n));
  }
}

TEST(VaradeLoad, TruncatedFileLeavesAnUnfittedDetectorUnfitted) {
  VaradeDetector saved(small_config(3));
  saved.fit(make_sine(400, 3));
  const std::string path = ::testing::TempDir() + "/varade_parity_full2.bin";
  saved.save(path);
  const std::vector<char> bytes = read_file(path);
  const std::string cut = ::testing::TempDir() + "/varade_parity_cut2.bin";
  write_file(cut, bytes, bytes.size() - 1);

  VaradeDetector det;
  EXPECT_THROW(det.load(cut), Error);
  EXPECT_FALSE(det.fitted());
  EXPECT_EQ(det.config().window, VaradeConfig{}.window);
  EXPECT_THROW(det.score_step(Tensor({3, det.config().window}), Tensor({3})), Error);
  // The intact file still loads afterwards.
  det.load(path);
  EXPECT_TRUE(det.fitted());
}

TEST(VaradeConcurrency, TwoThreadsScoringThroughOneDetectorKeepTheBits) {
  VaradeDetector det(small_config());
  det.fit(make_sine(400, 1));
  const Tensor a = hostile_inputs(31, 3, 16, 501);
  const Tensor b = hostile_inputs(5, 3, 16, 502);
  const std::vector<float> want_a = reference_scores(det, a);
  const std::vector<float> want_b = reference_scores(det, b);

  std::vector<float> got_a;
  std::vector<float> got_b;
  bool same_a = true;
  bool same_b = true;
  std::thread ta([&] {
    for (int i = 0; i < 50; ++i) {
      got_a = batch_scores(det, a);
      same_a = same_a && std::memcmp(got_a.data(), want_a.data(), want_a.size() * 4) == 0;
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < 50; ++i) {
      got_b = batch_scores(det, b);
      const float step = det.score_step(row_of(b, i % 5), Tensor({3}));
      same_b = same_b && std::memcmp(got_b.data(), want_b.data(), want_b.size() * 4) == 0 &&
               bits_of(step) == bits_of(want_b[static_cast<std::size_t>(i % 5)]);
    }
  });
  ta.join();
  tb.join();
  EXPECT_TRUE(same_a);
  EXPECT_TRUE(same_b);
}

}  // namespace
}  // namespace varade::core
