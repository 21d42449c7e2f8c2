#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/stats.h"
#include "qrc/esn.h"
#include "qrc/readout.h"
#include "qrc/reservoir.h"
#include "qrc/tasks.h"

namespace qs {
namespace {

ReservoirConfig small_reservoir() {
  ReservoirConfig cfg;
  cfg.modes = 2;
  cfg.levels = 4;
  cfg.coupling = 1.0;
  cfg.kappa = 0.35;
  cfg.kerr = 0.6;
  cfg.input_gain = 1.0;
  cfg.tau = 1.0;
  cfg.rk4_steps_per_tau = 10;
  return cfg;
}

/// Five 16-input NARMA-2 series for the batch contracts.
std::vector<std::vector<double>> batch_inputs() {
  Rng rng(102);
  std::vector<std::vector<double>> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(make_narma(2, 16, rng).input);
  return inputs;
}

bool same_bits(const RMatrix& a, const RMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST(Tasks, NarmaIsBoundedAndDriven) {
  Rng rng(91);
  const SeriesTask t = make_narma(2, 300, rng);
  EXPECT_EQ(t.input.size(), 300u);
  for (double y : t.target) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
  EXPECT_GT(stddev(t.target), 0.01);  // nontrivial dynamics
}

TEST(Tasks, SineSquareLabelsMatchSegments) {
  Rng rng(92);
  const SeriesTask t = make_sine_square(10, 8, rng);
  EXPECT_EQ(t.input.size(), 80u);
  for (double l : t.target) EXPECT_TRUE(l == 1.0 || l == -1.0);
}

TEST(Tasks, MackeyGlassInUnitInterval) {
  Rng rng(93);
  const SeriesTask t = make_mackey_glass(400, 10, rng);
  for (double x : t.input) {
    EXPECT_GE(x, -1e-9);
    EXPECT_LE(x, 1.0 + 1e-9);
  }
  EXPECT_GT(stddev(t.input), 0.05);
}

TEST(Tasks, DelayMemoryTargets) {
  Rng rng(94);
  const SeriesTask t = make_delay_memory(3, 50, rng);
  for (int i = 3; i < 50; ++i)
    EXPECT_DOUBLE_EQ(t.target[static_cast<std::size_t>(i)],
                     t.input[static_cast<std::size_t>(i - 3)]);
}

TEST(Reservoir, FeatureCountAndNormalization) {
  OscillatorReservoir res(small_reservoir());
  EXPECT_EQ(res.num_features(), 16u);  // 4^2
  res.step(0.3);
  const auto f = res.features();
  double total = 0.0;
  for (double p : f) {
    EXPECT_GE(p, -1e-9);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(Reservoir, InputChangesState) {
  OscillatorReservoir res(small_reservoir());
  res.step(0.0);
  const auto f0 = res.features();
  res.reset();
  res.step(1.0);
  const auto f1 = res.features();
  double diff = 0.0;
  for (std::size_t i = 0; i < f0.size(); ++i) diff += std::abs(f0[i] - f1[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(Reservoir, FadingMemory) {
  // Two different histories followed by the same long tail converge:
  // dissipation washes out the past (echo-state property).
  OscillatorReservoir res(small_reservoir());
  std::vector<double> tail(30, 0.2);

  res.reset();
  res.step(1.0);
  for (double u : tail) res.step(u);
  const auto fa = res.features();

  res.reset();
  res.step(-1.0);
  for (double u : tail) res.step(u);
  const auto fb = res.features();

  double diff = 0.0;
  for (std::size_t i = 0; i < fa.size(); ++i) diff += std::abs(fa[i] - fb[i]);
  EXPECT_LT(diff, 0.02);
}

TEST(Reservoir, SampledFeaturesConvergeWithShots) {
  Rng rng(95);
  OscillatorReservoir res(small_reservoir());
  res.step(0.5);
  const auto exact = res.features();
  const auto few = res.features_sampled(32, rng);
  const auto many = res.features_sampled(8192, rng);
  double err_few = 0.0, err_many = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    err_few += std::abs(few[i] - exact[i]);
    err_many += std::abs(many[i] - exact[i]);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(Reservoir, RunBatchEqualsRunBitForBit) {
  // Pool threads evolve one const system concurrently; each series must
  // still match the serial run() exactly.
  const auto inputs = batch_inputs();
  OscillatorReservoir res(small_reservoir());
  for (const std::size_t threads : {1u, 4u}) {
    const std::vector<RMatrix> batch = res.run_batch(inputs, threads);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      EXPECT_TRUE(same_bits(batch[i], res.run(inputs[i])))
          << "threads " << threads << " series " << i;
  }
}

TEST(Reservoir, SampledBatchIndependentOfThreadCount) {
  const auto inputs = batch_inputs();
  const OscillatorReservoir res(small_reservoir());
  Rng rng_serial(103), rng_pool(103);
  const std::vector<RMatrix> serial =
      res.run_sampled_batch(inputs, 64, rng_serial, 1);
  const std::vector<RMatrix> pooled =
      res.run_sampled_batch(inputs, 64, rng_pool, 4);
  ASSERT_EQ(serial.size(), inputs.size());
  ASSERT_EQ(pooled.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    EXPECT_TRUE(same_bits(serial[i], pooled[i])) << "series " << i;
}

TEST(Readout, RidgePredictsLinearTarget) {
  Rng rng(96);
  RMatrix x(60, 3);
  std::vector<double> y(60);
  for (std::size_t r = 0; r < 60; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.normal();
    y[r] = 2.0 * x(r, 0) - x(r, 2) + 0.5;  // includes bias
  }
  const Readout ro = train_readout(x, y, 1e-8);
  const auto yhat = predict(ro, x);
  EXPECT_LT(nmse(y, yhat), 1e-10);
}

TEST(Readout, EvaluateSplitsProperly) {
  Rng rng(97);
  RMatrix x(100, 2);
  std::vector<double> y(100);
  for (std::size_t r = 0; r < 100; ++r) {
    x(r, 0) = rng.normal();
    x(r, 1) = rng.normal();
    y[r] = x(r, 0);
  }
  const EvalResult ev = evaluate_readout(x, y, 10, 60, 1e-8);
  EXPECT_LT(ev.train_nmse, 1e-8);
  EXPECT_LT(ev.test_nmse, 1e-8);
}

TEST(Qrc, ReservoirLearnsNarma2) {
  // End-to-end: small quantum reservoir beats the trivial (input-only)
  // predictor on NARMA-2.
  Rng rng(98);
  const SeriesTask task = make_narma(2, 160, rng);
  OscillatorReservoir res(small_reservoir());
  const RMatrix features = res.run(task.input);
  const EvalResult ev = evaluate_readout(features, task.target, 20, 90, 1e-6);
  // Input-only baseline.
  RMatrix input_only(task.input.size(), 1);
  for (std::size_t t = 0; t < task.input.size(); ++t)
    input_only(t, 0) = task.input[t];
  const EvalResult base =
      evaluate_readout(input_only, task.target, 20, 90, 1e-6);
  EXPECT_LT(ev.test_nmse, base.test_nmse);
  EXPECT_LT(ev.test_nmse, 0.6);
}

TEST(Qrc, MoreNeuronsFromSameDynamicsHelp) {
  // The paper's neuron-scaling argument (9 levels -> 81 neurons): at a
  // FIXED physical reservoir, exposing more Fock levels as features can
  // only add information. Fewer "neurons" = coarser readout = worse NMSE.
  Rng rng(99);
  const SeriesTask task = make_narma(2, 260, rng);
  ReservoirConfig few = small_reservoir();
  few.levels = 6;
  few.feature_cutoff = 2;  // 4 neurons
  ReservoirConfig many = few;
  many.feature_cutoff = 4;  // 16 neurons
  OscillatorReservoir r_few(few), r_many(many);
  EXPECT_EQ(r_few.num_features(), 4u);
  EXPECT_EQ(r_many.num_features(), 16u);
  const EvalResult ev_few =
      evaluate_readout(r_few.run(task.input), task.target, 30, 160, 1e-5);
  const EvalResult ev_many =
      evaluate_readout(r_many.run(task.input), task.target, 30, 160, 1e-5);
  EXPECT_LT(ev_many.test_nmse, ev_few.test_nmse);
}

TEST(Esn, EchoStateProperty) {
  Rng rng(100);
  EsnConfig cfg;
  cfg.neurons = 40;
  EchoStateNetwork esn(cfg, rng);
  std::vector<double> tail(120, 0.1);
  esn.reset();
  esn.step(1.0);
  for (double u : tail) esn.step(u);
  const auto sa = esn.state();
  esn.reset();
  esn.step(-1.0);
  for (double u : tail) esn.step(u);
  const auto sb = esn.state();
  double diff = 0.0;
  for (std::size_t i = 0; i < sa.size(); ++i) diff += std::abs(sa[i] - sb[i]);
  EXPECT_LT(diff, 1e-2);
}

TEST(Esn, LearnsNarma2) {
  Rng rng(101);
  const SeriesTask task = make_narma(2, 300, rng);
  EsnConfig cfg;
  cfg.neurons = 60;
  cfg.input_scale = 0.5;
  EchoStateNetwork esn(cfg, rng);
  const EvalResult ev =
      evaluate_readout(esn.run(task.input), task.target, 30, 180, 1e-6);
  EXPECT_LT(ev.test_nmse, 0.3);
}

TEST(Qrc, SignClassificationSineSquare) {
  Rng rng(102);
  const SeriesTask task = make_sine_square(16, 8, rng);
  ReservoirConfig cfg = small_reservoir();
  cfg.input_gain = 0.8;  // classification prefers a stronger drive
  cfg.kappa = 0.3;
  OscillatorReservoir res(cfg);
  const RMatrix features = res.run(task.input);
  const double acc =
      evaluate_sign_accuracy(features, task.target, 8, 72, 1e-6);
  EXPECT_GT(acc, 0.8);  // well above chance
}

}  // namespace
}  // namespace qs
