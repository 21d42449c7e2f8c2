// reservoir: dense Lindblad dynamics behind quantum reservoir computing
// (see perfbench/README.md for why it exists and what it predicts).
//
// One client calls OscillatorReservoir::run on seeded 16-input NARMA-2
// series with examples/reservoir_predict's configuration (2 modes x 6
// levels, RK4 with 12 steps per input). A job is one series.
#include <cmath>
#include <cstring>

#include "harness.h"

#include "common/rng.h"
#include "linalg/real_matrix.h"
#include "qrc/reservoir.h"
#include "qrc/tasks.h"

namespace perfbench {
namespace {

constexpr int kInputs = 16;
constexpr std::size_t kWarmupInputs = 4;
constexpr double kTolerance = 1e-9;

qs::ReservoirConfig reservoir_config() {
  qs::ReservoirConfig cfg;
  cfg.modes = 2;
  cfg.levels = 6;
  cfg.kappa = 0.35;
  cfg.kerr = 0.6;
  cfg.input_gain = 1.0;
  cfg.rk4_steps_per_tau = 12;
  return cfg;
}

std::vector<double> series(std::uint64_t seed, std::size_t k) {
  qs::Rng rng(qs::split_seed(seed, k));
  return qs::make_narma(2, kInputs, rng).input;
}

/// Every row is a probability vector: entries >= 0 and summing to 1 (the
/// features are all joint Fock populations, so they sum to Tr rho).
bool rows_are_distributions(const qs::RMatrix& f) {
  for (std::size_t r = 0; r < f.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < f.cols(); ++c) {
      if (!(f(r, c) >= -kTolerance)) return false;
      sum += f(r, c);
    }
    if (!(std::fabs(sum - 1.0) <= kTolerance)) return false;
  }
  return f.rows() == static_cast<std::size_t>(kInputs);
}

bool same_bits(const qs::RMatrix& a, const qs::RMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

}  // namespace

Report run_reservoir(const Options& options) {
  Report report;
  pin_to_cpus(1);  // one thread: no migrations between vCPUs
  double setup_s = 0.0;
  std::unique_ptr<qs::OscillatorReservoir> reservoir =
      repeated_setup<qs::OscillatorReservoir>(
          [&] {
            auto r = std::make_unique<qs::OscillatorReservoir>(
                reservoir_config());
            // Warm-up: a few inputs (every code path; no caches to fill).
            std::vector<double> warm =
                series(qs::split_seed(options.seed, 1), 0);
            warm.resize(kWarmupInputs);
            r->run(warm);
            return r;
          },
          options, &setup_s);

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::vector<double> latencies_ms;
  std::size_t bad = 0;
  qs::RMatrix first;
  Usage usage;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const std::vector<double> input = series(options.seed, k);
    const Usage u0 = Usage::now();
    const Clock::time_point start = Clock::now();
    qs::RMatrix features;
    if (options.trace) {
      // The same series through the public step()/features() calls,
      // assembled into the matrix run() would return.
      SpanScope root(log, "qrc.series");
      features = qs::RMatrix(input.size(), reservoir->num_features());
      reservoir->reset();
      for (std::size_t t = 0; t < input.size(); ++t) {
        {
          SpanScope s(log, "qrc.step", root.id());
          reservoir->step(input[t]);
        }
        SpanScope s(log, "qrc.features", root.id());
        const std::vector<double> row = reservoir->features();
        for (std::size_t c = 0; c < row.size(); ++c) features(t, c) = row[c];
      }
    } else {
      features = reservoir->run(input);
    }
    latencies_ms.push_back(1e3 * seconds_since(start));
    usage.add(Usage::now().since(u0));
    if (!rows_are_distributions(features)) ++bad;
    if (k == 0) first = features;
    if (options.rss_probe || seconds_since(t0) >= options.seconds) break;
  }
  // Determinism: series 0 again through run() must repeat bit for bit
  // (in trace runs this also pins step()/features() == run()).
  if (!same_bits(reservoir->run(series(options.seed, 0)), first))
    report.fail_check("series 0 did not repeat bit for bit", 1);

  const std::size_t jobs = latencies_ms.size();
  report.attempted = jobs;
  if (bad > 0)
    report.fail_check(std::to_string(bad) +
                          " feature matrices with a row that is not a "
                          "probability vector",
                      bad);
  report.note("reservoir: " + std::to_string(jobs) + " series of " +
              std::to_string(kInputs) + " inputs, " +
              std::to_string(reservoir->num_features()) + " features");
  if (options.rss_probe) {
    report.add("peak_rss_mb", Usage::now().max_rss_mib, "MiB");
    return report;
  }
  const double n = static_cast<double>(jobs);
  double busy_s = 0.0;
  for (double ms : latencies_ms) busy_s += 1e-3 * ms;
  if (!options.trace) {
    add_end_to_end(report, setup_s, n / busy_s, usage, n, latencies_ms,
                   "one OscillatorReservoir::run over a 16-input series");
    return report;
  }
  add_proc_metrics(report, usage, n);
  report.add("qrc.step_call_us", mean(spans.durations_us("qrc.step")), "us");
  report.add("qrc.features_call_us",
             mean(spans.durations_us("qrc.features")), "us");
  if (!options.spans_out.empty()) spans.write_json(options.spans_out);
  return report;
}

}  // namespace perfbench
