#include "qrc/transmon_probe.h"

#include <cmath>
#include <cstring>

#include "noise/channels.h"

#include "common/require.h"
#include "exec/pool.h"
#include "gates/bosonic.h"
#include "gates/two_qudit.h"
#include "linalg/expm.h"
#include "linalg/types.h"

namespace qs {

namespace {

Matrix build_probe_hamiltonian(const TransmonProbeConfig& cfg) {
  const int d = cfg.cavity_levels;
  const Matrix n_c = number_operator(d);
  const Matrix id_c = Matrix::identity(static_cast<std::size_t>(d));
  const Matrix id_q = Matrix::identity(2);
  Matrix sz(2, 2);
  sz(0, 0) = 1.0;
  sz(1, 1) = -1.0;
  Matrix sx(2, 2);
  sx(0, 1) = sx(1, 0) = 1.0;
  // Site order: qubit is site 0 (least significant), cavity site 1.
  Matrix h = two_site(id_q, n_c) * cplx{cfg.omega_c, 0.0};
  h += two_site(sz, n_c) * cplx{cfg.chi / 2.0, 0.0};
  h += two_site(sx, id_c) * cplx{cfg.rabi / 2.0, 0.0};
  return h;
}

}  // namespace

TransmonProbeReservoir::TransmonProbeReservoir(
    const TransmonProbeConfig& config)
    : cfg_(config),
      space_(QuditSpace({2, config.cavity_levels})),
      probe_unitary_(evolution_unitary(build_probe_hamiltonian(config),
                                       config.probe_time)),
      reset_x_(Matrix{{0.0, 1.0}, {1.0, 0.0}}),
      cavity_plan_(detail::make_block_plan(space_, {1})) {
  require(cfg_.cavity_levels >= 2, "TransmonProbeReservoir: levels >= 2");
  require(cfg_.probes_per_step >= 1 && cfg_.ensemble >= 1,
          "TransmonProbeReservoir: probes and ensemble must be positive");
  require(cfg_.kappa >= 0.0, "TransmonProbeReservoir: negative kappa");
  if (cfg_.kappa > 0.0) {
    const double gamma = 1.0 - std::exp(-cfg_.kappa * cfg_.probe_time);
    const std::vector<Matrix> loss =
        amplitude_damping_channel(cfg_.cavity_levels, gamma);
    require(is_cptp(loss),
            "TransmonProbeReservoir: loss channel is not trace preserving");
    for (const Matrix& k : loss)
      loss_kraus_.push_back(kernels::OpKernel::analyze(k));
  }
}

RMatrix TransmonProbeReservoir::run(const std::vector<double>& input,
                                    Rng& rng) const {
  const int d = cfg_.cavity_levels;
  // Ensemble members are independent stochastic trajectories: give each
  // its own RNG stream (split from a root drawn once from the caller's
  // generator) and fan them out over the exec pool. Per-member records are
  // reduced in member order, so the features are bitwise identical for any
  // thread count. The input series is folded into the root so different
  // inputs get statistically independent ensembles -- common random
  // numbers across inputs would couple the binomial readout noise and
  // mask small genuine response differences.
  std::uint64_t root = rng.draw_seed();
  for (double u : input) {
    std::uint64_t bits;
    std::memcpy(&bits, &u, sizeof bits);
    root = split_seed(root, bits);
  }
  const auto members = static_cast<std::size_t>(cfg_.ensemble);
  std::vector<RMatrix> records(members);
  parallel_for(members, static_cast<std::size_t>(cfg_.threads),
               [&](std::size_t m) {
    Rng member_rng(split_seed(root, m));
    RMatrix record(input.size(), num_features());
    StateVector psi(space_);
    kernels::Scratch scratch;
    for (std::size_t t = 0; t < input.size(); ++t) {
      psi.apply(displacement(d, cplx{cfg_.input_gain * input[t], 0.0}), {1});
      for (int p = 0; p < cfg_.probes_per_step; ++p) {
        psi.apply(probe_unitary_, {0, 1});
        // The draw and walk of StateVector::apply_channel_sampled, with the
        // set checked and analyzed once, in the constructor.
        if (!loss_kraus_.empty())
          kernels::sample_channel(loss_kraus_, cavity_plan_,
                                  psi.amplitudes().data(),
                                  member_rng.uniform(), scratch);
        const int outcome = psi.measure_site(0, member_rng);
        record(t, static_cast<std::size_t>(p)) = outcome;
        if (outcome == 1) psi.apply(reset_x_, {0});  // active reset
      }
    }
    records[m] = std::move(record);
  });

  RMatrix features(input.size(), num_features());
  for (std::size_t m = 0; m < members; ++m)
    for (std::size_t t = 0; t < input.size(); ++t)
      for (std::size_t p = 0; p < num_features(); ++p)
        features(t, p) += records[m](t, p) / cfg_.ensemble;
  return features;
}

SignalTask make_two_tone_task(int segments, int steps_per_segment,
                              double freq_a, double freq_b, Rng& rng) {
  require(segments >= 2 && steps_per_segment >= 4,
          "make_two_tone_task: bad arguments");
  SignalTask task;
  double phase = 0.0;
  for (int s = 0; s < segments; ++s) {
    const bool is_a = rng.bernoulli(0.5);
    const double freq = is_a ? freq_a : freq_b;
    for (int t = 0; t < steps_per_segment; ++t) {
      phase += freq;
      task.input.push_back(std::sin(phase));
      task.target.push_back(is_a ? 1.0 : -1.0);
    }
  }
  return task;
}

}  // namespace qs
