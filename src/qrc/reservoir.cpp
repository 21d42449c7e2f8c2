#include "qrc/reservoir.h"

#include <cmath>

#include "common/require.h"
#include "exec/pool.h"
#include "gates/bosonic.h"
#include "gates/two_qudit.h"

namespace qs {

namespace {

QuditSpace make_space(const ReservoirConfig& cfg) {
  require(cfg.modes >= 1, "OscillatorReservoir: modes >= 1 required");
  require(cfg.levels >= 2, "OscillatorReservoir: levels >= 2 required");
  return QuditSpace::uniform(static_cast<std::size_t>(cfg.modes), cfg.levels);
}

LindbladSystem make_system(const ReservoirConfig& cfg,
                           const QuditSpace& space) {
  LindbladSystem sys(space);
  Hamiltonian h(space);
  const int d = cfg.levels;
  const Matrix n_op = number_operator(d);
  for (int m = 0; m < cfg.modes; ++m) {
    const double omega =
        (static_cast<std::size_t>(m) < cfg.omegas.size())
            ? cfg.omegas[static_cast<std::size_t>(m)]
            : 0.5 * m;  // default detuning ladder
    if (omega != 0.0) h.add("n", n_op * cplx{omega, 0.0}, {m});
    if (cfg.kerr != 0.0) {
      // Self-Kerr chi/2 n(n-1): transmon-inherited anharmonicity.
      Matrix kerr_op(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
      for (int k = 0; k < d; ++k)
        kerr_op(static_cast<std::size_t>(k), static_cast<std::size_t>(k)) =
            0.5 * cfg.kerr * k * (k - 1.0);
      h.add("kerr", std::move(kerr_op), {m});
    }
  }
  // Chain of beamsplitter couplings between consecutive modes.
  const Matrix a = annihilation(d);
  Matrix hop = two_site(a.adjoint(), a);  // a_i^dag a_{i+1}
  hop += hop.adjoint();
  hop *= cplx{cfg.coupling, 0.0};
  for (int m = 0; m + 1 < cfg.modes; ++m) h.add("g", hop, {m, m + 1});
  sys.set_hamiltonian(h);
  for (int m = 0; m < cfg.modes; ++m)
    sys.add_collapse(annihilation(d), {m}, cfg.kappa);
  return sys;
}

}  // namespace

OscillatorReservoir::OscillatorReservoir(const ReservoirConfig& config)
    : cfg_(config),
      space_(make_space(config)),
      system_(make_system(config, space_)),
      rho_(space_) {
  require(cfg_.tau > 0.0 && cfg_.rk4_steps_per_tau >= 1,
          "OscillatorReservoir: bad evolution parameters");
  const int cutoff =
      (cfg_.feature_cutoff <= 0 || cfg_.feature_cutoff > cfg_.levels)
          ? cfg_.levels
          : cfg_.feature_cutoff;
  for (std::size_t i = 0; i < space_.dimension(); ++i) {
    bool keep = true;
    for (std::size_t s = 0; s < space_.num_sites(); ++s)
      if (space_.digit(i, s) >= cutoff) keep = false;
    if (keep) feature_indices_.push_back(i);
  }
}

void OscillatorReservoir::reset() { rho_ = DensityMatrix(space_); }

void OscillatorReservoir::step(double u) { step_state(rho_, u); }

void OscillatorReservoir::step_state(DensityMatrix& rho, double u) const {
  const Matrix d_gate =
      displacement(cfg_.levels, cplx{cfg_.input_gain * u, 0.0});
  rho.apply_unitary(d_gate, {0});
  // RK4 stability bound: dt * ||H|| must stay well below ~2.8. The Kerr
  // term dominates at high Fock levels, so derive a floor on the step
  // count from the spectral scale instead of trusting the configured one.
  const int d = cfg_.levels;
  const double h_scale = 0.5 * std::abs(cfg_.kerr) * (d - 1.0) * (d - 2.0) +
                         0.5 * (cfg_.modes - 1.0) * (d - 1.0) +
                         2.0 * std::abs(cfg_.coupling) * d + cfg_.kappa * d;
  const int min_steps =
      static_cast<int>(std::ceil(cfg_.tau * h_scale / 1.5)) + 1;
  system_.evolve(rho.matrix(), cfg_.tau,
                 std::max(cfg_.rk4_steps_per_tau, min_steps));
  // RK4 drift on a truncated space slowly leaks trace; renormalize to keep
  // probabilities interpretable as measurement frequencies.
  rho.normalize();
}

std::vector<double> OscillatorReservoir::features_of(
    const DensityMatrix& rho) const {
  const auto probs = rho.probabilities();
  std::vector<double> out;
  out.reserve(feature_indices_.size());
  for (std::size_t idx : feature_indices_) out.push_back(probs[idx]);
  return out;
}

std::vector<double> OscillatorReservoir::features_sampled_of(
    const DensityMatrix& rho, std::size_t shots, Rng& rng) const {
  require(shots >= 1, "features_sampled: shots >= 1 required");
  const auto counts = rho.sample_counts(shots, rng);
  std::vector<double> freq;
  freq.reserve(feature_indices_.size());
  for (std::size_t idx : feature_indices_)
    freq.push_back(static_cast<double>(counts[idx]) /
                   static_cast<double>(shots));
  return freq;
}

std::vector<double> OscillatorReservoir::features() const {
  return features_of(rho_);
}

std::vector<double> OscillatorReservoir::features_sampled(std::size_t shots,
                                                          Rng& rng) {
  return features_sampled_of(rho_, shots, rng);
}

RMatrix OscillatorReservoir::run_state(DensityMatrix& rho,
                                       const std::vector<double>& input,
                                       std::size_t shots, Rng* rng) const {
  RMatrix features_matrix(input.size(), num_features());
  for (std::size_t t = 0; t < input.size(); ++t) {
    step_state(rho, input[t]);
    const auto f = rng == nullptr ? features_of(rho)
                                  : features_sampled_of(rho, shots, *rng);
    for (std::size_t j = 0; j < f.size(); ++j) features_matrix(t, j) = f[j];
  }
  return features_matrix;
}

RMatrix OscillatorReservoir::run(const std::vector<double>& input) {
  reset();
  return run_state(rho_, input, 0, nullptr);
}

RMatrix OscillatorReservoir::run_sampled(const std::vector<double>& input,
                                         std::size_t shots, Rng& rng) {
  reset();
  return run_state(rho_, input, shots, &rng);
}

std::vector<RMatrix> OscillatorReservoir::run_batch(
    const std::vector<std::vector<double>>& inputs,
    std::size_t threads) const {
  std::vector<RMatrix> results(inputs.size());
  parallel_for(inputs.size(), threads, [&](std::size_t i) {
    DensityMatrix rho(space_);
    results[i] = run_state(rho, inputs[i], 0, nullptr);
  });
  return results;
}

std::vector<RMatrix> OscillatorReservoir::run_sampled_batch(
    const std::vector<std::vector<double>>& inputs, std::size_t shots,
    Rng& rng, std::size_t threads) const {
  const std::uint64_t root = rng.draw_seed();
  std::vector<RMatrix> results(inputs.size());
  parallel_for(inputs.size(), threads, [&](std::size_t i) {
    Rng series_rng(split_seed(root, i));
    DensityMatrix rho(space_);
    results[i] = run_state(rho, inputs[i], shots, &series_rng);
  });
  return results;
}

}  // namespace qs
