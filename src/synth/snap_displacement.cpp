#include "synth/snap_displacement.h"

#include <cmath>

#include "common/require.h"
#include "common/rng.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "linalg/eigen.h"
#include "linalg/metrics.h"
#include "linalg/types.h"

namespace qs {

namespace {

/// Fast displacement evaluation: D(alpha) = R(phi) V e^{-i r Lam} V^dag
/// R(phi)^dag where H = i(a^dag - a) = V Lam V^dag is parameter-free and
/// R(phi) = diag(e^{i n phi}). Diagonalized once per synthesis call.
class DisplacementFactory {
 public:
  explicit DisplacementFactory(int dim) : dim_(dim) {
    const Matrix a = annihilation(dim);
    Matrix h = (a.adjoint() - a) * kI;  // Hermitian generator
    const EigResult er = eigh(h);
    v_ = er.vectors;
    vdag_ = v_.adjoint();
    lambda_ = er.values;
  }

  /// Returns D(r e^{i phi}).
  Matrix operator()(double r, double phi) const {
    const auto n = static_cast<std::size_t>(dim_);
    // Core = V e^{-i r Lam} V^dag.
    Matrix scaled = v_;
    for (std::size_t j = 0; j < n; ++j) {
      const cplx e = std::exp(cplx{0.0, -r * lambda_[j]});
      for (std::size_t i = 0; i < n; ++i) scaled(i, j) *= e;
    }
    Matrix core = scaled * vdag_;
    // Conjugate by R(phi): D = R core R^dag (row i gains e^{i i phi},
    // column j gains e^{-i j phi}).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        core(i, j) *= std::exp(cplx{0.0, phi * (static_cast<double>(i) -
                                                static_cast<double>(j))});
    return core;
  }

 private:
  int dim_;
  Matrix v_, vdag_;
  std::vector<double> lambda_;
};

/// Parameter layout per layer: [r, phi, theta_0..theta_{d-1}]; one final
/// displacement [r, phi] at the end.
struct AnsatzEval {
  int d;
  int dim;  // padded
  const DisplacementFactory* disp;

  Matrix build(const std::vector<double>& params, int layers) const {
    const auto n = static_cast<std::size_t>(dim);
    Matrix u = Matrix::identity(n);
    std::size_t idx = 0;
    for (int l = 0; l < layers; ++l) {
      const double r = params[idx++];
      const double phi = params[idx++];
      u = (*disp)(r, phi) * u;
      // SNAP on computational levels only; padded levels keep zero phase.
      Matrix s = Matrix::identity(n);
      for (int k = 0; k < d; ++k)
        s(static_cast<std::size_t>(k), static_cast<std::size_t>(k)) =
            std::exp(cplx{0.0, params[idx + static_cast<std::size_t>(k)]});
      idx += static_cast<std::size_t>(d);
      u = s * u;
    }
    const double r = params[idx++];
    const double phi = params[idx++];
    u = (*disp)(r, phi) * u;
    return u;
  }
};

/// Subspace process fidelity |Tr_d(T^dag U_sub)|^2 / d^2 (leakage shrinks
/// the projected trace and is thereby penalized).
double subspace_fidelity(const Matrix& target, const Matrix& padded_u) {
  const std::size_t d = target.rows();
  cplx tr = 0.0;
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j)
      tr += std::conj(target(j, i)) * padded_u(j, i);
  return std::norm(tr) / static_cast<double>(d * d);
}

/// r e^{i phi} for any real r. The optimizer leaves the displacement
/// radius unconstrained, and std::polar requires r >= 0; this is the
/// expression libstdc++'s std::polar evaluates, so results are unchanged.
cplx polar_any_radius(double r, double phi) {
  return {r * std::cos(phi), r * std::sin(phi)};
}

}  // namespace

SnapSynthResult synthesize_single_mode(const Matrix& target,
                                       const SnapSynthOptions& options,
                                       const GateDurations& durations) {
  require(target.is_square() && target.rows() >= 2,
          "synthesize_single_mode: bad target");
  require(target.is_unitary(1e-8),
          "synthesize_single_mode: target must be unitary");
  const int d = static_cast<int>(target.rows());
  // Optimize the truncated-gate circuit directly so the emitted circuit
  // realizes exactly the optimized fidelity; a padded-space evaluation of
  // the same parameters is reported afterwards as a leakage diagnostic.
  const DisplacementFactory disp(d);
  AnsatzEval eval{d, d, &disp};
  Rng rng(options.seed);

  std::vector<double> best_params;
  double best_f = -1.0;
  int best_layers = options.layers;

  for (int layers = options.layers; layers <= options.max_layers;
       layers += 2) {
    const std::size_t nparams =
        static_cast<std::size_t>(layers) * (2 + static_cast<std::size_t>(d)) +
        2;
    for (int restart = 0; restart < options.restarts; ++restart) {
      // Random init: small displacements, uniform phases.
      std::vector<double> params(nparams);
      std::size_t idx = 0;
      for (int l = 0; l < layers; ++l) {
        params[idx++] = 0.3 * std::abs(rng.normal()) + 0.05;
        params[idx++] = rng.uniform(-kPi, kPi);
        for (int k = 0; k < d; ++k) params[idx++] = rng.uniform(-kPi, kPi);
      }
      params[idx++] = 0.3 * std::abs(rng.normal()) + 0.05;
      params[idx++] = rng.uniform(-kPi, kPi);

      auto objective = [&](const std::vector<double>& p) {
        return subspace_fidelity(target, eval.build(p, layers));
      };

      // Adam ascent with central finite-difference gradients.
      std::vector<double> m(nparams, 0.0), v(nparams, 0.0);
      double f = objective(params);
      const double eps = 1e-5;
      for (int it = 1; it <= options.iters; ++it) {
        std::vector<double> grad(nparams);
        for (std::size_t p = 0; p < nparams; ++p) {
          std::vector<double> plus = params, minus = params;
          plus[p] += eps;
          minus[p] -= eps;
          grad[p] = (objective(plus) - objective(minus)) / (2.0 * eps);
        }
        const double lr =
            options.learning_rate / (1.0 + 0.002 * static_cast<double>(it));
        for (std::size_t p = 0; p < nparams; ++p) {
          m[p] = 0.9 * m[p] + 0.1 * grad[p];
          v[p] = 0.999 * v[p] + 0.001 * grad[p] * grad[p];
          const double mh = m[p] / (1.0 - std::pow(0.9, it));
          const double vh = v[p] / (1.0 - std::pow(0.999, it));
          params[p] += lr * mh / (std::sqrt(vh) + 1e-9);
        }
        f = objective(params);
        if (f >= options.target_fidelity) break;
      }
      if (f > best_f) {
        best_f = f;
        best_params = params;
        best_layers = layers;
      }
      if (best_f >= options.target_fidelity) break;
    }
    if (best_f >= options.target_fidelity) break;
  }

  // Leakage diagnostic: evaluate the same parameters on a padded space.
  SnapSynthResult result;
  result.layers = best_layers;
  {
    const int pad_dim = d + options.pad;
    const DisplacementFactory pad_disp(pad_dim);
    AnsatzEval pad_eval{d, pad_dim, &pad_disp};
    result.fidelity_padded =
        subspace_fidelity(target, pad_eval.build(best_params, best_layers));
  }
  Circuit circuit(QuditSpace({d}));
  std::size_t idx = 0;
  for (int l = 0; l < best_layers; ++l) {
    const double r = best_params[idx++];
    const double phi = best_params[idx++];
    circuit.add("D", displacement(d, polar_any_radius(r, phi)), {0},
                durations.displacement);
    std::vector<double> phases(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k) phases[static_cast<std::size_t>(k)] =
        best_params[idx++];
    std::vector<cplx> diag(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k)
      diag[static_cast<std::size_t>(k)] =
          std::exp(cplx{0.0, phases[static_cast<std::size_t>(k)]});
    circuit.add_diagonal("SNAP", std::move(diag), {0}, durations.snap);
  }
  {
    const double r = best_params[idx++];
    const double phi = best_params[idx++];
    circuit.add("D", displacement(d, polar_any_radius(r, phi)), {0},
                durations.displacement);
  }
  result.displacement_count = best_layers + 1;
  result.snap_count = best_layers;
  result.duration = circuit.total_duration();

  // Fidelity of the emitted (d-level) circuit against the target.
  Matrix emitted = Matrix::identity(static_cast<std::size_t>(d));
  for (const Operation& op : circuit.operations()) {
    if (op.diagonal)
      emitted = Matrix::diagonal(op.diag) * emitted;
    else
      emitted = op.matrix * emitted;
  }
  result.fidelity_truncated = unitary_fidelity(target, emitted);
  result.circuit = std::move(circuit);
  return result;
}

SnapSynthResult synthesize_fourier(int d, const SnapSynthOptions& options,
                                   const GateDurations& durations) {
  return synthesize_single_mode(fourier(d), options, durations);
}

}  // namespace qs
