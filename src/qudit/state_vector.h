// Pure-state simulator over a mixed-radix qudit register.
#ifndef QS_QUDIT_STATE_VECTOR_H
#define QS_QUDIT_STATE_VECTOR_H

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "qudit/space.h"

namespace qs {

/// State vector over a QuditSpace. Supports applying arbitrary (not
/// necessarily unitary) k-local operators by block gather/scatter,
/// measurement, sampling, and expectation values.
class StateVector {
 public:
  /// |0...0> on the given space.
  explicit StateVector(QuditSpace space);

  /// Computational basis state |digits>.
  StateVector(QuditSpace space, const std::vector<int>& digits);

  /// Adopts raw amplitudes (must match the space dimension).
  StateVector(QuditSpace space, std::vector<cplx> amplitudes);

  const QuditSpace& space() const { return space_; }
  std::size_t dimension() const { return amps_.size(); }
  const std::vector<cplx>& amplitudes() const { return amps_; }
  std::vector<cplx>& amplitudes() { return amps_; }

  cplx amplitude(std::size_t index) const { return amps_[index]; }

  /// Resets to the computational basis state |digits> (vacuum when empty)
  /// without reallocating. Lets hot loops reuse one state across runs.
  void reset(const std::vector<int>& digits = {});

  /// Applies operator `op` (D x D where D is the product of the target
  /// sites' dimensions) to `sites`. Site order: sites[0] is the least
  /// significant digit of the operator's basis. Works for non-unitary
  /// operators; no renormalization is performed.
  void apply(const Matrix& op, const std::vector<int>& sites);

  /// Applies a diagonal operator given by its diagonal entries over the
  /// target sites (length D). Cheaper than `apply` for phase gates.
  void apply_diagonal(const std::vector<cplx>& diag,
                      const std::vector<int>& sites);

  /// Squared norm <psi|psi>.
  double norm_squared() const;

  /// Rescales to unit norm. Throws if the state is (numerically) zero.
  void normalize();

  /// Probability of each outcome of measuring site `s` in the
  /// computational basis (length dim(s)).
  std::vector<double> site_probabilities(int site) const;

  /// Projective measurement of `site`: samples an outcome, projects, and
  /// renormalizes. Returns the observed digit.
  int measure_site(int site, Rng& rng);

  /// Samples a full computational-basis outcome without collapsing.
  std::size_t sample_index(Rng& rng) const;

  /// Samples `shots` outcomes; returns a histogram over basis indices.
  std::vector<std::size_t> sample_counts(std::size_t shots, Rng& rng) const;

  /// Expectation value <psi| Op_sites |psi> of a k-local operator.
  cplx expectation(const Matrix& op, const std::vector<int>& sites) const;

  /// Expectation of a diagonal observable given over the full space.
  double expectation_diagonal(const std::vector<double>& diag) const;

  /// Overlap <this|other>.
  cplx overlap(const StateVector& other) const;

  /// For a Kraus set on `sites`, returns the outcome probabilities
  /// ||K_m psi||^2 (sums to 1 for a CPTP set on a normalized state).
  std::vector<double> channel_probabilities(
      const std::vector<Matrix>& kraus, const std::vector<int>& sites) const;

  /// Quantum-trajectory unravelling of a channel: draws one uniform from
  /// `rng`, picks Kraus branch m with probability ||K_m psi||^2, sets
  /// psi <- K_m psi / ||K_m psi|| (a branch K_m = c I leaves psi as it
  /// is), and returns m. The walk is kernels::sample_channel: weights are
  /// computed in order only until the draw falls inside one. Requires a
  /// trace-preserving set (is_cptp; throws std::invalid_argument
  /// otherwise) and a normalized state, which the caller keeps: the
  /// weights are outcome probabilities only on a unit-norm psi.
  std::size_t apply_channel_sampled(const std::vector<Matrix>& kraus,
                                    const std::vector<int>& sites, Rng& rng);

 private:
  QuditSpace space_;
  std::vector<cplx> amps_;
};

}  // namespace qs

#endif  // QS_QUDIT_STATE_VECTOR_H
