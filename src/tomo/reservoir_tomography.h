// Reservoir-processing quantum state tomography (paper SS II-C, ref [28]).
//
// Protocol: the unknown cavity state is probed by a fixed sequence of
// calibrated displacements, each followed by a transmon-mediated
// photon-number-resolved readout (generalized Q-function sampling; the
// number-resolved variant of the displaced-parity protocol of ref [28] --
// displaced-Fock projectors are informationally complete on the truncated
// space, whereas truncated displaced parities are not). During training,
// known states are sent through the same sequence and a linear map from
// the measurement record to the density-matrix parameters is ridge-fit;
// a physicality projection (PSD, unit trace) is applied on
// reconstruction. Because the map is *learned*, static imperfections such
// as photon loss between preparation and measurement are compensated
// automatically -- the property the paper highlights. The direct
// linear-inversion baseline uses the ideal measurement model and
// therefore inherits the bias.
#ifndef QS_TOMO_RESERVOIR_TOMOGRAPHY_H
#define QS_TOMO_RESERVOIR_TOMOGRAPHY_H

#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/real_matrix.h"

namespace qs {

/// Protocol configuration.
struct TomoConfig {
  int levels = 8;            ///< cavity truncation d
  int num_probes = 16;       ///< number of displacement settings
  double probe_radius = 1.8; ///< probe displacements sampled in this disk
  double loss_gamma = 0.0;   ///< photon-loss before measurement (imperfection)
  std::size_t shots = 0;     ///< readout shots per probe; 0 = exact
  std::uint64_t probe_seed = 11;
  std::size_t threads = 0;   ///< worker threads for train() measurements
                             ///< (0 = hardware concurrency); results are
                             ///< identical for any value
};

/// Hermitian matrix <-> real parameter vector (d^2 entries: diagonal then
/// sqrt(2)-scaled real/imag off-diagonals).
std::vector<double> hermitian_to_params(const Matrix& h);
Matrix params_to_hermitian(const std::vector<double>& params, int d);

/// Random rank-`rank` density matrix (training-set generator).
Matrix random_density(int d, int rank, Rng& rng);

/// The trained tomography engine.
class ReservoirTomography {
 public:
  explicit ReservoirTomography(const TomoConfig& config);

  int levels() const { return cfg_.levels; }
  int num_probes() const { return cfg_.num_probes; }

  /// Features per measurement record: num_probes * levels photon-number
  /// frequencies.
  std::size_t num_features() const {
    return static_cast<std::size_t>(cfg_.num_probes) *
           static_cast<std::size_t>(cfg_.levels);
  }

  /// Measurement record of a state: photon-number distributions after
  /// each probe displacement, with the configured loss applied first and
  /// optional multinomial shot noise.
  std::vector<double> measure(const Matrix& rho, Rng& rng) const;

  /// Fits the linear readout on `training_states` (features -> density
  /// parameters). Measurement noise is resampled per state.
  void train(const std::vector<Matrix>& training_states, double lambda,
             Rng& rng);

  /// Reconstructs a density matrix from a measurement record (requires
  /// train()); applies the physicality projection.
  Matrix reconstruct(const std::vector<double>& features) const;

  /// Direct linear inversion baseline from the ideal (lossless)
  /// measurement model, with the same physicality projection.
  Matrix invert_directly(const std::vector<double>& features,
                         double lambda) const;

 private:
  TomoConfig cfg_;
  std::vector<Matrix> displacements_;  ///< D(a_k)
  std::vector<Matrix> loss_kraus_;
  RMatrix readout_;                ///< (features + 1) x d^2
  RMatrix inversion_design_;       ///< features x d^2 (ideal model)
  bool trained_ = false;
};

}  // namespace qs

#endif  // QS_TOMO_RESERVOIR_TOMOGRAPHY_H
