// Analog quantum reservoir with transmon measurement backaction
// (paper SS II-C, following ref [27]).
//
// A single cavity mode is dispersively coupled to a transmon qubit:
//
//   H = omega_c n + (chi/2) n sigma_z + (Omega/2) sigma_x.
//
// Microwave input is fed by displacing the cavity; the transmon is driven
// and periodically measured, and "the measurements' back-action on the
// oscillator creates non-unitary evolution, enriching dynamics beyond
// what a closed system could achieve". The per-step measurement record is
// the feature vector of the trainable classical layer.
#ifndef QS_QRC_TRANSMON_PROBE_H
#define QS_QRC_TRANSMON_PROBE_H

#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/real_matrix.h"
#include "qudit/block_plan.h"
#include "qudit/kernels.h"
#include "qudit/space.h"
#include "qudit/state_vector.h"

namespace qs {

/// Configuration of the cavity-transmon probe reservoir.
struct TransmonProbeConfig {
  int cavity_levels = 8;
  double chi = 1.0;          ///< dispersive shift (rad per unit time)
  double omega_c = 0.3;      ///< cavity detuning
  double rabi = 0.8;         ///< transmon drive amplitude
  double kappa = 0.3;        ///< cavity photon loss rate (fading memory),
                             ///< applied as sampled jumps per probe cycle
  double probe_time = 0.7;   ///< evolution time per probe cycle
  int probes_per_step = 4;   ///< measurement cycles per input step
  double input_gain = 0.5;   ///< displacement per unit input
  int ensemble = 24;         ///< stochastic runs averaged per feature
  int threads = 0;           ///< worker threads over ensemble members
                             ///< (0 = hardware concurrency); features are
                             ///< identical for any value
};

/// Stochastic (trajectory-level) reservoir: each run interleaves cavity
/// displacements with dispersive evolution and projective transmon
/// measurements (with active qubit reset), and the features are the
/// ensemble-averaged measurement outcomes.
class TransmonProbeReservoir {
 public:
  explicit TransmonProbeReservoir(const TransmonProbeConfig& config);

  /// probes_per_step features per input step.
  std::size_t num_features() const {
    return static_cast<std::size_t>(cfg_.probes_per_step);
  }

  /// Processes an input series; returns [T x probes_per_step] mean
  /// transmon excitation records, averaged over the ensemble.
  RMatrix run(const std::vector<double>& input, Rng& rng) const;

  const TransmonProbeConfig& config() const { return cfg_; }

 private:
  TransmonProbeConfig cfg_;
  QuditSpace space_;     ///< {2, cavity_levels}: qubit site 0, cavity 1
  Matrix probe_unitary_; ///< exp(-i H probe_time), precomputed
  Matrix reset_x_;       ///< qubit flip for active reset
  /// Cavity loss per probe cycle, analyzed once (empty when kappa = 0),
  /// and the cavity site's block plan it is sampled with.
  std::vector<kernels::OpKernel> loss_kraus_;
  detail::BlockPlan cavity_plan_;
};

/// Signal-classification dataset in the spirit of [27]: segments of two
/// sinusoidal "microwave" classes (different frequencies); the target is
/// the class (+-1) at every step.
struct SignalTask {
  std::vector<double> input;
  std::vector<double> target;
};
SignalTask make_two_tone_task(int segments, int steps_per_segment,
                              double freq_a, double freq_b, Rng& rng);

}  // namespace qs

#endif  // QS_QRC_TRANSMON_PROBE_H
