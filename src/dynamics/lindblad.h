// Lindblad master-equation integration.
//
// d rho / dt = -i [H, rho] + sum_k rate_k ( L_k rho L_k^dag
//                                           - 1/2 {L_k^dag L_k, rho} )
//            = A rho + rho A^dag + sum_k J_k rho J_k^dag,
//
// with jump operators J_k = sqrt(rate_k) L_k and the drift
// A = -iH - 1/2 sum_k J_k^dag J_k. A and every J_k are kept as lists of
// their nonzeros in the full space, rebuilt whenever the Hamiltonian or a
// collapse operator is set (in either order), so each product in the
// right-hand side is sparse x dense and costs O(nnz * D) instead of O(D^3).
// Photon loss sqrt(kappa) a has one nonzero per column, so a reservoir of
// lossy modes costs O(D^2) per term. Integration is classic RK4, for
// registers up to a few hundred dimensions (the coupled-oscillator
// reservoir, cavity-transmon tomography setups).
//
// rhs(), evolve() and evolve_recording() allocate their buffers per call
// and never write the system, so concurrent calls on one const
// LindbladSystem are safe (OscillatorReservoir::run_batch relies on it).
#ifndef QS_DYNAMICS_LINDBLAD_H
#define QS_DYNAMICS_LINDBLAD_H

#include <functional>
#include <string>
#include <vector>

#include "dynamics/hamiltonian.h"
#include "linalg/matrix.h"
#include "qudit/density_matrix.h"
#include "qudit/space.h"

namespace qs {

/// Open quantum system: Hamiltonian + collapse operators with rates.
class LindbladSystem {
 public:
  explicit LindbladSystem(QuditSpace space);

  const QuditSpace& space() const { return space_; }

  /// Sets the Hamiltonian from k-local terms.
  void set_hamiltonian(const Hamiltonian& h);

  /// Sets a dense full-space Hamiltonian directly.
  void set_hamiltonian_dense(Matrix h);

  /// Adds collapse operator `op` on `sites` with the given rate (1/s).
  void add_collapse(const Matrix& op, const std::vector<int>& sites,
                    double rate);

  /// Right-hand side of the master equation for the current system; a
  /// linear map on every D x D matrix, Hermitian or not.
  Matrix rhs(const Matrix& rho) const;

  /// Evolves `rho` in place for duration `t` using `steps` RK4 steps.
  void evolve(Matrix& rho, double t, int steps) const;

  /// Evolves and records observable expectation values Tr(rho O_i) at the
  /// end of each of `samples` equal sub-intervals of `t`.
  /// Returns [samples x observables].
  std::vector<std::vector<double>> evolve_recording(
      Matrix& rho, double t, int steps_per_sample, int samples,
      const std::vector<Matrix>& observables) const;

 private:
  /// One nonzero of a full-space operator.
  struct Entry {
    std::size_t row;
    std::size_t col;
    cplx value;
  };
  /// Nonzeros in row-major order.
  using Sparse = std::vector<Entry>;
  /// Per-call buffers of rhs_into (never members: see the file comment).
  struct Scratch;

  /// The nonzeros of `m`, row-major.
  static Sparse nonzeros(const Matrix& m);

  /// Recomputes drift_ from hamiltonian_ and jumps_.
  void rebuild_drift();

  /// out = rhs(rho) using the buffers in `ws`.
  void rhs_into(const Matrix& rho, Matrix& out, Scratch& ws) const;

  QuditSpace space_;
  Sparse hamiltonian_;
  std::vector<Sparse> jumps_;  // sqrt(rate_k) L_k
  Sparse drift_;               // -iH - 1/2 sum_k J_k^dag J_k
};

}  // namespace qs

#endif  // QS_DYNAMICS_LINDBLAD_H
