// Qudit Clifford bookkeeping over the Weyl-Heisenberg group.
//
// The paper (SS II-A) singles out CSUM as "the Clifford extension of CNOT
// to qudit states" and notes it is the entangling generator of the
// Clifford basis needed for fault-tolerant qudit simulation. This module
// provides the symplectic (tableau) representation of qudit Cliffords for
// prime d: a Clifford U is recorded by where it sends the Weyl generators
// X_i and Z_i, i.e. by a 2n x 2n symplectic matrix over Z_d (phases
// tracked separately are not needed for the checks performed here).
//
// Used to verify that the gate library's F, S-like, CZ and CSUM act as
// the textbook symplectic maps, and to propagate Weyl errors through
// Clifford circuits (error-tracking without state simulation).
#ifndef QS_GATES_CLIFFORD_H
#define QS_GATES_CLIFFORD_H

#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace qs {

/// A Weyl (generalized Pauli) operator on an n-qudit register, up to
/// phase: prod_i X_i^{x_i} Z_i^{z_i}. Exponents live in Z_d.
struct WeylLabel {
  std::vector<int> x;  ///< X exponents per site
  std::vector<int> z;  ///< Z exponents per site

  std::string to_string() const;
};

/// Symplectic tableau of an n-qudit Clifford over prime dimension d:
/// columns record the images of X_1..X_n, Z_1..Z_n as exponent vectors.
class CliffordTableau {
 public:
  /// Identity tableau.
  CliffordTableau(int sites, int d);

  int sites() const { return sites_; }
  int dim() const { return d_; }

  /// The image of a Weyl label under this Clifford (conjugation).
  WeylLabel apply(const WeylLabel& label) const;

  /// Left-composition: this <- other * this (apply `other` after).
  void compose(const CliffordTableau& other);

  /// In-place generators (acting on the given sites):
  void apply_fourier(int site);          ///< X -> Z, Z -> X^{-1}
  void apply_phase(int site);            ///< X -> XZ, Z -> Z (S gate)
  void apply_csum(int control, int target);
  void apply_swap(int a, int b);

  /// Verifies the symplectic condition (the tableau preserves the
  /// commutator form). True for any product of the generators above.
  bool is_symplectic() const;

  /// Checks this tableau against a dense unitary: for every generator W
  /// in {X_i, Z_i}, U W U^dag must equal the tableau's image of W up to
  /// phase. Exponential in register size; intended for <= 2-3 sites.
  bool matches_unitary(const Matrix& u, double tol = 1e-8) const;

 private:
  /// Columns x_images_[i] / z_images_[i] hold the image exponents of
  /// X_i / Z_i as (x-part, z-part) pairs of length `sites`.
  int sites_;
  int d_;
  std::vector<WeylLabel> x_images_;
  std::vector<WeylLabel> z_images_;
};

/// Dense Weyl operator for a label (for cross-checking; small registers).
Matrix weyl_operator(const WeylLabel& label, int d);

/// Propagates a single-site Weyl error through a Clifford circuit given
/// as a sequence of tableau operations; returns the final error label.
/// The workhorse of Clifford-basis error tracking for qudit codes.
WeylLabel propagate_error(const CliffordTableau& clifford,
                          const WeylLabel& error);

}  // namespace qs

#endif  // QS_GATES_CLIFFORD_H
