// Dense complex matrix type used throughout the simulator stack.
//
// Row-major storage; sizes in this library are small (gates are d^k x d^k
// with d <= ~20 and k <= 2; density matrices reach a few thousand), so a
// straightforward cache-friendly implementation without expression
// templates is appropriate and keeps the code auditable.
#ifndef QS_LINALG_MATRIX_H
#define QS_LINALG_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/types.h"

namespace qs {

/// Dense row-major complex matrix with value semantics.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// Builds from nested initializer lists: Matrix{{a,b},{c,d}}.
  Matrix(std::initializer_list<std::initializer_list<cplx>> init);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// rows x cols zero matrix.
  static Matrix zero(std::size_t rows, std::size_t cols);

  /// Diagonal matrix from the given entries.
  static Matrix diagonal(const std::vector<cplx>& entries);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }
  bool is_square() const { return rows_ == cols_ && rows_ > 0; }

  /// Element access (no bounds check in release path beyond vector's).
  cplx& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  cplx operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw storage access for performance-sensitive inner loops.
  cplx* data() { return data_.data(); }
  const cplx* data() const { return data_.data(); }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(cplx scalar);

  /// Conjugate transpose.
  Matrix adjoint() const;

  /// Transpose (no conjugation).
  Matrix transpose() const;

  /// Elementwise complex conjugate.
  Matrix conjugate() const;

  /// Trace. Requires a square matrix.
  cplx trace() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Max absolute entry.
  double max_abs() const;

  /// True when ||A - A^dag|| is below tol (square matrices only).
  bool is_hermitian(double tol = kTol) const;

  /// True when ||A^dag A - I|| is below tol (square matrices only).
  bool is_unitary(double tol = kTol) const;

  /// Multi-line human-readable rendering (for debugging and examples).
  std::string to_string(int digits = 3) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cplx> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, cplx scalar);
Matrix operator*(cplx scalar, Matrix a);

/// Matrix product. Requires a.cols() == b.rows().
Matrix operator*(const Matrix& a, const Matrix& b);

/// Matrix-vector product. Requires a.cols() == x.size().
std::vector<cplx> operator*(const Matrix& a, const std::vector<cplx>& x);

/// Kronecker product a (x) b.
Matrix kron(const Matrix& a, const Matrix& b);

/// Kronecker product of a list of factors, left to right.
Matrix kron_all(const std::vector<Matrix>& factors);

/// Max absolute elementwise difference; matrices must have equal shapes.
double max_abs_diff(const Matrix& a, const Matrix& b);

/// Tr(a b) = sum_ij a_ij b_ji in O(rows * cols), without forming the
/// product. Requires a.rows() == b.cols() and a.cols() == b.rows(). Sums
/// in the order (a * b).trace() does: the two agree bit for bit on finite
/// entries.
cplx trace_of_product(const Matrix& a, const Matrix& b);

/// Inner product <a|b> of two complex vectors of equal length.
cplx inner(const std::vector<cplx>& a, const std::vector<cplx>& b);

/// Euclidean norm of a complex vector.
double norm(const std::vector<cplx>& v);

}  // namespace qs

#endif  // QS_LINALG_MATRIX_H
