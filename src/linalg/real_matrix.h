// Dense real matrices and regularized least squares.
//
// The reservoir-computing and tomography modules train linear readouts by
// ridge regression over real feature matrices; this header provides the
// minimal real-linear-algebra support for that (normal equations solved by
// Cholesky factorization).
#ifndef QS_LINALG_REAL_MATRIX_H
#define QS_LINALG_REAL_MATRIX_H

#include <cstddef>
#include <vector>

namespace qs {

/// Dense row-major real matrix with value semantics.
class RMatrix {
 public:
  RMatrix() = default;

  /// Zero-initialized rows x cols matrix.
  RMatrix(std::size_t rows, std::size_t cols);

  /// n x n identity.
  static RMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  RMatrix transpose() const;

  RMatrix& operator+=(const RMatrix& other);
  RMatrix& operator*=(double scalar);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix product.
RMatrix operator*(const RMatrix& a, const RMatrix& b);

/// Matrix-vector product.
std::vector<double> operator*(const RMatrix& a, const std::vector<double>& x);

/// Solves A X = B for symmetric positive definite A via Cholesky.
/// B may have multiple columns. Throws if A is not SPD.
RMatrix cholesky_solve(const RMatrix& a, const RMatrix& b);

/// Ridge regression: returns W minimizing ||X W - Y||^2 + lambda ||W||^2,
/// where X is (samples x features) and Y is (samples x outputs).
/// lambda = 0 is allowed; a small jitter keeps the system well posed.
RMatrix ridge_fit(const RMatrix& x, const RMatrix& y, double lambda);

}  // namespace qs

#endif  // QS_LINALG_REAL_MATRIX_H
