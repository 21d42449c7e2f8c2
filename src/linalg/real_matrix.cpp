#include "linalg/real_matrix.h"

#include <cmath>

#include "common/require.h"

namespace qs {

RMatrix::RMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

RMatrix RMatrix::identity(std::size_t n) {
  RMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

RMatrix RMatrix::transpose() const {
  RMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

RMatrix& RMatrix::operator+=(const RMatrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "RMatrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

RMatrix& RMatrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

RMatrix operator*(const RMatrix& a, const RMatrix& b) {
  require(a.cols() == b.rows(), "RMatrix*: inner dimension mismatch");
  RMatrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* orow = out.data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  return out;
}

std::vector<double> operator*(const RMatrix& a, const std::vector<double>& x) {
  require(a.cols() == x.size(), "RMatrix*vec: dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[j];
    y[i] = acc;
  }
  return y;
}

RMatrix cholesky_solve(const RMatrix& a, const RMatrix& b) {
  require(a.rows() == a.cols(), "cholesky_solve: A must be square");
  require(a.rows() == b.rows(), "cholesky_solve: shape mismatch");
  const std::size_t n = a.rows();
  // Factor A = L L^T.
  RMatrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        require(s > 0.0, "cholesky_solve: matrix is not positive definite");
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Solve L Y = B, then L^T X = Y, column by column.
  RMatrix x(n, b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = b(i, c);
      for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
      y[i] = s / l(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double s = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x(k, c);
      x(ii, c) = s / l(ii, ii);
    }
  }
  return x;
}

RMatrix ridge_fit(const RMatrix& x, const RMatrix& y, double lambda) {
  require(x.rows() == y.rows(), "ridge_fit: sample count mismatch");
  require(lambda >= 0.0, "ridge_fit: lambda must be nonnegative");
  for (std::size_t i = 0; i < x.rows() * x.cols(); ++i)
    require(std::isfinite(x.data()[i]),
            "ridge_fit: non-finite feature value (diverged simulation?)");
  const RMatrix xt = x.transpose();
  RMatrix gram = xt * x;
  // Jitter keeps the normal equations positive definite even for rank-
  // deficient features (constant columns, duplicated probabilities).
  const double jitter = lambda + 1e-10;
  for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += jitter;
  return cholesky_solve(gram, xt * y);
}

}  // namespace qs
