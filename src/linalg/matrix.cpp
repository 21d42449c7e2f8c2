#include "linalg/matrix.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/require.h"

namespace qs {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cplx{0.0, 0.0}) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<cplx>> init) {
  rows_ = init.size();
  cols_ = rows_ > 0 ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    require(row.size() == cols_, "Matrix: ragged initializer");
    for (const cplx& v : row) data_.push_back(v);
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zero(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::diagonal(const std::vector<cplx>& entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require(rows_ == other.rows_ && cols_ == other.cols_,
          "Matrix-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(cplx scalar) {
  for (cplx& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out(c, r) = std::conj((*this)(r, c));
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::conjugate() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] = std::conj(data_[i]);
  return out;
}

cplx Matrix::trace() const {
  require(is_square(), "Matrix::trace: square matrix required");
  cplx t = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (const cplx& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (const cplx& v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool Matrix::is_hermitian(double tol) const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r; c < cols_; ++c)
      if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol)
        return false;
  return true;
}

bool Matrix::is_unitary(double tol) const {
  if (!is_square()) return false;
  const Matrix prod = adjoint() * (*this);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) {
      const cplx expect = (r == c) ? cplx{1.0, 0.0} : cplx{0.0, 0.0};
      if (std::abs(prod(r, c) - expect) > tol) return false;
    }
  return true;
}

std::string Matrix::to_string(int digits) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[ ";
    for (std::size_t c = 0; c < cols_; ++c) {
      const cplx v = (*this)(r, c);
      os << v.real() << (v.imag() >= 0 ? "+" : "") << v.imag() << "i  ";
    }
    os << "]\n";
  }
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, cplx scalar) { return a *= scalar; }
Matrix operator*(cplx scalar, Matrix a) { return a *= scalar; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "Matrix*: inner dimension mismatch");
  Matrix out(a.rows(), b.cols());
  // i-k-j loop order: streams through b and out rows contiguously.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const cplx aik = a(i, k);
      if (aik == cplx{0.0, 0.0}) continue;
      const cplx* brow = b.data() + k * b.cols();
      cplx* orow = out.data() + i * out.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

std::vector<cplx> operator*(const Matrix& a, const std::vector<cplx>& x) {
  require(a.cols() == x.size(), "Matrix*vec: dimension mismatch");
  std::vector<cplx> y(a.rows(), cplx{0.0, 0.0});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const cplx* row = a.data() + i * a.cols();
    cplx acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t ar = 0; ar < a.rows(); ++ar)
    for (std::size_t ac = 0; ac < a.cols(); ++ac) {
      const cplx av = a(ar, ac);
      if (av == cplx{0.0, 0.0}) continue;
      for (std::size_t br = 0; br < b.rows(); ++br)
        for (std::size_t bc = 0; bc < b.cols(); ++bc)
          out(ar * b.rows() + br, ac * b.cols() + bc) = av * b(br, bc);
    }
  return out;
}

Matrix kron_all(const std::vector<Matrix>& factors) {
  require(!factors.empty(), "kron_all: empty factor list");
  Matrix out = factors.front();
  for (std::size_t i = 1; i < factors.size(); ++i) out = kron(out, factors[i]);
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.rows() && a.cols() == b.cols(),
          "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

cplx trace_of_product(const Matrix& a, const Matrix& b) {
  require(a.rows() == b.cols() && a.cols() == b.rows(),
          "trace_of_product: shape mismatch");
  cplx t = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    cplx diag = 0.0;
    for (std::size_t k = 0; k < a.cols(); ++k) diag += a(i, k) * b(k, i);
    t += diag;
  }
  return t;
}

cplx inner(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  require(a.size() == b.size(), "inner: size mismatch");
  cplx s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

double norm(const std::vector<cplx>& v) {
  double s = 0.0;
  for (const cplx& x : v) s += std::norm(x);
  return std::sqrt(s);
}

}  // namespace qs
