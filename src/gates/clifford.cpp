#include "gates/clifford.h"

#include <sstream>

#include "common/require.h"
#include "gates/qudit_gates.h"
#include "linalg/metrics.h"

namespace qs {

namespace {

int mod(int a, int d) { return ((a % d) + d) % d; }

}  // namespace

std::string WeylLabel::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0 && z[i] == 0) continue;
    os << " ";
    if (x[i] != 0) os << "X" << i << "^" << x[i];
    if (z[i] != 0) os << "Z" << i << "^" << z[i];
  }
  const std::string s = os.str();
  return s.empty() ? "I" : s;
}

CliffordTableau::CliffordTableau(int sites, int d) : sites_(sites), d_(d) {
  require(sites >= 1, "CliffordTableau: sites >= 1 required");
  require(d >= 2, "CliffordTableau: d >= 2 required");
  // Primality keeps Z_d a field (invertible exponents); composite d would
  // need Smith-normal-form bookkeeping.
  for (int p = 2; p * p <= d; ++p)
    require(d % p != 0, "CliffordTableau: prime dimension required");
  x_images_.resize(static_cast<std::size_t>(sites));
  z_images_.resize(static_cast<std::size_t>(sites));
  for (int i = 0; i < sites; ++i) {
    WeylLabel xi{std::vector<int>(static_cast<std::size_t>(sites), 0),
                 std::vector<int>(static_cast<std::size_t>(sites), 0)};
    WeylLabel zi = xi;
    xi.x[static_cast<std::size_t>(i)] = 1;
    zi.z[static_cast<std::size_t>(i)] = 1;
    x_images_[static_cast<std::size_t>(i)] = std::move(xi);
    z_images_[static_cast<std::size_t>(i)] = std::move(zi);
  }
}

WeylLabel CliffordTableau::apply(const WeylLabel& label) const {
  require(label.x.size() == static_cast<std::size_t>(sites_) &&
              label.z.size() == static_cast<std::size_t>(sites_),
          "CliffordTableau::apply: label size mismatch");
  WeylLabel out{std::vector<int>(static_cast<std::size_t>(sites_), 0),
                std::vector<int>(static_cast<std::size_t>(sites_), 0)};
  for (int i = 0; i < sites_; ++i) {
    const int xi = mod(label.x[static_cast<std::size_t>(i)], d_);
    const int zi = mod(label.z[static_cast<std::size_t>(i)], d_);
    for (int j = 0; j < sites_; ++j) {
      out.x[static_cast<std::size_t>(j)] = mod(
          out.x[static_cast<std::size_t>(j)] +
              xi * x_images_[static_cast<std::size_t>(i)]
                       .x[static_cast<std::size_t>(j)] +
              zi * z_images_[static_cast<std::size_t>(i)]
                       .x[static_cast<std::size_t>(j)],
          d_);
      out.z[static_cast<std::size_t>(j)] = mod(
          out.z[static_cast<std::size_t>(j)] +
              xi * x_images_[static_cast<std::size_t>(i)]
                       .z[static_cast<std::size_t>(j)] +
              zi * z_images_[static_cast<std::size_t>(i)]
                       .z[static_cast<std::size_t>(j)],
          d_);
    }
  }
  return out;
}

void CliffordTableau::compose(const CliffordTableau& other) {
  require(other.sites_ == sites_ && other.d_ == d_,
          "CliffordTableau::compose: shape mismatch");
  for (int i = 0; i < sites_; ++i) {
    x_images_[static_cast<std::size_t>(i)] =
        other.apply(x_images_[static_cast<std::size_t>(i)]);
    z_images_[static_cast<std::size_t>(i)] =
        other.apply(z_images_[static_cast<std::size_t>(i)]);
  }
}

void CliffordTableau::apply_fourier(int site) {
  CliffordTableau f(sites_, d_);
  // F X F^dag = Z; F Z F^dag = X^{-1}.
  auto& fx = f.x_images_[static_cast<std::size_t>(site)];
  fx.x[static_cast<std::size_t>(site)] = 0;
  fx.z[static_cast<std::size_t>(site)] = 1;
  auto& fz = f.z_images_[static_cast<std::size_t>(site)];
  fz.x[static_cast<std::size_t>(site)] = mod(-1, d_);
  fz.z[static_cast<std::size_t>(site)] = 0;
  compose(f);
}

void CliffordTableau::apply_phase(int site) {
  CliffordTableau s(sites_, d_);
  // S X S^dag = X Z; S Z S^dag = Z.
  s.x_images_[static_cast<std::size_t>(site)]
      .z[static_cast<std::size_t>(site)] = 1;
  compose(s);
}

void CliffordTableau::apply_csum(int control, int target) {
  require(control != target, "apply_csum: distinct sites required");
  CliffordTableau cs(sites_, d_);
  // X_c -> X_c X_t;  X_t -> X_t;  Z_c -> Z_c;  Z_t -> Z_t Z_c^{-1}.
  cs.x_images_[static_cast<std::size_t>(control)]
      .x[static_cast<std::size_t>(target)] = 1;
  cs.z_images_[static_cast<std::size_t>(target)]
      .z[static_cast<std::size_t>(control)] = mod(-1, d_);
  compose(cs);
}

void CliffordTableau::apply_swap(int a, int b) {
  require(a != b, "apply_swap: distinct sites required");
  CliffordTableau sw(sites_, d_);
  std::swap(sw.x_images_[static_cast<std::size_t>(a)],
            sw.x_images_[static_cast<std::size_t>(b)]);
  std::swap(sw.z_images_[static_cast<std::size_t>(a)],
            sw.z_images_[static_cast<std::size_t>(b)]);
  compose(sw);
}

namespace {

int symplectic_product(const WeylLabel& u, const WeylLabel& v, int d) {
  int s = 0;
  for (std::size_t i = 0; i < u.x.size(); ++i)
    s += u.x[i] * v.z[i] - u.z[i] * v.x[i];
  return ((s % d) + d) % d;
}

}  // namespace

bool CliffordTableau::is_symplectic() const {
  for (int i = 0; i < sites_; ++i)
    for (int j = 0; j < sites_; ++j) {
      const int xx = symplectic_product(x_images_[static_cast<std::size_t>(i)],
                                        x_images_[static_cast<std::size_t>(j)],
                                        d_);
      const int zz = symplectic_product(z_images_[static_cast<std::size_t>(i)],
                                        z_images_[static_cast<std::size_t>(j)],
                                        d_);
      const int xz = symplectic_product(x_images_[static_cast<std::size_t>(i)],
                                        z_images_[static_cast<std::size_t>(j)],
                                        d_);
      if (xx != 0 || zz != 0) return false;
      if (xz != (i == j ? 1 : 0)) return false;
    }
  return true;
}

Matrix weyl_operator(const WeylLabel& label, int d) {
  require(!label.x.empty(), "weyl_operator: empty label");
  // Site 0 least significant: it is the innermost Kronecker factor.
  std::vector<Matrix> factors;
  for (std::size_t i = label.x.size(); i-- > 0;)
    factors.push_back(weyl(d, label.x[i], label.z[i]));
  return kron_all(factors);
}

bool CliffordTableau::matches_unitary(const Matrix& u, double tol) const {
  for (int i = 0; i < sites_; ++i) {
    WeylLabel xi{std::vector<int>(static_cast<std::size_t>(sites_), 0),
                 std::vector<int>(static_cast<std::size_t>(sites_), 0)};
    WeylLabel zi = xi;
    xi.x[static_cast<std::size_t>(i)] = 1;
    zi.z[static_cast<std::size_t>(i)] = 1;
    for (const WeylLabel& gen : {xi, zi}) {
      const Matrix conj = u * weyl_operator(gen, d_) * u.adjoint();
      const Matrix expect = weyl_operator(apply(gen), d_);
      if (unitary_fidelity(conj, expect) < 1.0 - tol) return false;
    }
  }
  return true;
}

WeylLabel propagate_error(const CliffordTableau& clifford,
                          const WeylLabel& error) {
  return clifford.apply(error);
}

}  // namespace qs
