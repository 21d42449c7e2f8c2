#include "synth/csum_plan.h"

#include <cmath>

#include "common/require.h"
#include "exec/state_vector_backend.h"
#include "gates/two_qudit.h"
#include "linalg/metrics.h"
#include "linalg/types.h"

namespace qs {

void append_mode_swap(Circuit& circuit, int a, int b,
                      const GateDurations& durations) {
  const int d = circuit.space().dim(static_cast<std::size_t>(a));
  require(d == circuit.space().dim(static_cast<std::size_t>(b)),
          "append_mode_swap: modes must have equal dimension");
  // Full beamsplitter: theta = pi/2 exchanges the modes up to Fock-parity
  // phases; the residual correction is diagonal and factors into local
  // SNAP gates (e^{i pi J_y} acts as |n,m> -> (-1)^m |m,n>).
  //
  // The beamsplitter conserves total photon number, and the exchange is
  // exact only on sectors N <= truncation-1. Physical cavity modes have
  // headroom above the computational d levels, so we build the unitary on
  // a padded space (2d-1 levels keeps every computational sector intact)
  // and restrict to the computational block, which is exactly unitary.
  const int pad_dim = 2 * d - 1;
  const Matrix bs_pad = beamsplitter(pad_dim, pad_dim, kPi / 2.0, 0.0);
  Matrix bs(static_cast<std::size_t>(d) * static_cast<std::size_t>(d),
            static_cast<std::size_t>(d) * static_cast<std::size_t>(d));
  for (int n = 0; n < d; ++n)
    for (int m = 0; m < d; ++m)
      for (int np = 0; np < d; ++np)
        for (int mp = 0; mp < d; ++mp)
          bs(static_cast<std::size_t>(n + d * m),
             static_cast<std::size_t>(np + d * mp)) =
              bs_pad(static_cast<std::size_t>(n + pad_dim * m),
                     static_cast<std::size_t>(np + pad_dim * mp));
  ensure(bs.is_unitary(1e-8),
         "append_mode_swap: computational block is not unitary");
  const Matrix corr = swap_gate(d) * bs.adjoint();
  // Validate diagonality and extract the local phase factors.
  std::vector<double> fa(static_cast<std::size_t>(d), 0.0);
  std::vector<double> fb(static_cast<std::size_t>(d), 0.0);
  for (std::size_t r = 0; r < corr.rows(); ++r)
    for (std::size_t c = 0; c < corr.cols(); ++c)
      if (r != c)
        ensure(std::abs(corr(r, c)) < 1e-8,
               "append_mode_swap: correction is not diagonal");
  const double base = std::arg(corr(0, 0));
  for (int n = 0; n < d; ++n)
    fa[static_cast<std::size_t>(n)] =
        std::arg(corr(static_cast<std::size_t>(n),
                      static_cast<std::size_t>(n))) -
        base;
  for (int m = 0; m < d; ++m)
    fb[static_cast<std::size_t>(m)] = std::arg(
        corr(static_cast<std::size_t>(m) * static_cast<std::size_t>(d),
             static_cast<std::size_t>(m) * static_cast<std::size_t>(d)));
  // Check the factorization f(n) + g(m) reproduces every diagonal phase.
  for (int n = 0; n < d; ++n)
    for (int m = 0; m < d; ++m) {
      const auto i = static_cast<std::size_t>(n + d * m);
      const cplx expect =
          std::exp(cplx{0.0, fa[static_cast<std::size_t>(n)] +
                                 fb[static_cast<std::size_t>(m)]});
      ensure(std::abs(corr(i, i) - expect) < 1e-8,
             "append_mode_swap: correction does not factor locally");
    }

  circuit.add("BS", bs, {a, b}, 2.0 * durations.beamsplitter);
  std::vector<cplx> da(static_cast<std::size_t>(d)), db(
      static_cast<std::size_t>(d));
  for (int n = 0; n < d; ++n) {
    da[static_cast<std::size_t>(n)] =
        std::exp(cplx{0.0, fa[static_cast<std::size_t>(n)]});
    db[static_cast<std::size_t>(n)] =
        std::exp(cplx{0.0, fb[static_cast<std::size_t>(n)]});
  }
  circuit.add_diagonal("SNAP", std::move(da), {a}, durations.snap);
  circuit.add_diagonal("SNAP", std::move(db), {b}, durations.snap);
}

namespace {

/// Appends a synthesized single-mode circuit onto `site` of `circuit`.
void append_on_site(Circuit& circuit, const Circuit& single_mode, int site) {
  for (const Operation& op : single_mode.operations()) {
    if (op.diagonal)
      circuit.add_diagonal(op.name, op.diag, {site}, op.duration);
    else
      circuit.add(op.name, op.matrix, {site}, op.duration);
  }
}

/// Appends the cross-Kerr CZ_d between `control` and `target`.
void append_cz(Circuit& circuit, int control, int target, int d,
               const GateDurations& durations) {
  std::vector<cplx> diag(static_cast<std::size_t>(d) *
                         static_cast<std::size_t>(d));
  for (int a = 0; a < d; ++a)
    for (int b = 0; b < d; ++b)
      diag[static_cast<std::size_t>(a + d * b)] =
          std::exp(kI * (kTwoPi * a * b / d));
  circuit.add_diagonal("CK", std::move(diag), {control, target},
                       durations.cross_kerr_full * (d - 1.0) / d);
}

}  // namespace

CsumPlan plan_csum(int d, bool adjacent, const SnapSynthOptions& snap_options,
                   const GateDurations& durations) {
  require(d >= 2, "plan_csum: d >= 2 required");
  const SnapSynthResult f = synthesize_fourier(d, snap_options, durations);
  const Circuit f_dag = f.circuit.inverse();

  CsumPlan plan;
  plan.adjacent = adjacent;
  plan.fourier_fidelity = f.fidelity_truncated;

  if (!adjacent) {
    Circuit circuit(QuditSpace({d, d}));
    append_on_site(circuit, f.circuit, 1);
    append_cz(circuit, 0, 1, d, durations);
    append_on_site(circuit, f_dag, 1);
    const Matrix u = circuit_unitary(circuit);
    plan.unitary_fidelity = unitary_fidelity(csum(d, d), u);
    plan.duration = circuit.total_duration();
    plan.native_ops = static_cast<int>(circuit.size());
    plan.circuit = std::move(circuit);
    return plan;
  }

  // Adjacent cavities: bridge mode (site 2) is co-located with the
  // control; the target mode (site 1) lives in the neighbouring cavity.
  Circuit circuit(QuditSpace({d, d, d}));
  append_mode_swap(circuit, 1, 2, durations);
  append_on_site(circuit, f.circuit, 2);
  append_cz(circuit, 0, 2, d, durations);
  append_on_site(circuit, f_dag, 2);
  append_mode_swap(circuit, 1, 2, durations);
  const Matrix u = circuit_unitary(circuit);
  const Matrix ideal = kron(Matrix::identity(static_cast<std::size_t>(d)),
                            csum(d, d));
  plan.unitary_fidelity = unitary_fidelity(ideal, u);
  plan.duration = circuit.total_duration();
  plan.native_ops = static_cast<int>(circuit.size());
  plan.circuit = std::move(circuit);
  return plan;
}

double estimate_hardware_fidelity(const Circuit& circuit,
                                  const Processor& proc,
                                  const std::vector<int>& site_to_mode) {
  require(site_to_mode.size() == circuit.space().num_sites(),
          "estimate_hardware_fidelity: mapping size mismatch");
  auto participation = [](const std::string& name) {
    if (name.rfind("SNAP", 0) == 0) return 1.0;
    if (name.rfind("D", 0) == 0) return 0.0;
    if (name.rfind("BS", 0) == 0) return 0.3;
    if (name.rfind("CK", 0) == 0) return 0.3;
    if (name.rfind("GIVENS", 0) == 0) return 0.5;
    return 0.5;  // unknown native op: conservative
  };
  double fidelity = 1.0;
  for (const Operation& op : circuit.operations()) {
    double rate = 0.0;
    for (int s : op.sites)
      rate += proc.idle_rate(site_to_mode[static_cast<std::size_t>(s)]);
    const int first_mode = site_to_mode[static_cast<std::size_t>(op.sites[0])];
    rate += participation(op.name) / proc.transmon(proc.cavity_of(first_mode)).t1;
    const double err = 1.0 - std::exp(-op.duration * rate);
    fidelity *= (1.0 - err);
  }
  return fidelity;
}

}  // namespace qs
