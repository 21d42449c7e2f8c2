#include <gtest/gtest.h>

#include <cmath>

#include "exec/state_vector_backend.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/metrics.h"
#include "synth/csum_plan.h"
#include "synth/snap_displacement.h"

namespace qs {
namespace {

SnapSynthOptions fast_options() {
  SnapSynthOptions opt;
  opt.layers = 4;
  opt.max_layers = 10;
  opt.iters = 250;
  opt.restarts = 2;
  opt.target_fidelity = 0.99;
  return opt;
}

TEST(SnapSynth, CompilesQutritFourier) {
  const SnapSynthResult r =
      synthesize_fourier(3, fast_options(), GateDurations{});
  EXPECT_GT(r.fidelity_truncated, 0.99);
  EXPECT_GT(r.fidelity_truncated, 0.95);
  EXPECT_EQ(r.displacement_count, r.layers + 1);
  EXPECT_EQ(r.snap_count, r.layers);
  EXPECT_GT(r.duration, 0.0);
}

TEST(SnapSynth, CompilesQubitHadamardLike) {
  const SnapSynthResult r =
      synthesize_fourier(2, fast_options(), GateDurations{});
  EXPECT_GT(r.fidelity_truncated, 0.99);
}

TEST(SnapSynth, EmittedCircuitMatchesReportedFidelity) {
  const SnapSynthResult r =
      synthesize_fourier(3, fast_options(), GateDurations{});
  // Recompute the emitted-circuit fidelity independently.
  Matrix u = Matrix::identity(3);
  for (const Operation& op : r.circuit.operations()) {
    if (op.diagonal)
      u = Matrix::diagonal(op.diag) * u;
    else
      u = op.matrix * u;
  }
  EXPECT_NEAR(unitary_fidelity(fourier(3), u), r.fidelity_truncated, 1e-9);
}

TEST(SnapSynth, RejectsNonUnitaryTarget) {
  Matrix bad(3, 3);
  bad(0, 0) = 2.0;
  EXPECT_THROW(synthesize_single_mode(bad, fast_options(), GateDurations{}),
               std::invalid_argument);
}

TEST(SnapSynth, DiagonalTargetIsEasy) {
  // A SNAP-like diagonal target should reach very high fidelity quickly.
  SnapSynthOptions opt = fast_options();
  opt.layers = 2;
  const Matrix target = snap({0.3, -0.7, 1.1});
  const SnapSynthResult r =
      synthesize_single_mode(target, opt, GateDurations{});
  EXPECT_GT(r.fidelity_truncated, 0.99);
}

TEST(ModeSwap, ExactSwapFromBeamsplitterAndSnap) {
  for (int d : {2, 3, 4, 5}) {
    Circuit c(QuditSpace({d, d}));
    append_mode_swap(c, 0, 1, GateDurations{});
    const Matrix u = circuit_unitary(c);
    EXPECT_GT(unitary_fidelity(swap_gate(d), u), 1.0 - 1e-9) << "d=" << d;
  }
}

TEST(CsumPlan, CoLocatedHighFidelity) {
  const CsumPlan plan = plan_csum(3, false, fast_options(), GateDurations{});
  // Paper claim context (E4): >99% synthesis fidelity in noiseless setting.
  EXPECT_GT(plan.unitary_fidelity, 0.9);
  EXPECT_GT(plan.fourier_fidelity, 0.95);
  EXPECT_FALSE(plan.adjacent);
  EXPECT_GT(plan.duration, 0.0);
  EXPECT_GT(plan.native_ops, 3);
}

TEST(CsumPlan, ExactFourierGivesExactCsum) {
  // With ideal Fourier gates the construction is exact; validate the
  // pipeline by substituting the ideal decomposition.
  const int d = 4;
  Circuit c(QuditSpace({d, d}));
  c.add("F", fourier(d), {1});
  std::vector<cplx> diag(static_cast<std::size_t>(d * d));
  for (int a = 0; a < d; ++a)
    for (int b = 0; b < d; ++b)
      diag[static_cast<std::size_t>(a + d * b)] =
          std::exp(kI * (kTwoPi * a * b / d));
  c.add_diagonal("CK", std::move(diag), {0, 1});
  c.add("Fdag", fourier(d).adjoint(), {1});
  EXPECT_GT(unitary_fidelity(csum(d, d), circuit_unitary(c)), 1.0 - 1e-9);
}

TEST(CsumPlan, AdjacentVariantUsesBridge) {
  const CsumPlan plan = plan_csum(2, true, fast_options(), GateDurations{});
  EXPECT_TRUE(plan.adjacent);
  EXPECT_EQ(plan.circuit.space().num_sites(), 3u);
  EXPECT_GT(plan.unitary_fidelity, 0.9);
  // Bridged variant must be slower than co-located.
  const CsumPlan local = plan_csum(2, false, fast_options(), GateDurations{});
  EXPECT_GT(plan.duration, local.duration);
  EXPECT_GT(plan.native_ops, local.native_ops);
}

TEST(CsumPlan, HardwareFidelityEstimate) {
  const Processor proc = Processor::forecast_device();
  const CsumPlan plan = plan_csum(3, false, fast_options(), GateDurations{});
  const double f = estimate_hardware_fidelity(plan.circuit, proc, {0, 1});
  EXPECT_GT(f, 0.5);
  EXPECT_LT(f, 1.0);
  // Worse transmon -> lower hardware fidelity.
  ProcessorConfig cfg = proc.config();
  cfg.transmon_t1 = 5e-6;
  const Processor worse(cfg);
  EXPECT_LT(estimate_hardware_fidelity(plan.circuit, worse, {0, 1}), f);
}

}  // namespace
}  // namespace qs
