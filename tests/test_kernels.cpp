// Bitwise SIMD-vs-scalar equivalence suite for the kernel layer
// (src/qudit/kernels.h).
//
// The contract under test: every SIMD dispatch tier (specialized,
// generic) and every batched SoA kernel produces amplitudes
// bitwise-identical (EXPECT_EQ, never EXPECT_NEAR) to the kernels::scalar
// reference path, across randomized mixed-radix spaces, block sizes
// 2..16+, odd strides, shuffled multi-site base tables, and every batch
// occupancy 1..StateBatch::kLanes. Alignment of the scratch arenas and
// the dispatch-tier telemetry ride along.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "exec/exec.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "noise/channels.h"
#include "noise/noise_model.h"
#include "qudit/block_plan.h"
#include "qudit/kernels.h"
#include "qudit/state_vector.h"

namespace qs {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kernels::kAlign == 0;
}

std::vector<cplx> random_amplitudes(std::size_t n, Rng& rng) {
  std::vector<cplx> amps(n);
  for (std::size_t i = 0; i < n; ++i)
    amps[i] = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return amps;
}

Matrix random_dense(std::size_t block, Rng& rng) {
  Matrix m = Matrix::zero(block, block);
  for (std::size_t r = 0; r < block; ++r)
    for (std::size_t c = 0; c < block; ++c)
      m(r, c) = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

/// Cyclic-shift monomial with random row coefficients (the Weyl/damping
/// shape OpKernel::analyze classifies as kMonomial).
Matrix random_monomial(std::size_t block, Rng& rng) {
  Matrix m = Matrix::zero(block, block);
  const std::size_t shift = static_cast<std::size_t>(
      rng.integer(1, static_cast<int>(block) - 1));
  for (std::size_t r = 0; r < block; ++r)
    m(r, (r + shift) % block) =
        cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

std::vector<cplx> random_unit_state(std::size_t n, Rng& rng) {
  std::vector<cplx> amps = random_amplitudes(n, rng);
  double n2 = 0.0;
  for (const cplx& a : amps) n2 += std::norm(a);
  for (cplx& a : amps) a /= std::sqrt(n2);
  return amps;
}

std::vector<kernels::OpKernel> analyze_all(const std::vector<Matrix>& ops) {
  std::vector<kernels::OpKernel> out;
  for (const Matrix& m : ops) out.push_back(kernels::OpKernel::analyze(m));
  return out;
}

std::vector<cplx> random_diag(std::size_t block, Rng& rng) {
  std::vector<cplx> diag(block);
  for (std::size_t i = 0; i < block; ++i)
    diag[i] = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return diag;
}

/// Every site-set worth covering on `space`: each single site (strides 1
/// and odd/composite), each adjacent pair (contiguous multi-site runs),
/// a reversed pair, and the ends pair (widest stride gap).
std::vector<std::vector<int>> site_sets(const QuditSpace& space) {
  const int n = static_cast<int>(space.num_sites());
  std::vector<std::vector<int>> sets;
  for (int s = 0; s < n; ++s) sets.push_back({s});
  for (int s = 0; s + 1 < n; ++s) sets.push_back({s, s + 1});
  if (n >= 2) sets.push_back({1, 0});
  if (n >= 3) sets.push_back({0, n - 1});
  return sets;
}

void expect_bitwise_eq(const std::vector<cplx>& a, const std::vector<cplx>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << " amplitude " << i;
}

// ---------------------------------------------------------------------
// Scratch arena alignment (satellite: kAlign contract).
// ---------------------------------------------------------------------

TEST(KernelScratch, BuffersAreCacheLineAligned) {
  kernels::Scratch scratch;
  scratch.reserve_block(33);  // odd size: alignment must not depend on n
  scratch.tile.resize(129);
  EXPECT_TRUE(aligned64(scratch.temp.data()));
  EXPECT_TRUE(aligned64(scratch.out.data()));
  EXPECT_TRUE(aligned64(scratch.tile.data()));
  // Growth re-allocates but must stay aligned.
  scratch.reserve_block(1000);
  EXPECT_TRUE(aligned64(scratch.temp.data()));
  EXPECT_TRUE(aligned64(scratch.out.data()));
}

TEST(KernelScratch, StateBatchPlanesAreCacheLineAligned) {
  kernels::StateBatch batch;
  batch.configure(45);
  EXPECT_TRUE(aligned64(batch.re()));
  EXPECT_TRUE(aligned64(batch.im()));
  batch.reset(7);
  for (std::size_t k = 0; k < kernels::StateBatch::kLanes; ++k) {
    EXPECT_EQ(batch.lane_amplitude(7, k), cplx(1.0, 0.0));
    EXPECT_EQ(batch.lane_norm_squared(k), 1.0);
  }
}

TEST(KernelScratch, DispatchCountsAccumulate) {
  kernels::DispatchCounts a;
  a.specialized = 3;
  a.generic = 2;
  a.scalar = 1;
  a.batched = 4;
  kernels::DispatchCounts b;
  b.scalar = 10;
  b += a;
  EXPECT_EQ(b.specialized, 3u);
  EXPECT_EQ(b.scalar, 11u);
  EXPECT_EQ(b.batched, 4u);
  EXPECT_EQ(b.total(), 16u);  // batched counts separately
}

// ---------------------------------------------------------------------
// Single-state SIMD tiers == scalar oracle, bitwise.
// ---------------------------------------------------------------------

TEST(KernelEquivalence, DenseMatchesScalarAcrossSpacesAndSites) {
  // Mixed-radix spaces chosen to hit specialized blocks (2..5, 9, 16,
  // 25), generic blocks (6, 8, 10, 12, 15, 20), odd strides (3, 15),
  // and stride-1 sites.
  const std::vector<std::vector<int>> spaces = {
      {2, 2, 2, 2, 2}, {3, 5, 2, 3}, {4, 4, 3}, {5, 5, 2}, {2, 3, 4, 5}};
  kernels::DispatchCounts seen;
  for (std::size_t sp = 0; sp < spaces.size(); ++sp) {
    const QuditSpace space(spaces[sp]);
    Rng rng(100 + sp);
    const std::vector<cplx> initial =
        random_amplitudes(space.dimension(), rng);
    for (const std::vector<int>& sites : site_sets(space)) {
      const detail::BlockPlan plan = detail::make_block_plan(space, sites);
      const Matrix op = random_dense(plan.block, rng);

      std::vector<cplx> simd = initial;
      std::vector<cplx> ref = initial;
      kernels::Scratch scratch, ref_scratch;
      kernels::apply_dense(op.data(), plan, simd.data(), scratch);
      kernels::scalar::apply_dense(op.data(), plan, ref.data(),
                                   ref_scratch);
      expect_bitwise_eq(simd, ref, "dense");
      seen += scratch.dispatch;
    }
  }
  // The sweep must have exercised both SIMD tiers, not fallen back
  // everywhere.
  EXPECT_GT(seen.specialized, 0u);
  EXPECT_GT(seen.generic, 0u);
  EXPECT_GT(seen.scalar, 0u);  // isolated-column shapes stay scalar
}

TEST(KernelEquivalence, DiagonalMatchesScalarBitwise) {
  const QuditSpace space({3, 5, 2, 3});
  Rng rng(42);
  const std::vector<cplx> initial = random_amplitudes(space.dimension(), rng);
  for (const std::vector<int>& sites : site_sets(space)) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    const std::vector<cplx> diag = random_diag(plan.block, rng);

    std::vector<cplx> simd = initial;
    std::vector<cplx> ref = initial;
    kernels::Scratch scratch;
    kernels::apply_diagonal(diag.data(), plan, simd.data(), scratch);
    kernels::scalar::apply_diagonal(diag.data(), plan, ref.data());
    expect_bitwise_eq(simd, ref, "diagonal");
  }
}

TEST(KernelEquivalence, MonomialMatchesScalarBitwise) {
  const QuditSpace space({2, 3, 4, 5});
  Rng rng(7);
  const std::vector<cplx> initial = random_amplitudes(space.dimension(), rng);
  for (const std::vector<int>& sites : site_sets(space)) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    const kernels::OpKernel op =
        kernels::OpKernel::analyze(random_monomial(plan.block, rng));
    ASSERT_EQ(op.kind, kernels::OpKernel::Kind::kMonomial);

    std::vector<cplx> simd = initial;
    std::vector<cplx> ref = initial;
    kernels::Scratch scratch, ref_scratch;
    kernels::apply(op, plan, simd.data(), scratch);
    kernels::scalar::apply(op, plan, ref.data(), ref_scratch);
    expect_bitwise_eq(simd, ref, "monomial");
  }
}

TEST(KernelEquivalence, ShuffledBaseRunsMatchScalarBitwise) {
  // Hand-built plan: contiguous runs of 2 bases in shuffled (non-
  // ascending) run order, exercising the table path's run detection on a
  // base sequence make_block_plan would never emit.
  detail::BlockPlan plan;
  plan.block = 2;
  plan.offsets = {0, 12};
  plan.bases = {8, 9, 0, 1, 4, 5};
  plan.contig_run = 2;

  Rng rng(11);
  const std::vector<cplx> initial = random_amplitudes(24, rng);
  const Matrix op = random_dense(2, rng);

  std::vector<cplx> simd = initial;
  std::vector<cplx> ref = initial;
  kernels::Scratch scratch, ref_scratch;
  kernels::apply_dense(op.data(), plan, simd.data(), scratch);
  kernels::scalar::apply_dense(op.data(), plan, ref.data(), ref_scratch);
  expect_bitwise_eq(simd, ref, "shuffled-runs");
  EXPECT_EQ(scratch.dispatch.specialized, 1u);

  // The same table with contig_run == 1 (no adjacent bases) must take
  // the scalar tier and still agree.
  plan.bases = {0, 4, 8};  // base+offset stays unique within 24
  plan.contig_run = 1;
  simd = initial;
  ref = initial;
  kernels::Scratch scratch2, ref_scratch2;
  kernels::apply_dense(op.data(), plan, simd.data(), scratch2);
  kernels::scalar::apply_dense(op.data(), plan, ref.data(), ref_scratch2);
  expect_bitwise_eq(simd, ref, "isolated-runs");
  EXPECT_EQ(scratch2.dispatch.scalar, 1u);
}

TEST(KernelEquivalence, OversizedBlockTakesScalarTier) {
  const QuditSpace space({6, 6});
  Rng rng(13);
  std::vector<cplx> amps = random_amplitudes(space.dimension(), rng);
  std::vector<cplx> ref = amps;
  const detail::BlockPlan plan = detail::make_block_plan(space, {0, 1});
  ASSERT_GT(plan.block, kernels::kMaxSimdBlock);
  const Matrix op = random_dense(plan.block, rng);
  kernels::Scratch scratch, ref_scratch;
  kernels::apply_dense(op.data(), plan, amps.data(), scratch);
  kernels::scalar::apply_dense(op.data(), plan, ref.data(), ref_scratch);
  expect_bitwise_eq(amps, ref, "oversized");
  EXPECT_EQ(scratch.dispatch.scalar, 1u);
  EXPECT_EQ(scratch.dispatch.specialized + scratch.dispatch.generic, 0u);
}

// ---------------------------------------------------------------------
// Batched SoA kernels == per-lane scalar, bitwise.
// ---------------------------------------------------------------------

constexpr std::size_t kW = kernels::StateBatch::kLanes;

/// Loads `states[k]` into lane k of `batch` (states.size() <= kLanes;
/// remaining lanes get copies of state 0 so full-width kernels stay
/// well-defined).
void load_batch(kernels::StateBatch& batch,
                const std::vector<std::vector<cplx>>& states) {
  const std::size_t dim = states[0].size();
  batch.configure(dim);
  batch.reset(0);
  for (std::size_t k = 0; k < kW; ++k) {
    const std::vector<cplx>& src = states[k < states.size() ? k : 0];
    for (std::size_t i = 0; i < dim; ++i) {
      batch.re()[i * kW + k] = src[i].real();
      batch.im()[i * kW + k] = src[i].imag();
    }
  }
}

std::vector<cplx> lane_state(const kernels::StateBatch& batch,
                             std::size_t k) {
  std::vector<cplx> out(batch.dimension());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = batch.lane_amplitude(i, k);
  return out;
}

TEST(BatchKernels, DenseAndMonomialMatchScalarPerLane) {
  const QuditSpace space({3, 5, 2, 3});
  Rng rng(21);
  std::vector<std::vector<cplx>> states;
  for (std::size_t k = 0; k < kW; ++k)
    states.push_back(random_amplitudes(space.dimension(), rng));

  for (const std::vector<int>& sites : site_sets(space)) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    for (const bool monomial : {false, true}) {
      const kernels::OpKernel op = kernels::OpKernel::analyze(
          monomial ? random_monomial(plan.block, rng)
                   : random_dense(plan.block, rng));

      kernels::StateBatch batch;
      load_batch(batch, states);
      kernels::Scratch scratch;
      kernels::batch_apply(op, plan, batch, scratch);
      EXPECT_GT(scratch.dispatch.batched, 0u);

      for (std::size_t k = 0; k < kW; ++k) {
        std::vector<cplx> ref = states[k];
        kernels::Scratch ref_scratch;
        kernels::scalar::apply(op, plan, ref.data(), ref_scratch);
        expect_bitwise_eq(lane_state(batch, k), ref,
                          monomial ? "batch-monomial" : "batch-dense");
      }
    }
  }
}

TEST(BatchKernels, DiagonalMatchesScalarPerLane) {
  const QuditSpace space({2, 3, 4});
  Rng rng(23);
  std::vector<std::vector<cplx>> states;
  for (std::size_t k = 0; k < kW; ++k)
    states.push_back(random_amplitudes(space.dimension(), rng));
  for (const std::vector<int>& sites : site_sets(space)) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    const std::vector<cplx> diag = random_diag(plan.block, rng);
    kernels::StateBatch batch;
    load_batch(batch, states);
    kernels::Scratch scratch;
    kernels::batch_apply_diagonal(diag.data(), plan, batch, scratch);
    for (std::size_t k = 0; k < kW; ++k) {
      std::vector<cplx> ref = states[k];
      kernels::scalar::apply_diagonal(diag.data(), plan, ref.data());
      expect_bitwise_eq(lane_state(batch, k), ref, "batch-diagonal");
    }
  }
}

TEST(BatchKernels, BranchWeightsMatchScalarSamplerPerLane) {
  // The Kraus weights the walk computes, per lane and per branch, are
  // bitwise the scalar sampler's, and both are bitwise the dense
  // reduction accumulate_channel_probabilities keeps. Random operators
  // (not trace preserving) of both shapes, on every site set; even lanes
  // stop at branch 0 (u = 0), odd lanes pass it (u = w_0) to branch 1.
  const QuditSpace space({2, 3, 4});
  Rng rng(31);
  std::vector<std::vector<cplx>> states;
  for (std::size_t k = 0; k < kW; ++k)
    states.push_back(random_amplitudes(space.dimension(), rng));
  for (const std::vector<int>& sites : site_sets(space)) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    const std::vector<Matrix> mats = {random_monomial(plan.block, rng),
                                      random_dense(plan.block, rng)};
    const std::vector<kernels::OpKernel> kraus = analyze_all(mats);
    ASSERT_EQ(kraus[0].kind, kernels::OpKernel::Kind::kMonomial);
    ASSERT_EQ(kraus[1].kind, kernels::OpKernel::Kind::kDense);

    std::vector<std::vector<double>> probs(kW);
    double u[kW];
    for (std::size_t k = 0; k < kW; ++k) {
      probs[k].assign(mats.size(), 0.0);
      kernels::Scratch ref_scratch;
      kernels::accumulate_channel_probabilities(
          mats, plan, states[k].data(), ref_scratch, probs[k].data());
      u[k] = k % 2 == 0 ? 0.0 : probs[k][0];
    }

    kernels::StateBatch batch;
    load_batch(batch, states);
    kernels::Scratch scratch;
    kernels::BranchChoice picks[kW];
    kernels::batch_sample_channel(kraus, plan, batch, u, kW, scratch, picks);
    EXPECT_GT(scratch.dispatch.batched, 0u);

    for (std::size_t k = 0; k < kW; ++k) {
      std::vector<cplx> ref = states[k];
      kernels::Scratch ref_scratch;
      const kernels::BranchChoice want =
          kernels::sample_channel(kraus, plan, ref.data(), u[k], ref_scratch);
      EXPECT_EQ(want.branch, k % 2) << "lane " << k;
      EXPECT_EQ(want.weight, probs[k][k % 2]) << "lane " << k;
      EXPECT_EQ(picks[k].branch, want.branch) << "lane " << k;
      EXPECT_EQ(picks[k].weight, want.weight) << "lane " << k;
      expect_bitwise_eq(lane_state(batch, k), ref, "weighted lane");
    }
  }
}

TEST(BatchKernels, ScaledBranchMatchesScalarSamplerBitwise) {
  // The sampler's fused K psi / sqrt(w) pass is what renormalizes a
  // trajectory: on unnormalized states every lane that takes the loss
  // channel's K_0 ends bitwise the scalar sampler's unit vector.
  const QuditSpace space({3, 5, 2});
  Rng rng(37);
  std::vector<std::vector<cplx>> states;
  for (std::size_t k = 0; k < kW; ++k)
    states.push_back(random_amplitudes(space.dimension(), rng));
  const detail::BlockPlan plan = detail::make_block_plan(space, {1});
  const std::vector<kernels::OpKernel> loss =
      analyze_all(amplitude_damping_channel(5, 0.3));

  kernels::StateBatch batch;
  load_batch(batch, states);
  kernels::Scratch scratch;
  const double u[kW] = {};  // u = 0: every lane stops at K_0
  kernels::BranchChoice picks[kW];
  kernels::batch_sample_channel(loss, plan, batch, u, kW, scratch, picks);

  for (std::size_t k = 0; k < kW; ++k) {
    std::vector<cplx> ref = states[k];
    kernels::Scratch ref_scratch;
    kernels::sample_channel(loss, plan, ref.data(), 0.0, ref_scratch);
    EXPECT_EQ(picks[k].branch, 0u);
    for (std::size_t i = 0; i < space.dimension(); ++i)
      EXPECT_EQ(batch.lane_amplitude(i, k), ref[i])
          << "lane " << k << " amplitude " << i;
    EXPECT_NEAR(batch.lane_norm_squared(k), 1.0, 1e-12);
  }
}

TEST(BatchKernels, SampleIndexMatchesStateVectorBitwise) {
  const QuditSpace space({3, 5, 2});
  Rng rng(37);
  std::vector<std::vector<cplx>> states;
  for (std::size_t k = 0; k < kW; ++k) {
    StateVector psi(space, random_amplitudes(space.dimension(), rng));
    psi.normalize();
    states.push_back(psi.amplitudes());
  }
  kernels::StateBatch batch;
  load_batch(batch, states);

  for (std::size_t k = 0; k < kW; ++k) {
    const StateVector psi(space, states[k]);
    // The lane walk must return the index StateVector's cumulative walk
    // returns for the same uniform draw.
    for (std::uint64_t s = 0; s < 5; ++s) {
      Rng a(1000 + s), b(1000 + s);
      const std::size_t ref_idx = psi.sample_index(a);
      EXPECT_EQ(batch.lane_sample_index(k, b.uniform()), ref_idx);
    }
  }
}

// ---------------------------------------------------------------------
// Kraus-branch sampling: the lazy walk and its c I branches.
// ---------------------------------------------------------------------

TEST(KrausSampler, ClassifiesScaledIdentityBranches) {
  for (const int d : {2, 3, 5}) {
    const auto depol = analyze_all(depolarizing_channel(d, 0.1));
    const auto dephase = analyze_all(dephasing_channel(d, 0.1));
    const auto loss = analyze_all(amplitude_damping_channel(d, 0.1));
    EXPECT_TRUE(depol[0].scaled_identity) << "d=" << d;
    EXPECT_TRUE(dephase[0].scaled_identity) << "d=" << d;
    // Weyl branches (shifts, clock phases) and every damping operator
    // are monomial but not c I.
    for (std::size_t m = 1; m < depol.size(); ++m)
      EXPECT_FALSE(depol[m].scaled_identity) << "d=" << d << " m=" << m;
    for (std::size_t m = 1; m < dephase.size(); ++m)
      EXPECT_FALSE(dephase[m].scaled_identity) << "d=" << d << " m=" << m;
    for (const kernels::OpKernel& k : loss) {
      EXPECT_EQ(k.kind, kernels::OpKernel::Kind::kMonomial);
      EXPECT_FALSE(k.scaled_identity) << "d=" << d;
    }
  }
  // Coefficients must be bitwise equal: one ulp off is not c I.
  Matrix c_identity = Matrix::identity(3) * cplx{0.5, 0.25};
  EXPECT_TRUE(kernels::OpKernel::analyze(c_identity).scaled_identity);
  c_identity(2, 2) = cplx{std::nextafter(0.5, 1.0), 0.25};
  EXPECT_FALSE(kernels::OpKernel::analyze(c_identity).scaled_identity);
}

TEST(KrausSampler, ZeroWeightBranchIsNeverChosen) {
  // Loss from |0>: K_0 keeps all the weight, K_1 and K_2 annihilate it.
  // With the largest draw uniform() returns, the walk must stop at K_0;
  // from (1 - 2^-52)|0> the partial sums end below that draw, and the
  // fall-through must skip the zero-weight K_1 and K_2 as well.
  const QuditSpace space({3});
  const detail::BlockPlan plan = detail::make_block_plan(space, {0});
  const std::vector<kernels::OpKernel> loss =
      analyze_all(amplitude_damping_channel(3, 0.3));
  ASSERT_EQ(loss.size(), 3u);
  const double u_max = 1.0 - std::ldexp(1.0, -53);
  for (const double a0 : {1.0, 1.0 - std::ldexp(1.0, -52)}) {
    std::vector<cplx> amps = {a0, 0.0, 0.0};
    kernels::Scratch scratch;
    const kernels::BranchChoice pick =
        kernels::sample_channel(loss, plan, amps.data(), u_max, scratch);
    EXPECT_EQ(pick.branch, 0u) << "a0=" << a0;
    EXPECT_EQ(pick.weight, a0 * a0) << "a0=" << a0;
    EXPECT_NEAR(std::abs(amps[0]), 1.0, 1e-15);

    kernels::StateBatch batch;
    load_batch(batch, {{a0, 0.0, 0.0}});
    double u[kW];
    std::fill(u, u + kW, u_max);
    kernels::BranchChoice picks[kW];
    kernels::batch_sample_channel(loss, plan, batch, u, kW, scratch, picks);
    for (std::size_t k = 0; k < kW; ++k) {
      EXPECT_EQ(picks[k].branch, 0u) << "a0=" << a0 << " lane " << k;
      EXPECT_EQ(batch.lane_amplitude(0, k), amps[0]) << "lane " << k;
    }
  }
}

TEST(KrausSampler, BatchMatchesScalarPerLaneAtEveryOccupancy) {
  // Lane k of batch_sample_channel is bitwise sample_channel on lane k's
  // state alone -- branch, weight and amplitudes -- for every occupancy,
  // with lanes split across c I and other branches; idle tail lanes and
  // c I lanes keep their amplitudes bit for bit.
  const QuditSpace space({3, 2, 3});
  Rng rng(41);
  const std::vector<std::vector<int>> site_lists = {
      {0}, {1}, {2}, {0, 1}, {2, 0}};
  for (const std::vector<int>& sites : site_lists) {
    const detail::BlockPlan plan = detail::make_block_plan(space, sites);
    const int d = static_cast<int>(plan.block);
    // U K_m is trace preserving whenever {K_m} is, and dense.
    const Matrix rot = random_unitary(d, rng);
    std::vector<Matrix> rotated_loss;
    for (const Matrix& k : amplitude_damping_channel(d, 0.3))
      rotated_loss.push_back(rot * k);
    for (const std::vector<Matrix>& set :
         {amplitude_damping_channel(d, 0.3), depolarizing_channel(d, 0.5),
          dephasing_channel(d, 0.5), rotated_loss}) {
      const std::vector<kernels::OpKernel> kraus = analyze_all(set);
      std::vector<std::vector<cplx>> states;
      for (std::size_t k = 0; k < kW; ++k)
        states.push_back(random_unit_state(space.dimension(), rng));
      double u[kW];
      for (double& x : u) x = rng.uniform();

      for (std::size_t active = 1; active <= kW; ++active) {
        kernels::StateBatch batch;
        load_batch(batch, states);
        kernels::Scratch scratch;
        kernels::BranchChoice picks[kW];
        kernels::batch_sample_channel(kraus, plan, batch, u, active, scratch,
                                      picks);
        std::vector<bool> seen(kraus.size(), false);
        for (std::size_t k = 0; k < kW; ++k) {
          std::vector<cplx> ref = states[k];
          if (k < active) {
            kernels::Scratch ref_scratch;
            const kernels::BranchChoice want = kernels::sample_channel(
                kraus, plan, ref.data(), u[k], ref_scratch);
            EXPECT_EQ(picks[k].branch, want.branch)
                << "active " << active << " lane " << k;
            EXPECT_EQ(picks[k].weight, want.weight)
                << "active " << active << " lane " << k;
            seen[want.branch] = true;
          }
          expect_bitwise_eq(lane_state(batch, k), ref,
                            k < active ? "sampled lane" : "idle lane");
        }
        if (active == kW) {
          EXPECT_GT(std::count(seen.begin(), seen.end(), true), 1)
              << "lanes should split across branches";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Batched compiled trajectories == scalar run_trajectory, bitwise.
// ---------------------------------------------------------------------

NoiseModel mixed_noise() {
  NoiseParams p;
  p.depol_1q = 0.01;
  p.depol_2q = 0.02;
  p.dephase_1q = 0.01;
  p.loss_per_gate = 0.005;
  return NoiseModel(p);
}

Circuit small_circuit(const QuditSpace& space, Rng& rng, int gates) {
  Circuit c(space);
  const int n = static_cast<int>(space.num_sites());
  for (int g = 0; g < gates; ++g) {
    const int s = rng.integer(0, n - 1);
    const int d = space.dim(static_cast<std::size_t>(s));
    if (rng.bernoulli(0.5)) {
      c.add("U1", random_unitary(d, rng), {s});
    } else {
      const int t = (s + 1) % n;
      const int dt = space.dim(static_cast<std::size_t>(t));
      c.add("U2", random_unitary(d * dt, rng), {s, t});
    }
  }
  return c;
}

TEST(BatchTrajectories, EveryOccupancyMatchesScalarRunBitwise) {
  const QuditSpace space({3, 2, 4});
  Rng build(51);
  const Circuit c = small_circuit(space, build, 8);
  const NoiseModel noise = mixed_noise();
  const CompiledCircuit plan(c, noise, PlanOptions::none());
  ASSERT_TRUE(plan.noisy());
  const std::uint64_t seed = 0xfeedu;

  for (std::size_t active = 1; active <= kW; ++active) {
    kernels::StateBatch batch;
    batch.configure(space.dimension());
    batch.reset(0);
    Rng rngs[kW];
    for (std::size_t k = 0; k < active; ++k)
      rngs[k] = Rng(split_seed(seed, k));
    kernels::Scratch scratch;
    scratch.reserve_block(plan.max_block());
    plan.run_trajectory_batch(batch, rngs, active, scratch);

    for (std::size_t k = 0; k < active; ++k) {
      StateVector psi(space);
      Rng ref_rng(split_seed(seed, k));
      kernels::Scratch ref_scratch;
      plan.run_trajectory(psi, ref_rng, ref_scratch);
      for (std::size_t i = 0; i < space.dimension(); ++i)
        EXPECT_EQ(batch.lane_amplitude(i, k), psi.amplitude(i))
            << "active " << active << " lane " << k << " amplitude " << i;
      // Identical RNG stream consumption per lane.
      EXPECT_EQ(rngs[k].draw_seed(), ref_rng.draw_seed());
    }
  }
}

TEST(BatchTrajectories, BackendCountsMatchScalarReferenceBitwise) {
  const QuditSpace space({3, 2, 4});
  Rng build(61);
  const Circuit c = small_circuit(space, build, 6);
  const NoiseModel noise = mixed_noise();
  const TrajectoryBackend backend{noise};

  // Totals straddling the lane width: partial batches, exact multiples,
  // and multi-block (> 16) totals all reduce identically.
  for (const std::size_t shots : {1u, 3u, 8u, 17u, 33u}) {
    ExecutionRequest request(c);
    request.shots = shots;
    request.seed = 777;
    const ExecutionResult result = backend.execute(request);
    EXPECT_GT(result.kernel_dispatch.batched, 0u);

    const CompiledCircuit plan(c, noise);
    std::vector<std::size_t> expected(space.dimension(), 0);
    for (std::size_t t = 0; t < shots; ++t) {
      StateVector psi(space);
      Rng rng(split_seed(777, t));
      kernels::Scratch scratch;
      plan.run_trajectory(psi, rng, scratch);
      ++expected[psi.sample_index(rng)];
    }
    ASSERT_EQ(result.counts.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(result.counts[i], expected[i]) << "shots " << shots;
  }
}

TEST(BatchTrajectories, ThreadCountDoesNotChangeAveragedProbabilities) {
  const QuditSpace space({2, 3, 3});
  Rng build(71);
  const Circuit c = small_circuit(space, build, 6);
  const NoiseModel noise = mixed_noise();

  ExecutionRequest request(c);
  request.trajectories = 37;  // multiple blocks with a partial tail batch
  request.seed = 99;
  const ExecutionResult serial = TrajectoryBackend{noise}.execute(request);
  const ExecutionResult threaded =
      TrajectoryBackend{noise, 4}.execute(request);
  ASSERT_EQ(serial.probabilities.size(), threaded.probabilities.size());
  for (std::size_t i = 0; i < serial.probabilities.size(); ++i)
    EXPECT_EQ(serial.probabilities[i], threaded.probabilities[i]);
}

// ---------------------------------------------------------------------
// Dispatch telemetry surfaces through a session's results.
// ---------------------------------------------------------------------

TEST(DispatchTelemetry, ResultAndSessionCarryKernelTierCounts) {
  const QuditSpace space({3, 2, 4});
  Rng build(81);
  const Circuit c = small_circuit(space, build, 8);

  const StateVectorBackend backend;
  ExecutionSession session(backend);
  ExecutionRequest request(c);
  const ExecutionResult result = session.submit(request);
  EXPECT_GT(result.kernel_dispatch.total(), 0u);
}

// ---------------------------------------------------------------------
// Backend outputs pinned across commits.
// ---------------------------------------------------------------------

/// Every kernel shape on `space`: dense one-site gates on each site (site
/// 0 has stride 1 and takes the scalar tier), dense two-site gates with
/// their sites in both orders, CSUM (monomial) and two-site diagonals.
Circuit pinned_circuit(const QuditSpace& space, Rng& rng) {
  Circuit c(space);
  const int n = static_cast<int>(space.num_sites());
  const auto dim = [&](int s) {
    return space.dim(static_cast<std::size_t>(s));
  };
  for (int s = 0; s < n; ++s) c.add("U1", random_unitary(dim(s), rng), {s});
  for (int s = 0; s + 1 < n; ++s) {
    const int t = s + 1;
    c.add("U2", random_unitary(dim(s) * dim(t), rng), {s, t});
    // CSUM's control is the qudit of smaller (or equal) dimension.
    const int lo = dim(s) <= dim(t) ? s : t;
    const int hi = lo == s ? t : s;
    c.add("CSUM", csum(dim(lo), dim(hi)), {lo, hi});
    c.add("U2r", random_unitary(dim(t) * dim(s), rng), {t, s});
    std::vector<cplx> phases(static_cast<std::size_t>(dim(s) * dim(t)));
    for (cplx& z : phases) z = std::polar(1.0, rng.uniform(0.0, 6.0));
    c.add_diagonal("D2", phases, {t, s});
    c.add("U1", random_unitary(dim(t), rng), {t});
  }
  c.add("U2", random_unitary(dim(n - 1) * dim(0), rng), {n - 1, 0});
  c.add("U1", random_unitary(dim(0), rng), {0});
  return c;
}

TEST(KernelPin, BackendOutputsMatchPinnedDigest) {
  // The SIMD tiers and the scalar oracle walk the same BlockPlan tables,
  // so a block-order bug common to both passes every equivalence test
  // above; this digest pins what the backends compute instead. Like the
  // scenario journal pin, it assumes this toolchain's libm: the circuits
  // draw random_unitary, which samples normal().
  NoiseParams p;
  p.depol_1q = 0.05;
  p.depol_2q = 0.08;
  p.dephase_1q = 0.05;
  p.loss_per_gate = 0.04;
  const NoiseModel noise(p);
  const std::vector<std::vector<int>> spaces = {
      {3, 3, 3, 3}, {2, 3, 4, 3}, {4, 2, 5}};
  std::uint64_t h = fnv::kOffset;
  const auto hash_result = [&h](const ExecutionResult& r) {
    h = fnv::u64(r.counts.size(), h);
    for (std::size_t c : r.counts) h = fnv::u64(c, h);
    h = fnv::u64(r.probabilities.size(), h);
    for (double x : r.probabilities) h = fnv::f64(x, h);
  };
  for (std::size_t sp = 0; sp < spaces.size(); ++sp) {
    const QuditSpace space(spaces[sp]);
    Rng build(300 + sp);
    const Circuit c = pinned_circuit(space, build);

    ExecutionRequest sampled(c);
    sampled.shots = 256;
    sampled.seed = 4242 + sp;
    const ExecutionResult one = TrajectoryBackend{noise, 1}.execute(sampled);
    const ExecutionResult two = TrajectoryBackend{noise, 2}.execute(sampled);
    EXPECT_EQ(one.counts, two.counts) << "space " << sp;
    hash_result(one);
    hash_result(two);

    ExecutionRequest averaged(c);
    averaged.trajectories = 64;
    averaged.seed = 5151 + sp;
    hash_result(TrajectoryBackend{noise}.execute(averaged));

    ExecutionRequest exact(c);
    hash_result(StateVectorBackend{}.execute(exact));
    hash_result(DensityMatrixBackend{noise}.execute(exact));
  }
  EXPECT_EQ(h, 0x9aa23a8d75844e11ull);
}

}  // namespace
}  // namespace qs
