#include "qudit/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/require.h"

// The vector helpers below pass 256-bit vectors by value between inline
// functions inside this one TU; without -mavx GCC warns that the ABI of
// such calls would differ (psabi). No vector ever crosses a TU boundary,
// so the warning does not apply here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace qs::kernels {

// --- SIMD primitives -----------------------------------------------------
//
// GCC/clang vector extensions: portable across x86-64 baseline (lowered to
// SSE2) and -march=x86-64-v3 (AVX2). Arithmetic is elementwise IEEE with
// the same rounding as scalar code; combined with the global
// -ffp-contract=off this makes each vector lane evaluate bitwise the
// scalar expression tree. Lanes always span independent output columns or
// trajectory states, never the b-indexed reduction (see kernels.h).

namespace {

using v4d = double __attribute__((vector_size(32), aligned(8)));

inline v4d vload(const double* p) {
  v4d v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void vstore(double* p, v4d v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline v4d vbroadcast(double x) { return v4d{x, x, x, x}; }

/// Four lane masks (each all-ones or zero), for bitwise lane selection.
using v4u = std::uint64_t __attribute__((vector_size(32), aligned(8)));

inline v4u vload_mask(const std::uint64_t* p) {
  v4u v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

/// Lane-wise mask ? a : b, bit for bit (no arithmetic touches either).
inline v4d vselect(v4u mask, v4d a, v4d b) {
  v4u ua, ub;
  __builtin_memcpy(&ua, &a, sizeof(ua));
  __builtin_memcpy(&ub, &b, sizeof(ub));
  const v4u r = (ua & mask) | (ub & ~mask);
  v4d out;
  __builtin_memcpy(&out, &r, sizeof(out));
  return out;
}

/// Swaps the two halves of each interleaved complex pair:
/// [r0, i0, r1, i1] -> [i0, r0, i1, r1].
inline v4d swap_pairs(v4d v) {
#if defined(__clang__)
  return __builtin_shufflevector(v, v, 1, 0, 3, 2);
#else
  using v4i = long long __attribute__((vector_size(32)));
  return __builtin_shuffle(v, v4i{1, 0, 3, 2});
#endif
}

/// Column pairs per tile: kTileColumns interleaved complex columns are
/// kTileColumns / 2 v4d vectors wide.
constexpr std::size_t kMaxPairs = kTileColumns / 2;
constexpr std::size_t kTilePitch = 4 * kMaxPairs;  ///< doubles per tile row

inline bool specialized_block(std::size_t block) {
  switch (block) {
    case 2:
    case 3:
    case 4:
    case 5:
    case 9:
    case 16:
    case 25:
      return true;
    default:
      return false;
  }
}

}  // namespace

// --- scalar reference path ----------------------------------------------

namespace scalar {

void apply_dense(const cplx* op, const detail::BlockPlan& plan, cplx* amps,
                 Scratch& scratch) {
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  cplx* temp = scratch.temp.data();
  cplx* out = scratch.out.data();
  const std::size_t* offsets = plan.offsets.data();
  for (std::size_t base : plan.bases)
    dense_block(op, block, amps + base, offsets, temp, out);
}

void apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                    cplx* amps) {
  const std::size_t block = plan.block;
  const std::size_t* offsets = plan.offsets.data();
  for (std::size_t base : plan.bases)
    for (std::size_t a = 0; a < block; ++a) amps[base + offsets[a]] *= diag[a];
}

namespace {

/// Monomial block apply: out[a] = coef[a] * temp[col[a]].
inline void monomial_block(const cplx* coef, const std::size_t* col,
                           std::size_t block, cplx* amps,
                           const std::size_t* offsets, cplx* temp) {
  for (std::size_t a = 0; a < block; ++a) temp[a] = amps[offsets[a]];
  for (std::size_t a = 0; a < block; ++a)
    amps[offsets[a]] = coef[a] * temp[col[a]];
}

}  // namespace

void apply(const OpKernel& op, const detail::BlockPlan& plan, cplx* amps,
           Scratch& scratch) {
  if (op.kind == OpKernel::Kind::kDense) {
    scalar::apply_dense(op.dense.data(), plan, amps, scratch);
    return;
  }
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  cplx* temp = scratch.temp.data();
  const cplx* coef = op.coef.data();
  const std::size_t* col = op.col.data();
  const std::size_t* offsets = plan.offsets.data();
  for (std::size_t base : plan.bases)
    monomial_block(coef, col, block, amps + base, offsets, temp);
}

}  // namespace scalar

// --- single-state SIMD column kernels ------------------------------------
//
// A "column group" is 2 * pairs adjacent amplitude columns viewed as
// interleaved doubles: element a of column c sits at dp[pos2[a] + 2 * c],
// where dp points at the group's first column and pos2 holds the doubled
// element offsets 2 * offsets[a]. Complex arithmetic uses the pair-swap
// identity: for op entry (or, oi) and amplitude vector v = [tr, ti, ...],
//   [or,or,..] * v + [-oi,+oi,..] * swap_pairs(v)
//     = [or*tr - oi*ti, or*ti + oi*tr, ...]
// which is lane-for-lane the scalar complex product.

namespace {

/// Dense matvec over one column group. B == 0 selects the runtime-block
/// generic tier; otherwise B is the compile-time block (specialized tier).
template <int B>
inline void simd_dense_group(const cplx* op, std::size_t block,
                             const std::size_t* pos2, double* dp,
                             std::size_t pairs, double* tile) {
  const std::size_t n = B > 0 ? static_cast<std::size_t>(B) : block;
  for (std::size_t b = 0; b < n; ++b) {
    const double* src = dp + pos2[b];
    double* row = tile + b * kTilePitch;
    for (std::size_t p = 0; p < pairs; ++p)
      vstore(row + 4 * p, vload(src + 4 * p));
  }
  for (std::size_t a = 0; a < n; ++a) {
    const cplx* oprow = op + a * n;
    v4d acc[kMaxPairs];
    for (std::size_t p = 0; p < pairs; ++p) acc[p] = vbroadcast(0.0);
    for (std::size_t b = 0; b < n; ++b) {
      const double or_ = oprow[b].real();
      const double oi = oprow[b].imag();
      const v4d orv = vbroadcast(or_);
      const v4d ois = {-oi, oi, -oi, oi};
      const double* row = tile + b * kTilePitch;
      for (std::size_t p = 0; p < pairs; ++p) {
        const v4d v = vload(row + 4 * p);
        acc[p] = acc[p] + (orv * v + ois * swap_pairs(v));
      }
    }
    double* dst = dp + pos2[a];
    for (std::size_t p = 0; p < pairs; ++p) vstore(dst + 4 * p, acc[p]);
  }
}

/// Monomial apply over one column group: row a <- coef[a] * row col[a].
template <int B>
inline void simd_monomial_group(const cplx* coef, const std::size_t* col,
                                std::size_t block, const std::size_t* pos2,
                                double* dp, std::size_t pairs, double* tile) {
  const std::size_t n = B > 0 ? static_cast<std::size_t>(B) : block;
  for (std::size_t b = 0; b < n; ++b) {
    const double* src = dp + pos2[b];
    double* row = tile + b * kTilePitch;
    for (std::size_t p = 0; p < pairs; ++p)
      vstore(row + 4 * p, vload(src + 4 * p));
  }
  for (std::size_t a = 0; a < n; ++a) {
    const double cr = coef[a].real();
    const double ci = coef[a].imag();
    const v4d crv = vbroadcast(cr);
    const v4d cis = {-ci, ci, -ci, ci};
    const double* row = tile + col[a] * kTilePitch;
    double* dst = dp + pos2[a];
    for (std::size_t p = 0; p < pairs; ++p) {
      const v4d v = vload(row + 4 * p);
      vstore(dst + 4 * p, crv * v + cis * swap_pairs(v));
    }
  }
}

/// Diagonal apply over one column group (in place, no gather).
template <int B>
inline void simd_diag_group(const cplx* diag, std::size_t block,
                            const std::size_t* pos2, double* dp,
                            std::size_t pairs) {
  const std::size_t n = B > 0 ? static_cast<std::size_t>(B) : block;
  for (std::size_t a = 0; a < n; ++a) {
    const double dr = diag[a].real();
    const double di = diag[a].imag();
    const v4d drv = vbroadcast(dr);
    const v4d dis = {-di, di, -di, di};
    double* dst = dp + pos2[a];
    for (std::size_t p = 0; p < pairs; ++p) {
      const v4d v = vload(dst + 4 * p);
      vstore(dst + 4 * p, drv * v + dis * swap_pairs(v));
    }
  }
}

/// Fills scratch.index with doubled element offsets for the SIMD groups.
inline const std::size_t* make_pos2(const detail::BlockPlan& plan,
                                    Scratch& scratch) {
  const std::size_t block = plan.block;
  if (scratch.index.size() < block) scratch.index.resize(block);
  for (std::size_t a = 0; a < block; ++a)
    scratch.index[a] = 2 * plan.offsets[a];
  return scratch.index.data();
}

/// Drives a column-group kernel over the whole span, one contiguous base
/// run at a time: full tiles, then pairs, then a scalar-tail column via
/// `tail` (same arithmetic per lane, so the tail is bitwise the vector
/// lanes). `Group(dp_group, pairs)` applies one group; `Tail(column)`
/// applies one leftover column.
template <typename Group, typename Tail>
inline void for_each_column_group(const detail::BlockPlan& plan, cplx* amps,
                                  Group&& group, Tail&& tail) {
  const std::size_t run = plan.contig_run;
  const std::size_t nruns = plan.bases.size() / run;
  for (std::size_t q = 0; q < nruns; ++q) {
    const std::size_t base = plan.bases[q * run];
    double* dp = reinterpret_cast<double*>(amps + base);
    std::size_t c = 0;
    for (; c + 2 * kMaxPairs <= run; c += 2 * kMaxPairs)
      group(dp + 2 * c, kMaxPairs);
    for (; c + 2 <= run; c += 2) group(dp + 2 * c, std::size_t{1});
    for (; c < run; ++c) tail(amps + base + c);
  }
}

/// True when the plan exposes >= 2 adjacent columns for a SIMD-eligible
/// block; otherwise the scalar tier handles the whole span.
inline bool simd_eligible(const detail::BlockPlan& plan) {
  return plan.block >= 2 && plan.block <= kMaxSimdBlock &&
         plan.contig_run >= 2;
}

/// Invokes `body` with the block size lifted to a compile-time constant
/// for the hot set, or B == 0 (runtime block) for the generic tier.
template <typename Body>
inline void dispatch_block(std::size_t block, Body&& body) {
  switch (block) {
    case 2:
      body(std::integral_constant<int, 2>{});
      break;
    case 3:
      body(std::integral_constant<int, 3>{});
      break;
    case 4:
      body(std::integral_constant<int, 4>{});
      break;
    case 5:
      body(std::integral_constant<int, 5>{});
      break;
    case 9:
      body(std::integral_constant<int, 9>{});
      break;
    case 16:
      body(std::integral_constant<int, 16>{});
      break;
    case 25:
      body(std::integral_constant<int, 25>{});
      break;
    default:
      body(std::integral_constant<int, 0>{});
      break;
  }
}

}  // namespace

// --- public single-state dispatchers -------------------------------------

void apply_dense(const cplx* op, const detail::BlockPlan& plan, cplx* amps,
                 Scratch& scratch) {
  if (!simd_eligible(plan)) {
    ++scratch.dispatch.scalar;
    scalar::apply_dense(op, plan, amps, scratch);
    return;
  }
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  scratch.tile.resize(block * kTilePitch);
  const std::size_t* pos2 = make_pos2(plan, scratch);
  double* tile = scratch.tile.data();
  cplx* temp = scratch.temp.data();
  cplx* out = scratch.out.data();
  const std::size_t* offsets = plan.offsets.data();
  dispatch_block(block, [&](auto b_const) {
    constexpr int kB = decltype(b_const)::value;
    for_each_column_group(
        plan, amps,
        [&](double* dp, std::size_t pairs) {
          simd_dense_group<kB>(op, block, pos2, dp, pairs, tile);
        },
        [&](cplx* column) {
          dense_block(op, block, column, offsets, temp, out);
        });
  });
  if (specialized_block(block))
    ++scratch.dispatch.specialized;
  else
    ++scratch.dispatch.generic;
}

void apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                    cplx* amps, Scratch& scratch) {
  if (!simd_eligible(plan)) {
    ++scratch.dispatch.scalar;
    scalar::apply_diagonal(diag, plan, amps);
    return;
  }
  const std::size_t block = plan.block;
  const std::size_t* pos2 = make_pos2(plan, scratch);
  const std::size_t* offsets = plan.offsets.data();
  dispatch_block(block, [&](auto b_const) {
    constexpr int kB = decltype(b_const)::value;
    for_each_column_group(
        plan, amps,
        [&](double* dp, std::size_t pairs) {
          simd_diag_group<kB>(diag, block, pos2, dp, pairs);
        },
        [&](cplx* column) {
          for (std::size_t a = 0; a < block; ++a) column[offsets[a]] *= diag[a];
        });
  });
  if (specialized_block(block))
    ++scratch.dispatch.specialized;
  else
    ++scratch.dispatch.generic;
}

void apply(const OpKernel& op, const detail::BlockPlan& plan, cplx* amps,
           Scratch& scratch) {
  if (op.kind == OpKernel::Kind::kDense) {
    apply_dense(op.dense.data(), plan, amps, scratch);
    return;
  }
  if (!simd_eligible(plan)) {
    ++scratch.dispatch.scalar;
    scalar::apply(op, plan, amps, scratch);
    return;
  }
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  scratch.tile.resize(block * kTilePitch);
  const std::size_t* pos2 = make_pos2(plan, scratch);
  double* tile = scratch.tile.data();
  cplx* temp = scratch.temp.data();
  const cplx* coef = op.coef.data();
  const std::size_t* col = op.col.data();
  const std::size_t* offsets = plan.offsets.data();
  dispatch_block(block, [&](auto b_const) {
    constexpr int kB = decltype(b_const)::value;
    for_each_column_group(
        plan, amps,
        [&](double* dp, std::size_t pairs) {
          simd_monomial_group<kB>(coef, col, block, pos2, dp, pairs, tile);
        },
        [&](cplx* column) {
          scalar::monomial_block(coef, col, block, column, offsets, temp);
        });
  });
  if (specialized_block(block))
    ++scratch.dispatch.specialized;
  else
    ++scratch.dispatch.generic;
}

// --- OpKernel ------------------------------------------------------------

OpKernel OpKernel::analyze(const Matrix& m) {
  OpKernel op;
  op.dense = m;
  op.block = m.rows();
  op.coef.assign(op.block, cplx{0.0, 0.0});
  op.col.assign(op.block, 0);
  bool monomial = true;
  for (std::size_t r = 0; r < op.block && monomial; ++r) {
    std::size_t nonzeros = 0;
    for (std::size_t c = 0; c < op.block; ++c) {
      const cplx v = m(r, c);
      if (v.real() == 0.0 && v.imag() == 0.0) continue;
      if (++nonzeros > 1) {
        monomial = false;
        break;
      }
      op.coef[r] = v;
      op.col[r] = c;
    }
  }
  if (monomial) {
    op.kind = Kind::kMonomial;
    op.scaled_identity = true;
    for (std::size_t r = 0; r < op.block && op.scaled_identity; ++r)
      op.scaled_identity =
          op.col[r] == r &&
          std::memcmp(&op.coef[r], &op.coef[0], sizeof(cplx)) == 0;
  } else {
    op.coef.clear();
    op.col.clear();
  }
  return op;
}

// --- channel probabilities / expectation (scalar reductions) -------------
//
// The per-block probability reduction `part` accumulates in row order and
// probs[m] accumulates in base order; both orders are the determinism
// contract, so these stay scalar on the single-state path (the Kraus
// samplers below keep the same orders, and their batched variant
// vectorizes across trajectory lanes instead).

void accumulate_channel_probabilities(const std::vector<Matrix>& kraus,
                                      const detail::BlockPlan& plan,
                                      const cplx* amps, Scratch& scratch,
                                      double* probs) {
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  cplx* temp = scratch.temp.data();
  const std::size_t* offsets = plan.offsets.data();
  for (std::size_t base : plan.bases) {
    const cplx* p = amps + base;
    for (std::size_t a = 0; a < block; ++a) temp[a] = p[offsets[a]];
    for (std::size_t m = 0; m < kraus.size(); ++m) {
      const cplx* k = kraus[m].data();
      double part = 0.0;
      for (std::size_t a = 0; a < block; ++a) {
        const cplx* row = k + a * block;
        cplx acc = 0.0;
        for (std::size_t b = 0; b < block; ++b) acc += row[b] * temp[b];
        part += std::norm(acc);
      }
      probs[m] += part;
    }
  }
}

cplx expectation_dense(const cplx* op, const detail::BlockPlan& plan,
                       const cplx* amps, Scratch& scratch) {
  const std::size_t block = plan.block;
  scratch.reserve_block(block);
  cplx* temp = scratch.temp.data();
  const std::size_t* offsets = plan.offsets.data();
  cplx total = 0.0;
  for (std::size_t base : plan.bases) {
    const cplx* p = amps + base;
    for (std::size_t a = 0; a < block; ++a) temp[a] = p[offsets[a]];
    for (std::size_t a = 0; a < block; ++a) {
      const cplx* row = op + a * block;
      cplx acc = 0.0;
      for (std::size_t b = 0; b < block; ++b) acc += row[b] * temp[b];
      total += std::conj(temp[a]) * acc;
    }
  }
  return total;
}

// --- batched trajectory states -------------------------------------------

void StateBatch::configure(std::size_t dimension) {
  dim_ = dimension;
  re_.resize(dimension * kLanes);
  im_.resize(dimension * kLanes);
}

void StateBatch::reset(std::size_t basis_index) {
  std::fill(re_.data(), re_.data() + dim_ * kLanes, 0.0);
  std::fill(im_.data(), im_.data() + dim_ * kLanes, 0.0);
  for (std::size_t k = 0; k < kLanes; ++k) re_[basis_index * kLanes + k] = 1.0;
}

double StateBatch::lane_norm_squared(std::size_t k) const {
  double s = 0.0;
  for (std::size_t i = 0; i < dim_; ++i)
    s += abs2(re_[i * kLanes + k], im_[i * kLanes + k]);
  return s;
}

std::size_t StateBatch::lane_sample_index(std::size_t k, double u) const {
  const double r = u * lane_norm_squared(k);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    acc += abs2(re_[i * kLanes + k], im_[i * kLanes + k]);
    if (r < acc) return i;
  }
  return dim_ - 1;
}

namespace {

constexpr std::size_t kW = StateBatch::kLanes;
static_assert(kW == 8, "batch kernels unroll two v4d vectors per lane row");

/// Counts one batched sweep of a `block`-sized operator in its tier.
inline void count_batched(std::size_t block, DispatchCounts& dispatch) {
  ++dispatch.batched;
  if (specialized_block(block))
    ++dispatch.specialized;
  else if (block <= kMaxSimdBlock)
    ++dispatch.generic;
  else
    ++dispatch.scalar;
}

/// One amplitude row across every lane: lanes 0-3 in r0/i0, 4-7 in r1/i1.
struct LaneRow {
  v4d r0, r1, i0, i1;
};

inline void store_row(double* re, double* im, std::size_t e,
                      const LaneRow& v) {
  vstore(re + e, v.r0);
  vstore(re + e + 4, v.r1);
  vstore(im + e, v.i0);
  vstore(im + e + 4, v.i1);
}

/// One block's rows across every lane, gathered into split tile planes:
/// row a of lane k at re[a * kW + k], im[a * kW + k].
struct TileRows {
  const double* re;
  const double* im;

  LaneRow row(std::size_t a) const {
    return {vload(re + a * kW), vload(re + a * kW + 4), vload(im + a * kW),
            vload(im + a * kW + 4)};
  }
};

/// coef * x[col] for every lane.
inline LaneRow monomial_row(const cplx& coef, std::size_t col,
                            const TileRows& x) {
  const v4d crv = vbroadcast(coef.real());
  const v4d civ = vbroadcast(coef.imag());
  const v4d nciv = -civ;
  const LaneRow t = x.row(col);
  return {crv * t.r0 + nciv * t.i0, crv * t.r1 + nciv * t.i1,
          crv * t.i0 + civ * t.r0, crv * t.i1 + civ * t.r1};
}

/// sum_b row[b] * x[b] for every lane, accumulated in b order.
inline LaneRow dense_row(const cplx* row, std::size_t block,
                         const TileRows& x) {
  LaneRow acc{vbroadcast(0.0), vbroadcast(0.0), vbroadcast(0.0),
              vbroadcast(0.0)};
  for (std::size_t b = 0; b < block; ++b) {
    const v4d orv = vbroadcast(row[b].real());
    const v4d oiv = vbroadcast(row[b].imag());
    const v4d noiv = -oiv;
    const LaneRow t = x.row(b);
    acc.r0 = acc.r0 + (orv * t.r0 + noiv * t.i0);
    acc.r1 = acc.r1 + (orv * t.r1 + noiv * t.i1);
    acc.i0 = acc.i0 + (orv * t.i0 + oiv * t.r0);
    acc.i1 = acc.i1 + (orv * t.i1 + oiv * t.r1);
  }
  return acc;
}

/// Walks the plan's blocks in table order, gathering each block of every
/// lane into the scratch tile x before calling body(base, x, op_row):
/// x.row(a) is the block's row a, and op_row(a) is row a of op * x. Body
/// may overwrite any row of the block in the planes. The operator shape
/// is resolved once, outside the walk.
template <typename Body>
inline void for_each_op_block(const OpKernel& op,
                              const detail::BlockPlan& plan,
                              const StateBatch& batch, Scratch& scratch,
                              Body&& body) {
  const std::size_t block = plan.block;
  const double* re = batch.re();
  const double* im = batch.im();
  scratch.tile.resize(2 * block * kW);
  double* tile_re = scratch.tile.data();
  double* tile_im = tile_re + block * kW;
  const TileRows x{tile_re, tile_im};
  const std::size_t* offsets = plan.offsets.data();
  const auto walk = [&](auto&& op_row) {
    for (std::size_t base : plan.bases) {
      for (std::size_t a = 0; a < block; ++a) {
        const std::size_t e = (base + offsets[a]) * kW;
        vstore(tile_re + a * kW, vload(re + e));
        vstore(tile_re + a * kW + 4, vload(re + e + 4));
        vstore(tile_im + a * kW, vload(im + e));
        vstore(tile_im + a * kW + 4, vload(im + e + 4));
      }
      body(base, x, op_row);
    }
  };
  if (op.kind == OpKernel::Kind::kMonomial) {
    const cplx* coef = op.coef.data();
    const std::size_t* col = op.col.data();
    walk([&](std::size_t a) { return monomial_row(coef[a], col[a], x); });
    return;
  }
  const cplx* dense = op.dense.data();
  walk([&](std::size_t a) { return dense_row(dense + a * block, block, x); });
}

}  // namespace

void batch_apply(const OpKernel& op, const detail::BlockPlan& plan,
                 StateBatch& batch, Scratch& scratch) {
  const std::size_t block = plan.block;
  count_batched(block, scratch.dispatch);
  double* re = batch.re();
  double* im = batch.im();
  const std::size_t* offsets = plan.offsets.data();
  for_each_op_block(
      op, plan, batch, scratch,
      [&](std::size_t base, const TileRows&, auto&& op_row) {
        for (std::size_t a = 0; a < block; ++a)
          store_row(re, im, (base + offsets[a]) * kW, op_row(a));
      });
}

void batch_apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                          StateBatch& batch, Scratch& scratch) {
  const std::size_t block = plan.block;
  double* re = batch.re();
  double* im = batch.im();
  const std::size_t* offsets = plan.offsets.data();
  count_batched(block, scratch.dispatch);
  for (std::size_t base : plan.bases) {
    for (std::size_t a = 0; a < block; ++a) {
      const v4d drv = vbroadcast(diag[a].real());
      const v4d div = vbroadcast(diag[a].imag());
      const v4d ndiv = -div;
      const std::size_t e = (base + offsets[a]) * kW;
      const v4d tr0 = vload(re + e);
      const v4d tr1 = vload(re + e + 4);
      const v4d ti0 = vload(im + e);
      const v4d ti1 = vload(im + e + 4);
      vstore(re + e, drv * tr0 + ndiv * ti0);
      vstore(re + e + 4, drv * tr1 + ndiv * ti1);
      vstore(im + e, drv * ti0 + div * tr0);
      vstore(im + e + 4, drv * ti1 + div * tr1);
    }
  }
}

// --- Kraus-branch sampling -----------------------------------------------
//
// The scalar sampler is the reference; the batched one evaluates the same
// expression trees lane by lane (weights: abs2 summed in row order within
// a block, blocks in base order; apply: (K x) * (1 / sqrt(w)) per
// component), so each lane reproduces the scalar sampler bitwise.

namespace {

/// One state's progress through the lazy walk over Kraus branches.
struct BranchWalk {
  double acc = 0.0;    ///< w_0 + ... + w_m so far
  bool done = false;   ///< u fell inside branch pick.branch
  bool any = false;    ///< some branch so far had nonzero weight
  BranchChoice pick;   ///< the chosen branch, or the last nonzero one

  /// Feeds branch m's weight w; returns true once u < acc. The walk can
  /// stop only at a branch with w > 0: u >= 0, and acc rises only by w.
  bool step(std::size_t m, double w, double u) {
    acc += w;
    if (w > 0.0) {
      pick = {m, w};
      any = true;
    }
    done = u < acc;
    return done;
  }
};

/// ||K psi||^2 of one operator on a single state.
double branch_weight(const OpKernel& k, const detail::BlockPlan& plan,
                     const cplx* amps, cplx* temp) {
  const std::size_t block = plan.block;
  const std::size_t* offsets = plan.offsets.data();
  double w = 0.0;
  for (std::size_t base : plan.bases) {
    for (std::size_t a = 0; a < block; ++a) temp[a] = amps[base + offsets[a]];
    double part = 0.0;
    if (k.kind == OpKernel::Kind::kMonomial) {
      for (std::size_t a = 0; a < block; ++a)
        part += abs2(k.coef[a] * temp[k.col[a]]);
    } else {
      const cplx* kd = k.dense.data();
      for (std::size_t a = 0; a < block; ++a) {
        const cplx* row = kd + a * block;
        cplx acc = 0.0;
        for (std::size_t b = 0; b < block; ++b) acc += row[b] * temp[b];
        part += abs2(acc);
      }
    }
    w += part;
  }
  return w;
}

/// psi <- scale * K psi on a single state, in one pass.
void apply_scaled(const OpKernel& k, const detail::BlockPlan& plan,
                  cplx* amps, double scale, cplx* temp) {
  const std::size_t block = plan.block;
  const std::size_t* offsets = plan.offsets.data();
  const auto put = [&](std::size_t base, std::size_t a, const cplx& v) {
    amps[base + offsets[a]] = {v.real() * scale, v.imag() * scale};
  };
  for (std::size_t base : plan.bases) {
    for (std::size_t a = 0; a < block; ++a) temp[a] = amps[base + offsets[a]];
    if (k.kind == OpKernel::Kind::kMonomial) {
      for (std::size_t a = 0; a < block; ++a)
        put(base, a, k.coef[a] * temp[k.col[a]]);
    } else {
      const cplx* kd = k.dense.data();
      for (std::size_t a = 0; a < block; ++a) {
        const cplx* row = kd + a * block;
        cplx acc = 0.0;
        for (std::size_t b = 0; b < block; ++b) acc += row[b] * temp[b];
        put(base, a, acc);
      }
    }
  }
}

/// w[k] = ||K psi_k||^2 for every lane.
void batch_branch_weights(const OpKernel& k, const detail::BlockPlan& plan,
                          const StateBatch& batch, Scratch& scratch,
                          double* w) {
  const std::size_t block = plan.block;
  count_batched(block, scratch.dispatch);
  v4d w0 = vbroadcast(0.0), w1 = vbroadcast(0.0);
  for_each_op_block(
      k, plan, batch, scratch,
      [&](std::size_t, const TileRows&, auto&& op_row) {
        v4d part0 = vbroadcast(0.0), part1 = vbroadcast(0.0);
        for (std::size_t a = 0; a < block; ++a) {
          const LaneRow v = op_row(a);
          part0 = part0 + (v.r0 * v.r0 + v.i0 * v.i0);
          part1 = part1 + (v.r1 * v.r1 + v.i1 * v.i1);
        }
        w0 = w0 + part0;
        w1 = w1 + part1;
      });
  vstore(w, w0);
  vstore(w + 4, w1);
}

/// Lanes with mask[k] set <- scale[k] * K psi_k; every other lane keeps
/// its amplitudes bit for bit.
void batch_apply_scaled(const OpKernel& k, const detail::BlockPlan& plan,
                        StateBatch& batch, const double* scale,
                        const std::uint64_t* mask, Scratch& scratch) {
  const std::size_t block = plan.block;
  count_batched(block, scratch.dispatch);
  const v4d s0 = vload(scale), s1 = vload(scale + 4);
  const v4u m0 = vload_mask(mask), m1 = vload_mask(mask + 4);
  double* re = batch.re();
  double* im = batch.im();
  const std::size_t* offsets = plan.offsets.data();
  for_each_op_block(
      k, plan, batch, scratch,
      [&](std::size_t base, const TileRows& x, auto&& op_row) {
        for (std::size_t a = 0; a < block; ++a) {
          const LaneRow v = op_row(a);
          const LaneRow old = x.row(a);
          store_row(re, im, (base + offsets[a]) * kW,
                    {vselect(m0, v.r0 * s0, old.r0),
                     vselect(m1, v.r1 * s1, old.r1),
                     vselect(m0, v.i0 * s0, old.i0),
                     vselect(m1, v.i1 * s1, old.i1)});
        }
      });
}

}  // namespace

BranchChoice sample_channel(const std::vector<OpKernel>& kraus,
                            const detail::BlockPlan& plan, cplx* amps,
                            double u, Scratch& scratch) {
  scratch.reserve_block(plan.block);
  cplx* temp = scratch.temp.data();
  BranchWalk walk;
  for (std::size_t m = 0; m < kraus.size() && !walk.done; ++m) {
    const OpKernel& k = kraus[m];
    if (k.scaled_identity) {
      walk.step(m, abs2(k.coef[0]), u);
    } else {
      ++scratch.dispatch.scalar;
      walk.step(m, branch_weight(k, plan, amps, temp), u);
    }
  }
  require(walk.any, "kernels::sample_channel: zero state");
  const OpKernel& k = kraus[walk.pick.branch];
  if (!k.scaled_identity) {
    ++scratch.dispatch.scalar;
    apply_scaled(k, plan, amps, 1.0 / std::sqrt(walk.pick.weight), temp);
  }
  return walk.pick;
}

void batch_sample_channel(const std::vector<OpKernel>& kraus,
                          const detail::BlockPlan& plan, StateBatch& batch,
                          const double* u, std::size_t active,
                          Scratch& scratch, BranchChoice* picks) {
  BranchWalk walks[kW];
  std::size_t open = active;
  double w[kW];
  for (std::size_t m = 0; m < kraus.size() && open > 0; ++m) {
    const OpKernel& k = kraus[m];
    if (k.scaled_identity)
      std::fill(w, w + kW, abs2(k.coef[0]));
    else
      batch_branch_weights(k, plan, batch, scratch, w);
    for (std::size_t lane = 0; lane < active; ++lane)
      if (!walks[lane].done && walks[lane].step(m, w[lane], u[lane])) --open;
  }
  for (std::size_t lane = 0; lane < active; ++lane) {
    require(walks[lane].any, "kernels::batch_sample_channel: zero state");
    picks[lane] = walks[lane].pick;
  }
  // One pass per distinct non-identity branch, over the lanes that chose it.
  bool applied[kW] = {};
  for (std::size_t lane = 0; lane < active; ++lane) {
    const std::size_t m = picks[lane].branch;
    if (applied[lane] || kraus[m].scaled_identity) continue;
    double scale[kW] = {};
    std::uint64_t mask[kW] = {};
    for (std::size_t j = lane; j < active; ++j)
      if (picks[j].branch == m) {
        scale[j] = 1.0 / std::sqrt(picks[j].weight);
        mask[j] = ~std::uint64_t{0};
        applied[j] = true;
      }
    batch_apply_scaled(kraus[m], plan, batch, scale, mask, scratch);
  }
}

}  // namespace qs::kernels
