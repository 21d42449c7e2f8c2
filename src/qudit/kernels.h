// Shared apply-kernel layer for the simulator stack.
//
// Every matvec inner loop of the simulators lives here, exactly once:
// StateVector, DensityMatrix, trajectory channel sampling, and the
// compiled execution plans (exec/plan.h) all drive these kernels over raw
// amplitude spans with caller-provided scratch.
//
// Dispatch by operator shape:
//
//   | shape                 | kernel                     | index scheme     |
//   |-----------------------|----------------------------|------------------|
//   | diagonal, any arity   | apply_diagonal             | offsets table    |
//   | dense, any arity      | apply_dense                | offsets table    |
//   | monomial (<=1 nonzero | apply(OpKernel) monomial   | row coefficient  |
//   |  per row: Weyl, shift,|  path                      |  + column table  |
//   |  damping, permutation)|                            |                  |
//   | Kraus set weights     | channel_probabilities      | offsets table    |
//   | Kraus branch sampling | sample_channel,            | offsets table    |
//   |  (trajectories)       |  batch_sample_channel      |                  |
//   | observable contract   | expectation_dense          | offsets table    |
//
// Each single-state shape additionally dispatches across three SIMD tiers
// (recorded in Scratch::dispatch):
//
//   | tier        | when                                                    |
//   |-------------|---------------------------------------------------------|
//   | specialized | block in {2,3,4,5,9,16,25} (d=2..5 single-site, d^2     |
//   |             | two-site) with >= 2 vectorizable columns: the block     |
//   |             | size is a compile-time constant, inner loops unrolled   |
//   | generic     | any other block <= kMaxSimdBlock with >= 2 columns:     |
//   |             | runtime-block vector loop                               |
//   | scalar      | everything else (huge blocks, isolated columns), and    |
//   |             | the reference oracle in kernels::scalar                 |
//
// "Columns" are independent amplitude blocks at consecutive addresses: a
// contiguous run of bases (BlockPlan::contig_run). SIMD lanes always
// span columns (independent outputs) or trajectory states (StateBatch) --
// NEVER the b-indexed dot-product reduction, whose accumulation order is
// the bitwise determinism contract. Every vector lane evaluates the exact
// scalar expression tree, so SIMD results are bitwise-identical to the
// kernels::scalar reference for every block size, stride, batch size, and
// thread count (pinned by tests/test_kernels.cpp; -ffp-contract=off plus
// -mno-fma in CMakeLists keep FMA fusing from splitting the paths on
// -march=x86-64-v3 builds -- contract=off alone misses GCC's fused
// vfmaddsub complex-multiply lowering).
//
// Cache blocking: the SIMD tiers walk each contiguous base run in column
// tiles (kTileColumns wide), so a dense sweep touches amplitude memory as
// block x tile strips that stay L1-resident instead of strided
// full-dimension sweeps per block.
//
// Batched trajectories: StateBatch holds StateBatch::kLanes trajectory
// states in structure-of-arrays planes (split re/im, lane-minor), and the
// batch_* kernels apply one plan step across every lane before advancing,
// so operator rows are loaded once per batch instead of once per shot.
// They have one code path for every block size (the lanes are the
// vector), so Scratch::dispatch counts their sweeps under `batched` only,
// never under a tier.
//
// All kernels are thread-compatible: they touch only the spans and scratch
// they are handed, so one immutable BlockPlan can serve many threads as
// long as each thread owns its Scratch.
#ifndef QS_QUDIT_KERNELS_H
#define QS_QUDIT_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/types.h"
#include "qudit/block_plan.h"

namespace qs::kernels {

/// Alignment (bytes) of every scratch/batch buffer the kernels touch with
/// vector loads: one full cache line, so loads never split lines.
inline constexpr std::size_t kAlign = 64;
static_assert((kAlign & (kAlign - 1)) == 0, "kAlign must be a power of two");
static_assert(kAlign % alignof(cplx) == 0 && kAlign % alignof(double) == 0,
              "kAlign must satisfy element alignment");

/// Blocks larger than this never vectorize (register pressure and table
/// sizes stop paying); they take the scalar tier.
inline constexpr std::size_t kMaxSimdBlock = 32;

/// Column-tile width (amplitude columns per tile) of the cache-blocked
/// column traversal.
inline constexpr std::size_t kTileColumns = 8;

/// |z|^2 as the explicit split expression the SIMD lanes evaluate. On the
/// supported toolchains std::norm compiles to exactly this, but hot paths
/// that must stay bitwise-identical to a vector lane spell it out.
inline double abs2(double re, double im) { return re * re + im * im; }
inline double abs2(const cplx& z) { return abs2(z.real(), z.imag()); }

/// Kernel invocations per dispatch tier (one count per apply over a full
/// span, not per block). Accumulated locally in Scratch -- no globals, no
/// atomics -- then surfaced through ExecutionResult into serve telemetry.
/// A sweep counts once: single-state sweeps in their tier, batch_* sweeps
/// under `batched` alone.
struct DispatchCounts {
  std::uint64_t specialized = 0;  ///< compile-time block SIMD
  std::uint64_t generic = 0;      ///< runtime-block SIMD
  std::uint64_t scalar = 0;       ///< scalar fallback / reference
  std::uint64_t batched = 0;      ///< batch_* (SoA trajectory) invocations

  DispatchCounts& operator+=(const DispatchCounts& o) {
    specialized += o.specialized;
    generic += o.generic;
    scalar += o.scalar;
    batched += o.batched;
    return *this;
  }
  /// Single-state sweeps; batched sweeps are counted apart.
  std::uint64_t total() const { return specialized + generic + scalar; }
};

/// Minimal cache-line-aligned buffer (grow-only, contents not preserved
/// across growth). std::vector cannot guarantee over-aligned storage, and
/// the SIMD kernels want tile rows that never split cache lines.
template <typename T>
class AlignedBuf {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "AlignedBuf holds trivial value types only");

 public:
  AlignedBuf() = default;
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  ~AlignedBuf() { ::operator delete(raw_, std::align_val_t{kAlign}); }

  /// Grows (never shrinks) to hold `n` value-initialized entries. Growth
  /// discards previous contents: every kernel writes its scratch before
  /// reading it.
  void resize(std::size_t n) {
    if (n <= cap_) {
      if (n > size_) size_ = n;
      return;
    }
    ::operator delete(raw_, std::align_val_t{kAlign});
    raw_ = ::operator new(n * sizeof(T), std::align_val_t{kAlign});
    data_ = static_cast<T*>(raw_);
    for (std::size_t i = 0; i < n; ++i) new (data_ + i) T{};
    cap_ = n;
    size_ = n;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void* raw_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Reusable per-thread scratch arena. Kernels never allocate when the
/// scratch already covers the requested block size, which is what removes
/// the per-gate heap traffic of the legacy paths. All buffers are
/// kAlign-aligned (see AlignedBuf).
struct Scratch {
  AlignedBuf<cplx> temp;           ///< gathered block amplitudes
  AlignedBuf<cplx> out;            ///< matvec result block
  std::vector<std::size_t> index;  ///< scaled offsets (density-matrix use)
  AlignedBuf<double> tile;         ///< SIMD column/batch tile (split planes)
  DispatchCounts dispatch;         ///< kernel invocations per SIMD tier

  /// Grows (never shrinks) temp/out to hold `block` entries.
  void reserve_block(std::size_t block) {
    temp.resize(block);
    out.resize(block);
  }
};

/// One gathered block: temp <- amps[offsets], out <- op * temp,
/// amps[offsets] <- out. `op` is row-major block x block.
inline void dense_block(const cplx* op, std::size_t block, cplx* amps,
                        const std::size_t* offsets, cplx* temp, cplx* out) {
  for (std::size_t a = 0; a < block; ++a) temp[a] = amps[offsets[a]];
  for (std::size_t a = 0; a < block; ++a) {
    const cplx* row = op + a * block;
    cplx acc = 0.0;
    for (std::size_t b = 0; b < block; ++b) acc += row[b] * temp[b];
    out[a] = acc;
  }
  for (std::size_t a = 0; a < block; ++a) amps[offsets[a]] = out[a];
}

/// As dense_block, but applies the conjugate of each op row (used for the
/// density matrix's right-adjoint factor rho <- rho Op^dag).
inline void dense_block_conj(const cplx* op, std::size_t block, cplx* amps,
                             const std::size_t* offsets, cplx* temp,
                             cplx* out) {
  for (std::size_t b = 0; b < block; ++b) temp[b] = amps[offsets[b]];
  for (std::size_t a = 0; a < block; ++a) {
    const cplx* row = op + a * block;
    cplx acc = 0.0;
    for (std::size_t b = 0; b < block; ++b) acc += std::conj(row[b]) * temp[b];
    out[a] = acc;
  }
  for (std::size_t a = 0; a < block; ++a) amps[offsets[a]] = out[a];
}

/// A block operator analyzed once into its cheapest kernel class. The
/// dense matrix is always retained (density-matrix conjugation and
/// introspection use it); the monomial representation, when the matrix
/// has at most one nonzero per row (Weyl/shift/permutation/damping
/// operators -- i.e. every standard noise Kraus operator and CSUM-type
/// gate), lets state-vector kernels do one multiply per row instead of a
/// full row contraction.
struct OpKernel {
  enum class Kind { kDense, kMonomial };
  Kind kind = Kind::kDense;
  Matrix dense;                  ///< always valid
  std::vector<cplx> coef;        ///< kMonomial: row coefficients
  std::vector<std::size_t> col;  ///< kMonomial: source column per row
  std::size_t block = 0;
  /// K = c I: kMonomial with col[a] == a and every coef bitwise equal to
  /// c = coef[0]. Such a Kraus branch has the state-independent weight
  /// |c|^2 on a normalized state and changes it only by a global phase.
  bool scaled_identity = false;

  /// Classifies `m` (square block matrix).
  static OpKernel analyze(const Matrix& m);
};

// --- scalar reference path (the bitwise oracle) --------------------------
//
// Exactly the historical per-class loops; the SIMD dispatchers below must
// produce bitwise-identical amplitudes for every input (test_kernels pins
// this). Also the fallback tier for shapes the SIMD paths decline.
namespace scalar {

void apply_dense(const cplx* op, const detail::BlockPlan& plan, cplx* amps,
                 Scratch& scratch);
void apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                    cplx* amps);
void apply(const OpKernel& op, const detail::BlockPlan& plan, cplx* amps,
           Scratch& scratch);

}  // namespace scalar

/// Applies a dense block x block operator over the whole span according to
/// `plan`, dispatching across the SIMD tiers (see header table).
void apply_dense(const cplx* op, const detail::BlockPlan& plan, cplx* amps,
                 Scratch& scratch);

/// Applies a diagonal operator (block entries) according to `plan`,
/// recording the dispatch tier in `scratch`.
void apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                    cplx* amps, Scratch& scratch);

/// Accumulates ||K_m psi||^2 for every Kraus operator into probs (which
/// must hold kraus.size() zeros-or-running-sums): per block, each
/// operator's row-ordered sum, added in base order.
void accumulate_channel_probabilities(const std::vector<Matrix>& kraus,
                                      const detail::BlockPlan& plan,
                                      const cplx* amps, Scratch& scratch,
                                      double* probs);

/// <psi| Op |psi> computed block-locally: gathers each block once,
/// multiplies by `op`, and contracts against the conjugated gather. No
/// O(dimension) state copy.
cplx expectation_dense(const cplx* op, const detail::BlockPlan& plan,
                       const cplx* amps, Scratch& scratch);

/// Applies an analyzed operator over the whole span (monomial fast path,
/// dense fallback). Same dispatch contract as apply_dense.
void apply(const OpKernel& op, const detail::BlockPlan& plan, cplx* amps,
           Scratch& scratch);

// --- Kraus-branch sampling (quantum trajectories) ------------------------
//
// One uniform draw u in [0, 1) picks a branch of a trace-preserving Kraus
// set {K_m} on a normalized state psi by a lazy walk: the weights
// w_m = ||K_m psi||^2 are computed in order, and only until the first m
// with u < w_0 + ... + w_m. A branch K = c I (OpKernel::scaled_identity)
// has the known weight |c|^2 and, when chosen, leaves psi untouched. Any
// other chosen branch sets psi <- K_m psi / sqrt(w_m) in one pass. When
// rounding leaves u past the last partial sum, the last branch of nonzero
// weight is taken; a zero-weight branch is never chosen. Computed weights
// are bitwise the per-operator sums of accumulate_channel_probabilities'
// order (row order within a block, blocks in base order). The caller
// guarantees both preconditions: for a state of norm != 1 the walk still
// returns a branch, but not with probability ||K_m psi||^2.

/// A sampled Kraus branch and the weight the walk used for it.
struct BranchChoice {
  std::size_t branch = 0;  ///< index m into the Kraus set
  double weight = 0.0;     ///< w_m: |c|^2 for K_m = c I, else ||K_m psi||^2
};

/// Samples one branch of `kraus` for the state `amps` with draw `u` and
/// applies it (see above). Every sweep counts as the scalar tier. Throws
/// std::invalid_argument when every weight is zero (a zero state).
BranchChoice sample_channel(const std::vector<OpKernel>& kraus,
                            const detail::BlockPlan& plan, cplx* amps,
                            double u, Scratch& scratch);

// --- batched trajectory states (structure of arrays) ---------------------

/// kLanes trajectory state vectors in split-plane SoA layout: amplitude i
/// of lane k lives at re()[i * kLanes + k] / im()[i * kLanes + k], so one
/// vector load reads amplitude i of every lane at once. Lanes are fully
/// independent states; the batch kernels evaluate the exact scalar
/// expression per lane, so lane k of a batch run is bitwise the state the
/// scalar path produces for the same inputs and RNG stream.
class StateBatch {
 public:
  static constexpr std::size_t kLanes = 8;

  /// Allocates (or re-sizes) the planes for `dimension` amplitudes.
  void configure(std::size_t dimension);

  /// Every lane <- |basis_index>. Requires configure() first.
  void reset(std::size_t basis_index);

  std::size_t dimension() const { return dim_; }
  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  cplx lane_amplitude(std::size_t i, std::size_t k) const {
    return {re_[i * kLanes + k], im_[i * kLanes + k]};
  }
  double lane_abs2(std::size_t i, std::size_t k) const {
    return abs2(re_[i * kLanes + k], im_[i * kLanes + k]);
  }

  /// Ascending-index |amp|^2 sum of one lane: bitwise the value
  /// StateVector::norm_squared computes for the same amplitudes.
  double lane_norm_squared(std::size_t k) const;

  /// Cumulative-walk readout sample of one lane given a uniform draw u in
  /// [0, 1): bitwise the index StateVector::sample_index returns for the
  /// same amplitudes and draw.
  std::size_t lane_sample_index(std::size_t k, double u) const;

 private:
  AlignedBuf<double> re_, im_;
  std::size_t dim_ = 0;
};

/// Applies an analyzed operator to every lane (monomial fast path, dense
/// fallback). Operator rows are loaded once per batch; lanes vectorize.
void batch_apply(const OpKernel& op, const detail::BlockPlan& plan,
                 StateBatch& batch, Scratch& scratch);

/// Applies a diagonal operator to every lane.
void batch_apply_diagonal(const cplx* diag, const detail::BlockPlan& plan,
                          StateBatch& batch, Scratch& scratch);

/// sample_channel for lanes [0, active) of `batch`, lane k with draw u[k]:
/// picks[k] and lane k's amplitudes end bitwise what sample_channel gives
/// for lane k's state alone. A weight pass runs for every lane at once,
/// and only while some lane's walk is still open; each distinct non-c I
/// branch chosen costs one pass over the lanes that chose it, each lane
/// with its own 1/sqrt(w). Lanes >= `active` (idle tail lanes of a
/// partial batch) and lanes on a c I branch are left untouched.
void batch_sample_channel(const std::vector<OpKernel>& kraus,
                          const detail::BlockPlan& plan, StateBatch& batch,
                          const double* u, std::size_t active,
                          Scratch& scratch, BranchChoice* picks);

}  // namespace qs::kernels

#endif  // QS_QUDIT_KERNELS_H
