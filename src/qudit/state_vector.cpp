#include "qudit/state_vector.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "noise/channels.h"
#include "qudit/block_plan.h"
#include "qudit/kernels.h"

namespace qs {

namespace {
/// Per-thread scratch for the legacy (plan-per-call) entry points, so even
/// unplanned gate application performs no per-call heap allocation.
kernels::Scratch& local_scratch() {
  static thread_local kernels::Scratch scratch;
  return scratch;
}
}  // namespace

StateVector::StateVector(QuditSpace space)
    : space_(std::move(space)), amps_(space_.dimension(), cplx{0.0, 0.0}) {
  amps_[0] = 1.0;
}

StateVector::StateVector(QuditSpace space, const std::vector<int>& digits)
    : space_(std::move(space)), amps_(space_.dimension(), cplx{0.0, 0.0}) {
  amps_[space_.index_of(digits)] = 1.0;
}

StateVector::StateVector(QuditSpace space, std::vector<cplx> amplitudes)
    : space_(std::move(space)), amps_(std::move(amplitudes)) {
  require(amps_.size() == space_.dimension(),
          "StateVector: amplitude count does not match space dimension");
}

void StateVector::reset(const std::vector<int>& digits) {
  std::fill(amps_.begin(), amps_.end(), cplx{0.0, 0.0});
  amps_[digits.empty() ? 0 : space_.index_of(digits)] = 1.0;
}

void StateVector::apply(const Matrix& op, const std::vector<int>& sites) {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  require(op.rows() == plan.block && op.cols() == plan.block,
          "StateVector::apply: operator dimension mismatch");
  kernels::apply_dense(op.data(), plan, amps_.data(), local_scratch());
}

void StateVector::apply_diagonal(const std::vector<cplx>& diag,
                                 const std::vector<int>& sites) {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  require(diag.size() == plan.block,
          "StateVector::apply_diagonal: diagonal length mismatch");
  kernels::apply_diagonal(diag.data(), plan, amps_.data(), local_scratch());
}

double StateVector::norm_squared() const {
  double s = 0.0;
  for (const cplx& a : amps_) s += std::norm(a);
  return s;
}

void StateVector::normalize() {
  const double n2 = norm_squared();
  require(n2 > 1e-300, "StateVector::normalize: zero state");
  const double inv = 1.0 / std::sqrt(n2);
  for (cplx& a : amps_) a *= inv;
}

std::vector<double> StateVector::site_probabilities(int site) const {
  require(site >= 0 && static_cast<std::size_t>(site) < space_.num_sites(),
          "site_probabilities: site out of range");
  const std::size_t s = static_cast<std::size_t>(site);
  const std::size_t d = static_cast<std::size_t>(space_.dim(s));
  const std::size_t stride = space_.stride(s);
  const std::size_t span = stride * d;
  std::vector<double> probs(d, 0.0);
  // Stride loops instead of a per-amplitude digit() division: for a fixed
  // outcome k the flat indices visited ascend exactly as in the legacy
  // full scan, so each probs[k] accumulates in the identical order.
  for (std::size_t outer = 0; outer < amps_.size(); outer += span)
    for (std::size_t k = 0; k < d; ++k) {
      // lint:allow(amplitude-loop): legacy full-scan order pinned by tests
      const cplx* p = amps_.data() + outer + k * stride;
      for (std::size_t inner = 0; inner < stride; ++inner)
        probs[k] += std::norm(p[inner]);
    }
  return probs;
}

int StateVector::measure_site(int site, Rng& rng) {
  const std::vector<double> probs = site_probabilities(site);
  const std::size_t outcome = rng.discrete(probs);
  const std::size_t s = static_cast<std::size_t>(site);
  const std::size_t d = static_cast<std::size_t>(space_.dim(s));
  const std::size_t stride = space_.stride(s);
  const std::size_t span = stride * d;
  for (std::size_t outer = 0; outer < amps_.size(); outer += span)
    for (std::size_t k = 0; k < d; ++k) {
      if (k == outcome) continue;
      // lint:allow(amplitude-loop): projective zeroing, order-insensitive
      cplx* p = amps_.data() + outer + k * stride;
      for (std::size_t inner = 0; inner < stride; ++inner) p[inner] = 0.0;
    }
  normalize();
  return static_cast<int>(outcome);
}

std::size_t StateVector::sample_index(Rng& rng) const {
  double r = rng.uniform() * norm_squared();
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    if (r < acc) return i;
  }
  return amps_.size() - 1;
}

std::vector<std::size_t> StateVector::sample_counts(std::size_t shots,
                                                    Rng& rng) const {
  std::vector<double> cumulative(amps_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i) {
    acc += std::norm(amps_[i]);
    cumulative[i] = acc;
  }
  std::vector<std::size_t> counts(amps_.size(), 0);
  for (std::size_t s = 0; s < shots; ++s) {
    const double r = rng.uniform() * acc;
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), r);
    const std::size_t idx = std::min(
        static_cast<std::size_t>(it - cumulative.begin()), amps_.size() - 1);
    ++counts[idx];
  }
  return counts;
}

cplx StateVector::expectation(const Matrix& op,
                              const std::vector<int>& sites) const {
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  require(op.rows() == plan.block && op.cols() == plan.block,
          "StateVector::expectation: operator dimension mismatch");
  return kernels::expectation_dense(op.data(), plan, amps_.data(),
                                    local_scratch());
}

double StateVector::expectation_diagonal(
    const std::vector<double>& diag) const {
  require(diag.size() == amps_.size(),
          "expectation_diagonal: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < amps_.size(); ++i)
    s += diag[i] * std::norm(amps_[i]);
  return s;
}

cplx StateVector::overlap(const StateVector& other) const {
  require(space_ == other.space_, "overlap: space mismatch");
  return inner(amps_, other.amps_);
}

std::vector<double> StateVector::channel_probabilities(
    const std::vector<Matrix>& kraus, const std::vector<int>& sites) const {
  require(!kraus.empty(), "channel_probabilities: empty Kraus set");
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  for (const Matrix& k : kraus)
    require(k.rows() == plan.block && k.cols() == plan.block,
            "channel_probabilities: Kraus dimension mismatch");
  std::vector<double> probs(kraus.size(), 0.0);
  kernels::accumulate_channel_probabilities(kraus, plan, amps_.data(),
                                            local_scratch(), probs.data());
  return probs;
}

std::size_t StateVector::apply_channel_sampled(
    const std::vector<Matrix>& kraus, const std::vector<int>& sites,
    Rng& rng) {
  require(is_cptp(kraus),
          "apply_channel_sampled: Kraus set is not trace preserving");
  const detail::BlockPlan plan = detail::make_block_plan(space_, sites);
  require(kraus.front().rows() == plan.block,
          "apply_channel_sampled: Kraus dimension mismatch");
  std::vector<kernels::OpKernel> ops;
  ops.reserve(kraus.size());
  for (const Matrix& k : kraus) ops.push_back(kernels::OpKernel::analyze(k));
  return kernels::sample_channel(ops, plan, amps_.data(), rng.uniform(),
                                 local_scratch())
      .branch;
}

}  // namespace qs
