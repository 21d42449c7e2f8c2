#include "exec/trajectory_backend.h"

#include <algorithm>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "exec/plan.h"
#include "exec/pool.h"
#include "exec/state_vector_backend.h"

namespace qs {

namespace {
/// Trajectories per reduction block: at least kMinBlock, grown so the
/// number of blocks (and with it per-block accumulator memory) stays
/// bounded. A pure function of the trajectory total -- never of the
/// thread count -- so the block-ordered reduction is bitwise reproducible.
constexpr std::size_t kMinBlock = 16;
constexpr std::size_t kMaxBlocks = 256;

std::size_t block_size_for(std::size_t total) {
  const std::size_t from_cap = (total + kMaxBlocks - 1) / kMaxBlocks;
  return std::max(kMinBlock, from_cap);
}
}  // namespace

void TrajectoryBackend::apply(const Circuit& circuit, StateVector& psi,
                              const NoiseModel& noise, Rng& rng) {
  require(psi.space() == circuit.space(),
          "TrajectoryBackend::apply: space mismatch");
  const bool trivial = noise.is_trivial();
  for (const Operation& op : circuit.operations()) {
    if (op.diagonal)
      psi.apply_diagonal(op.diag, op.sites);
    else
      psi.apply(op.matrix, op.sites);
    if (trivial) continue;
    for (const ChannelOp& ch : noise.channels_after(op, circuit.space()))
      psi.apply_channel_sampled(ch.kraus, ch.sites, rng);
  }
}

void TrajectoryBackend::run(const ExecutionRequest& request,
                            const CompiledCircuit& plan,
                            ExecutionResult& result) const {
  if (!plan.noisy()) {
    // Pure evolution: one deterministic run, multinomial readout.
    run_pure_state(request, plan, split_seed(result.seed, 0), result);
    return;
  }

  const QuditSpace& space = plan.space();
  const std::size_t dim = space.dimension();
  const std::size_t total =
      request.shots > 0 ? request.shots
                        : std::max<std::size_t>(request.trajectories, 1);
  const std::size_t block = block_size_for(total);
  const std::size_t blocks = (total + block - 1) / block;
  // Exact per-trajectory populations are only accumulated when someone
  // consumes them (shots == 0, or observables to evaluate); a pure
  // counts request skips that work and estimates populations from the
  // histogram instead.
  const bool want_exact_probs =
      request.shots == 0 || !request.observables.empty();
  std::vector<std::vector<double>> block_probs(
      blocks, std::vector<double>(want_exact_probs ? dim : 0, 0.0));
  std::vector<std::vector<std::size_t>> block_counts(blocks);
  if (request.shots > 0)
    for (auto& c : block_counts) c.assign(dim, 0);

  // One immutable plan shared by every worker; each block owns its
  // scratch arena and one SoA batch reused across its trajectories.
  // Trajectories run kLanes at a time: each plan step is applied across
  // the whole sub-batch before advancing, with per-lane RNG streams
  // (split_seed by absolute trajectory index) consumed exactly as the
  // per-shot path would, so results are bitwise-independent of the
  // batching.
  const std::size_t initial_index =
      request.initial_digits.empty() ? 0
                                     : space.index_of(request.initial_digits);
  std::vector<kernels::DispatchCounts> block_dispatch(blocks);
  parallel_for(blocks, threads_, [&](std::size_t b) {
    constexpr std::size_t kW = kernels::StateBatch::kLanes;
    const std::size_t begin = b * block;
    const std::size_t end = std::min(begin + block, total);
    kernels::Scratch scratch;
    scratch.reserve_block(plan.max_block());
    kernels::StateBatch batch;
    batch.configure(dim);
    Rng rngs[kW];
    for (std::size_t t = begin; t < end; t += kW) {
      const std::size_t lanes = std::min(kW, end - t);
      for (std::size_t k = 0; k < lanes; ++k)
        rngs[k] = Rng(split_seed(result.seed, t + k));
      batch.reset(initial_index);
      plan.run_trajectory_batch(batch, rngs, lanes, scratch);
      for (std::size_t k = 0; k < lanes; ++k) {
        if (want_exact_probs)
          for (std::size_t i = 0; i < dim; ++i)
            block_probs[b][i] += batch.lane_abs2(i, k);
        if (request.shots > 0)
          ++block_counts[b][batch.lane_sample_index(k, rngs[k].uniform())];
      }
    }
    block_dispatch[b] = scratch.dispatch;
  });
  for (std::size_t b = 0; b < blocks; ++b)
    result.kernel_dispatch += block_dispatch[b];

  // Block-ordered reduction: deterministic for any thread count.
  result.trajectories = total;
  if (request.shots > 0) {
    result.counts.assign(dim, 0);
    for (std::size_t b = 0; b < blocks; ++b)
      for (std::size_t i = 0; i < dim; ++i)
        result.counts[i] += block_counts[b][i];
    result.shots = request.shots;
  }
  if (want_exact_probs) {
    result.probabilities.assign(dim, 0.0);
    for (std::size_t b = 0; b < blocks; ++b)
      for (std::size_t i = 0; i < dim; ++i)
        result.probabilities[i] += block_probs[b][i];
    for (double& p : result.probabilities)
      p /= static_cast<double>(total);
  } else {
    result.probabilities.reserve(dim);
    for (std::size_t i = 0; i < dim; ++i)
      result.probabilities.push_back(static_cast<double>(result.counts[i]) /
                                     static_cast<double>(total));
  }
}

}  // namespace qs
