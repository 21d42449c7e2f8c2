#include "compiler/pipeline.h"

#include <sstream>
#include <utility>

#include "calib/snapshot.h"
#include "common/fingerprint.h"
#include "common/require.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "compiler/passes.h"
#include "obs/trace.h"

namespace qs {

std::string TranspiledCircuit::summary() const {
  std::ostringstream os;
  os << "transpiled: " << physical.size() << " physical ops ("
     << swaps_inserted << " routing swaps";
  if (logical_ops > physical.size() - static_cast<std::size_t>(swaps_inserted))
    os << ", "
       << logical_ops -
              (physical.size() - static_cast<std::size_t>(swaps_inserted))
       << " ops cancelled";
  os << "), makespan " << fmt(schedule.makespan * 1e6, 1)
     << " us, forecast fidelity " << fmt(schedule.total_fidelity, 4)
     << " (gates " << fmt(schedule.gate_fidelity, 4) << ", idle "
     << fmt(schedule.idle_fidelity, 4) << ")";
  return os.str();
}

PassManager& PassManager::add(std::unique_ptr<Pass> pass) {
  require(pass != nullptr, "PassManager::add: null pass");
  passes_.push_back(std::move(pass));
  return *this;
}

std::shared_ptr<const TranspiledCircuit> PassManager::run(
    const Circuit& logical, const Processor& proc) const {
  TranspileContext ctx(logical, proc, options_);
  // PassManager has no request parameter; the executing job's trace
  // identity (if any) arrives via the thread-local context installed by
  // resolve_artifacts, attributing per-pass spans to that job.
  const obs::TraceContext& trace = obs::ScopedTraceContext::current();
  std::vector<PassStats> stats;
  stats.reserve(passes_.size());
  for (const auto& pass : passes_) {
    obs::SpanTimer span = trace.span(obs::Phase::kPass);
    span.set_detail(pass->name().c_str());
    const Stopwatch timer;
    PassStats s;
    s.pass = pass->name();
    s.ops_before = ctx.working.size();
    const int swaps_before = ctx.swaps_inserted;
    pass->run(ctx);
    s.ops_after = ctx.working.size();
    s.swaps_added = ctx.swaps_inserted - swaps_before;
    s.seconds = timer.seconds();
    stats.push_back(std::move(s));
  }
  require(ctx.routed, "PassManager::run: pipeline has no routing pass");
  require(ctx.scheduled, "PassManager::run: pipeline has no schedule pass");

  auto artifact = std::make_shared<TranspiledCircuit>(TranspiledCircuit{
      std::move(ctx.working), std::move(ctx.initial_logical_to_mode),
      std::move(ctx.final_logical_to_mode), std::move(ctx.mapping),
      std::move(ctx.schedule), ctx.swaps_inserted, logical.size(), options_,
      std::move(stats)});
  return artifact;
}

PassManager default_pipeline(const TranspileOptions& options) {
  PassManager pm(options);
  if (options.commute_gates) pm.add(std::make_unique<CommutationPass>());
  pm.add(std::make_unique<MappingPass>());
  if (options.lookahead_routing)
    pm.add(std::make_unique<LookaheadRoutingPass>());
  else
    pm.add(std::make_unique<GreedyRoutingPass>());
  pm.add(std::make_unique<SchedulePass>());
  return pm;
}

std::shared_ptr<const TranspiledCircuit> transpile(
    const Circuit& logical, const Processor& proc,
    const TranspileOptions& options) {
  return default_pipeline(options).run(logical, proc);
}

std::uint64_t fingerprint(const TranspileOptions& options) {
  std::uint64_t h = fnv::kOffset;
  h = fnv::u64(static_cast<std::uint64_t>(options.mapping.anneal_iters), h);
  h = fnv::f64(options.mapping.temp_start, h);
  h = fnv::f64(options.mapping.temp_end, h);
  h = fnv::u64(options.use_noise_aware_mapping ? 1 : 0, h);
  h = fnv::u64(options.commute_gates ? 1 : 0, h);
  h = fnv::u64(options.lookahead_routing ? 1 : 0, h);
  h = fnv::u64(static_cast<std::uint64_t>(options.lookahead.depth), h);
  h = fnv::f64(options.lookahead.decay, h);
  h = fnv::u64(static_cast<std::uint64_t>(options.schedule), h);
  h = fnv::u64(options.seed, h);
  return h;
}

std::uint64_t fingerprint(const Processor& proc) {
  const ProcessorConfig& cfg = proc.config();
  std::uint64_t h = fnv::kOffset;
  h = fnv::u64(static_cast<std::uint64_t>(cfg.num_cavities), h);
  h = fnv::u64(static_cast<std::uint64_t>(cfg.modes_per_cavity), h);
  h = fnv::u64(static_cast<std::uint64_t>(cfg.levels_per_mode), h);
  h = fnv::f64(cfg.mode_t1, h);
  h = fnv::f64(cfg.transmon_t1, h);
  h = fnv::f64(cfg.t1_disorder, h);
  h = fnv::f64(cfg.durations.displacement, h);
  h = fnv::f64(cfg.durations.snap, h);
  h = fnv::f64(cfg.durations.givens, h);
  h = fnv::f64(cfg.durations.cross_kerr_full, h);
  h = fnv::f64(cfg.durations.beamsplitter, h);
  h = fnv::f64(cfg.durations.measurement, h);
  // Per-mode disorder realizations matter: two devices built from the
  // same config but different disorder draws must not share artifacts.
  for (int m = 0; m < proc.num_modes(); ++m) {
    const ModeInfo& info = proc.mode(m);
    h = fnv::u64(static_cast<std::uint64_t>(info.cavity), h);
    h = fnv::u64(static_cast<std::uint64_t>(info.index_in_cavity), h);
    h = fnv::u64(static_cast<std::uint64_t>(info.dim), h);
    h = fnv::f64(info.t1, h);
    h = fnv::f64(info.t2, h);
  }
  for (int c = 0; c < proc.num_cavities(); ++c) {
    const TransmonInfo& t = proc.transmon(c);
    h = fnv::f64(t.t1, h);
    h = fnv::f64(t.t2, h);
  }
  // A calibrated view is a different device: fold in the snapshot's epoch
  // and payload digest, so the TranspileCache, the plan keys built on
  // this fingerprint, and serve's batching keys all invalidate
  // automatically on recalibration.
  if (proc.has_calibration()) {
    h = fnv::u64(proc.calibration_epoch(), h);
    h = fnv::combine(proc.calibration()->fingerprint(), h);
  }
  return h;
}

}  // namespace qs
