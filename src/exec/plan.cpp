#include "exec/plan.h"

#include <algorithm>
#include <utility>

#include "common/fingerprint.h"
#include "common/require.h"

namespace qs {

std::uint64_t fingerprint(const NoiseModel& noise) {
  const NoiseParams& p = noise.params();
  std::uint64_t h = fnv::kOffset;
  h = fnv::f64(p.depol_1q, h);
  h = fnv::f64(p.depol_2q, h);
  h = fnv::f64(p.dephase_1q, h);
  h = fnv::f64(p.dephase_2q, h);
  h = fnv::f64(p.loss_per_gate, h);
  h = fnv::f64(p.idle_loss_rate, h);
  h = fnv::f64(p.idle_dephase_rate, h);
  return h;
}

// --- CompiledCircuit -----------------------------------------------------

namespace {

StepFactor constant_dense_factor(Matrix m) {
  StepFactor f;
  f.dense = std::move(m);
  return f;
}

StepFactor constant_diag_factor(std::vector<cplx> d) {
  StepFactor f;
  f.diag = std::move(d);
  return f;
}

StepFactor parametric_factor(const Operation& op) {
  StepFactor f;
  f.parametric = true;
  f.expr = op.param;
  f.generator = op.generator;
  return f;
}

}  // namespace

const detail::BlockPlan* CompiledCircuit::pooled_plan(
    const std::vector<int>& sites) {
  auto it = plan_pool_->find(sites);
  if (it == plan_pool_->end())
    it = plan_pool_->emplace(sites, detail::make_block_plan(space_, sites))
             .first;
  if (it->second.block > max_block_) max_block_ = it->second.block;
  return &it->second;
}

CompiledCircuit::CompiledCircuit(const Circuit& circuit,
                                 const NoiseModel& noise, PlanOptions options)
    : space_(circuit.space()),
      plan_pool_(
          std::make_shared<std::map<std::vector<int>, detail::BlockPlan>>()),
      num_parameters_(circuit.num_parameters()),
      bound_parameters_(circuit.parameter_values()) {
  const bool trivial_noise = noise.is_trivial();
  source_operations_ = circuit.size();
  steps_.reserve(circuit.size());

  // Rebind recipes, built alongside the steps. A step gets a recipe the
  // moment a parametric op reaches it; `chain_of` maps a step index to
  // its recipe (or npos). Factor chains are folded at bind() exactly as
  // the fusion below folds payloads, so a bound plan is bitwise the plan
  // of the fully-bound circuit.
  std::vector<StepBinding> bindings;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> chain_of;
  auto chain_for_last = [&]() -> std::vector<StepFactor>* {
    if (chain_of.back() == npos) return nullptr;
    return &bindings[chain_of.back()].factors;
  };
  auto start_chain = [&](StepFactor first) {
    chain_of.back() = bindings.size();
    StepBinding b;
    b.step = steps_.size() - 1;
    b.factors.push_back(std::move(first));
    bindings.push_back(std::move(b));
  };

  for (const Operation& op : circuit.operations()) {
    std::vector<ChannelOp> raw_channels;
    if (!trivial_noise) raw_channels = noise.channels_after(op, space_);

    // Fusion: only into a step that emits no noise, so the channel (and
    // with it the RNG consumption) sequence is exactly the seed path's.
    CompiledStep* last = steps_.empty() ? nullptr : &steps_.back();
    const bool fusible = options.fuse && last != nullptr &&
                         last->channels.empty() && last->sites == op.sites;
    if (fusible && !op.diagonal && last->kind == CompiledStep::Kind::kDense) {
      // Chain bookkeeping before the fold: when the first parametric op
      // lands on a constant step, the accumulated product so far becomes
      // the chain's constant prefix (non-parametric ops only, so the
      // snapshot is independent of any binding).
      if (std::vector<StepFactor>* chain = chain_for_last()) {
        chain->push_back(op.parametric() ? parametric_factor(op)
                                         : constant_dense_factor(op.matrix));
      } else if (op.parametric()) {
        start_chain(constant_dense_factor(last->op.dense));
        bindings.back().factors.push_back(parametric_factor(op));
      }
      last->op = kernels::OpKernel::analyze(op.matrix * last->op.dense);
      ++last->source_ops;
    } else if (fusible && op.diagonal &&
               last->kind == CompiledStep::Kind::kDiagonal) {
      if (std::vector<StepFactor>* chain = chain_for_last()) {
        chain->push_back(op.parametric() ? parametric_factor(op)
                                         : constant_diag_factor(op.diag));
      } else if (op.parametric()) {
        start_chain(constant_diag_factor(last->diag));
        bindings.back().factors.push_back(parametric_factor(op));
      }
      for (std::size_t i = 0; i < last->diag.size(); ++i)
        last->diag[i] *= op.diag[i];
      ++last->source_ops;
    } else {
      CompiledStep step;
      step.kind = op.diagonal ? CompiledStep::Kind::kDiagonal
                              : CompiledStep::Kind::kDense;
      if (!op.diagonal) step.op = kernels::OpKernel::analyze(op.matrix);
      step.diag = op.diag;
      step.sites = op.sites;
      step.plan = pooled_plan(op.sites);
      steps_.push_back(std::move(step));
      last = &steps_.back();
      chain_of.push_back(npos);
      if (op.parametric()) start_chain(parametric_factor(op));
    }

    for (ChannelOp& ch : raw_channels) {
      CompiledChannel compiled;
      compiled.kraus.reserve(ch.kraus.size());
      for (const Matrix& k : ch.kraus)
        compiled.kraus.push_back(kernels::OpKernel::analyze(k));
      compiled.plan = pooled_plan(ch.sites);
      compiled.sites = std::move(ch.sites);
      last->channels.push_back(std::move(compiled));
      ++total_channels_;
    }
  }

  if (!bindings.empty())
    bindings_ = std::make_shared<const std::vector<StepBinding>>(
        std::move(bindings));
}

std::shared_ptr<const CompiledCircuit> CompiledCircuit::bind(
    const std::vector<double>& params) const {
  require(parametric(), "CompiledCircuit::bind: plan has no parametric steps");
  require(params.size() == num_parameters_,
          "CompiledCircuit::bind: expected " +
              std::to_string(num_parameters_) + " parameter(s), got " +
              std::to_string(params.size()));
  // Shell copy: shares the plan pool, channel kernels, and every
  // parameter-independent step; only the recipes below touch payloads.
  std::shared_ptr<CompiledCircuit> bound(new CompiledCircuit());
  bound->space_ = space_;
  bound->steps_ = steps_;
  bound->plan_pool_ = plan_pool_;
  bound->bindings_ = bindings_;
  bound->num_parameters_ = num_parameters_;
  bound->bound_parameters_ = params;
  bound->source_operations_ = source_operations_;
  bound->total_channels_ = total_channels_;
  bound->max_block_ = max_block_;

  for (const StepBinding& b : *bindings_) {
    CompiledStep& step = bound->steps_[b.step];
    if (step.kind == CompiledStep::Kind::kDense) {
      // Refold with the ctor's association: dense = factor * dense.
      Matrix dense;
      bool first = true;
      for (const StepFactor& f : b.factors) {
        Matrix payload =
            f.parametric ? f.generator->dense(f.expr.evaluate(params))
                         : f.dense;
        dense = first ? std::move(payload) : payload * dense;
        first = false;
      }
      step.op = kernels::OpKernel::analyze(dense);
    } else {
      std::vector<cplx> diag;
      bool first = true;
      for (const StepFactor& f : b.factors) {
        std::vector<cplx> payload =
            f.parametric ? f.generator->diagonal(f.expr.evaluate(params))
                         : f.diag;
        if (first) {
          diag = std::move(payload);
          first = false;
        } else {
          for (std::size_t i = 0; i < diag.size(); ++i)
            diag[i] *= payload[i];
        }
      }
      step.diag = std::move(diag);
    }
  }
  return bound;
}

std::string CompiledCircuit::summary() const {
  std::string s = std::to_string(steps_.size()) + " steps from " +
                  std::to_string(source_operations_) + " ops";
  if (fused_operations() > 0)
    s += " (" + std::to_string(fused_operations()) + " fused)";
  s += ", " + std::to_string(total_channels_) + " channels";
  return s;
}

void CompiledCircuit::run_pure(StateVector& psi,
                               kernels::Scratch& scratch) const {
  require(psi.space() == space_, "CompiledCircuit::run_pure: space mismatch");
  require(!noisy(),
          "CompiledCircuit::run_pure: plan carries noise channels; use "
          "run_trajectory or run_density");
  cplx* amps = psi.amplitudes().data();
  for (const CompiledStep& step : steps_) {
    if (step.kind == CompiledStep::Kind::kDiagonal)
      kernels::apply_diagonal(step.diag.data(), *step.plan, amps, scratch);
    else
      kernels::apply(step.op, *step.plan, amps, scratch);
  }
}

void CompiledCircuit::run_trajectory(StateVector& psi, Rng& rng,
                                     kernels::Scratch& scratch) const {
  require(psi.space() == space_,
          "CompiledCircuit::run_trajectory: space mismatch");
  cplx* amps = psi.amplitudes().data();
  for (const CompiledStep& step : steps_) {
    if (step.kind == CompiledStep::Kind::kDiagonal)
      kernels::apply_diagonal(step.diag.data(), *step.plan, amps, scratch);
    else
      kernels::apply(step.op, *step.plan, amps, scratch);
    for (const CompiledChannel& ch : step.channels)
      kernels::sample_channel(ch.kraus, *ch.plan, amps, rng.uniform(),
                              scratch);
  }
}

void CompiledCircuit::run_trajectory_batch(kernels::StateBatch& batch,
                                           Rng* rngs, std::size_t active,
                                           kernels::Scratch& scratch) const {
  constexpr std::size_t kW = kernels::StateBatch::kLanes;
  require(batch.dimension() == space_.dimension(),
          "CompiledCircuit::run_trajectory_batch: dimension mismatch");
  require(active >= 1 && active <= kW,
          "CompiledCircuit::run_trajectory_batch: bad active lane count");
  double u[kW];
  kernels::BranchChoice picks[kW];
  for (const CompiledStep& step : steps_) {
    if (step.kind == CompiledStep::Kind::kDiagonal)
      kernels::batch_apply_diagonal(step.diag.data(), *step.plan, batch,
                                    scratch);
    else
      kernels::batch_apply(step.op, *step.plan, batch, scratch);
    for (const CompiledChannel& ch : step.channels) {
      // One draw per lane from its own stream, as in run_trajectory.
      for (std::size_t k = 0; k < active; ++k) u[k] = rngs[k].uniform();
      kernels::batch_sample_channel(ch.kraus, *ch.plan, batch, u, active,
                                    scratch, picks);
    }
  }
}

void CompiledCircuit::run_density(DensityMatrix& rho,
                                  kernels::Scratch& scratch) const {
  require(rho.space() == space_,
          "CompiledCircuit::run_density: space mismatch");
  for (const CompiledStep& step : steps_) {
    if (step.kind == CompiledStep::Kind::kDiagonal)
      rho.apply_diagonal_unitary(step.diag, *step.plan);
    else
      rho.apply_unitary(step.op.dense, *step.plan, scratch);
    for (const CompiledChannel& ch : step.channels)
      rho.apply_channel(ch.kraus, *ch.plan, scratch);
  }
}

// --- PlanCache -----------------------------------------------------------

std::shared_ptr<const CompiledCircuit> PlanCache::get_or_compile(
    const Circuit& circuit, const NoiseModel& noise, PlanOptions options,
    bool* cache_hit) {
  // Fingerprinting walks the circuit; keep it outside the lock. The
  // structural digest ignores bound parameter values, so a thousand-point
  // sweep of one parametric circuit compiles exactly once and every later
  // point binds the cached artifact.
  const Key key{structural_fingerprint(circuit), fingerprint(noise),
                options.bits()};
  return cache_.get_or_produce(
      key,
      [&] {
        return std::make_shared<const CompiledCircuit>(circuit, noise,
                                                       options);
      },
      cache_hit);
}

}  // namespace qs
