// Kernel-layer microbenchmarks (google-benchmark): one benchmark per
// kernel class (dense one-site and two-site, diagonal, monomial), each
// as a SIMD-vs-scalar pair so the dispatch tiers' speedups are measured
// at the layer they live in, plus the batched-vs-per-shot trajectory
// pair that motivates the SoA StateBatch.
//
// The CI perf-smoke job runs this binary with --benchmark_format=json
// and archives BENCH_kernels.json; the perf-gate diffs items_per_second
// across commits, so a kernel-tier regression is attributable here
// before it smears across bench_simulator_perf workloads.
#include <benchmark/benchmark.h>

#include "core/quditsim.h"

namespace {

using namespace qs;

std::vector<cplx> random_amplitudes(std::size_t n, Rng& rng) {
  std::vector<cplx> amps(n);
  for (std::size_t i = 0; i < n; ++i)
    amps[i] = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return amps;
}

/// Shared fixture state: a mixed-radix space with a hot middle site
/// (odd stride) and a two-site pair whose bases run contiguously.
struct KernelSetup {
  QuditSpace space;
  detail::BlockPlan plan;
  Matrix op;
  std::vector<cplx> diag;
  kernels::OpKernel monomial;
  std::vector<cplx> amps;

  KernelSetup(std::vector<int> dims, std::vector<int> sites)
      : space(std::move(dims)),
        plan(detail::make_block_plan(space, sites)) {
    Rng rng(5);
    op = random_unitary(static_cast<int>(plan.block), rng);
    diag.resize(plan.block);
    for (std::size_t i = 0; i < plan.block; ++i)
      diag[i] = std::exp(cplx{0.0, 0.1 * static_cast<double>(i)});
    Matrix m = Matrix::zero(plan.block, plan.block);
    for (std::size_t r = 0; r < plan.block; ++r)
      m(r, (r + 1) % plan.block) = diag[r];
    monomial = kernels::OpKernel::analyze(m);
    amps = random_amplitudes(space.dimension(), rng);
  }
};

/// dims/sites per benchmark argument: 0 = single-site d=3 (specialized,
/// odd stride 27), 1 = single-site d=5 (specialized), 2 = two-site 3x3
/// block 9 (specialized), 3 = two-site 4x5 block 20
/// (generic tier).
KernelSetup make_setup(std::int64_t shape) {
  switch (shape) {
    case 0:
      return KernelSetup({3, 3, 3, 3, 3, 3, 3, 3}, {3});
    case 1:
      return KernelSetup({5, 5, 5, 5, 5}, {2});
    case 2:
      return KernelSetup({3, 3, 3, 3, 3, 3, 3, 3}, {3, 4});
    default:
      return KernelSetup({4, 5, 4, 5, 4}, {1, 2});
  }
}

void BM_DenseSimd(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  kernels::Scratch scratch;
  for (auto _ : state) {
    kernels::apply_dense(s.op.data(), s.plan, s.amps.data(), scratch);
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_DenseScalar(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  kernels::Scratch scratch;
  for (auto _ : state) {
    kernels::scalar::apply_dense(s.op.data(), s.plan, s.amps.data(),
                                 scratch);
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DenseScalar)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_DiagonalSimd(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  kernels::Scratch scratch;
  for (auto _ : state) {
    kernels::apply_diagonal(s.diag.data(), s.plan, s.amps.data(), scratch);
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiagonalSimd)->Arg(0)->Arg(2);

void BM_DiagonalScalar(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  for (auto _ : state) {
    kernels::scalar::apply_diagonal(s.diag.data(), s.plan, s.amps.data());
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiagonalScalar)->Arg(0)->Arg(2);

void BM_MonomialSimd(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  kernels::Scratch scratch;
  for (auto _ : state) {
    kernels::apply(s.monomial, s.plan, s.amps.data(), scratch);
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonomialSimd)->Arg(0)->Arg(2);

void BM_MonomialScalar(benchmark::State& state) {
  KernelSetup s = make_setup(state.range(0));
  kernels::Scratch scratch;
  for (auto _ : state) {
    kernels::scalar::apply(s.monomial, s.plan, s.amps.data(), scratch);
    benchmark::DoNotOptimize(s.amps.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonomialScalar)->Arg(0)->Arg(2);

// --- batched-vs-per-shot trajectories ---------------------------------

Circuit layered_circuit(int layers) {
  Circuit c(QuditSpace::uniform(6, 3));
  Rng rng(11);
  for (int layer = 0; layer < layers; ++layer) {
    for (int s = 0; s < 6; ++s) c.add("U", random_unitary(3, rng), {s});
    for (int s = 0; s + 1 < 6; s += 2)
      c.add("CSUM", csum(3, 3), {s, s + 1});
  }
  return c;
}

NoiseModel bench_noise() {
  NoiseParams p;
  p.depol_1q = 0.002;
  p.depol_2q = 0.01;
  p.dephase_1q = 0.001;
  p.loss_per_gate = 0.002;
  return NoiseModel(p);
}

/// One batch of StateBatch::kLanes trajectories through the batched
/// kernels (items == trajectories, so the pair below compares per-shot
/// throughput directly).
void BM_TrajectoryBatched(benchmark::State& state) {
  const Circuit c = layered_circuit(static_cast<int>(state.range(0)));
  const CompiledCircuit plan(c, bench_noise(), PlanOptions{});
  constexpr std::size_t kW = kernels::StateBatch::kLanes;
  kernels::StateBatch batch;
  batch.configure(c.space().dimension());
  kernels::Scratch scratch;
  scratch.reserve_block(plan.max_block());
  Rng rngs[kW];
  std::uint64_t t = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kW; ++k)
      rngs[k] = Rng(split_seed(17, t + k));
    batch.reset(0);
    plan.run_trajectory_batch(batch, rngs, kW, scratch);
    benchmark::DoNotOptimize(batch.re());
    t += kW;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kW));
}
BENCHMARK(BM_TrajectoryBatched)->Arg(4)->Arg(8);

/// The same kLanes trajectories run one state at a time through the
/// scalar compiled path (the pre-batching execution model).
void BM_TrajectoryPerShot(benchmark::State& state) {
  const Circuit c = layered_circuit(static_cast<int>(state.range(0)));
  const CompiledCircuit plan(c, bench_noise(), PlanOptions{});
  constexpr std::size_t kW = kernels::StateBatch::kLanes;
  StateVector psi(c.space());
  kernels::Scratch scratch;
  scratch.reserve_block(plan.max_block());
  std::uint64_t t = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kW; ++k) {
      Rng rng(split_seed(17, t + k));
      psi.reset();
      plan.run_trajectory(psi, rng, scratch);
      benchmark::DoNotOptimize(psi.amplitudes().data());
    }
    t += kW;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kW));
}
BENCHMARK(BM_TrajectoryPerShot)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
