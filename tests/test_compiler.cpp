#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "exec/plan.h"
#include "exec/state_vector_backend.h"
#include "test_support.h"
#include "common/rng.h"
#include "compiler/passes.h"
#include "compiler/pipeline.h"
#include "compiler/transpile_cache.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "linalg/expm.h"
#include "linalg/metrics.h"
#include "noise/noise_model.h"
#include "qudit/kernels.h"
#include "sqed/encodings.h"
#include "sqed/gauge_model.h"

namespace qs {
namespace {

using test_support::final_state;

/// Chain of CSUMs over n qutrits: 0-1, 1-2, ..., plus local Fouriers.
Circuit chain_circuit(int n, int d) {
  Circuit c(QuditSpace::uniform(static_cast<std::size_t>(n), d));
  for (int i = 0; i < n; ++i) c.add("F", fourier(d), {i});
  for (int i = 0; i + 1 < n; ++i) c.add("CSUM", csum(d, d), {i, i + 1});
  return c;
}

/// Circuit with a deliberately bad interaction pattern for a linear chain.
Circuit star_circuit(int n, int d) {
  Circuit c(QuditSpace::uniform(static_cast<std::size_t>(n), d));
  for (int i = 1; i < n; ++i) c.add("CSUM", csum(d, d), {0, i});
  return c;
}

TEST(Mapping, InteractionWeightsSymmetric) {
  const Circuit c = chain_circuit(4, 3);
  const auto w = interaction_weights(c);
  EXPECT_DOUBLE_EQ(w[0][1], 1.0);
  EXPECT_DOUBLE_EQ(w[1][0], 1.0);
  EXPECT_DOUBLE_EQ(w[0][2], 0.0);
}

TEST(Mapping, AssignmentIsValidPermutation) {
  Rng rng(71);
  const Circuit c = chain_circuit(6, 3);
  const Processor proc = Processor::forecast_device(&rng);
  const MappingResult r = map_qudits(c, proc, rng);
  std::set<int> used;
  for (int m : r.logical_to_mode) {
    EXPECT_GE(m, 0);
    EXPECT_LT(m, proc.num_modes());
    EXPECT_TRUE(used.insert(m).second) << "duplicate mode " << m;
  }
}

TEST(Mapping, BeatsOrEqualsTrivialMapping) {
  Rng rng(72);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = star_circuit(8, 3);
  const MappingResult annealed = map_qudits(c, proc, rng);
  const MappingResult trivial = trivial_mapping(c, proc);
  EXPECT_LE(annealed.cost, trivial.cost + 1e-12);
}

TEST(Mapping, ExploitsCoherenceDisorder) {
  // With one cavity of clearly worse modes, heavy-use qudits should land
  // on the better cavity.
  Rng rng(73);
  ProcessorConfig cfg;
  cfg.num_cavities = 2;
  cfg.modes_per_cavity = 4;
  cfg.levels_per_mode = 3;
  cfg.mode_t1 = 1e-3;
  Processor proc(cfg);
  // Build a heavily-used 3-qutrit circuit; 8 modes available.
  Circuit c(QuditSpace::uniform(3, 3));
  for (int rep = 0; rep < 5; ++rep)
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j) c.add("CSUM", csum(3, 3), {i, j});
  const MappingResult r = map_qudits(c, proc, rng);
  // All three qudits must be co-located (one cavity has 4 modes).
  const int cav = proc.cavity_of(r.logical_to_mode[0]);
  for (int m : r.logical_to_mode) EXPECT_EQ(proc.cavity_of(m), cav);
}

TEST(Routing, NoSwapsWhenLocal) {
  Rng rng(74);
  const Processor proc = Processor::forecast_device();
  const Circuit c = chain_circuit(3, 3);
  // Map all three qutrits into cavity 0 (4 modes available).
  const RoutingResult r = route_circuit(c, proc, {0, 1, 2});
  EXPECT_EQ(r.swaps_inserted, 0);
  EXPECT_EQ(r.physical.size(), c.size());
}

TEST(Routing, InsertsSwapsForDistantPairs) {
  const Processor proc = Processor::forecast_device();
  Circuit c(QuditSpace::uniform(2, 3));
  c.add("CSUM", csum(3, 3), {0, 1});
  // Mode 0 (cavity 0) and mode 12 (cavity 3): distance 3 -> 2 hops needed
  // to reach adjacency.
  const RoutingResult r = route_circuit(c, proc, {0, 12});
  EXPECT_EQ(r.swaps_inserted, 2);
  EXPECT_EQ(r.physical.size(), 3u);  // 2 swaps + the gate
}

TEST(Routing, PreservesCircuitSemantics) {
  // Simulate logical and routed circuits; final states must agree on the
  // logical qudits (after accounting for the final mode permutation).
  const int d = 2;
  ProcessorConfig cfg;
  cfg.num_cavities = 3;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = d;
  const Processor proc(cfg);
  Circuit logical(QuditSpace::uniform(2, d));
  logical.add("F", fourier(d), {0});
  logical.add("CSUM", csum(d, d), {0, 1});
  // Distant placement: modes 0 and 2 (cavities 0 and 2).
  const RoutingResult r = route_circuit(logical, proc, {0, 2});
  EXPECT_GE(r.swaps_inserted, 1);

  const StateVector logical_out = final_state(logical);
  const StateVector physical_out = final_state(r.physical);
  // Extract the reduced state on the final physical locations.
  DensityMatrix rho(physical_out);
  const DensityMatrix reduced = rho.partial_trace(
      {r.final_logical_to_mode[0], r.final_logical_to_mode[1]});
  EXPECT_NEAR(
      density_pure_fidelity(reduced.matrix(), logical_out.amplitudes()),
      1.0, 1e-9);
}

TEST(Routing, RequiresUniformDims) {
  const Processor proc = Processor::forecast_device();
  Circuit c(QuditSpace({2, 3}));
  c.add("F", fourier(2), {0});
  EXPECT_THROW(route_circuit(c, proc, {0, 1}), std::invalid_argument);
}

TEST(Scheduler, ParallelGatesOverlap) {
  ProcessorConfig cfg;
  cfg.num_cavities = 2;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 2;
  const Processor proc(cfg);
  Circuit phys(QuditSpace::uniform(2, 2));
  phys.add("SNAP", snap({0.1, 0.2}), {0}, 1e-6);
  phys.add("SNAP", snap({0.1, 0.2}), {1}, 1e-6);
  const ScheduleResult s = schedule_asap(phys, proc, {0, 1});
  EXPECT_NEAR(s.makespan, 1e-6, 1e-12);  // both run in parallel
  EXPECT_DOUBLE_EQ(s.start_times[0], 0.0);
  EXPECT_DOUBLE_EQ(s.start_times[1], 0.0);
}

TEST(Scheduler, SerialOnSharedMode) {
  ProcessorConfig cfg;
  cfg.num_cavities = 1;
  cfg.modes_per_cavity = 2;
  cfg.levels_per_mode = 2;
  const Processor proc(cfg);
  Circuit phys(QuditSpace::uniform(2, 2));
  phys.add("SNAP", snap({0.1, 0.2}), {0}, 1e-6);
  phys.add("CK", cz(2, 2), {0, 1}, 2e-6);
  const ScheduleResult s = schedule_asap(phys, proc, {0, 1});
  EXPECT_NEAR(s.start_times[1], 1e-6, 1e-12);
  EXPECT_NEAR(s.makespan, 3e-6, 1e-12);
  // Mode 1 idles while mode 0 runs its SNAP.
  EXPECT_NEAR(s.idle[1], 1e-6, 1e-12);
  EXPECT_LT(s.total_fidelity, 1.0);
}

// ---------------------------------------------------------------------
// Pass pipeline.
// ---------------------------------------------------------------------

TEST(Pipeline, EndToEndArtifact) {
  Rng rng(75);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = chain_circuit(5, 3);
  const auto artifact = transpile(c, proc);
  EXPECT_EQ(artifact->physical.space().num_sites(),
            static_cast<std::size_t>(proc.num_modes()));
  EXPECT_GT(artifact->schedule.makespan, 0.0);
  EXPECT_GT(artifact->schedule.total_fidelity, 0.0);
  EXPECT_LE(artifact->schedule.total_fidelity, 1.0);
  EXPECT_EQ(artifact->logical_ops, c.size());
  EXPECT_FALSE(artifact->summary().empty());
  // Default pipeline: commute-cancel, mapping, lookahead routing,
  // schedule -- one stats record per pass, in order.
  ASSERT_EQ(artifact->pass_stats.size(), 4u);
  EXPECT_EQ(artifact->pass_stats[0].pass, "commute-cancel");
  EXPECT_EQ(artifact->pass_stats[1].pass, "noise-aware-mapping");
  EXPECT_EQ(artifact->pass_stats[2].pass, "lookahead-routing");
  EXPECT_EQ(artifact->pass_stats[3].pass, "schedule");
  EXPECT_EQ(artifact->pass_stats[2].swaps_added, artifact->swaps_inserted);
}

TEST(Pipeline, NoiseAwareBeatsTrivialOnDisorderedDevice) {
  Rng rng(76);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = star_circuit(6, 3);
  TranspileOptions naive;
  naive.use_noise_aware_mapping = false;
  const auto a = transpile(c, proc);
  const auto b = transpile(c, proc, naive);
  // The mapper's predicted gate-error cost can never exceed the identity
  // placement (identity is one of its candidate seeds).
  EXPECT_LE(a->mapping.cost, b->mapping.cost + 1e-12);
}

TEST(Pipeline, DeterministicBitwiseForEqualOptions) {
  Rng rng(77);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = star_circuit(6, 3);
  const auto a = transpile(c, proc);
  const auto b = transpile(c, proc);
  // Two identical requests produce bitwise-identical physical circuits:
  // same fingerprint (hashes exact payload bits), same permutations,
  // same schedule bits.
  EXPECT_EQ(fingerprint(a->physical), fingerprint(b->physical));
  ASSERT_EQ(a->physical.size(), b->physical.size());
  for (std::size_t i = 0; i < a->physical.size(); ++i) {
    const Operation& x = a->physical.operations()[i];
    const Operation& y = b->physical.operations()[i];
    ASSERT_EQ(x.sites, y.sites);
    ASSERT_EQ(x.diagonal, y.diagonal);
    const std::size_t count =
        x.diagonal ? x.diag.size() : x.matrix.rows() * x.matrix.cols();
    const cplx* xs = x.diagonal ? x.diag.data() : x.matrix.data();
    const cplx* ys = y.diagonal ? y.diag.data() : y.matrix.data();
    for (std::size_t k = 0; k < count; ++k) ASSERT_EQ(xs[k], ys[k]);
  }
  EXPECT_EQ(a->final_logical_to_mode, b->final_logical_to_mode);
  EXPECT_EQ(a->schedule.start_times, b->schedule.start_times);
  EXPECT_EQ(a->schedule.total_fidelity, b->schedule.total_fidelity);
}

TEST(Pipeline, ValidatesRoutingAndScheduleRan) {
  Rng rng(78);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = chain_circuit(3, 3);
  PassManager incomplete;
  incomplete.add(std::make_unique<MappingPass>());
  EXPECT_THROW(incomplete.run(c, proc), std::invalid_argument);
  // A hand-built complete pipeline works without the optional passes.
  PassManager manual;
  manual.add(std::make_unique<MappingPass>());
  manual.add(std::make_unique<GreedyRoutingPass>());
  manual.add(std::make_unique<SchedulePass>());
  const auto artifact = manual.run(c, proc);
  EXPECT_EQ(artifact->pass_stats.size(), 3u);
  EXPECT_GT(artifact->schedule.makespan, 0.0);
}

TEST(Commutation, CancelsInversePairsAcrossCommutingGates) {
  // F(0), phase(1), F^dagger(0): the two F's cancel through the
  // commuting (disjoint-site) phase gate.
  const int d = 3;
  ProcessorConfig cfg;
  cfg.num_cavities = 2;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = d;
  const Processor proc(cfg);
  Circuit c(QuditSpace::uniform(2, d));
  const Matrix f = fourier(d);
  c.add("F", f, {0});
  c.add_diagonal("PHASE", {cplx(1, 0), cplx(0, 1), cplx(-1, 0)}, {1});
  c.add("Fdag", f.adjoint(), {0});
  TranspileOptions off;
  off.commute_gates = false;
  const auto with = transpile(c, proc);
  const auto without = transpile(c, proc, off);
  EXPECT_EQ(with->physical.size() - static_cast<std::size_t>(
                                        with->swaps_inserted),
            1u);
  EXPECT_EQ(without->physical.size() -
                static_cast<std::size_t>(without->swaps_inserted),
            3u);
  // Semantics: populations agree between both physical circuits once
  // un-permuted (checked exhaustively by Routing.RandomizedMixed below;
  // here the cancelled circuit must act as the lone phase gate).
  const StateVector out = test_support::final_state(with->physical);
  EXPECT_NEAR(std::norm(out.amplitude(0)), 1.0, 1e-12);
}

TEST(Routing, LookaheadPlusCommutationBeatSeedRouterOnRotor2D) {
  // The Table I rotor-ladder Trotter step under identity placement (the
  // regime where the swap network dominates): the lookahead router must
  // strictly reduce inserted swaps vs the greedy seed router.
  Rng rng(3);
  const Processor proc = Processor::forecast_device(&rng);
  const Hamiltonian h = gauge_ladder_2d(9, 2, {4, 1.0, 1.0});
  const Circuit step = native_trotter_circuit(h, {2, 0.1, 1});
  TranspileOptions seed_router;
  seed_router.use_noise_aware_mapping = false;
  seed_router.commute_gates = false;
  seed_router.lookahead_routing = false;
  TranspileOptions optimized;
  optimized.use_noise_aware_mapping = false;
  const auto baseline = transpile(step, proc, seed_router);
  const auto tuned = transpile(step, proc, optimized);
  EXPECT_GT(baseline->swaps_inserted, 0);
  EXPECT_LT(tuned->swaps_inserted, baseline->swaps_inserted);
  EXPECT_LT(tuned->schedule.makespan, baseline->schedule.makespan);
}

/// Marginal populations of the logical register extracted from a routed
/// physical state via the final logical->mode permutation.
std::vector<double> unpermuted_populations(
    const Circuit& physical, const std::vector<double>& phys_probs,
    const QuditSpace& logical_space, const std::vector<int>& final_l2m) {
  std::vector<double> probs(logical_space.dimension(), 0.0);
  const QuditSpace& phys_space = physical.space();
  for (std::size_t i = 0; i < phys_probs.size(); ++i) {
    if (phys_probs[i] == 0.0) continue;
    std::vector<int> digits(logical_space.num_sites());
    for (std::size_t q = 0; q < digits.size(); ++q)
      digits[q] = phys_space.digit(i, static_cast<std::size_t>(final_l2m[q]));
    probs[logical_space.index_of(digits)] += phys_probs[i];
  }
  return probs;
}

TEST(Routing, RandomizedMixedCircuitsPreservePopulations) {
  // Randomized mixed circuits routed by both routers: the physical
  // circuit, executed and un-permuted, must reproduce the logical
  // circuit's exact populations.
  Rng rng(91);
  ProcessorConfig cfg;
  cfg.num_cavities = 4;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const int d = 3;
  for (int trial = 0; trial < 8; ++trial) {
    Circuit logical(QuditSpace::uniform(3, d));
    for (int g = 0; g < 10; ++g) {
      if (rng.bernoulli(0.5)) {
        logical.add("U", random_unitary(d, rng),
                    {rng.integer(0, 2)});
      } else {
        int a = rng.integer(0, 2);
        int b = rng.integer(0, 2);
        if (a == b) b = (b + 1) % 3;
        if (rng.bernoulli(0.5))
          logical.add("CSUM", csum(d, d), {a, b});
        else
          logical.add("CZ", cz(d, d), {a, b});
      }
    }
    // Scattered placement so routing actually happens.
    std::vector<int> placement = {0, 3, 1};
    const StateVector ideal = test_support::final_state(logical);
    std::vector<double> want(ideal.dimension());
    for (std::size_t i = 0; i < want.size(); ++i)
      want[i] = std::norm(ideal.amplitude(i));

    for (const bool lookahead : {false, true}) {
      const RoutingResult routed =
          lookahead
              ? route_circuit_lookahead(logical, proc, placement)
              : route_circuit(logical, proc, placement);
      const StateVector phys_out = test_support::final_state(routed.physical);
      std::vector<double> phys_probs(phys_out.dimension());
      for (std::size_t i = 0; i < phys_probs.size(); ++i)
        phys_probs[i] = std::norm(phys_out.amplitude(i));
      const std::vector<double> got = unpermuted_populations(
          routed.physical, phys_probs, logical.space(),
          routed.final_logical_to_mode);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-9)
            << "trial " << trial << " lookahead " << lookahead
            << " index " << i;
    }
  }
}

TEST(Scheduler, AlapDelaysStartsAndKeepsMakespan) {
  ProcessorConfig cfg;
  cfg.num_cavities = 2;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 2;
  const Processor proc(cfg);
  Circuit phys(QuditSpace::uniform(2, 2));
  phys.add("SNAP", snap({0.1, 0.2}), {0}, 1e-6);
  phys.add("SNAP2", snap({0.3, 0.1}), {0}, 2e-6);
  phys.add("SNAP3", snap({0.2, 0.4}), {1}, 1e-6);
  const ScheduleResult asap = schedule_asap(phys, proc, {0, 1});
  const ScheduleResult alap = schedule_alap(phys, proc, {0, 1});
  EXPECT_DOUBLE_EQ(alap.makespan, asap.makespan);
  EXPECT_DOUBLE_EQ(alap.gate_fidelity, asap.gate_fidelity);
  ASSERT_EQ(alap.start_times.size(), asap.start_times.size());
  for (std::size_t i = 0; i < alap.start_times.size(); ++i)
    EXPECT_GE(alap.start_times[i], asap.start_times[i] - 1e-15);
  // The lone mode-1 gate has slack: ALAP pushes it to the end.
  EXPECT_NEAR(alap.start_times[2], asap.makespan - 1e-6, 1e-15);
  EXPECT_DOUBLE_EQ(asap.start_times[2], 0.0);
  // The ALAP direction is selectable through the pipeline.
  TranspileOptions opts;
  opts.schedule = ScheduleDirection::kAlap;
  Rng rng(92);
  const Processor device = Processor::forecast_device(&rng);
  const auto artifact = transpile(chain_circuit(3, 3), device, opts);
  EXPECT_GT(artifact->schedule.makespan, 0.0);
}

// ---------------------------------------------------------------------
// Transpile cache.
// ---------------------------------------------------------------------

TEST(TranspileCacheTest, HitsMissesAndKeySensitivity) {
  Rng rng(93);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = chain_circuit(4, 3);
  TranspileCache cache(8);
  const auto a = cache.get_or_transpile(c, proc);
  const auto b = cache.get_or_transpile(c, proc);
  EXPECT_EQ(a.get(), b.get());  // same artifact object
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A different anneal seed is a different key.
  TranspileOptions other;
  other.seed = 1234;
  const auto c2 = cache.get_or_transpile(c, proc, other);
  EXPECT_NE(c2.get(), a.get());
  EXPECT_EQ(cache.misses(), 2u);
  // A different device is a different key.
  Rng rng2(94);
  const Processor disorder = Processor::forecast_device(&rng2);
  cache.get_or_transpile(c, disorder);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(TranspileCacheTest, ConcurrentSameKeyTranspilesOnce) {
  Rng rng(95);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit c = star_circuit(5, 3);
  TranspileCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TranspiledCircuit>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { got[t] = cache.get_or_transpile(c, proc); });
  for (std::thread& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kThreads - 1));
}

// ---------------------------------------------------------------------
// Parametric transpilation: structure-only passes, shared artifacts.
// ---------------------------------------------------------------------

/// Uniform-qutrit chain with Fouriers, CSUM entanglers, and parametric
/// phase + rotation layers over two parameter slots.
Circuit parametric_chain(int n, int d) {
  Circuit c(QuditSpace::uniform(static_cast<std::size_t>(n), d));
  const auto phase = make_diagonal_generator(0x70aa, [d](double angle) {
    std::vector<cplx> diag(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k)
      diag[static_cast<std::size_t>(k)] = std::exp(cplx{0.0, angle * k});
    return diag;
  });
  const Matrix h = fourier(d) + fourier(d).adjoint();
  const auto rot = make_dense_generator(0x70bb, [h](double angle) {
    return expm_hermitian(h, cplx{0.0, -angle});
  });
  for (int i = 0; i < n; ++i) c.add("F", fourier(d), {i});
  for (int i = 0; i + 1 < n; ++i) c.add("CSUM", csum(d, d), {i, i + 1});
  for (int i = 0; i < n; ++i)
    c.add_parametric("PH", phase, ParamExpr{i % 2, 1.0, 0.1 * i}, {i});
  for (int i = 0; i + 1 < n; ++i) c.add("CSUM", csum(d, d), {i, i + 1});
  for (int i = 0; i < n; ++i)
    c.add_parametric("ROT", rot, ParamExpr{i % 2, 0.5, 0.0}, {i});
  return c;
}

TEST(TranspileParametric, CacheSharesOneArtifactAcrossBindings) {
  Rng rng(97);
  const Processor proc = Processor::forecast_device(&rng);
  const Circuit symbolic = parametric_chain(4, 3);
  TranspileCache cache(8);
  const auto art = cache.get_or_transpile(symbolic, proc);
  const auto art1 = cache.get_or_transpile(symbolic.bind({0.3, -0.7}), proc);
  const auto art2 = cache.get_or_transpile(symbolic.bind({1.1, 0.2}), proc);
  // One structural key: the symbolic circuit and every binding share the
  // same transpiled artifact (a sweep transpiles exactly once).
  EXPECT_EQ(art.get(), art1.get());
  EXPECT_EQ(art.get(), art2.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(TranspileParametric, BindCommutesWithTranspilationBothRouters) {
  // The hard contract end to end: transpiling the symbolic circuit and
  // binding the lowered plan equals transpiling the bound circuit and
  // lowering it -- bitwise -- for both routers. Passes may only read
  // structure, so the physical circuits differ solely in parametric
  // payload bits (equal structural digests).
  // Small 4-mode qutrit device: the routed physical register stays
  // state-vector simulable (3^4 amplitudes).
  ProcessorConfig cfg;
  cfg.num_cavities = 4;
  cfg.modes_per_cavity = 1;
  cfg.levels_per_mode = 3;
  const Processor proc(cfg);
  const Circuit symbolic = parametric_chain(4, 3);
  const std::vector<double> params = {0.37, -1.2};
  const Circuit bound = symbolic.bind(params);

  for (const bool lookahead : {false, true}) {
    TranspileOptions opts;
    opts.lookahead_routing = lookahead;
    const auto sym_art = transpile(symbolic, proc, opts);
    const auto bound_art = transpile(bound, proc, opts);
    EXPECT_EQ(structural_fingerprint(sym_art->physical),
              structural_fingerprint(bound_art->physical));
    EXPECT_EQ(sym_art->final_logical_to_mode, bound_art->final_logical_to_mode);

    const CompiledCircuit sym_plan(sym_art->physical, NoiseModel(),
                                   PlanOptions{});
    ASSERT_TRUE(sym_plan.parametric());
    EXPECT_EQ(sym_plan.num_parameters(), 2u);
    const auto bound_plan = sym_plan.bind(params);
    const CompiledCircuit rebuilt(bound_art->physical, NoiseModel(),
                                  PlanOptions{});
    StateVector via_bind(sym_art->physical.space());
    StateVector via_rebuild(bound_art->physical.space());
    kernels::Scratch scratch;
    bound_plan->run_pure(via_bind, scratch);
    rebuilt.run_pure(via_rebuild, scratch);
    ASSERT_EQ(via_bind.dimension(), via_rebuild.dimension());
    for (std::size_t i = 0; i < via_bind.dimension(); ++i)
      EXPECT_EQ(via_rebuild.amplitude(i), via_bind.amplitude(i))
          << "lookahead " << lookahead << " amplitude " << i;
  }
}

}  // namespace
}  // namespace qs
