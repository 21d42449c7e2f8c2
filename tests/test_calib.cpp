// Calibration & characterization subsystem tests, including the pinned
// end-to-end scenario: seeded drift produces distinct epochs, calibrated
// processor fingerprints key the transpile cache (miss on epoch change,
// hit on repeat), a degraded mode provably changes the mapping decision,
// and mitigated histograms are bitwise reproducible for a fixed
// (snapshot, seed) pair through both ExecutionSession and the serve
// layer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "calib/calib.h"
#include "compiler/pipeline.h"
#include "compiler/mapping.h"
#include "compiler/transpile_cache.h"
#include "exec/exec.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "noise/noise_model.h"
#include "serve/serve.h"

namespace qs {
namespace {

NoiseModel device_noise() {
  NoiseParams p;
  p.depol_1q = 0.02;
  p.depol_2q = 0.03;
  p.loss_per_gate = 0.01;
  p.idle_loss_rate = 2000.0;
  return NoiseModel(p);
}

/// Two-logical-qudit workload circuit on d = 8 sites (fits the testbed).
Circuit workload_circuit() {
  Circuit c(QuditSpace({8, 8}));
  c.add("F", fourier(8), {0});
  c.add("CSUM", csum(8, 8), {0, 1});
  c.add("F2", fourier(8), {1});
  c.add("CSUM2", csum(8, 8), {0, 1});
  return c;
}

/// Tiny 2-mode d=4 device for the (simulation-heavy) characterization
/// tests.
Processor tiny_device() {
  ProcessorConfig cfg;
  cfg.num_cavities = 1;
  cfg.modes_per_cavity = 2;
  cfg.levels_per_mode = 4;
  cfg.mode_t1 = 0.5e-3;
  cfg.transmon_t1 = 50e-6;
  return Processor(cfg);
}

// --- snapshot -----------------------------------------------------------

TEST(Snapshot, NominalMatchesAnalyticModelAndValidates) {
  const Processor proc = Processor::testbed_device();
  const CalibrationSnapshot snap = CalibrationSnapshot::nominal(proc, 0.02);
  EXPECT_EQ(snap.num_modes(), proc.num_modes());
  EXPECT_EQ(snap.epoch, 1u);
  for (int m = 0; m < proc.num_modes(); ++m) {
    EXPECT_NEAR(snap.op(NativeOp::kSnap, m).fidelity,
                1.0 - proc.native_op_error(NativeOp::kSnap, m), 1e-12);
    EXPECT_DOUBLE_EQ(snap.op(NativeOp::kSnap, m).duration,
                     proc.durations().snap);
    EXPECT_DOUBLE_EQ(snap.modes[static_cast<std::size_t>(m)].t1,
                     proc.mode(m).t1);
    // Confusion columns are stochastic (validate() checked it already,
    // assert one explicitly).
    double col = 0.0;
    for (const auto& row : snap.confusion[static_cast<std::size_t>(m)])
      col += row[0];
    EXPECT_NEAR(col, 1.0, 1e-12);
  }
  // A calibrated view answers error queries from the snapshot.
  auto shared = std::make_shared<const CalibrationSnapshot>(snap);
  const Processor view = proc.with_calibration(shared);
  EXPECT_TRUE(view.has_calibration());
  EXPECT_EQ(view.calibration_epoch(), 1u);
  for (int m = 0; m < proc.num_modes(); ++m)
    EXPECT_NEAR(view.native_op_error(NativeOp::kGivens, m),
                proc.native_op_error(NativeOp::kGivens, m), 1e-12);
}

TEST(Snapshot, ValidateRejectsMalformedTables) {
  const Processor proc = Processor::testbed_device();
  CalibrationSnapshot snap = CalibrationSnapshot::nominal(proc);
  snap.ops[0][0].fidelity = 1.5;
  EXPECT_THROW(snap.validate(), std::invalid_argument);
  snap = CalibrationSnapshot::nominal(proc);
  snap.confusion[1][0][0] = 0.5;  // column no longer sums to 1
  EXPECT_THROW(snap.validate(), std::invalid_argument);
  snap = CalibrationSnapshot::nominal(proc);
  snap.modes.pop_back();
  EXPECT_THROW(snap.validate(), std::invalid_argument);
  // A snapshot for a different device is rejected at attach time.
  const Processor other = Processor::forecast_device();
  EXPECT_THROW(other.with_calibration(std::make_shared<
                   const CalibrationSnapshot>(
                   CalibrationSnapshot::nominal(proc))),
               std::invalid_argument);
}

TEST(Snapshot, DegradeModeScalesErrorsAndAdvancesEpoch) {
  const Processor proc = Processor::testbed_device();
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc);
  const CalibrationSnapshot bad = degrade_mode(base, 1, 10.0);
  EXPECT_EQ(bad.epoch, base.epoch + 1);
  const double base_err = 1.0 - base.op(NativeOp::kSnap, 1).fidelity;
  const double bad_err = 1.0 - bad.op(NativeOp::kSnap, 1).fidelity;
  EXPECT_NEAR(bad_err, 10.0 * base_err, 1e-9);
  // Other modes untouched.
  EXPECT_DOUBLE_EQ(bad.op(NativeOp::kSnap, 0).fidelity,
                   base.op(NativeOp::kSnap, 0).fidelity);
}

// --- drift --------------------------------------------------------------

TEST(Drift, AdvanceIsBitwiseDeterministic) {
  const Processor proc = Processor::testbed_device();
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc, 0.01);
  const DriftModel drift(42);
  const CalibrationSnapshot a = drift.advance(base, 600.0);
  const CalibrationSnapshot b = drift.advance(base, 600.0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.epoch, base.epoch + 1);
  EXPECT_DOUBLE_EQ(a.wall_time_seconds, base.wall_time_seconds + 600.0);
  // A different model seed walks elsewhere.
  const DriftModel other(43);
  EXPECT_NE(other.advance(base, 600.0).fingerprint(), a.fingerprint());
  // Replay chains advance() and is itself reproducible.
  const auto h1 = drift.replay(base, 600.0, 3);
  const auto h2 = drift.replay(base, 600.0, 3);
  ASSERT_EQ(h1.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(h1[static_cast<std::size_t>(i)].fingerprint(),
              h2[static_cast<std::size_t>(i)].fingerprint());
    EXPECT_EQ(h1[static_cast<std::size_t>(i)].epoch,
              base.epoch + 1 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(h1[0].fingerprint(), a.fingerprint());
}

TEST(Drift, EvolvedSnapshotsStayValidAndDegrade) {
  const Processor proc = Processor::testbed_device();
  const DriftModel drift(7);
  CalibrationSnapshot snap = CalibrationSnapshot::nominal(proc, 0.02);
  double first_fidelity = snap.op(NativeOp::kSnap, 0).fidelity;
  for (int step = 0; step < 8; ++step)
    snap = drift.advance(snap, 1800.0);  // validate() runs inside
  // The systematic degradation bias dominates over 4 hours of drift.
  EXPECT_LT(snap.op(NativeOp::kSnap, 0).fidelity, first_fidelity);
}

// --- store --------------------------------------------------------------

TEST(Store, VersionedPublishLatestAndEviction) {
  CalibrationStore store(2);
  EXPECT_EQ(store.latest(), nullptr);
  EXPECT_EQ(store.latest_epoch(), 0u);
  const Processor proc = Processor::testbed_device();
  CalibrationSnapshot s1 = CalibrationSnapshot::nominal(proc);
  store.publish(s1);
  EXPECT_EQ(store.latest_epoch(), 1u);
  // Epochs must strictly increase.
  EXPECT_THROW(store.publish(s1), std::invalid_argument);
  CalibrationSnapshot s2 = s1;
  s2.epoch = 2;
  CalibrationSnapshot s3 = s1;
  s3.epoch = 5;
  store.publish(s2);
  store.publish(s3);
  EXPECT_EQ(store.latest_epoch(), 5u);
  EXPECT_EQ(store.size(), 2u);  // capacity 2: epoch 1 evicted
  EXPECT_EQ(store.at_epoch(1), nullptr);
  ASSERT_NE(store.at_epoch(2), nullptr);
  EXPECT_EQ(store.at_epoch(2)->epoch, 2u);
  EXPECT_EQ(store.published(), 3u);
}

TEST(Store, ConcurrentReadersAndPublisher) {
  CalibrationStore store(8);
  const Processor proc = Processor::testbed_device();
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r)
    readers.emplace_back([&] {
      std::uint64_t last = 0;
      while (!stop.load()) {
        const auto snap = store.latest();
        if (snap != nullptr) {
          EXPECT_GE(snap->epoch, last);  // epochs only move forward
          last = snap->epoch;
          store.at_epoch(last);
        }
      }
    });
  for (std::uint64_t e = 1; e <= 200; ++e) {
    CalibrationSnapshot snap = base;
    snap.epoch = e;
    store.publish(std::move(snap));
  }
  stop.store(true);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(store.latest_epoch(), 200u);
  EXPECT_EQ(store.published(), 200u);
}

// --- calibrated fingerprints + transpile cache (pinned) -----------------

TEST(CalibrationPinned, EpochChangesFingerprintAndTranspileCacheKeys) {
  const Processor proc = Processor::testbed_device();
  const DriftModel drift(1234);
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc, 0.01);
  auto s1 = std::make_shared<const CalibrationSnapshot>(
      drift.advance(base, 3600.0));
  auto s2 = std::make_shared<const CalibrationSnapshot>(
      drift.advance(*s1, 3600.0));

  const Processor p1 = proc.with_calibration(s1);
  const Processor p2 = proc.with_calibration(s2);
  // Two calibration epochs yield three distinct device identities.
  EXPECT_NE(fingerprint(proc), fingerprint(p1));
  EXPECT_NE(fingerprint(p1), fingerprint(p2));

  TranspileCache cache(8);
  const Circuit logical = workload_circuit();
  const auto a1 = cache.get_or_transpile(logical, p1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  // Same epoch again: hit, same artifact.
  const auto a1_again = cache.get_or_transpile(logical, p1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a1.get(), a1_again.get());
  // New epoch: automatic invalidation (a fresh key misses).
  cache.get_or_transpile(logical, p2);
  EXPECT_EQ(cache.misses(), 2u);
  // And the old epoch's artifact is still served from cache.
  cache.get_or_transpile(logical, p1);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(CalibrationPinned, DegradedModeChangesMappingDecision) {
  const Processor proc = Processor::testbed_device();
  auto healthy = std::make_shared<const CalibrationSnapshot>(
      CalibrationSnapshot::nominal(proc, 0.01));
  const Circuit logical = workload_circuit();
  const TranspileOptions options;

  const MappingResult before = map_qudits(
      logical, proc.with_calibration(healthy), options.seed);
  ASSERT_EQ(before.logical_to_mode.size(), 2u);
  // Degrade the first mode the healthy mapping chose; the noise-aware
  // mapper must route around it.
  const int victim = before.logical_to_mode[0];
  auto degraded = std::make_shared<const CalibrationSnapshot>(
      degrade_mode(*healthy, victim, 200.0));
  const MappingResult after = map_qudits(
      logical, proc.with_calibration(degraded), options.seed);
  for (int mode : after.logical_to_mode) EXPECT_NE(mode, victim);
  EXPECT_NE(before.logical_to_mode, after.logical_to_mode);
}

// --- mitigated execution (pinned) ---------------------------------------

TEST(CalibrationPinned, MitigatedHistogramsBitwiseThroughSessionAndServe) {
  const Processor proc = Processor::testbed_device();
  const TrajectoryBackend backend{device_noise()};
  const CalibrationSnapshot snapshot =
      CalibrationSnapshot::nominal(proc, 0.05);
  const std::uint64_t seed = 0xabcdef12345678ull;
  const std::size_t shots = 96;

  // Serve path: publish the snapshot, then run a hardware-targeted,
  // mitigation-enabled job.
  ServiceOptions service_options;
  service_options.workers = 2;
  JobService service(backend, service_options);
  const std::uint64_t epoch = service.recalibrate(snapshot);
  EXPECT_EQ(epoch, 1u);
  const auto pinned = service.calibration_store().latest();
  ASSERT_NE(pinned, nullptr);

  JobHandle handle = service.submit(JobSpec(workload_circuit())
                                        .with_shots(shots)
                                        .with_seed(seed)
                                        .with_compilation(proc)
                                        .with_readout_mitigation());
  const ExecutionResult served = handle.result();
  service.shutdown(ShutdownMode::kDrain);
  ASSERT_FALSE(served.mitigated.empty());
  EXPECT_EQ(served.calib_epoch, 1u);

  // Session path: the same calibrated view, seed, and snapshot.
  const Processor view = proc.with_calibration(pinned);
  const ExecutionRequest request = ExecutionRequest(workload_circuit())
                                       .with_shots(shots)
                                       .with_seed(seed)
                                       .with_compilation(view)
                                       .with_readout_mitigation(pinned);
  auto run_session = [&] {
    ExecutionSession session(backend);
    return session.submit(request);
  };
  const ExecutionResult direct = run_session();
  const ExecutionResult direct_again = run_session();

  // Standalone path: a direct backend call takes the same per-request
  // path, mitigation included.
  const ExecutionResult standalone = backend.execute(request);
  EXPECT_EQ(standalone.counts, direct.counts);
  EXPECT_EQ(standalone.mitigated, direct.mitigated);
  EXPECT_EQ(standalone.calib_epoch, direct.calib_epoch);

  // Bitwise reproducible for the fixed (snapshot, seed) pair: session vs
  // session, and session vs serve.
  EXPECT_EQ(direct.counts, direct_again.counts);
  EXPECT_EQ(direct.mitigated, direct_again.mitigated);
  EXPECT_EQ(direct.counts, served.counts);
  EXPECT_EQ(direct.mitigated, served.mitigated);
  EXPECT_EQ(direct.calib_epoch, served.calib_epoch);

  // Mitigation preserves the shot total and actually moved mass.
  double total = 0.0;
  bool moved = false;
  for (std::size_t i = 0; i < direct.mitigated.size(); ++i) {
    total += direct.mitigated[i];
    if (direct.mitigated[i] !=
        static_cast<double>(direct.counts[i]))
      moved = true;
  }
  EXPECT_NEAR(total, static_cast<double>(shots), 1e-9);
  EXPECT_TRUE(moved);
}

// --- serve recalibration trigger ----------------------------------------

TEST(ServeRecalibration, InvalidatesCachesAndCountsStaleHits) {
  const Processor proc = Processor::testbed_device();
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  JobService service(backend, options);
  const DriftModel drift(99);
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc, 0.01);
  service.recalibrate(base);

  // Job pinned at epoch 1; a recalibration lands while it is queued.
  JobHandle stale = service.submit(
      JobSpec(workload_circuit()).with_shots(8).with_compilation(proc));
  service.recalibrate(drift.advance(base, 3600.0));
  service.resume();
  EXPECT_EQ(stale.result().counts.size(), 4096u);

  // Fresh jobs pin epoch 2: new transpile key (miss), then a repeat hits.
  JobHandle fresh1 = service.submit(
      JobSpec(workload_circuit()).with_shots(8).with_compilation(proc));
  fresh1.wait();
  JobHandle fresh2 = service.submit(
      JobSpec(workload_circuit()).with_shots(8).with_compilation(proc));
  fresh2.wait();
  const ServiceTelemetry t = service.telemetry();
  service.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(t.calib_epoch, 2u);
  EXPECT_EQ(t.recalibrations, 2u);
  EXPECT_EQ(t.stale_hits, 1u);  // only the first job dispatched stale
  EXPECT_EQ(t.transpile_cache_misses, 2u);  // epoch 1 key + epoch 2 key
  EXPECT_EQ(t.transpile_cache_hits, 1u);    // fresh2 reuses fresh1's
}

TEST(ServeRecalibration, QueuedJobRunsOnItsPinnedSnapshot) {
  // A recalibration that lands while a hardware-targeted, mitigated job
  // is queued makes its dispatch a stale hit, but the job still runs --
  // and mitigates -- on the snapshot it pinned at submission: bitwise the
  // result of a service that never published the newer epoch.
  const Processor proc = Processor::testbed_device();
  const TrajectoryBackend backend{device_noise()};
  const CalibrationSnapshot base = CalibrationSnapshot::nominal(proc, 0.05);
  const JobSpec spec = JobSpec(workload_circuit())
                           .with_shots(16)
                           .with_seed(77)
                           .with_compilation(proc)
                           .with_readout_mitigation();
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;

  JobService drifted(backend, options);
  drifted.recalibrate(base);
  JobHandle queued = drifted.submit(spec);
  drifted.recalibrate(DriftModel(5).advance(base, 3600.0));
  drifted.resume();
  const ExecutionResult stale = queued.result();
  const ServiceTelemetry t = drifted.telemetry();
  drifted.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(t.calib_epoch, 2u);
  EXPECT_EQ(t.stale_hits, 1u);
  EXPECT_EQ(stale.calib_epoch, 1u);

  options.start_paused = false;
  JobService steady(backend, options);
  steady.recalibrate(base);
  const ExecutionResult pinned = steady.submit(spec).result();
  steady.shutdown(ShutdownMode::kDrain);
  EXPECT_EQ(steady.telemetry().stale_hits, 0u);
  ASSERT_FALSE(pinned.mitigated.empty());
  EXPECT_EQ(stale.counts, pinned.counts);
  EXPECT_EQ(stale.mitigated, pinned.mitigated);
}

// --- characterization drivers -------------------------------------------

TEST(Characterization, ProducesSaneSnapshotThroughExecLayer) {
  const Processor proc = tiny_device();
  const TrajectoryBackend backend{device_noise()};
  CharacterizationOptions options;
  options.sequence_lengths = {1, 6};
  options.shots = 400;
  options.probe_levels = 2;
  options.idle_window_scale = 0.2;  // deep idle decay: a sharp T1 estimate
  options.threads = 4;
  const CalibrationSnapshot snap =
      characterize(backend, proc, options, /*epoch=*/3);
  EXPECT_EQ(snap.epoch, 3u);
  EXPECT_EQ(snap.source, "characterization");
  EXPECT_EQ(snap.num_modes(), 2);

  for (int m = 0; m < 2; ++m) {
    // Depolarizing + loss noise shows up as sub-unit sequence fidelity.
    for (NativeOp op : {NativeOp::kDisplacement, NativeOp::kSnap,
                        NativeOp::kGivens, NativeOp::kCrossKerr,
                        NativeOp::kBeamsplitter}) {
      EXPECT_GT(snap.op(op, m).fidelity, 0.8) << "op " << static_cast<int>(op);
      EXPECT_LT(snap.op(op, m).fidelity, 0.9999)
          << "op " << static_cast<int>(op);
    }
    // Readout confusion from the measurement-hold loss: diagonal-heavy
    // but not ideal, columns stochastic.
    EXPECT_LT(snap.op(NativeOp::kMeasurement, m).fidelity, 1.0);
    EXPECT_GT(snap.op(NativeOp::kMeasurement, m).fidelity, 0.9);
    // T1 estimated from idle decay at idle_loss_rate = 2000/s.
    EXPECT_GT(snap.modes[static_cast<std::size_t>(m)].t1, 0.1e-3);
    EXPECT_LT(snap.modes[static_cast<std::size_t>(m)].t1, 2.0e-3);
  }
}

TEST(Characterization, BitwiseReproducibleForFixedSeed) {
  const Processor proc = tiny_device();
  const TrajectoryBackend backend{device_noise()};
  CharacterizationOptions options;
  options.sequence_lengths = {1, 4};
  options.shots = 120;
  options.probe_levels = 2;
  options.threads = 3;
  const CalibrationSnapshot a = characterize(backend, proc, options);
  CharacterizationOptions serial = options;
  serial.threads = 1;  // thread count must not leak into estimates
  const CalibrationSnapshot b = characterize(backend, proc, serial);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace qs
