// Seeded multi-tenant workload descriptions for the scenario engine.
//
// A WorkloadSpec is the complete, serializable identity of a synthetic
// serving scenario: per-tenant Poisson/burst arrival processes over one
// of the paper's circuit families (QAOA coloring, QRC probes, SQED
// Trotter steps, tomography probes), recalibration-storm and
// cancel-flood schedules, dispatch-pause windows, and metric-snapshot
// cadence, all under one root seed. serialize()/parse() round-trip the
// spec through a single line of text so a flight-recorder journal
// (obs/journal.h) can embed the spec in its header -- replaying a
// journal is then just re-running scenario_runner on the header line
// and diffing bytes (tools/replay_check.py).
//
// Everything derived from the spec is a pure function of (spec, tick):
// arrival counts, sweep variants, deadline and cancel coin flips all
// draw from split_seed-derived per-(tenant, tick) streams, never from
// call history, so the scenario engine reproduces the same submission
// sequence for any worker count.
#ifndef QS_SIM_WORKLOAD_H
#define QS_SIM_WORKLOAD_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "serve/job.h"

namespace qs {
namespace sim {

/// Circuit family a tenant submits, one per paper application.
enum class JobKind {
  kQaoa = 0,  ///< p=1 coloring ansatz on a triangle (dim 27)
  kQrc = 1,   ///< displacement/probe reservoir circuit on {2,4} (dim 8)
  kSqed = 2,  ///< Trotterized 2-rotor gauge chain step (dim 9)
  kTomo = 3,  ///< Fourier/CSUM tomography probe on {2,2} (dim 4)
};

/// "qaoa", "qrc", "sqed", "tomo".
const char* to_string(JobKind kind);

/// One tenant's arrival process and job shape.
struct TenantSpec {
  std::string name = "tenant";
  JobKind kind = JobKind::kQrc;
  /// Mean arrivals per tick (Poisson).
  double rate = 1.0;
  /// Rate multiplier inside a burst window (1 = no bursts).
  double burst_factor = 1.0;
  /// Ticks between burst starts (0 = never bursts).
  std::uint64_t burst_period = 0;
  /// Burst duration in ticks.
  std::uint64_t burst_length = 1;
  int priority = 0;
  /// Fraction of arrivals submitted with a dispatch deadline.
  double deadline_fraction = 0.0;
  double deadline_seconds = 0.0;
  /// Fraction of arrivals the tenant cancels in the same tick (client
  /// churn; on flood ticks the flood fraction applies instead).
  double cancel_fraction = 0.0;
  std::size_t shots = 64;
  /// Distinct sweep points (circuits) the tenant cycles through; small,
  /// so the service's plan cache turns arrivals into cache hits.
  std::size_t variants = 4;
};

/// Complete scenario identity. The spec deliberately does NOT mention
/// worker count, batch size, or any other execution knob that the
/// replay contract promises is irrelevant to the journal bytes.
struct WorkloadSpec {
  std::uint64_t seed = 1;
  std::uint64_t ticks = 100;
  /// Virtual seconds the ManualClock advances per tick.
  double tick_seconds = 1.0;
  /// Metric-snapshot cadence in ticks (0 = only the final cut).
  std::uint64_t snapshot_every = 10;
  /// ResultStore TTL; shorter than the run so TTL eviction is exercised.
  double result_ttl_seconds = 30.0;
  /// Ticks starting a recalibration storm (DriftModel-driven burst of
  /// `storm_publishes` snapshot publishes).
  std::vector<std::uint64_t> storm_ticks;
  std::size_t storm_publishes = 4;
  /// Ticks on which cancel churn spikes to `flood_cancel_fraction`.
  std::vector<std::uint64_t> flood_ticks;
  double flood_cancel_fraction = 0.8;
  /// Dispatch-pause windows [start, end): the engine keeps the service
  /// paused while the clock ticks on, so queues build and short
  /// deadlines expire at the resume edge -- the deadline/TTL pressure
  /// mechanism.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pause_windows;
  std::vector<TenantSpec> tenants;

  /// One-line `key=value ...` form, exact round-trip through parse()
  /// (doubles print with max_digits10). Embedded as the journal's
  /// `spec` header field.
  std::string serialize() const;
  /// Inverse of serialize(); throws std::runtime_error on malformed
  /// input, non-finite numbers and seconds above obs::kMaxSeconds.
  static WorkloadSpec parse(const std::string& line);

  /// The canonical mixed scenario: four tenants (bursty QAOA sweeps,
  /// steady QRC probes, low-priority SQED scans, deadline-heavy
  /// tomography), three storms, one cancel flood, one pause window.
  static WorkloadSpec standard(std::uint64_t seed, std::uint64_t ticks);

  /// Mean submissions per tick implied by the tenant rates (burst
  /// windows included).
  double expected_jobs_per_tick() const;
  /// Scales every tenant rate so the whole run submits ~`jobs` jobs.
  void scale_to_jobs(std::uint64_t jobs);

  /// True when `tick` falls inside a pause window / on a flood tick /
  /// on a storm tick.
  bool paused_at(std::uint64_t tick) const;
  bool flood_at(std::uint64_t tick) const;
  bool storm_at(std::uint64_t tick) const;
};

/// Deterministic circuit of the tenant's `variant`-th sweep point
/// (pure function of (kind, variant); the engine caches copies).
Circuit make_circuit(JobKind kind, std::size_t variant);

/// JobSpec of the tenant's `variant`-th sweep point: circuit, tenant
/// identity, priority, shots, and a dimension-derived diagonal
/// observable (the engine builds each once and copies it per arrival).
/// Deadlines and cancels are the engine's per-tick coin flips, not part
/// of the shape.
JobSpec make_job(const TenantSpec& tenant, std::size_t variant);

}  // namespace sim
}  // namespace qs

#endif  // QS_SIM_WORKLOAD_H
