// Discrete-event scenario engine: drives a real JobService through a
// seeded WorkloadSpec under virtual time, recording every lifecycle
// edge into a flight-recorder journal.
//
// Determinism recipe (the whole point): the service starts paused and
// the single driver thread owns the clock. Each tick it (1) advances
// the ManualClock and seals the journal below the new time (the
// previous tick's drain waited on every handle and its snapshot cut is
// recorded, so no older event can still arrive), (2) submits the
// tick's arrivals -- each a copy of its (tenant, variant) job, built
// once on first draw -- and performs its cancels and recalibration
// storms while dispatch is paused, (3) resumes and drains fully -- the
// clock stays frozen during the drain, so every dispatch/finish
// timestamp is tick-quantized -- then pauses again and (4) records a
// metrics snapshot cut when due. Because every journal timestamp is a
// pure function of (spec, tick) and every job's outcome is a pure
// function of its frozen seed, the exported journal is bitwise
// identical for ANY worker count: the replay contract
// tools/replay_check.py enforces in CI. Sealing only moves finished
// ticks from event structs to canonical text, so it changes memory,
// not bytes (obs/journal.h).
#ifndef QS_SIM_SCENARIO_H
#define QS_SIM_SCENARIO_H

#include <cstddef>
#include <cstdint>

#include "exec/backend.h"
#include "obs/journal.h"
#include "sim/workload.h"

namespace qs {
namespace sim {

/// Execution knobs the replay contract promises are irrelevant to the
/// journal bytes -- the 1-vs-8-workers CI diff exists to prove it.
struct ScenarioOptions {
  std::size_t workers = 2;
  std::size_t max_batch = 16;
};

/// Tallies of one run, summarized from the service's final telemetry
/// (the journal holds the full story).
struct ScenarioReport {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t recalibrations = 0;
  std::uint64_t snapshots = 0;  ///< kSnapshot cuts recorded
  std::uint64_t final_epoch = 0;

  /// Every submitted job reached exactly one terminal state.
  bool accounted() const {
    return submitted == completed + failed + cancelled + expired;
  }
};

/// Runs `spec` against a JobService over `backend`, recording into
/// `journal` (header `spec=` set from the spec; sealed at every clock
/// advance; events canonically ordered on export). The backend must be
/// deterministic for seeded requests (every in-tree backend is). Throws
/// std::runtime_error when a snapshot cut catches the telemetry out of
/// balance -- that is a serve-layer bug, not a workload property.
ScenarioReport run_scenario(const Backend& backend, const WorkloadSpec& spec,
                            obs::Journal& journal,
                            const ScenarioOptions& options = {});

}  // namespace sim
}  // namespace qs

#endif  // QS_SIM_SCENARIO_H
