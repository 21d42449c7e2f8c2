// Append-only flight recorder for the serve layer: every job lifecycle
// transition, every recalibration, and periodic metric snapshots, each
// stamped on the service's injected obs::Clock.
//
// The journal is the replay substrate of the scenario engine (src/sim/):
// because every timestamp is virtual (ManualClock) and every job's
// outcome is a pure function of its frozen seed, two runs of the same
// (seed, WorkloadSpec) produce bitwise-identical journals REGARDLESS of
// worker count -- recording order may differ across threads, but
// export is canonically sorted (time, job, type rank, serialized form),
// so the bytes coincide. Any telemetry anomaly captured in a journal
// therefore replays as a byte-exact regression test
// (tools/replay_check.py).
//
// Sealing: a recorder that knows no event older than t can still arrive
// calls seal_before(t). Every recorded event older than t is then
// sorted canonically, appended to an in-memory text of "E" lines, and
// its struct freed; t becomes the watermark. Time is the first sort
// key, so the sealed text followed by the still-open events, sorted the
// same way, is exactly the unsealed journal's byte stream: sealing
// changes memory, never bytes. The scenario engine seals at every clock
// advance, so only the current tick's events are held as structs; a
// journal nobody seals (a live JobService's) is one open segment. An
// event recorded below the watermark means that ordering assumption
// broke: it is not recorded, and write() throws std::logic_error
// naming the first such event (record() runs on worker threads, where
// an exception would end the process).
//
// Events are NOT spans: a Span is a sampled interval for humans reading
// a trace; a JournalEvent is one edge of the job state machine, complete
// enough for the invariant checker (src/sim/invariants.h) to replay the
// legal lifecycle and the counter-balance law
//   submitted == completed + failed + cancelled + expired + queued +
//   running
// at every kSnapshot cut.
//
// Lock order: the journal mutex is a leaf, like metrics shards and
// tracer rings -- recording while holding ServiceCore::mutex and/or a
// JobRecord::mutex adds the documented <subsystem lock> -> <leaf> edge
// and nothing else (see common/thread_annotations.h registry).
#ifndef QS_OBS_JOURNAL_H
#define QS_OBS_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace qs {
namespace obs {

/// One edge of the job state machine (or a service-level mark). The
/// numeric values are the canonical sort rank *within one timestamp and
/// job*: lifecycle edges sort in legal machine order. kSnapshot
/// additionally sorts after every event at its cut time (whatever its
/// job id), so a prefix-replay up to a snapshot sees every transition
/// the snapshot's counters counted.
enum class JournalEventType : std::uint8_t {
  kSubmitted = 0,     ///< job accepted; payload: seed, deadline_ns
  kDispatched = 1,    ///< popped onto a worker (kQueued -> kRunning)
  kCompleted = 2,     ///< finished with a result; payload: result digest
  kFailed = 3,        ///< backend threw; detail: error class
  kCancelled = 4,     ///< cancelled before dispatch
  kExpired = 5,       ///< deadline passed before dispatch
  kRecalibrated = 6,  ///< service-level; payload: new epoch
  kPaused = 7,        ///< service-level dispatch pause
  kResumed = 8,       ///< service-level dispatch resume
  kShutdown = 9,      ///< service-level; detail: drain|abort
  kSnapshot = 10,     ///< metrics cut; payload: JournalCounters
};

const char* to_string(JournalEventType type);

/// Balance-law counters captured at a kSnapshot cut (one consistent
/// MetricsRegistry cut, see obs/metrics.h).
struct JournalCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t queued = 0;   ///< gauge
  std::uint64_t running = 0;  ///< gauge
  std::uint64_t recalibrations = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t results_stored = 0;  ///< gauge
  std::uint64_t calib_epoch = 0;     ///< gauge

  bool balanced() const {
    return submitted ==
           completed + failed + cancelled + expired + queued + running;
  }
};

/// One recorded event. Strings are small labels (tenant, error class),
/// not payloads; every field serializes deterministically.
struct JournalEvent {
  std::uint64_t time_ns = 0;  ///< nanos_since_epoch on the injected clock
  JournalEventType type = JournalEventType::kSubmitted;
  std::uint64_t job = 0;  ///< 0 = service-level event
  std::string tenant;
  std::string detail;       ///< error class / shutdown mode / storm tag
  std::uint64_t seed = 0;   ///< kSubmitted: the frozen seed
  std::uint64_t epoch = 0;  ///< calibration epoch where relevant
  /// kSubmitted: absolute dispatch deadline (0 = none).
  std::uint64_t deadline_ns = 0;
  /// kCompleted: order-insensitive digest of the ExecutionResult's
  /// deterministic payload (counts, probabilities, expectations,
  /// mitigated histogram) -- the strongest replay divergence detector.
  std::uint64_t digest = 0;
  JournalCounters counters;  ///< kSnapshot only

  /// Canonical one-line serialization (no trailing newline).
  std::string serialize() const;
  /// Inverse of serialize(); throws std::runtime_error on a malformed
  /// line. Numbers must be canonical unsigned decimals, as serialize()
  /// writes them: digits only over the whole value, no sign, base
  /// prefix or leading zero.
  static JournalEvent parse(std::string_view line);
};

/// Thread-safe append-only recorder. `header` identifies the scenario
/// that produced the journal completely enough to re-run it
/// (tools/replay_check.py feeds it back through scenario_runner); the
/// deliberate omission of worker count from the header is the point --
/// it is not part of the journal's identity.
class Journal {
 public:
  Journal() = default;

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Free-form `key=value` header fields, written in insertion order.
  /// Call before concurrent recording starts (the scenario engine sets
  /// the header before the service spins up).
  void set_header(std::string key, std::string value);
  /// Value for `key`, or "" when absent.
  std::string header(const std::string& key) const;

  /// Appends one event (thread-safe; leaf mutex + vector push). An
  /// event older than the sealed watermark is not recorded; the first
  /// such event is kept and makes write() throw.
  void record(JournalEvent event);

  /// Seals every recorded event older than `time_ns`: sorts them in
  /// canonical order, appends their "E" lines to the sealed text, and
  /// frees their structs. The watermark rises to `time_ns` (it never
  /// falls), so the caller promises that no event older than `time_ns`
  /// is recorded from now on. Holds the leaf mutex while it sorts.
  void seal_before(std::uint64_t time_ns);

  /// Events recorded so far, sealed and open.
  std::size_t size() const;

  /// Deterministic text serialization:
  ///   line 1: "QSJ1" magic
  ///   then:   "H <key>=<value>" header lines (insertion order)
  ///   then:   "E <event>" lines in canonical order -- the sealed text,
  ///           then the open events sorted the same way
  ///   then:   "F count=<n>" footer
  /// Canonical order is (time, is-snapshot, job, type rank, serialized
  /// form); the final tiebreak on the serialized line makes it -- and
  /// therefore the bytes -- a pure function of the event *set*,
  /// independent of cross-thread recording interleaving and of where
  /// the journal was sealed. Throws std::logic_error, writing nothing,
  /// when an event was recorded below the watermark.
  void write(std::ostream& os) const;
  std::string str() const;

  /// Parsed journal: header fields + canonically ordered events.
  struct Parsed {
    std::vector<std::pair<std::string, std::string>> header;
    std::vector<JournalEvent> events;

    std::string header_value(const std::string& key) const;
  };
  /// Inverse of write(); throws std::runtime_error on malformed input
  /// (bad magic, malformed header, unrecognized line, unparseable event
  /// or footer, missing footer, footer count mismatch).
  static Parsed read(std::istream& is);

 private:
  mutable Mutex mutex_;  ///< leaf: nothing is acquired under it
  std::vector<std::pair<std::string, std::string>> header_
      QS_GUARDED_BY(mutex_);
  /// Open events: recorded at or above the watermark, not yet sealed.
  std::vector<JournalEvent> events_ QS_GUARDED_BY(mutex_);
  /// Canonical "E <event>\n" lines of every sealed event, in order.
  std::string sealed_ QS_GUARDED_BY(mutex_);
  std::size_t sealed_count_ QS_GUARDED_BY(mutex_) = 0;
  std::uint64_t watermark_ QS_GUARDED_BY(mutex_) = 0;
  /// Serialized form of the first event recorded below the watermark
  /// ("" = none; a serialized event is never empty).
  std::string late_ QS_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace qs

#endif  // QS_OBS_JOURNAL_H
