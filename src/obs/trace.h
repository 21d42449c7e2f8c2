// Span-based tracer for the job lifecycle, with bounded ring-buffer
// storage and Chrome trace_event / plain-text exporters.
//
// A Span is a POD interval (phase, job, tenant, start/end, epoch,
// cache-hit) -- no heap anywhere on the record path. Spans land in
// per-thread-shard ring buffers (preallocated at construction), so
// recording is one leaf-mutex acquisition plus a struct copy, and a
// long-running service keeps the most recent `capacity` spans per
// shard instead of growing without bound.
//
// Tracing off is free by construction: with no tracer each instrumented
// site is one null check, and a tracer paused with set_enabled(false)
// costs one relaxed load and returns a disarmed SpanTimer -- no clock
// read, no lock, no allocation. Callers therefore leave instrumentation in
// place unconditionally; bench_serve_throughput gates the <5% overhead
// budget for the *enabled* path (tools/bench_diff.py).
//
// Span taxonomy (see docs/ARCHITECTURE.md "Observability layer"):
// parentage is implied by phase, not by span ids -- kJob is the root
// interval of each job's timeline (Chrome tid = job id), every other
// job-phase nests inside it, and kPass nests inside kTranspile.
// Service-level spans (kRecalibrate) ride on tid 0.
//
// Lock order: Tracer shard mutexes are leaves (nothing is acquired
// under them); recording while holding a subsystem lock adds the same
// documented <subsystem lock> -> <leaf> edge as MetricsRegistry shards.
#ifndef QS_OBS_TRACE_H
#define QS_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace qs {
namespace obs {

/// Lifecycle phases, in nesting order. kJob is the per-job root;
/// kQueue..kStore are its children; kPass is a child of kTranspile;
/// kRecalibrate is a service-level root (job 0).
enum class Phase : std::uint8_t {
  kJob = 0,      ///< submit -> finish (root of a job's timeline)
  kSubmit,       ///< admission: validate, pin calibration, enqueue
  kQueue,        ///< enqueue -> scheduler pop (cross-thread, recorded at pop)
  kBatch,        ///< one scheduler batch execution (detail: "n=<jobs>")
  kTranspile,    ///< logical -> routed circuit (pass pipeline)
  kPass,         ///< one transpiler pass (detail: pass name)
  kLower,        ///< routed circuit -> CompiledCircuit
  kBind,         ///< parametric bind of a cached artifact
  kDispatch,     ///< a batch's per-job executions on its shared artifacts
  kExecute,      ///< backend shot execution
  kMitigate,     ///< readout-error mitigation
  kStore,        ///< result store insert
  kRecalibrate,  ///< calibration publish (service-level, job 0)
};

const char* phase_name(Phase phase);

/// One recorded interval. POD: fixed-size char fields, no heap. The
/// tenant/detail fields truncate at 23 chars -- attribute labels, not
/// payloads.
struct Span {
  static constexpr std::size_t kLabelBytes = 24;

  Phase phase = Phase::kJob;
  std::int8_t cache_hit = -1;  ///< -1 unknown, 0 miss, 1 hit
  std::uint64_t job = 0;       ///< 0 = service-level span
  std::uint64_t start_ns = 0;  ///< nanos_since_epoch(start)
  std::uint64_t end_ns = 0;
  std::uint64_t epoch = 0;  ///< calibration epoch (0 = not recorded)
  char tenant[kLabelBytes] = {};
  char detail[kLabelBytes] = {};

  void set_tenant(const char* s) { copy_label(tenant, s); }
  void set_detail(const char* s) { copy_label(detail, s); }

  static void copy_label(char (&dst)[kLabelBytes], const char* src) {
    if (!src) {
      dst[0] = '\0';
      return;
    }
    std::strncpy(dst, src, kLabelBytes - 1);
    dst[kLabelBytes - 1] = '\0';
  }
};

class Tracer;

/// RAII span: captures start on construction (when armed), stamps the
/// end and records on destruction. Disarmed timers (default, or from a
/// disabled tracer) are inert: every member is a no-op.
class SpanTimer {
 public:
  SpanTimer() = default;
  SpanTimer(SpanTimer&& other) noexcept
      : tracer_(other.tracer_), span_(other.span_) {
    other.tracer_ = nullptr;
  }
  SpanTimer& operator=(SpanTimer&& other) noexcept {
    if (this != &other) {
      finish();
      tracer_ = other.tracer_;
      span_ = other.span_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;
  ~SpanTimer() { finish(); }

  bool armed() const { return tracer_ != nullptr; }
  /// For spans opened before their job identity exists (e.g. kSubmit
  /// starts before the service allocates the JobId).
  void set_job(std::uint64_t job) {
    if (tracer_) span_.job = job;
  }
  void set_tenant(const char* s) {
    if (tracer_) span_.set_tenant(s);
  }
  void set_detail(const char* s) {
    if (tracer_) span_.set_detail(s);
  }
  void set_cache_hit(bool hit) {
    if (tracer_) span_.cache_hit = hit ? 1 : 0;
  }
  void set_epoch(std::uint64_t epoch) {
    if (tracer_) span_.epoch = epoch;
  }
  /// Records now instead of at scope exit.
  void finish();
  /// Drops the span without recording.
  void cancel() { tracer_ = nullptr; }

 private:
  friend class Tracer;
  SpanTimer(Tracer* tracer, Span span) : tracer_(tracer), span_(span) {}

  Tracer* tracer_ = nullptr;  ///< null = disarmed
  Span span_;
};

struct TracerOptions {
  /// Time source for every span boundary; defaults to the steady clock.
  /// Inject a ManualClock for bitwise-reproducible traces.
  const Clock* clock = nullptr;
  /// Ring shards (thread slots). 1 => a single global ring, which is
  /// what deterministic-trace tests want; production uses ~workers.
  std::size_t shards = 4;
  /// Spans retained per shard; older spans are overwritten (counted in
  /// dropped()).
  std::size_t capacity_per_shard = 4096;
  bool start_enabled = true;
};

/// Bounded, sharded span recorder. All methods are thread-safe.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The injected clock (named to dodge the nondeterminism lint's
  /// `clock(` pattern, which this accessor would otherwise resemble).
  const Clock& time_source() const { return *clock_; }
  TimePoint now() const { return clock_->now(); }

  /// Starts an RAII span. Disarmed (free: one relaxed load) when the
  /// tracer is disabled.
  SpanTimer span(Phase phase, std::uint64_t job = 0,
                 const char* tenant = nullptr);

  /// Builds a span over explicit boundaries -- for intervals whose
  /// start and end live on different threads (e.g. kQueue: stamped at
  /// submit, recorded at scheduler pop).
  static Span make(Phase phase, std::uint64_t job, const char* tenant,
                   TimePoint start, TimePoint end);

  /// Records a fully-built span (no-op while disabled).
  void record(const Span& span);

  /// Spans recorded since construction/clear (including overwritten).
  std::uint64_t recorded() const;
  /// Spans lost to ring overwrite.
  std::uint64_t dropped() const;

  /// Merged copy of all retained spans in deterministic order:
  /// (start, job, phase, detail, end). The sort makes two runs under
  /// the same ManualClock byte-identical on export even though shard
  /// interleaving differs.
  std::vector<Span> spans() const;

  /// Chrome trace_event JSON ("ph":"X" complete events, ts/dur in us),
  /// loadable in chrome://tracing or Perfetto. Each job renders as its
  /// own named thread (tid = job id) inside pid 1.
  void export_chrome_json(std::ostream& os) const;
  /// Human-readable table of the same spans.
  void export_text(std::ostream& os) const;

  /// Drops all retained spans and zeroes the counters.
  void clear();

 private:
  struct Shard {
    mutable Mutex mutex;
    std::vector<Span> ring QS_GUARDED_BY(mutex);  ///< preallocated
    std::uint64_t next QS_GUARDED_BY(mutex) = 0;  ///< total ever written
  };
  Shard& shard_for_current_thread() const;

  const Clock* clock_;
  std::atomic<bool> enabled_;
  std::size_t capacity_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Trace identity that rides along an ExecutionRequest so the exec and
/// compiler layers can attribute spans to the serve-layer job that
/// caused them. POD and cheap to copy; inactive (all-null) by default,
/// so standalone exec users pay nothing.
struct TraceContext {
  Tracer* tracer = nullptr;
  std::uint64_t job = 0;
  char tenant[Span::kLabelBytes] = {};

  void set_tenant(const char* s) { Span::copy_label(tenant, s); }
  /// Starts a span attributed to this context (disarmed if inactive).
  SpanTimer span(Phase phase) const {
    return tracer ? tracer->span(phase, job, tenant) : SpanTimer();
  }
};

/// Stack-scoped thread-local trace context: lets deep layers with no
/// request parameter (e.g. PassManager::run, cache producer lambdas)
/// attribute spans to the job currently executing on this thread.
/// Restores the previous context on destruction, so nesting is safe.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  /// The context installed on this thread (inactive default if none).
  static const TraceContext& current();

 private:
  TraceContext previous_;
};

}  // namespace obs
}  // namespace qs

#endif  // QS_OBS_TRACE_H
