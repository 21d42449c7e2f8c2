// Shared plumbing of the end-to-end benchmark: options, host-time and
// getrusage measurement, order statistics, the benchmark-side span log,
// tracer self-time accounting and the result record each workload fills.
//
// Everything here times the library from outside: wall time around
// public calls, getrusage at the process boundary, and the spans the
// library's own obs::Tracer already records where a public option
// accepts one. Nothing here reaches into src/.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nanoseconds on the steady clock -- the time base obs::Tracer spans
/// use, so benchmark spans and library spans share one timeline.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Command line of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: benchmark spans, the library tracer where a public
  /// option accepts one, per-call timing. End-to-end numbers never come
  /// from such a run.
  bool trace = false;
  /// Peak-memory probe: set up once, run exactly one iteration from a
  /// cold process, report the process peak RSS.
  bool rss_probe = false;
  /// Where the traced run writes its benchmark spans (empty = nowhere).
  std::string spans_out;
  /// Density-matrix reference populations for noisy-trajectories
  /// (computed and stored on first use).
  std::string reference;
};

/// Restricts the calling thread, and every thread it creates from then
/// on, to the `count` highest-numbered CPUs it may run on. On a shared
/// VM, waking a thread on an idle vCPU waits for the hypervisor, and a
/// short job spread over several vCPUs stalls whenever the host
/// deschedules any of them; each workload says why it uses its count.
void pin_to_cpus(int count);

/// Round trips a run needs before latency_p99_ms is a p99.
constexpr std::size_t kSamplesForP99 = 1000;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Process resource usage at one instant (getrusage(RUSAGE_SELF), so
/// every thread of the process counts; the peak from /proc/self/status).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double voluntary = 0.0;    ///< voluntary context switches
  double involuntary = 0.0;  ///< involuntary context switches
  double minor_faults = 0.0;
  double max_rss_mib = 0.0;  ///< process peak resident set so far

  static Usage now();
  double cpu_s() const { return user_s + sys_s; }
  /// Counter deltas (max_rss_mib keeps the later peak).
  Usage since(const Usage& earlier) const;
  /// Accumulates a delta (max_rss_mib keeps the larger peak).
  void add(const Usage& delta);
};

/// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> v);
/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it (the maximum when fewer than 1/(1-q) samples).
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// FNV-1a over raw bytes, chainable.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `attempted` counts jobs of the timed phase
/// (and the probe's iteration); a job is `failed` when it ended kFailed
/// or failed an output check. `correct` is false when any check failed.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// intended cancels/expiries, check details).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed output check: `jobs` jobs count as failed.
  void fail_check(const std::string& what, std::uint64_t jobs);
};

/// Runs `make` kSetupRepeats times (once for the memory probe), keeping
/// the last result; stores the median wall time of one setup in
/// `*median_s`.
template <class T>
std::unique_ptr<T> repeated_setup(
    const std::function<std::unique_ptr<T>()>& make, const Options& options,
    double* median_s) {
  std::vector<double> times;
  std::unique_ptr<T> kept;
  const int repeats = options.rss_probe ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    kept.reset();  // the previous setup is torn down outside the timing
    const Clock::time_point t0 = Clock::now();
    kept = make();
    times.push_back(seconds_since(t0));
  }
  *median_s = median(times);
  return kept;
}

/// The end-to-end metrics every workload prints (peak_rss_mb is added
/// by run.py from the separate cold probe process). `latencies_ms` are
/// the workload's round-trip samples; their count goes into the notes.
/// latency_p99_ms is the nearest-rank p99 when at least ten samples lie
/// beyond it; with fewer samples it reads the median. Below that count
/// the top percentiles of this VM's round trips counted host stalls: on
/// noisy-trajectories (~230 requests a run) even the p95.7 moved by a
/// third of its median across ten seeds.
void add_end_to_end(Report& report, double setup_s, double jobs_per_s,
                    const Usage& timed, double jobs,
                    const std::vector<double>& latencies_ms,
                    const std::string& latency_what);

/// proc.* per-layer metrics from a getrusage delta over `jobs` jobs.
void add_proc_metrics(Report& report, const Usage& delta, double jobs);

/// Benchmark-side spans: (name, start, end, parent) around the calls
/// the benchmark makes into the library. Kept in memory, written out
/// once at the end. Thread-safe.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  /// Opens a span now; returns its id (pass it as a child's parent).
  std::size_t begin(const char* name, std::size_t parent = kNoParent);
  /// Closes span `id` now.
  void end(std::size_t id);

  /// Durations of the spans called `name` (whose parent is called
  /// `parent`, when given), in microseconds.
  std::vector<double> durations_us(const std::string& name,
                                   const std::string& parent = "") const;

  /// Chrome trace_event JSON (complete events; args carry span and
  /// parent ids).
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::size_t parent;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span in a SpanLog (inert when the log is null).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name,
            std::size_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->begin(name, parent) : SpanLog::kNoParent) {}
  ~SpanScope() {
    if (log_) log_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::size_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::size_t id_;
};

/// Self time per obs::Phase from the library tracer's spans.
///
/// Tracer spans carry a job id but no thread, and parentage is implied by
/// phase (obs/trace.h), so the budget rebuilds each scheduler batch from
/// what the serve layer stamps exactly: every job popped together shares
/// one kQueue end (the pop time) and one kJob end (the batch finish).
/// That group's kBatch is the first one starting at or after the pop and
/// ending at or after the finish; its kDispatch is the latest one inside
/// it that covers all of the group's kExecute spans. Job-attributed
/// children (kTranspile, kLower, kStore of the group; kPass of a
/// kTranspile; kBind, kLower, kMitigate inside a kExecute) then nest
/// exactly. Self time = duration minus the children's durations.
class PhaseBudget {
 public:
  /// Adds one set of spans (e.g. one traced burst). Jobs whose tenant is
  /// `focus_tenant` are also accounted along their own critical path:
  /// submit, queue wait, and every phase of the batch that ran them.
  void add(const std::vector<qs::obs::Span>& spans,
           const std::string& focus_tenant = "");
  /// Total self seconds of `phase` over every span added.
  double self_s(qs::obs::Phase phase) const;
  /// Mean critical-path self time per focus job in `phase`, in
  /// microseconds.
  double focus_mean_us(qs::obs::Phase phase) const;
  /// kBatch spans no job group could be matched to (0 when the span
  /// stream is complete).
  std::size_t unmatched_batches() const { return unmatched_batches_; }

 private:
  std::map<qs::obs::Phase, double> self_s_;
  std::map<qs::obs::Phase, double> focus_s_;
  std::size_t focus_jobs_ = 0;
  std::size_t unmatched_batches_ = 0;
};

/// Workload entry points (one per workload name).
Report run_scenario_replay(const Options& options);
Report run_serve_mix(const Options& options);
Report run_noisy_trajectories(const Options& options);
/// Computes and stores noisy-trajectories' density-matrix reference at
/// options.reference (a no-op when a matching one is already there).
void make_noisy_reference(const Options& options);
Report run_reservoir(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
