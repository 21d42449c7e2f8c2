// scenario-replay: the replay/CI user's path through sim/ and the
// flight-recorder journal (see perfbench/README.md for why it exists and
// what it predicts).
//
// One iteration = run_scenario over a 5x10^4-job standard spec with 2
// workers, then Journal::write -> Journal::read -> check_journal. A job
// is one submitted arrival.
//
// The process runs on one CPU. Admission is serial by design (the driver
// submits while dispatch is paused and wakes a worker per submit), so on
// a shared VM a wake-up across CPUs waits for the hypervisor to schedule
// an idle vCPU: unpinned, wall time moved 2x between processes with CPU
// time per job steady. On one CPU every hand-off is a local context
// switch, and the wall time sums the work of the driver and workers; a
// change that only adds parallelism to the engine does not show here.
#include <sstream>
#include <string>

#include "harness.h"

#include "common/rng.h"
#include "exec/state_vector_backend.h"
#include "obs/journal.h"
#include "sim/invariants.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace perfbench {
namespace {

namespace sim = qs::sim;

constexpr std::uint64_t kTicks = 200;
constexpr std::uint64_t kJobs = 50000;  // ~250 arrivals per virtual tick
/// The warm-up scenario keeps the per-tick arrival rate (250) over fewer
/// ticks: it touches every code path and the allocator, not the caches
/// (run_scenario builds a fresh service, and caches, every call).
constexpr std::uint64_t kWarmupTicks = 20;
constexpr std::uint64_t kWarmupJobs = 5000;

sim::ScenarioOptions scenario_options() {
  sim::ScenarioOptions options;
  options.workers = 2;
  options.max_batch = 16;
  return options;
}

struct State {
  qs::StateVectorBackend backend;
  sim::WorkloadSpec spec;
};

struct Iteration {
  sim::ScenarioReport report;
  double run_s = 0.0, write_s = 0.0, read_s = 0.0, check_s = 0.0;
  std::size_t events = 0;
  std::size_t bytes = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the exported journal
  std::vector<std::string> violations;
  double total_s() const { return run_s + write_s + read_s + check_s; }
};

sim::WorkloadSpec make_spec(std::uint64_t seed, std::uint64_t ticks,
                            std::uint64_t jobs) {
  sim::WorkloadSpec spec = sim::WorkloadSpec::standard(seed, ticks);
  spec.scale_to_jobs(jobs);
  return spec;
}

Iteration replay(const State& state, const sim::WorkloadSpec& spec,
                 SpanLog* spans) {
  Iteration it;
  SpanScope root(spans, "scenario.iteration");
  qs::obs::Journal journal;
  Clock::time_point t0 = Clock::now();
  {
    SpanScope s(spans, "sim.run_scenario", root.id());
    it.report = sim::run_scenario(state.backend, spec, journal,
                                  scenario_options());
  }
  it.run_s = seconds_since(t0);
  std::string bytes;
  t0 = Clock::now();
  {
    SpanScope s(spans, "obs.journal_write", root.id());
    std::ostringstream os;
    journal.write(os);
    bytes = os.str();
  }
  it.write_s = seconds_since(t0);
  t0 = Clock::now();
  qs::obs::Journal::Parsed parsed;
  {
    SpanScope s(spans, "obs.journal_read", root.id());
    std::istringstream is(bytes);
    parsed = qs::obs::Journal::read(is);
  }
  it.read_s = seconds_since(t0);
  t0 = Clock::now();
  {
    SpanScope s(spans, "sim.check_journal", root.id());
    it.violations = sim::check_journal(parsed);
  }
  it.check_s = seconds_since(t0);
  it.events = journal.size();
  it.bytes = bytes.size();
  it.digest = fnv1a(bytes.data(), bytes.size());
  return it;
}

/// Output checks of one iteration; the first iteration's journal digest
/// is the reference every later iteration of the seed must reproduce.
void check(Report& report, const Iteration& it, std::uint64_t first_digest) {
  const sim::ScenarioReport& r = it.report;
  report.attempted += r.submitted;
  report.failed += r.failed;
  if (r.failed > 0) {
    report.correct = false;
    report.note("CHECK FAILED: " + std::to_string(r.failed) +
                " jobs ended kFailed");
  }
  if (!it.violations.empty())
    report.fail_check("check_journal: " + it.violations.front() + " (+" +
                          std::to_string(it.violations.size() - 1) +
                          " more)",
                      r.submitted - r.failed);
  else if (!r.accounted())
    report.fail_check("ScenarioReport::accounted() is false",
                      r.submitted - r.failed);
  else if (it.digest != first_digest)
    report.fail_check("journal bytes differ across iterations of one seed",
                      r.submitted - r.failed);
}

}  // namespace

Report run_scenario_replay(const Options& options) {
  Report report;
  pin_to_cpus(1);  // admission is serial: see the comment at the top
  double setup_s = 0.0;
  std::unique_ptr<State> state = repeated_setup<State>(
      [&] {
        auto s = std::make_unique<State>();
        s->spec = make_spec(options.seed, kTicks, kJobs);
        qs::obs::Journal warm;
        sim::run_scenario(s->backend,
                          make_spec(qs::split_seed(options.seed, 1),
                                    kWarmupTicks, kWarmupJobs),
                          warm, scenario_options());
        return s;
      },
      options, &setup_s);

  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;
  std::vector<Iteration> iterations;
  const Usage before = Usage::now();
  const Clock::time_point t0 = Clock::now();
  do {
    iterations.push_back(replay(*state, state->spec, log));
  } while (!options.rss_probe && seconds_since(t0) < options.seconds);
  const Usage timed = Usage::now().since(before);

  std::vector<double> rates, latencies_ms;
  std::uint64_t jobs = 0, cancelled = 0, expired = 0;
  for (const Iteration& it : iterations) {
    check(report, it, iterations.front().digest);
    jobs += it.report.submitted;
    cancelled += it.report.cancelled;
    expired += it.report.expired;
    rates.push_back(static_cast<double>(it.report.submitted) / it.total_s());
    latencies_ms.push_back(1e3 * it.total_s());
  }
  report.note("scenario-replay: " + std::to_string(iterations.size()) +
              " iterations, " + std::to_string(jobs) + " jobs; intended " +
              std::to_string(cancelled) + " cancels and " +
              std::to_string(expired) +
              " expiries (not failures); journal " +
              std::to_string(iterations.front().bytes) + " bytes");
  if (options.rss_probe) {
    report.add("peak_rss_mb", timed.max_rss_mib, "MiB");
    return report;
  }
  const double n = static_cast<double>(jobs);
  if (!options.trace) {
    add_end_to_end(report, setup_s, median(rates), timed, n, latencies_ms,
                   "one replay-and-check iteration (run_scenario -> "
                   "journal write -> read -> check_journal)");
    return report;
  }
  std::vector<double> runs, writes, reads, checks;
  for (const Iteration& it : iterations) {
    runs.push_back(it.run_s);
    writes.push_back(it.write_s);
    reads.push_back(it.read_s);
    checks.push_back(it.check_s);
  }
  report.add("sim.run_scenario_s", median(runs), "s");
  report.add("obs.journal_write_s", median(writes), "s");
  report.add("obs.journal_read_s", median(reads), "s");
  report.add("sim.check_journal_s", median(checks), "s");
  const Iteration& first = iterations.front();
  const double per_job = static_cast<double>(first.report.submitted);
  report.add("obs.journal_events_per_job",
             static_cast<double>(first.events) / per_job, "count");
  report.add("obs.journal_bytes_per_job",
             static_cast<double>(first.bytes) / per_job, "B");
  add_proc_metrics(report, timed, n);
  if (!options.spans_out.empty()) spans.write_json(options.spans_out);
  return report;
}

}  // namespace perfbench
