#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

using qs::obs::Phase;
using qs::obs::Span;

void pin_to_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && count > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    --count;
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

Usage Usage::now() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0)
    throw std::runtime_error("getrusage failed");
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.voluntary = static_cast<double>(ru.ru_nvcsw);
  u.involuntary = static_cast<double>(ru.ru_nivcsw);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  // Peak RSS of this program image: VmHWM restarts at exec, whereas
  // ru_maxrss also counts the pages of the parent the process was forked
  // from (the Python driver) before it exec'd.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      u.max_rss_mib = std::stod(line.substr(6)) / 1024.0;  // kB
  if (u.max_rss_mib == 0.0)
    u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

Usage Usage::since(const Usage& earlier) const {
  Usage d;
  d.user_s = user_s - earlier.user_s;
  d.sys_s = sys_s - earlier.sys_s;
  d.voluntary = voluntary - earlier.voluntary;
  d.involuntary = involuntary - earlier.involuntary;
  d.minor_faults = minor_faults - earlier.minor_faults;
  d.max_rss_mib = max_rss_mib;
  return d;
}

void Usage::add(const Usage& delta) {
  user_s += delta.user_s;
  sys_s += delta.sys_s;
  voluntary += delta.voluntary;
  involuntary += delta.involuntary;
  minor_faults += delta.minor_faults;
  max_rss_mib = std::max(max_rss_mib, delta.max_rss_mib);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void Report::fail_check(const std::string& what, std::uint64_t jobs) {
  correct = false;
  failed += jobs;
  notes.push_back("CHECK FAILED: " + what);
}

namespace {

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

}  // namespace

void add_end_to_end(Report& report, double setup_s, double jobs_per_s,
                    const Usage& timed, double jobs,
                    const std::vector<double>& latencies_ms,
                    const std::string& latency_what) {
  report.add("setup_s", setup_s, "s");
  report.add("jobs_per_s", jobs_per_s, "1/s");
  report.add("cpu_us_per_job", 1e6 * timed.cpu_s() / jobs, "us");
  const bool has_p99 = latencies_ms.size() >= kSamplesForP99;
  report.add("latency_p50_ms", median(latencies_ms), "ms");
  report.add("latency_p99_ms",
             has_p99 ? quantile(latencies_ms, 0.99) : median(latencies_ms),
             "ms");
  report.note("latency = " + latency_what + "; samples=" +
              std::to_string(latencies_ms.size()) +
              (has_p99 ? "" : "; too few for a p99: latency_p99_ms reads "
                              "the median"));
  report.note("setup_s = median of " + std::to_string(kSetupRepeats) +
              " setups; cpu = " + fmt("%.3f", timed.cpu_s()) +
              " s user+sys over " + fmt("%.0f", jobs) + " jobs");
}

void add_proc_metrics(Report& report, const Usage& delta, double jobs) {
  report.add("proc.voluntary_switches_per_job", delta.voluntary / jobs,
             "count");
  report.add("proc.involuntary_switches_per_job", delta.involuntary / jobs,
             "count");
  report.add("proc.minor_faults_per_job", delta.minor_faults / jobs, "count");
  report.add("proc.sys_cpu_us_per_job", 1e6 * delta.sys_s / jobs, "us");
}

// --- SpanLog ---------------------------------------------------------------

std::size_t SpanLog::begin(const char* name, std::size_t parent) {
  const std::uint64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent});
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t id) {
  const std::uint64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id).end_ns = end;
}

std::vector<double> SpanLog::durations_us(const std::string& name,
                                          const std::string& parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (!parent.empty() &&
        (s.parent == kNoParent || parent != spans_[s.parent].name))
      continue;
    out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << 1e-3 * static_cast<double>(s.start_ns - t0)
       << ",\"dur\":" << 1e-3 * static_cast<double>(s.end_ns - s.start_ns)
       << ",\"args\":{\"id\":" << i << ",\"parent\":"
       << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
       << "}}";
  }
  os << "\n]}\n";
}

// --- PhaseBudget -----------------------------------------------------------

namespace {

std::uint64_t dur(const Span& s) { return s.end_ns - s.start_ns; }

bool contains(const Span& outer, const Span& inner) {
  return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
}

}  // namespace

void PhaseBudget::add(const std::vector<Span>& spans,
                      const std::string& focus_tenant) {
  const std::size_t n = spans.size();
  std::vector<double> self(n);
  for (std::size_t i = 0; i < n; ++i)
    self[i] = static_cast<double>(dur(spans[i]));

  // Job-attributed spans by (job, phase).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_job;
  std::vector<std::size_t> batches, dispatches;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].job != 0) by_job[spans[i].job].push_back(i);
    if (spans[i].phase == Phase::kBatch) batches.push_back(i);
    if (spans[i].phase == Phase::kDispatch) dispatches.push_back(i);
  }
  auto by_start = [&](std::size_t a, std::size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  };
  std::sort(batches.begin(), batches.end(), by_start);
  std::sort(dispatches.begin(), dispatches.end(), by_start);
  auto find = [&](std::uint64_t job, Phase phase) -> std::size_t {
    auto it = by_job.find(job);
    if (it == by_job.end()) return n;
    for (std::size_t i : it->second)
      if (spans[i].phase == phase) return i;
    return n;
  };

  // Within one job: kPass in kTranspile; kBind/kLower/kMitigate in
  // kExecute. Job-attributed, so the nesting is exact.
  std::vector<bool> in_execute(n, false);
  for (const auto& [job, ids] : by_job) {
    const std::size_t exec = find(job, Phase::kExecute);
    const std::size_t transpile = find(job, Phase::kTranspile);
    for (std::size_t i : ids) {
      const Phase p = spans[i].phase;
      if (p == Phase::kPass && transpile < n &&
          contains(spans[transpile], spans[i])) {
        self[transpile] -= static_cast<double>(dur(spans[i]));
      } else if ((p == Phase::kBind || p == Phase::kLower ||
                  p == Phase::kMitigate) &&
                 exec < n && contains(spans[exec], spans[i])) {
        self[exec] -= static_cast<double>(dur(spans[i]));
        in_execute[i] = true;
      }
    }
  }

  // Scheduler batches: jobs popped together share their kQueue end.
  std::map<std::uint64_t, std::vector<std::uint64_t>> groups;  // pop -> jobs
  for (const Span& s : spans)
    if (s.phase == Phase::kQueue && s.detail[0] == '\0')
      groups[s.end_ns].push_back(s.job);
  std::unordered_map<std::uint64_t, std::size_t> batch_of_job;
  std::unordered_map<std::size_t, const std::vector<std::uint64_t>*>
      members_of_batch;
  std::unordered_map<std::size_t, std::size_t> dispatch_of_batch;
  std::vector<bool> batch_used(n, false);
  for (const auto& [pop, jobs] : groups) {
    const std::size_t root = find(jobs.front(), Phase::kJob);
    if (root == n) continue;
    const std::uint64_t finish = spans[root].end_ns;
    auto it = std::lower_bound(
        batches.begin(), batches.end(), pop,
        [&](std::size_t i, std::uint64_t t) { return spans[i].start_ns < t; });
    for (; it != batches.end(); ++it)
      if (!batch_used[*it] && spans[*it].end_ns >= finish) break;
    if (it == batches.end()) continue;
    const std::size_t batch = *it;
    batch_used[batch] = true;
    members_of_batch[batch] = &jobs;
    std::vector<std::size_t> execs;
    for (std::uint64_t job : jobs) {
      batch_of_job[job] = batch;
      for (std::size_t i : by_job[job]) {
        const Phase p = spans[i].phase;
        if (p == Phase::kExecute) execs.push_back(i);
        if ((p == Phase::kTranspile || p == Phase::kStore ||
             (p == Phase::kLower && !in_execute[i])) &&
            contains(spans[batch], spans[i]))
          self[batch] -= static_cast<double>(dur(spans[i]));
      }
    }
    // The group's dispatch: the latest-starting kDispatch inside the
    // batch that covers every one of the group's executions.
    std::size_t dispatch = n;
    for (auto d = std::lower_bound(dispatches.begin(), dispatches.end(),
                                   spans[batch].start_ns,
                                   [&](std::size_t i, std::uint64_t t) {
                                     return spans[i].start_ns < t;
                                   });
         d != dispatches.end() && spans[*d].start_ns <= spans[batch].end_ns;
         ++d) {
      if (!contains(spans[batch], spans[*d])) continue;
      bool covers = true;
      for (std::size_t e : execs)
        covers = covers && contains(spans[*d], spans[e]);
      if (covers) dispatch = *d;
    }
    if (dispatch == n) continue;
    dispatch_of_batch[batch] = dispatch;
    self[batch] -= static_cast<double>(dur(spans[dispatch]));
    for (std::size_t e : execs)
      self[dispatch] -= static_cast<double>(dur(spans[e]));
  }
  for (std::size_t b : batches)
    if (!batch_used[b]) ++unmatched_batches_;

  for (std::size_t i = 0; i < n; ++i)
    self_s_[spans[i].phase] += 1e-9 * self[i];

  if (focus_tenant.empty()) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].phase != Phase::kJob || focus_tenant != spans[i].tenant)
      continue;
    const std::uint64_t job = spans[i].job;
    ++focus_jobs_;
    for (Phase p : {Phase::kSubmit, Phase::kQueue}) {
      const std::size_t s = find(job, p);
      if (s < n) focus_s_[p] += 1e-9 * self[s];
    }
    auto b = batch_of_job.find(job);
    if (b == batch_of_job.end()) continue;
    const std::size_t batch = b->second;
    focus_s_[Phase::kBatch] += 1e-9 * self[batch];
    auto d = dispatch_of_batch.find(batch);
    if (d != dispatch_of_batch.end())
      focus_s_[Phase::kDispatch] += 1e-9 * self[d->second];
    // Every job-attributed phase of every batch-mate is on this job's
    // path: the batch finishes all of them before signalling any.
    for (std::uint64_t mate : *members_of_batch[batch]) {
      for (std::size_t s : by_job[mate]) {
        const Phase p = spans[s].phase;
        if (p != Phase::kJob && p != Phase::kSubmit && p != Phase::kQueue)
          focus_s_[p] += 1e-9 * self[s];
      }
    }
  }
}

double PhaseBudget::self_s(Phase phase) const {
  auto it = self_s_.find(phase);
  return it == self_s_.end() ? 0.0 : it->second;
}

double PhaseBudget::focus_mean_us(Phase phase) const {
  auto it = focus_s_.find(phase);
  if (focus_jobs_ == 0 || it == focus_s_.end()) return 0.0;
  return 1e6 * it->second / static_cast<double>(focus_jobs_);
}

}  // namespace perfbench
