#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>

namespace qs {
namespace obs {
namespace {

/// Fixed-format microseconds (3 decimals) -- snprintf, not ostream
/// state, so exported bytes never depend on ambient stream flags.
std::string format_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", double(ns) / 1e3);
  return buf;
}

/// JSON string escaping for label fields (quotes, backslash, control).
std::string json_escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

int span_order_cmp(const Span& a, const Span& b) {
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns ? -1 : 1;
  if (a.job != b.job) return a.job < b.job ? -1 : 1;
  if (a.phase != b.phase) return a.phase < b.phase ? -1 : 1;
  if (int c = std::strcmp(a.detail, b.detail)) return c;
  if (a.end_ns != b.end_ns) return a.end_ns < b.end_ns ? -1 : 1;
  return std::strcmp(a.tenant, b.tenant);
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kJob: return "job";
    case Phase::kSubmit: return "submit";
    case Phase::kQueue: return "queue";
    case Phase::kBatch: return "batch";
    case Phase::kTranspile: return "transpile";
    case Phase::kPass: return "pass";
    case Phase::kLower: return "lower";
    case Phase::kBind: return "bind";
    case Phase::kDispatch: return "dispatch";
    case Phase::kExecute: return "execute";
    case Phase::kMitigate: return "mitigate";
    case Phase::kStore: return "store";
    case Phase::kRecalibrate: return "recalibrate";
  }
  return "?";
}

void SpanTimer::finish() {
  if (!tracer_) return;
  span_.end_ns = nanos_since_epoch(tracer_->now());
  tracer_->record(span_);
  tracer_ = nullptr;
}

Tracer::Tracer(TracerOptions options)
    : clock_(options.clock ? options.clock : &SteadyClock::instance()),
      enabled_(options.start_enabled),
      capacity_per_shard_(std::max<std::size_t>(1, options.capacity_per_shard)) {
  const std::size_t shards =
      std::min<std::size_t>(16, std::max<std::size_t>(1, options.shards));
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // Preallocate the whole ring up front: record() never allocates.
      MutexLock lock(shard->mutex);
      shard->ring.resize(capacity_per_shard_);
    }
    shards_.push_back(std::move(shard));
  }
}

Tracer::Shard& Tracer::shard_for_current_thread() const {
  // Same process-global round-robin slot scheme as MetricsRegistry.
  static std::atomic<std::uint32_t> next_slot{0};
  thread_local const std::uint32_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return *shards_[slot % shards_.size()];
}

SpanTimer Tracer::span(Phase phase, std::uint64_t job, const char* tenant) {
  if (!enabled_.load(std::memory_order_relaxed)) return SpanTimer();
  Span span;
  span.phase = phase;
  span.job = job;
  span.set_tenant(tenant);
  span.start_ns = nanos_since_epoch(now());
  return SpanTimer(this, span);
}

Span Tracer::make(Phase phase, std::uint64_t job, const char* tenant,
                  TimePoint start, TimePoint end) {
  Span span;
  span.phase = phase;
  span.job = job;
  span.set_tenant(tenant);
  span.start_ns = nanos_since_epoch(start);
  span.end_ns = nanos_since_epoch(end);
  return span;
}

void Tracer::record(const Span& span) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Shard& shard = shard_for_current_thread();
  MutexLock lock(shard.mutex);
  shard.ring[shard.next % capacity_per_shard_] = span;
  ++shard.next;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->next;
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    if (shard->next > capacity_per_shard_)
      total += shard->next - capacity_per_shard_;
  }
  return total;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const std::uint64_t retained =
        std::min<std::uint64_t>(shard->next, capacity_per_shard_);
    // Oldest-first within the ring (write order).
    const std::uint64_t first = shard->next - retained;
    for (std::uint64_t i = 0; i < retained; ++i)
      out.push_back(shard->ring[(first + i) % capacity_per_shard_]);
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return span_order_cmp(a, b) < 0;
  });
  return out;
}

void Tracer::clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->next = 0;
  }
}

void Tracer::export_chrome_json(std::ostream& os) const {
  const std::vector<Span> sorted = spans();
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"quditsim\"}}";
  os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"service\"}}";
  // One named "thread" per job so chrome://tracing renders per-job
  // timelines (first span with a tenant label names the job).
  std::map<std::uint64_t, std::string> job_names;
  for (const Span& s : sorted) {
    if (s.job == 0) continue;
    auto [it, inserted] = job_names.emplace(s.job, "");
    if ((inserted || it->second.empty()) && s.tenant[0])
      it->second = json_escape(s.tenant);
  }
  for (const auto& [job, tenant] : job_names) {
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << job
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"job " << job;
    if (!tenant.empty()) os << " (" << tenant << ")";
    os << "\"}}";
  }
  for (const Span& s : sorted) {
    const std::uint64_t dur_ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.job << ",\"name\":\""
       << phase_name(s.phase);
    if (s.detail[0]) os << ":" << json_escape(s.detail);
    os << "\",\"cat\":\"" << (s.job == 0 ? "service" : "job")
       << "\",\"ts\":" << format_us(s.start_ns)
       << ",\"dur\":" << format_us(dur_ns) << ",\"args\":{";
    bool first = true;
    auto arg = [&](const char* key) -> std::ostream& {
      if (!first) os << ",";
      first = false;
      os << "\"" << key << "\":";
      return os;
    };
    if (s.tenant[0]) arg("tenant") << "\"" << json_escape(s.tenant) << "\"";
    if (s.epoch != 0) arg("epoch") << s.epoch;
    if (s.cache_hit >= 0)
      arg("cache") << "\"" << (s.cache_hit ? "hit" : "miss") << "\"";
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::export_text(std::ostream& os) const {
  const std::vector<Span> sorted = spans();
  os << "# trace: " << sorted.size() << " span(s), " << dropped()
     << " dropped\n";
  os << "#     start_us       dur_us    job tenant           phase"
        "            detail           cache epoch\n";
  for (const Span& s : sorted) {
    const std::uint64_t dur_ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%14s %12s %6llu %-16s %-16s %-16s %-5s %llu\n",
                  format_us(s.start_ns).c_str(), format_us(dur_ns).c_str(),
                  static_cast<unsigned long long>(s.job),
                  s.tenant[0] ? s.tenant : "-", phase_name(s.phase),
                  s.detail[0] ? s.detail : "-",
                  s.cache_hit < 0 ? "-" : (s.cache_hit ? "hit" : "miss"),
                  static_cast<unsigned long long>(s.epoch));
    os << line;
  }
}

namespace {
TraceContext& current_trace_context() {
  thread_local TraceContext ctx;
  return ctx;
}
}  // namespace

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : previous_(current_trace_context()) {
  current_trace_context() = ctx;
}

ScopedTraceContext::~ScopedTraceContext() {
  current_trace_context() = previous_;
}

const TraceContext& ScopedTraceContext::current() {
  return current_trace_context();
}

}  // namespace obs
}  // namespace qs
