// Observability layer tests: Clock determinism, MetricsRegistry
// consistency, Tracer ring/export behavior, and virtual-time service
// flows (see docs/ARCHITECTURE.md "Observability layer").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/keyed_cache.h"
#include "common/stopwatch.h"
#include "exec/exec.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serve.h"

namespace qs {
namespace {

Circuit small_circuit() {
  Circuit c(QuditSpace({2, 2}));
  c.add("F", fourier(2), {0});
  c.add("CSUM", csum(2, 2), {0, 1});
  return c;
}

// ---------------------------------------------------------------------
// Clock.
// ---------------------------------------------------------------------

TEST(ManualClock, AdvancesOnlyWhenTold) {
  obs::ManualClock clock(1000);
  const obs::TimePoint t0 = clock.now();
  EXPECT_EQ(obs::nanos_since_epoch(t0), 1000u);
  EXPECT_EQ(clock.now(), t0);  // frozen until advanced
  clock.advance_ns(500);
  EXPECT_EQ(obs::nanos_since_epoch(clock.now()), 1500u);
  clock.advance_seconds(2.0);
  EXPECT_DOUBLE_EQ(obs::seconds_between(t0, clock.now()), 2.0 + 500e-9);
}

TEST(Stopwatch, RunsOnAnInjectedManualClock) {
  obs::ManualClock clock(0);
  Stopwatch sw(clock);
  EXPECT_DOUBLE_EQ(sw.seconds(), 0.0);
  clock.advance_seconds(2.5);
  EXPECT_DOUBLE_EQ(sw.seconds(), 2.5);
  sw.reset();
  EXPECT_DOUBLE_EQ(sw.seconds(), 0.0);
  clock.advance_seconds(0.25);
  EXPECT_DOUBLE_EQ(sw.seconds(), 0.25);
}

// ---------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentAndKindChecked) {
  obs::MetricsRegistry registry(2);
  const obs::CounterId c1 = registry.counter("a.b.count");
  const obs::CounterId c2 = registry.counter("a.b.count");
  EXPECT_EQ(c1.index, c2.index);
  EXPECT_THROW(registry.gauge("a.b.count"), std::logic_error);
  EXPECT_THROW(registry.histogram("a.b.count", {1.0}), std::logic_error);

  registry.add(c1, 3);
  registry.add(c2);  // same metric
  const obs::GaugeId g = registry.gauge("a.b.level");
  registry.gauge_add(g, 5);
  registry.gauge_add(g, -7);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("a.b.count"), 4u);
  EXPECT_EQ(snap.gauge("a.b.level"), -2);
  // Absent names read as zero/null, never throw.
  EXPECT_EQ(snap.counter("no.such"), 0u);
  EXPECT_EQ(snap.gauge("no.such"), 0);
  EXPECT_EQ(snap.histogram("no.such"), nullptr);
}

TEST(MetricsRegistry, HistogramAggregatesAndQuantiles) {
  obs::MetricsRegistry registry(1);
  const obs::HistogramId h =
      registry.histogram("lat", obs::MetricsRegistry::pow2_bounds(64.0));
  double sum = 0.0;
  for (int v = 1; v <= 100; ++v) {
    registry.observe(h, double(v));
    sum += double(v);
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_DOUBLE_EQ(hs->sum, sum);
  EXPECT_DOUBLE_EQ(hs->max, 100.0);
  EXPECT_DOUBLE_EQ(hs->mean(), sum / 100.0);
  // Quantiles are monotone and bounded by the observed max.
  const double p25 = hs->quantile(0.25);
  const double p50 = hs->quantile(0.50);
  const double p95 = hs->quantile(0.95);
  EXPECT_GT(p25, 0.0);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, hs->max);
  // p50 of 1..100 lands in the (32, 64] bucket's interpolation range.
  EXPECT_GT(p50, 32.0);
  EXPECT_LE(p50, 64.0);
}

TEST(MetricsRegistry, ShardedCountersMergeExactly) {
  obs::MetricsRegistry registry(8);
  const obs::CounterId id = registry.counter("merge.count");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) registry.add(id);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counter("merge.count"),
            std::uint64_t(kThreads) * kPerThread);
}

TEST(MetricsRegistry, TxnGroupsAreNeverTornInSnapshots) {
  obs::MetricsRegistry registry(4);
  const obs::CounterId a = registry.counter("pair.a");
  const obs::CounterId b = registry.counter("pair.b");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      obs::MetricsTxn txn(registry);
      txn.add(a);
      txn.add(b);
    }
  });
  // Every snapshot must see the {a, b} group whole: the registry holds
  // all shard locks while merging.
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("pair.a"), snap.counter("pair.b"));
  }
  stop = true;
  writer.join();
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

TEST(Tracer, RingKeepsTheMostRecentSpans) {
  obs::ManualClock clock(0);
  obs::TracerOptions options;
  options.clock = &clock;
  options.shards = 1;
  options.capacity_per_shard = 4;
  obs::Tracer tracer(options);
  for (std::uint64_t job = 1; job <= 10; ++job) {
    clock.advance_ns(10);
    tracer.record(
        obs::Tracer::make(obs::Phase::kJob, job, "t", clock.now(),
                          clock.now()));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<obs::Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].job, 7u + i);  // oldest 6 were overwritten
  tracer.clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, DisabledTracingIsInert) {
  obs::ManualClock clock(0);
  obs::TracerOptions options;
  options.clock = &clock;
  options.start_enabled = false;
  obs::Tracer tracer(options);
  obs::SpanTimer timer = tracer.span(obs::Phase::kExecute, 1, "t");
  EXPECT_FALSE(timer.armed());
  timer.finish();  // no-op
  tracer.record(obs::Tracer::make(obs::Phase::kJob, 1, "t", clock.now(),
                                  clock.now()));
  EXPECT_EQ(tracer.recorded(), 0u);
  tracer.set_enabled(true);
  EXPECT_TRUE(tracer.span(obs::Phase::kExecute).armed());
}

TEST(Tracer, ChromeExportGolden) {
  obs::ManualClock clock(1000);
  obs::TracerOptions options;
  options.clock = &clock;
  options.shards = 1;
  options.capacity_per_shard = 8;
  obs::Tracer tracer(options);
  {
    obs::SpanTimer root = tracer.span(obs::Phase::kJob, 1, "qaoa");
    clock.advance_ns(2500);
    root.finish();
  }
  {
    obs::SpanTimer span = tracer.span(obs::Phase::kTranspile, 1, "qaoa");
    span.set_detail("routing");
    span.set_cache_hit(false);
    clock.advance_ns(500);
    span.finish();
  }
  std::ostringstream os;
  tracer.export_chrome_json(os);
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"quditsim\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"service\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"job 1 (qaoa)\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"job\",\"cat\":\"job\","
      "\"ts\":1.000,\"dur\":2.500,\"args\":{\"tenant\":\"qaoa\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"transpile:routing\","
      "\"cat\":\"job\",\"ts\":3.500,\"dur\":0.500,"
      "\"args\":{\"tenant\":\"qaoa\",\"cache\":\"miss\"}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(os.str(), expected);

  std::ostringstream text;
  tracer.export_text(text);
  EXPECT_NE(text.str().find("# trace: 2 span(s), 0 dropped"),
            std::string::npos);
  EXPECT_NE(text.str().find("transpile"), std::string::npos);
  EXPECT_NE(text.str().find("routing"), std::string::npos);
  EXPECT_NE(text.str().find("miss"), std::string::npos);
}

// ---------------------------------------------------------------------
// Deterministic traced service runs (ManualClock).
// ---------------------------------------------------------------------

std::string traced_service_run() {
  obs::ManualClock clock(0);
  obs::TracerOptions tracer_options;
  tracer_options.clock = &clock;
  tracer_options.shards = 1;
  tracer_options.capacity_per_shard = 4096;
  obs::Tracer tracer(tracer_options);
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;  // one worker: deterministic batch order
  options.start_paused = true;
  options.tracer = &tracer;  // the service inherits the manual clock
  JobService service(backend, options);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 6; ++i)
    handles.push_back(service.submit(JobSpec(small_circuit())
                                         .with_tenant(i % 2 ? "alice" : "bob")
                                         .with_shots(16)));
  service.resume();
  service.shutdown(ShutdownMode::kDrain);
  for (const JobHandle& h : handles)
    EXPECT_EQ(h.status(), JobStatus::kDone);
  std::ostringstream os;
  tracer.export_chrome_json(os);
  return os.str();
}

TEST(Tracer, ManualClockServiceTraceIsBitwiseReproducible) {
  const std::string first = traced_service_run();
  const std::string second = traced_service_run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The trace covers the full lifecycle of the drained jobs.
  for (const char* phase :
       {"\"submit\"", "\"queue\"", "\"job\"", "\"execute\"", "\"store\""})
    EXPECT_NE(first.find(phase), std::string::npos) << phase;
}

TEST(Tracer, EveryTerminalPathRecordsOneQueueAndOneJobSpan) {
  obs::ManualClock clock(0);
  obs::TracerOptions tracer_options;
  tracer_options.clock = &clock;
  tracer_options.shards = 1;
  tracer_options.capacity_per_shard = 4096;
  obs::Tracer tracer(tracer_options);
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  options.tracer = &tracer;
  JobService service(backend, options);
  const auto submit = [&](double deadline_seconds = 0.0) {
    return service.submit(JobSpec(small_circuit())
                              .with_shots(8)
                              .with_deadline(deadline_seconds));
  };
  // Expected detail of each job's kQueue and kJob spans.
  std::map<JobId, std::string> detail;
  JobHandle cancelled = submit();
  JobHandle expired = submit(5.0);
  JobHandle done = submit();
  EXPECT_TRUE(cancelled.cancel());
  clock.advance_seconds(10.0);  // past the expiring job's deadline
  service.resume();
  EXPECT_EQ(done.wait().status, JobStatus::kDone);
  EXPECT_EQ(expired.wait().status, JobStatus::kExpired);
  detail[cancelled.id()] = "cancelled";
  detail[expired.id()] = "expired";
  detail[done.id()] = "";
  service.pause();
  std::vector<JobHandle> aborted;
  for (int i = 0; i < 3; ++i) aborted.push_back(submit());
  service.shutdown(ShutdownMode::kAbort);
  for (const JobHandle& h : aborted) {
    EXPECT_EQ(h.status(), JobStatus::kCancelled);
    detail[h.id()] = "cancelled";
  }

  EXPECT_EQ(tracer.dropped(), 0u);
  std::map<JobId, int> queue_spans, job_spans;
  for (const obs::Span& s : tracer.spans()) {
    if (s.phase != obs::Phase::kQueue && s.phase != obs::Phase::kJob)
      continue;
    ++(s.phase == obs::Phase::kQueue ? queue_spans : job_spans)[s.job];
    ASSERT_TRUE(detail.count(s.job)) << s.job;
    EXPECT_EQ(std::string(s.detail), detail[s.job])
        << "job " << s.job << " " << obs::phase_name(s.phase);
  }
  for (const auto& [job, expected] : detail) {
    EXPECT_EQ(queue_spans[job], 1) << "job " << job << " (" << expected << ")";
    EXPECT_EQ(job_spans[job], 1) << "job " << job << " (" << expected << ")";
  }
}

// ---------------------------------------------------------------------
// Virtual time drives service deadlines and store TTLs.
// ---------------------------------------------------------------------

TEST(VirtualTime, ManualClockExpiresQueuedDeadlines) {
  obs::ManualClock clock(0);
  const StateVectorBackend backend;
  ServiceOptions options;
  options.workers = 1;
  options.start_paused = true;
  options.clock = &clock;
  JobService service(backend, options);
  JobHandle doomed = service.submit(
      JobSpec(small_circuit()).with_shots(8).with_deadline(5.0));
  JobHandle fine = service.submit(
      JobSpec(small_circuit()).with_shots(8).with_deadline(60.0));
  clock.advance_seconds(10.0);  // past the first deadline, no real sleep
  service.resume();
  EXPECT_EQ(doomed.wait().status, JobStatus::kExpired);
  EXPECT_EQ(fine.wait().status, JobStatus::kDone);
  service.shutdown(ShutdownMode::kDrain);
  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.expired, 1u);
  EXPECT_EQ(t.completed, 1u);
}

TEST(VirtualTime, ResultStoreTtlInVirtualTime) {
  obs::ManualClock clock(0);
  ResultStore store(4, 10.0, &clock);
  ExecutionResult r;
  r.shots = 5;
  store.put(1, r);  // stamped on the manual clock
  clock.advance_seconds(5.0);
  EXPECT_TRUE(store.get(1).has_value());
  clock.advance_seconds(6.0);
  EXPECT_FALSE(store.get(1).has_value());
  EXPECT_EQ(store.expired(), 1u);
}

// ---------------------------------------------------------------------
// KeyedArtifactCache metrics (shared registry, concurrent callers).
// ---------------------------------------------------------------------

TEST(KeyedCacheMetrics, ConcurrentSameKeyCallersCountOneProduction) {
  obs::MetricsRegistry registry(4);
  detail::KeyedArtifactCache<int, std::hash<int>, int> cache(8, &registry,
                                                             "test.cache");
  std::atomic<int> produced{0};
  std::atomic<int> observed_hits{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      bool hit = false;
      auto value = cache.get_or_produce(
          42,
          [&] {
            // Slow producer: concurrent callers pile onto the in-flight
            // slot (each wait counts as a hit).
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++produced;
            return std::make_shared<const int>(7);
          },
          &hit);
      EXPECT_EQ(*value, 7);
      if (hit) ++observed_hits;
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(produced.load(), 1);
  const detail::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, std::size_t(kThreads - 1));
  EXPECT_EQ(stats.hits, std::size_t(observed_hits.load()));
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  // The counters surface through the shared registry under the prefix.
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("test.cache.hits"), stats.hits);
  EXPECT_EQ(snap.counter("test.cache.misses"), 1u);
}

}  // namespace
}  // namespace qs
