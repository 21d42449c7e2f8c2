#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fingerprint.h"
#include "exec/state_vector_backend.h"
#include "obs/clock.h"
#include "obs/journal.h"
#include "serve/serve.h"
#include "sim/invariants.h"
#include "sim/scenario.h"
#include "sim/slo.h"
#include "sim/workload.h"

namespace qs {
namespace sim {
namespace {

obs::Journal::Parsed parse_str(const std::string& text) {
  std::istringstream is(text);
  return obs::Journal::read(is);
}

// ---------------------------------------------------------------------
// WorkloadSpec identity
// ---------------------------------------------------------------------

TEST(WorkloadSpecTest, SerializeParseRoundTrip) {
  WorkloadSpec spec = WorkloadSpec::standard(7, 40);
  spec.scale_to_jobs(1500);
  const std::string line = spec.serialize();
  const WorkloadSpec back = WorkloadSpec::parse(line);
  // Round-trip is a fixed point: max_digits10 doubles and explicit
  // schedules reproduce the exact line.
  EXPECT_EQ(back.serialize(), line);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.ticks, spec.ticks);
  EXPECT_EQ(back.tenants.size(), spec.tenants.size());
  EXPECT_THROW(WorkloadSpec::parse("seed=1 nonsense"), std::runtime_error);

  // Numbers that used to parse and then hang the engine: poisson() never
  // returns on a non-finite rate, and stoull wraps a sign to 2^64 - 1.
  // Spans of seconds above obs::kMaxSeconds overflowed the clock's int64
  // nanoseconds, so a deadline meant as "never" expired at once. Each is
  // rejected, and the error names the field.
  const auto tenant = [](const std::string& rate, const std::string& shots) {
    return " tenant=a,qrc," + rate + ",1,0,1,0,0,0,0," + shots + ",4";
  };
  EXPECT_NO_THROW(WorkloadSpec::parse("ticks=4" + tenant("1", "64")));
  const std::pair<std::string, std::string> bad[] = {
      {"ticks=4" + tenant("inf", "64"), "tenant rate 'inf'"},
      {"ticks=4" + tenant("nan", "64"), "tenant rate 'nan'"},
      {"ticks=-1" + tenant("1", "64"), "ticks '-1'"},
      {"ticks=4" + tenant("1", "-64"), "tenant shots '-64'"},
      {"ticks=4 tick_s=1e10" + tenant("1", "64"), "tick_s '1e10'"},
      {"ticks=4 ttl=1e10" + tenant("1", "64"), "ttl '1e10'"},
      {"ticks=4 tenant=a,qrc,1,1,0,1,0,1,1e10,0,64,4",
       "tenant deadline_seconds '1e10'"},
  };
  for (const auto& [input, field] : bad) {
    try {
      WorkloadSpec::parse(input);
      ADD_FAILURE() << "parsed: " << input;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad " + field), std::string::npos)
          << e.what();
    }
  }
  // Priorities stay signed.
  WorkloadSpec low = spec;
  low.tenants[0].priority = -1;
  EXPECT_EQ(WorkloadSpec::parse(low.serialize()).tenants[0].priority, -1);
}

TEST(WorkloadSpecTest, ScaleToJobsHitsTheTarget) {
  WorkloadSpec spec = WorkloadSpec::standard(3, 50);
  spec.scale_to_jobs(2000);
  const double expected =
      spec.expected_jobs_per_tick() * static_cast<double>(spec.ticks);
  EXPECT_NEAR(expected, 2000.0, 1.0);
}

// ---------------------------------------------------------------------
// The replay contract: journal bytes are worker-count invariant
// ---------------------------------------------------------------------

TEST(ScenarioTest, JournalIsBitwiseIdenticalAcrossWorkerCounts) {
  WorkloadSpec spec = WorkloadSpec::standard(5, 30);
  spec.scale_to_jobs(900);
  const StateVectorBackend backend;

  obs::Journal serial_journal;
  ScenarioOptions serial;
  serial.workers = 1;
  const ScenarioReport serial_report =
      run_scenario(backend, spec, serial_journal, serial);

  obs::Journal wide_journal;
  ScenarioOptions wide;
  wide.workers = 8;
  wide.max_batch = 4;  // different batching must not matter either
  const ScenarioReport wide_report =
      run_scenario(backend, spec, wide_journal, wide);

  EXPECT_TRUE(serial_report.accounted());
  EXPECT_EQ(serial_report.submitted, wide_report.submitted);
  EXPECT_EQ(serial_report.completed, wide_report.completed);
  EXPECT_GT(serial_report.submitted, 500u);
  EXPECT_GT(serial_report.cancelled, 0u);  // the flood did something
  EXPECT_EQ(serial_report.recalibrations, wide_report.recalibrations);

  const std::string serial_bytes = serial_journal.str();
  ASSERT_EQ(serial_bytes, wide_journal.str());
  // Pins the journal bytes across commits, not just across worker
  // counts: a deliberate format or RNG-stream change updates this value.
  EXPECT_EQ(fnv::bytes(serial_bytes.data(), serial_bytes.size(), fnv::kOffset),
            0x49e2313dd063d56cull);

  // The recorded run is invariant-clean and SLO-analyzable.
  const obs::Journal::Parsed parsed = parse_str(serial_bytes);
  EXPECT_EQ(parsed.header_value("rng"), "2");
  EXPECT_EQ(check_journal(parsed), std::vector<std::string>{});

  const std::map<std::string, TenantSlo> slo = compute_slo(parsed);
  ASSERT_TRUE(slo.count(""));
  EXPECT_EQ(slo.at("").submitted, serial_report.submitted);
  for (const TenantSpec& tenant : spec.tenants) {
    ASSERT_TRUE(slo.count(tenant.name)) << tenant.name;
    const TenantSlo& s = slo.at(tenant.name);
    EXPECT_GT(s.submitted, 0u) << tenant.name;
    EXPECT_GE(s.hit_rate(), 0.0);
    EXPECT_LE(s.hit_rate(), 1.0);
    if (s.completed > 0) {
      EXPECT_GE(s.p99_seconds, s.p50_seconds);
    }
  }
  // The tomography tenant runs 80% of its jobs with tight deadlines;
  // the pause window must have cost it at least one.
  EXPECT_GT(slo.at("tomo").with_deadline, 0u);
  EXPECT_FALSE(format_slo(slo).empty());
}

// ---------------------------------------------------------------------
// Invariant checker: negative coverage
// ---------------------------------------------------------------------

obs::JournalEvent event_at(std::uint64_t t, obs::JournalEventType type,
                           std::uint64_t job) {
  obs::JournalEvent e;
  e.time_ns = t;
  e.type = type;
  e.job = job;
  return e;
}

TEST(InvariantCheckerTest, FlagsIllegalLifecycles) {
  using obs::JournalEventType;
  {
    obs::Journal::Parsed bad;  // double dispatch
    bad.events.push_back(event_at(1, JournalEventType::kSubmitted, 1));
    bad.events.push_back(event_at(2, JournalEventType::kDispatched, 1));
    bad.events.push_back(event_at(3, JournalEventType::kDispatched, 1));
    bad.events.push_back(event_at(4, JournalEventType::kCompleted, 1));
    EXPECT_FALSE(check_journal(bad).empty());
  }
  {
    obs::Journal::Parsed bad;  // resurrection after a terminal state
    bad.events.push_back(event_at(1, JournalEventType::kSubmitted, 1));
    bad.events.push_back(event_at(2, JournalEventType::kCancelled, 1));
    bad.events.push_back(event_at(3, JournalEventType::kDispatched, 1));
    EXPECT_FALSE(check_journal(bad).empty());
  }
  {
    obs::Journal::Parsed bad;  // dispatched past its deadline
    obs::JournalEvent submit = event_at(1, JournalEventType::kSubmitted, 1);
    submit.deadline_ns = 100;
    bad.events.push_back(submit);
    bad.events.push_back(event_at(200, JournalEventType::kDispatched, 1));
    bad.events.push_back(event_at(201, JournalEventType::kCompleted, 1));
    EXPECT_FALSE(check_journal(bad).empty());
  }
  {
    obs::Journal::Parsed bad;  // snapshot counters contradict events
    bad.events.push_back(event_at(1, JournalEventType::kSubmitted, 1));
    bad.events.push_back(event_at(2, JournalEventType::kCompleted, 1));
    obs::JournalEvent cut = event_at(3, JournalEventType::kSnapshot, 0);
    cut.counters.submitted = 2;  // events say 1
    cut.counters.completed = 2;
    EXPECT_TRUE(cut.counters.balanced());
    bad.events.push_back(cut);
    EXPECT_FALSE(check_journal(bad).empty());
  }
  {
    obs::Journal::Parsed bad;  // calibration epoch must be strictly
    obs::JournalEvent a = event_at(1, JournalEventType::kRecalibrated, 0);
    a.epoch = 2;  // monotone
    obs::JournalEvent b = event_at(2, JournalEventType::kRecalibrated, 0);
    b.epoch = 2;
    bad.events.push_back(a);
    bad.events.push_back(b);
    EXPECT_FALSE(check_journal(bad).empty());
  }
  {
    obs::Journal::Parsed open;  // non-terminal job: only `complete` flags
    open.events.push_back(event_at(1, JournalEventType::kSubmitted, 1));
    EXPECT_FALSE(check_journal(open, /*complete=*/true).empty());
    EXPECT_TRUE(check_journal(open, /*complete=*/false).empty());
  }
}

// ---------------------------------------------------------------------
// Satellite races: cancel-vs-dispatch, deadline across pause/resume
// ---------------------------------------------------------------------

TEST(ScenarioRaceTest, ConcurrentCancelsProduceALegalJournal) {
  // Fire cancels at a LIVE dispatching service (no pause shield, unlike
  // the scenario engine): whichever way each race lands -- cancelled
  // before dispatch or completed despite the cancel attempt -- the
  // journal must describe a legal lifecycle with no job both cancelled
  // and dispatched.
  const StateVectorBackend backend;
  obs::ManualClock clock(0);
  obs::Journal journal;
  ServiceOptions options;
  options.workers = 4;
  options.max_batch = 4;
  options.clock = &clock;
  options.journal = &journal;
  JobService service(backend, options);

  TenantSpec tenant;
  tenant.name = "racer";
  tenant.kind = JobKind::kQrc;
  tenant.shots = 8;
  tenant.variants = 4;

  constexpr int kJobs = 200;
  std::vector<JobHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i)
    handles.push_back(service.submit(make_job(tenant, i % 4)));

  std::atomic<int> cancelled_now{0};
  std::thread canceller([&] {
    for (int i = 0; i < kJobs; i += 2)
      if (handles[i].cancel()) cancelled_now.fetch_add(1);
  });
  canceller.join();
  for (const JobHandle& handle : handles) handle.wait();
  service.shutdown(ShutdownMode::kDrain);

  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(t.cancelled, static_cast<std::uint64_t>(cancelled_now.load()));
  EXPECT_EQ(t.completed + t.cancelled, static_cast<std::uint64_t>(kJobs));

  const obs::Journal::Parsed parsed = parse_str(journal.str());
  EXPECT_EQ(check_journal(parsed), std::vector<std::string>{});
}

TEST(ScenarioRaceTest, DeadlinesExpireAcrossPauseResumeOnVirtualTime) {
  const StateVectorBackend backend;
  obs::ManualClock clock(0);
  obs::Journal journal;
  ServiceOptions options;
  options.workers = 2;
  options.start_paused = true;
  options.clock = &clock;
  options.journal = &journal;
  JobService service(backend, options);

  TenantSpec tenant;
  tenant.name = "dl";
  tenant.kind = JobKind::kTomo;
  tenant.shots = 8;

  // Pause window 1: the 1 s deadline ages past while paused -> expired
  // at the resume edge; the deadline-free sibling still completes.
  JobHandle doomed = service.submit(make_job(tenant, 0).with_deadline(1.0));
  JobHandle safe = service.submit(make_job(tenant, 1));
  clock.advance_seconds(2.0);
  service.resume();
  EXPECT_EQ(doomed.wait().status, JobStatus::kExpired);
  EXPECT_EQ(safe.wait().status, JobStatus::kDone);

  // Pause window 2: the clock advances LESS than the deadline, so the
  // job survives the window and dispatches in time.
  service.pause();
  JobHandle survivor = service.submit(make_job(tenant, 2).with_deadline(5.0));
  clock.advance_seconds(2.0);
  service.resume();
  EXPECT_EQ(survivor.wait().status, JobStatus::kDone);

  service.shutdown(ShutdownMode::kDrain);
  const ServiceTelemetry t = service.telemetry();
  EXPECT_EQ(t.expired, 1u);
  EXPECT_EQ(t.completed, 2u);

  // The journal agrees: the expiry is stamped at (or after) the virtual
  // deadline, and the whole record replays as a legal lifecycle set.
  const obs::Journal::Parsed parsed = parse_str(journal.str());
  EXPECT_EQ(check_journal(parsed), std::vector<std::string>{});
  bool saw_expiry = false;
  for (const obs::JournalEvent& e : parsed.events) {
    if (e.type != obs::JournalEventType::kExpired) continue;
    saw_expiry = true;
    EXPECT_EQ(e.job, doomed.id());
  }
  EXPECT_TRUE(saw_expiry);
  const std::map<std::string, TenantSlo> slo = compute_slo(parsed);
  ASSERT_TRUE(slo.count("dl"));
  EXPECT_EQ(slo.at("dl").with_deadline, 2u);
  EXPECT_EQ(slo.at("dl").deadline_hits, 1u);
  EXPECT_DOUBLE_EQ(slo.at("dl").hit_rate(), 0.5);
}

}  // namespace
}  // namespace sim
}  // namespace qs
