#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/journal.h"

namespace qs {
namespace obs {
namespace {

JournalEvent submitted_event(std::uint64_t t, std::uint64_t job) {
  JournalEvent e;
  e.time_ns = t;
  e.type = JournalEventType::kSubmitted;
  e.job = job;
  return e;
}

/// The journal's events in export order, read back from its bytes.
std::vector<JournalEvent> exported_events(const Journal& journal) {
  std::istringstream is(journal.str());
  return Journal::read(is).events;
}

// ---------------------------------------------------------------------
// Serialization round-trips
// ---------------------------------------------------------------------

TEST(JournalEventTest, SerializeParseRoundTripAllFields) {
  JournalEvent e;
  e.time_ns = 123456789;
  e.type = JournalEventType::kSubmitted;
  e.job = 42;
  e.tenant = "qaoa";
  e.detail = "burst";
  e.seed = 0xdeadbeefull;
  e.epoch = 7;
  e.deadline_ns = 987654321;
  e.digest = 0x1234567890abcdefull;

  const JournalEvent back = JournalEvent::parse(e.serialize());
  EXPECT_EQ(back.time_ns, e.time_ns);
  EXPECT_EQ(back.type, e.type);
  EXPECT_EQ(back.job, e.job);
  EXPECT_EQ(back.tenant, e.tenant);
  EXPECT_EQ(back.detail, e.detail);
  EXPECT_EQ(back.seed, e.seed);
  EXPECT_EQ(back.epoch, e.epoch);
  EXPECT_EQ(back.deadline_ns, e.deadline_ns);
  EXPECT_EQ(back.digest, e.digest);
  // Round-trip must be a fixed point, not merely field-equal.
  EXPECT_EQ(back.serialize(), e.serialize());
}

TEST(JournalEventTest, SnapshotCountersRoundTrip) {
  JournalEvent e;
  e.time_ns = 5;
  e.type = JournalEventType::kSnapshot;
  e.counters.submitted = 100;
  e.counters.completed = 60;
  e.counters.failed = 2;
  e.counters.cancelled = 10;
  e.counters.expired = 3;
  e.counters.queued = 20;
  e.counters.running = 5;
  e.counters.recalibrations = 4;
  e.counters.stale_hits = 1;
  e.counters.results_stored = 55;
  e.counters.calib_epoch = 5;
  ASSERT_TRUE(e.counters.balanced());

  const JournalEvent back = JournalEvent::parse(e.serialize());
  EXPECT_EQ(back.type, JournalEventType::kSnapshot);
  EXPECT_EQ(back.counters.submitted, 100u);
  EXPECT_EQ(back.counters.completed, 60u);
  EXPECT_EQ(back.counters.queued, 20u);
  EXPECT_EQ(back.counters.calib_epoch, 5u);
  EXPECT_TRUE(back.counters.balanced());
  EXPECT_EQ(back.serialize(), e.serialize());
}

TEST(JournalEventTest, LabelsAreSanitized) {
  JournalEvent e;
  e.type = JournalEventType::kFailed;
  e.job = 1;
  e.detail = "bad value = nan\tseen";
  const std::string line = e.serialize();
  // The one-line key=value grammar survives hostile labels.
  EXPECT_EQ(line.find('\t'), std::string::npos);
  const JournalEvent back = JournalEvent::parse(line);
  EXPECT_EQ(back.detail, "bad_value___nan_seen");
}

TEST(JournalEventTest, ParseRejectsMalformedLines) {
  EXPECT_THROW(JournalEvent::parse("t=1 garbage job=2"), std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=1 type=warp job=2"),
               std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=abc type=submitted job=2"),
               std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=1 job=2"), std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=1 type=submitted color=red"),
               std::runtime_error);
  // Numbers are canonical unsigned decimals over the whole value: no
  // sign, no base prefix, no octal leading zero, no trailing junk.
  EXPECT_THROW(JournalEvent::parse("t=-1 type=submitted job=2"),
               std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=0x1f type=submitted job=2"),
               std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=010 type=submitted job=2"),
               std::runtime_error);
  EXPECT_THROW(JournalEvent::parse("t=12abc type=submitted job=2"),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// Canonical ordering
// ---------------------------------------------------------------------

TEST(JournalTest, ExportOrderIsIndependentOfRecordingOrder) {
  // The same event set recorded in two different interleavings must
  // export identical bytes -- the replay contract's foundation.
  std::vector<JournalEvent> set;
  for (std::uint64_t job = 1; job <= 4; ++job) {
    JournalEvent submit = submitted_event(10, job);
    submit.seed = job * 11;
    set.push_back(submit);
    JournalEvent dispatch = submitted_event(20, job);
    dispatch.type = JournalEventType::kDispatched;
    set.push_back(dispatch);
    JournalEvent done = submitted_event(20, job);
    done.type = JournalEventType::kCompleted;
    done.digest = job * 7;
    set.push_back(done);
  }

  Journal forward;
  for (const JournalEvent& e : set) forward.record(e);
  Journal reverse;
  for (auto it = set.rbegin(); it != set.rend(); ++it) reverse.record(*it);

  EXPECT_EQ(forward.str(), reverse.str());
}

TEST(JournalTest, LifecycleEdgesSortInMachineOrderWithinTimestamp) {
  Journal journal;
  JournalEvent done = submitted_event(50, 9);
  done.type = JournalEventType::kCompleted;
  journal.record(done);
  JournalEvent dispatch = submitted_event(50, 9);
  dispatch.type = JournalEventType::kDispatched;
  journal.record(dispatch);
  journal.record(submitted_event(50, 9));

  const std::vector<JournalEvent> events = exported_events(journal);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, JournalEventType::kSubmitted);
  EXPECT_EQ(events[1].type, JournalEventType::kDispatched);
  EXPECT_EQ(events[2].type, JournalEventType::kCompleted);
}

TEST(JournalTest, SnapshotSortsAfterEveryEventAtItsCutTime) {
  // kSnapshot carries job=0; without the explicit is-snapshot rank it
  // would sort BEFORE same-timestamp job events and the prefix-replay
  // guarantee (snapshot counters == counts over the preceding events)
  // would break.
  Journal journal;
  JournalEvent cut;
  cut.time_ns = 30;
  cut.type = JournalEventType::kSnapshot;
  cut.counters.submitted = 1;
  cut.counters.completed = 1;
  journal.record(cut);

  JournalEvent pause;  // service-level, job=0, same timestamp
  pause.time_ns = 30;
  pause.type = JournalEventType::kPaused;
  journal.record(pause);

  JournalEvent done = submitted_event(30, 77);
  done.type = JournalEventType::kCompleted;
  journal.record(done);

  JournalEvent later = submitted_event(31, 78);
  journal.record(later);

  const std::vector<JournalEvent> events = exported_events(journal);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, JournalEventType::kPaused);
  EXPECT_EQ(events[1].type, JournalEventType::kCompleted);
  EXPECT_EQ(events[2].type, JournalEventType::kSnapshot);
  EXPECT_EQ(events[3].time_ns, 31u);
}

TEST(JournalTest, SealedJournalWritesTheUnsealedBytes) {
  // Sealing turns events into canonical text early; the bytes must be
  // those of a journal that never sealed, whatever the recording order.
  Rng rng(2024);
  std::vector<JournalEvent> set;
  const std::uint64_t times[] = {10, 20, 30, 40, 50};
  for (std::uint64_t t : times) {
    for (std::uint64_t job = 1; job <= 6; ++job) {
      JournalEvent e = submitted_event(t, job);
      e.tenant = job % 2 == 0 ? "qrc" : "qaoa";
      e.seed = rng.index(1000) + 1;
      set.push_back(e);
      // Tied on (time, job, type): only the serialized line orders them.
      for (const char* label : {"class-b", "class-a", "class-c"}) {
        JournalEvent failed = submitted_event(t, job);
        failed.type = JournalEventType::kFailed;
        failed.detail = label;
        set.push_back(failed);
      }
      set.push_back(set.back());  // and an exact duplicate
    }
    JournalEvent recal;  // service-level
    recal.time_ns = t;
    recal.type = JournalEventType::kRecalibrated;
    recal.epoch = t / 10;
    set.push_back(recal);
    JournalEvent pause;
    pause.time_ns = t;
    pause.type = JournalEventType::kPaused;
    set.push_back(pause);
    if (t % 20 == 0 || t == 50) {  // snapshot cuts
      JournalEvent cut;
      cut.time_ns = t;
      cut.type = JournalEventType::kSnapshot;
      cut.counters.submitted = t;
      cut.counters.completed = t;
      set.push_back(cut);
    }
  }
  const auto shuffled = [&rng](std::vector<JournalEvent> events) {
    for (std::size_t i = events.size(); i > 1; --i)
      std::swap(events[i - 1], events[rng.index(i)]);
    return events;
  };

  Journal unsealed;
  for (const JournalEvent& e : shuffled(set)) unsealed.record(e);

  // Watermarks on event times, and one that repeats a lower mark. An
  // event of segment s (s watermarks at or below its time) is recorded
  // at a random stage <= s, so seals also run with newer events open.
  const std::uint64_t marks[] = {20, 30, 30, 50};
  const std::size_t stages = std::size(marks) + 1;
  std::vector<std::vector<JournalEvent>> by_stage(stages);
  for (const JournalEvent& e : shuffled(set)) {
    std::size_t segment = 0;
    while (segment < std::size(marks) && marks[segment] <= e.time_ns)
      ++segment;
    by_stage[rng.index(segment + 1)].push_back(e);
  }
  Journal sealed;
  for (std::size_t stage = 0; stage < stages; ++stage) {
    if (stage > 0) sealed.seal_before(marks[stage - 1]);
    for (const JournalEvent& e : by_stage[stage]) sealed.record(e);
  }
  sealed.seal_before(20);  // below the watermark: a no-op

  EXPECT_EQ(sealed.size(), set.size());
  EXPECT_EQ(sealed.size(), unsealed.size());
  EXPECT_EQ(sealed.str(), unsealed.str());

  // An event below the watermark breaks the ordering assumption: it is
  // not written silently out of order.
  sealed.record(submitted_event(49, 99));
  EXPECT_THROW(sealed.str(), std::logic_error);
}

// ---------------------------------------------------------------------
// Headers and file round-trip
// ---------------------------------------------------------------------

TEST(JournalTest, HeaderSetGetAndOverwrite) {
  Journal journal;
  EXPECT_EQ(journal.header("spec"), "");
  journal.set_header("spec", "seed=1 ticks=2");
  journal.set_header("note", "first");
  EXPECT_EQ(journal.header("spec"), "seed=1 ticks=2");
  journal.set_header("note", "second");
  EXPECT_EQ(journal.header("note"), "second");
}

TEST(JournalTest, WriteReadRoundTrip) {
  Journal journal;
  journal.set_header("spec", "seed=3 ticks=4 with spaces = allowed");
  JournalEvent submit = submitted_event(1, 5);
  submit.tenant = "qrc";
  submit.seed = 99;
  journal.record(submit);
  JournalEvent done = submitted_event(2, 5);
  done.type = JournalEventType::kCompleted;
  done.digest = 1234;
  journal.record(done);

  std::istringstream is(journal.str());
  const Journal::Parsed parsed = Journal::read(is);
  EXPECT_EQ(parsed.header_value("spec"),
            "seed=3 ticks=4 with spaces = allowed");
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].tenant, "qrc");
  EXPECT_EQ(parsed.events[1].digest, 1234u);

  // Re-serializing the parsed journal reproduces the original bytes.
  Journal again;
  for (const auto& [k, v] : parsed.header) again.set_header(k, v);
  for (const JournalEvent& e : parsed.events) again.record(e);
  EXPECT_EQ(again.str(), journal.str());
}

TEST(JournalTest, ReadRejectsCorruptInput) {
  {
    std::istringstream is("NOTAJOURNAL\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);
  }
  {
    std::istringstream is("QSJ1\nE t=1 type=submitted job=1\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);  // no footer
  }
  {
    std::istringstream is("QSJ1\nE t=1 type=submitted job=1\nF count=2\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);  // count lies
  }
  {
    std::istringstream is("QSJ1\nX mystery line\nF count=0\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);
  }
  {
    std::istringstream is("QSJ1\nH malformed-header-no-equals\nF count=0\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);
  }
  {
    std::istringstream is("QSJ1\nE t=1 type=submitted job=1\nF count=0x1\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);  // hex count
  }
  {
    std::istringstream is(
        "QSJ1\nE t=1 type=submitted job=1\nF count=1 trailing\n");
    EXPECT_THROW(Journal::read(is), std::runtime_error);
  }
}

}  // namespace
}  // namespace obs
}  // namespace qs
