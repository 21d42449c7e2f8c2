#include "obs/journal.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace qs {
namespace obs {
namespace {

/// Labels may feed from error messages; whitespace would break the
/// one-line key=value grammar, so it is folded to '_' and the label is
/// truncated to a bounded class tag -- journals record error *classes*,
/// not payloads.
constexpr std::size_t kMaxLabel = 48;

void append_label(std::string& out, const std::string& label) {
  const std::size_t n = std::min(label.size(), kMaxLabel);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = label[i];
    const bool fold =
        c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '=';
    out.push_back(fold ? '_' : c);
  }
}

/// Appends " <key><value>" in decimal (`key` carries its '=').
void append_u64(std::string& out, const char* key, std::uint64_t value) {
  char digits[20];  // 2^64 - 1 has 20 decimal digits
  const auto end = std::to_chars(digits, digits + sizeof digits, value).ptr;
  out += key;
  out.append(digits, end);
}

/// The token separators of the one-line grammar: the whitespace set of
/// the "C" locale (' ', '\t', '\n', '\v', '\f', '\r').
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Canonical unsigned decimal over the whole of `value`: digits only,
/// and no leading zero except "0" itself -- what serialize() writes.
std::uint64_t parse_u64(std::string_view value, std::string_view line) {
  std::uint64_t out = 0;
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || ptr != last ||
      (value.size() > 1 && value[0] == '0'))
    throw std::runtime_error("Journal: bad numeric field '" +
                             std::string(value) +
                             "' in line: " + std::string(line));
  return out;
}

}  // namespace

const char* to_string(JournalEventType type) {
  switch (type) {
    case JournalEventType::kSubmitted:
      return "submitted";
    case JournalEventType::kDispatched:
      return "dispatched";
    case JournalEventType::kCompleted:
      return "completed";
    case JournalEventType::kFailed:
      return "failed";
    case JournalEventType::kCancelled:
      return "cancelled";
    case JournalEventType::kExpired:
      return "expired";
    case JournalEventType::kRecalibrated:
      return "recalibrated";
    case JournalEventType::kPaused:
      return "paused";
    case JournalEventType::kResumed:
      return "resumed";
    case JournalEventType::kShutdown:
      return "shutdown";
    case JournalEventType::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

namespace {

bool type_from_string(std::string_view name, JournalEventType& out) {
  for (int t = 0; t <= static_cast<int>(JournalEventType::kSnapshot); ++t) {
    const auto candidate = static_cast<JournalEventType>(t);
    if (name == to_string(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

/// Appends serialize()'s bytes for `e` to `out`. Fixed key order;
/// optional fields are emitted exactly when nonzero / nonempty -- a pure
/// function of the value, so serialization stays deterministic.
void append_event(std::string& out, const JournalEvent& e) {
  append_u64(out, "t=", e.time_ns);
  out += " type=";
  out += to_string(e.type);
  append_u64(out, " job=", e.job);
  if (!e.tenant.empty()) {
    out += " tenant=";
    append_label(out, e.tenant);
  }
  if (!e.detail.empty()) {
    out += " detail=";
    append_label(out, e.detail);
  }
  if (e.seed != 0) append_u64(out, " seed=", e.seed);
  if (e.epoch != 0) append_u64(out, " epoch=", e.epoch);
  if (e.deadline_ns != 0) append_u64(out, " deadline=", e.deadline_ns);
  if (e.digest != 0) append_u64(out, " digest=", e.digest);
  if (e.type == JournalEventType::kSnapshot) {
    const JournalCounters& c = e.counters;
    append_u64(out, " submitted=", c.submitted);
    append_u64(out, " completed=", c.completed);
    append_u64(out, " failed=", c.failed);
    append_u64(out, " cancelled=", c.cancelled);
    append_u64(out, " expired=", c.expired);
    append_u64(out, " queued=", c.queued);
    append_u64(out, " running=", c.running);
    append_u64(out, " recalibrations=", c.recalibrations);
    append_u64(out, " stale=", c.stale_hits);
    append_u64(out, " stored=", c.results_stored);
    append_u64(out, " cepoch=", c.calib_epoch);
  }
}

}  // namespace

std::string JournalEvent::serialize() const {
  std::string out;
  append_event(out, *this);
  return out;
}

JournalEvent JournalEvent::parse(std::string_view line) {
  JournalEvent event;
  bool saw_type = false;
  std::size_t pos = 0;
  for (;;) {
    while (pos < line.size() && is_space(line[pos])) ++pos;
    if (pos == line.size()) break;
    std::size_t end = pos;
    while (end < line.size() && !is_space(line[end])) ++end;
    const std::string_view token = line.substr(pos, end - pos);
    pos = end;
    const std::size_t eq = token.find('=');
    if (eq == token.npos)
      throw std::runtime_error("Journal: malformed token '" +
                               std::string(token) +
                               "' in line: " + std::string(line));
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "t") {
      event.time_ns = parse_u64(value, line);
    } else if (key == "type") {
      if (!type_from_string(value, event.type))
        throw std::runtime_error("Journal: unknown event type '" +
                                 std::string(value) +
                                 "' in line: " + std::string(line));
      saw_type = true;
    } else if (key == "job") {
      event.job = parse_u64(value, line);
    } else if (key == "tenant") {
      event.tenant = value;
    } else if (key == "detail") {
      event.detail = value;
    } else if (key == "seed") {
      event.seed = parse_u64(value, line);
    } else if (key == "epoch") {
      event.epoch = parse_u64(value, line);
    } else if (key == "deadline") {
      event.deadline_ns = parse_u64(value, line);
    } else if (key == "digest") {
      event.digest = parse_u64(value, line);
    } else if (key == "submitted") {
      event.counters.submitted = parse_u64(value, line);
    } else if (key == "completed") {
      event.counters.completed = parse_u64(value, line);
    } else if (key == "failed") {
      event.counters.failed = parse_u64(value, line);
    } else if (key == "cancelled") {
      event.counters.cancelled = parse_u64(value, line);
    } else if (key == "expired") {
      event.counters.expired = parse_u64(value, line);
    } else if (key == "queued") {
      event.counters.queued = parse_u64(value, line);
    } else if (key == "running") {
      event.counters.running = parse_u64(value, line);
    } else if (key == "recalibrations") {
      event.counters.recalibrations = parse_u64(value, line);
    } else if (key == "stale") {
      event.counters.stale_hits = parse_u64(value, line);
    } else if (key == "stored") {
      event.counters.results_stored = parse_u64(value, line);
    } else if (key == "cepoch") {
      event.counters.calib_epoch = parse_u64(value, line);
    } else {
      throw std::runtime_error("Journal: unknown field '" + std::string(key) +
                               "' in line: " + std::string(line));
    }
  }
  if (!saw_type)
    throw std::runtime_error("Journal: event line without a type: " +
                             std::string(line));
  return event;
}

void Journal::set_header(std::string key, std::string value) {
  MutexLock lock(mutex_);
  for (auto& [k, v] : header_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  header_.emplace_back(std::move(key), std::move(value));
}

std::string Journal::header(const std::string& key) const {
  MutexLock lock(mutex_);
  for (const auto& [k, v] : header_)
    if (k == key) return v;
  return {};
}

namespace {

/// Appends the "E <event>\n" lines of `events` to `out` in canonical
/// total order. The serialized-line tiebreak makes the order a pure
/// function of the event multiset: events identical in every field
/// serialize identically, so their relative order is irrelevant.
void append_canonical(std::string& out,
                      std::vector<JournalEvent>::const_iterator first,
                      std::vector<JournalEvent>::const_iterator last) {
  const auto n = static_cast<std::size_t>(last - first);
  // Every event serialized once, back to back; line i is
  // text[start[i], start[i + 1]).
  std::string text;
  std::vector<std::size_t> start;
  start.reserve(n + 1);
  for (auto it = first; it != last; ++it) {
    start.push_back(text.size());
    append_event(text, *it);
  }
  start.push_back(text.size());
  const auto line = [&](std::size_t i) {
    return std::string_view(text).substr(start[i], start[i + 1] - start[i]);
  };
  // kSnapshot sorts after EVERY other event at its cut time (its
  // counters were read after the tick's transitions), not merely after
  // job-0 service events -- hence the explicit is-snapshot rank ahead
  // of the job id.
  const auto key = [&](std::size_t i) {
    const JournalEvent& e = first[static_cast<std::ptrdiff_t>(i)];
    return std::make_tuple(e.time_ns,
                           e.type == JournalEventType::kSnapshot ? 1 : 0,
                           e.job, static_cast<int>(e.type), line(i));
  };
  std::vector<std::size_t> index(n);
  for (std::size_t i = 0; i < n; ++i) index[i] = i;
  std::sort(index.begin(), index.end(),
            [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  out.reserve(out.size() + text.size() + 3 * n);
  for (std::size_t i : index) {
    out += "E ";
    out += line(i);
    out += '\n';
  }
}

}  // namespace

void Journal::record(JournalEvent event) {
  MutexLock lock(mutex_);
  if (event.time_ns < watermark_) {
    if (late_.empty()) late_ = event.serialize();
    return;
  }
  events_.push_back(std::move(event));
}

void Journal::seal_before(std::uint64_t time_ns) {
  MutexLock lock(mutex_);
  if (time_ns <= watermark_) return;  // every open event is >= watermark
  watermark_ = time_ns;
  const auto older = std::partition(
      events_.begin(), events_.end(),
      [&](const JournalEvent& e) { return e.time_ns < time_ns; });
  append_canonical(sealed_, events_.begin(), older);
  sealed_count_ += static_cast<std::size_t>(older - events_.begin());
  events_.erase(events_.begin(), older);
}

std::size_t Journal::size() const {
  MutexLock lock(mutex_);
  return sealed_count_ + events_.size();
}

void Journal::write(std::ostream& os) const {
  MutexLock lock(mutex_);
  if (!late_.empty())
    throw std::logic_error(
        "Journal::write: event recorded below the sealed watermark t=" +
        std::to_string(watermark_) + ": " + late_);
  std::string open;
  append_canonical(open, events_.begin(), events_.end());
  os << "QSJ1\n";
  for (const auto& [k, v] : header_) os << "H " << k << "=" << v << "\n";
  os << sealed_ << open << "F count=" << sealed_count_ + events_.size()
     << "\n";
}

std::string Journal::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

std::string Journal::Parsed::header_value(const std::string& key) const {
  for (const auto& [k, v] : header)
    if (k == key) return v;
  return {};
}

Journal::Parsed Journal::read(std::istream& is) {
  Parsed out;
  std::string buffer;
  if (!std::getline(is, buffer) || buffer != "QSJ1")
    throw std::runtime_error("Journal::read: missing QSJ1 magic");
  bool saw_footer = false;
  while (std::getline(is, buffer)) {
    const std::string_view line = buffer;
    if (line.empty()) continue;
    if (line.rfind("H ", 0) == 0) {
      const std::size_t eq = line.find('=', 2);
      if (eq == std::string::npos)
        throw std::runtime_error("Journal::read: malformed header: " + buffer);
      out.header.emplace_back(line.substr(2, eq - 2), line.substr(eq + 1));
    } else if (line.rfind("E ", 0) == 0) {
      out.events.push_back(JournalEvent::parse(line.substr(2)));
    } else if (line.rfind("F count=", 0) == 0) {
      const std::uint64_t count = parse_u64(line.substr(8), line);
      if (count != out.events.size())
        throw std::runtime_error(
            "Journal::read: footer count " + std::to_string(count) +
            " != " + std::to_string(out.events.size()) + " events (truncated"
            " journal?)");
      saw_footer = true;
    } else {
      throw std::runtime_error("Journal::read: unrecognized line: " + buffer);
    }
  }
  if (!saw_footer)
    throw std::runtime_error("Journal::read: missing footer (truncated?)");
  return out;
}

}  // namespace obs
}  // namespace qs
