#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "dynamics/trotter.h"
#include "gates/bosonic.h"
#include "gates/qudit_gates.h"
#include "gates/two_qudit.h"
#include "obs/clock.h"
#include "qaoa/coloring_qaoa.h"
#include "qaoa/graph.h"
#include "sqed/gauge_model.h"

namespace qs {
namespace sim {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kQaoa:
      return "qaoa";
    case JobKind::kQrc:
      return "qrc";
    case JobKind::kSqed:
      return "sqed";
    case JobKind::kTomo:
      return "tomo";
  }
  return "unknown";
}

namespace {

bool kind_from_string(const std::string& name, JobKind& out) {
  for (int k = 0; k <= static_cast<int>(JobKind::kTomo); ++k) {
    const auto candidate = static_cast<JobKind>(k);
    if (name == to_string(candidate)) {
      out = candidate;
      return true;
    }
  }
  return false;
}

/// Doubles print with max_digits10 so parse(serialize(spec)) is an
/// exact round-trip -- the replay contract depends on it.
std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

[[noreturn]] void bad_field(const std::string& field, const std::string& value,
                            const std::string& line) {
  throw std::runtime_error("WorkloadSpec: bad " + field + " '" + value +
                           "' in: " + line);
}

/// Finite doubles up to `max` only: a rate of inf or nan never lets
/// poisson() return, and spans of seconds pass max = obs::kMaxSeconds.
double parse_f64(const std::string& field, const std::string& value,
                 const std::string& line,
                 double max = std::numeric_limits<double>::max()) {
  try {
    const double v = std::stod(value);
    if (std::isfinite(v) && v <= max) return v;
  } catch (const std::exception&) {
  }
  bad_field(field, value, line);
}

/// Decimal digits only: std::stoull alone accepts a sign and wraps -1 to
/// 2^64 - 1, which turns a typo into a run that never ends.
std::uint64_t parse_u64(const std::string& field, const std::string& value,
                        const std::string& line) {
  const bool digits =
      !value.empty() && std::all_of(value.begin(), value.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  try {
    if (digits) return std::stoull(value);
  } catch (const std::exception&) {  // out of range
  }
  bad_field(field, value, line);
}

/// Priorities are signed: larger runs earlier, and below zero is legal.
int parse_int(const std::string& field, const std::string& value,
              const std::string& line) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used == value.size()) return v;
  } catch (const std::exception&) {
  }
  bad_field(field, value, line);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(s);
  while (std::getline(is, field, sep)) out.push_back(field);
  return out;
}

}  // namespace

std::string WorkloadSpec::serialize() const {
  std::ostringstream os;
  os << "seed=" << seed << " ticks=" << ticks
     << " tick_s=" << fmt(tick_seconds) << " snap=" << snapshot_every
     << " ttl=" << fmt(result_ttl_seconds)
     << " storm_pub=" << storm_publishes
     << " flood_frac=" << fmt(flood_cancel_fraction);
  for (std::uint64_t t : storm_ticks) os << " storm=" << t;
  for (std::uint64_t t : flood_ticks) os << " flood=" << t;
  for (const auto& [start, end] : pause_windows)
    os << " pause=" << start << "-" << end;
  for (const TenantSpec& t : tenants) {
    os << " tenant=" << t.name << "," << to_string(t.kind) << ","
       << fmt(t.rate) << "," << fmt(t.burst_factor) << "," << t.burst_period
       << "," << t.burst_length << "," << t.priority << ","
       << fmt(t.deadline_fraction) << "," << fmt(t.deadline_seconds) << ","
       << fmt(t.cancel_fraction) << "," << t.shots << "," << t.variants;
  }
  return os.str();
}

WorkloadSpec WorkloadSpec::parse(const std::string& line) {
  WorkloadSpec spec;
  spec.storm_ticks.clear();
  spec.flood_ticks.clear();
  spec.pause_windows.clear();
  spec.tenants.clear();
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("WorkloadSpec: malformed token '" + token +
                               "' in: " + line);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      spec.seed = parse_u64(key, value, line);
    } else if (key == "ticks") {
      spec.ticks = parse_u64(key, value, line);
    } else if (key == "tick_s") {
      spec.tick_seconds = parse_f64(key, value, line, obs::kMaxSeconds);
    } else if (key == "snap") {
      spec.snapshot_every = parse_u64(key, value, line);
    } else if (key == "ttl") {
      spec.result_ttl_seconds =
          parse_f64(key, value, line, obs::kMaxSeconds);
    } else if (key == "storm_pub") {
      spec.storm_publishes = parse_u64(key, value, line);
    } else if (key == "flood_frac") {
      spec.flood_cancel_fraction = parse_f64(key, value, line);
    } else if (key == "storm") {
      spec.storm_ticks.push_back(parse_u64(key, value, line));
    } else if (key == "flood") {
      spec.flood_ticks.push_back(parse_u64(key, value, line));
    } else if (key == "pause") {
      const std::size_t dash = value.find('-');
      if (dash == std::string::npos)
        throw std::runtime_error("WorkloadSpec: malformed pause '" + value +
                                 "' in: " + line);
      spec.pause_windows.emplace_back(
          parse_u64(key, value.substr(0, dash), line),
          parse_u64(key, value.substr(dash + 1), line));
    } else if (key == "tenant") {
      const std::vector<std::string> f = split(value, ',');
      if (f.size() != 12)
        throw std::runtime_error("WorkloadSpec: tenant needs 12 fields: " +
                                 value);
      TenantSpec t;
      t.name = f[0];
      if (!kind_from_string(f[1], t.kind))
        throw std::runtime_error("WorkloadSpec: unknown job kind '" + f[1] +
                                 "' in: " + line);
      t.rate = parse_f64("tenant rate", f[2], line);
      t.burst_factor = parse_f64("tenant burst_factor", f[3], line);
      t.burst_period = parse_u64("tenant burst_period", f[4], line);
      t.burst_length = parse_u64("tenant burst_length", f[5], line);
      t.priority = parse_int("tenant priority", f[6], line);
      t.deadline_fraction = parse_f64("tenant deadline_fraction", f[7], line);
      t.deadline_seconds = parse_f64("tenant deadline_seconds", f[8], line,
                                     obs::kMaxSeconds);
      t.cancel_fraction = parse_f64("tenant cancel_fraction", f[9], line);
      t.shots = parse_u64("tenant shots", f[10], line);
      t.variants = parse_u64("tenant variants", f[11], line);
      spec.tenants.push_back(std::move(t));
    } else {
      throw std::runtime_error("WorkloadSpec: unknown key '" + key +
                               "' in: " + line);
    }
  }
  if (spec.tenants.empty())
    throw std::runtime_error("WorkloadSpec: no tenants in: " + line);
  return spec;
}

WorkloadSpec WorkloadSpec::standard(std::uint64_t seed,
                                    std::uint64_t ticks) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.ticks = ticks;
  spec.tick_seconds = 1.0;
  spec.snapshot_every = std::max<std::uint64_t>(1, ticks / 20);
  spec.result_ttl_seconds = static_cast<double>(ticks) * 0.3;
  // Three storms, one flood, one pause window long enough to expire the
  // tomography tenant's short deadlines, spread across the run.
  spec.storm_ticks = {ticks / 5, ticks / 2, (4 * ticks) / 5};
  spec.flood_ticks = {(3 * ticks) / 5};
  spec.pause_windows = {{(2 * ticks) / 5, (2 * ticks) / 5 + 3}};

  TenantSpec qaoa;
  qaoa.name = "qaoa";
  qaoa.kind = JobKind::kQaoa;
  qaoa.rate = 2.0;
  qaoa.burst_factor = 4.0;  // bursty sweep submissions
  qaoa.burst_period = 10;
  qaoa.burst_length = 2;
  qaoa.priority = 2;
  qaoa.cancel_fraction = 0.05;
  qaoa.shots = 64;

  TenantSpec qrc;
  qrc.name = "qrc";
  qrc.kind = JobKind::kQrc;
  qrc.rate = 3.0;  // steady probe stream
  qrc.priority = 1;
  qrc.deadline_fraction = 0.3;
  qrc.deadline_seconds = 8.0;
  qrc.shots = 64;

  TenantSpec sqed;
  sqed.name = "sqed";
  sqed.kind = JobKind::kSqed;
  sqed.rate = 1.5;  // low-priority background scans
  sqed.priority = 0;
  sqed.cancel_fraction = 0.02;
  sqed.shots = 48;

  TenantSpec tomo;
  tomo.name = "tomo";
  tomo.kind = JobKind::kTomo;
  tomo.rate = 2.5;
  tomo.priority = 1;
  tomo.deadline_fraction = 0.8;  // deadline-heavy; expires in pauses
  tomo.deadline_seconds = 2.0;
  tomo.cancel_fraction = 0.05;
  tomo.shots = 32;

  spec.tenants = {qaoa, qrc, sqed, tomo};
  return spec;
}

double WorkloadSpec::expected_jobs_per_tick() const {
  double sum = 0.0;
  for (const TenantSpec& t : tenants) {
    double rate = t.rate;
    if (t.burst_period > 0 && t.burst_factor > 1.0) {
      const double burst_share = std::min(
          1.0, static_cast<double>(t.burst_length) /
                   static_cast<double>(t.burst_period));
      rate *= 1.0 + (t.burst_factor - 1.0) * burst_share;
    }
    sum += rate;
  }
  return sum;
}

void WorkloadSpec::scale_to_jobs(std::uint64_t jobs) {
  const double per_tick = expected_jobs_per_tick();
  if (per_tick <= 0.0 || ticks == 0) return;
  const double scale = static_cast<double>(jobs) /
                       (per_tick * static_cast<double>(ticks));
  for (TenantSpec& t : tenants) t.rate *= scale;
}

bool WorkloadSpec::paused_at(std::uint64_t tick) const {
  for (const auto& [start, end] : pause_windows)
    if (tick >= start && tick < end) return true;
  return false;
}

bool WorkloadSpec::flood_at(std::uint64_t tick) const {
  return std::find(flood_ticks.begin(), flood_ticks.end(), tick) !=
         flood_ticks.end();
}

bool WorkloadSpec::storm_at(std::uint64_t tick) const {
  return std::find(storm_ticks.begin(), storm_ticks.end(), tick) !=
         storm_ticks.end();
}

Circuit make_circuit(JobKind kind, std::size_t variant) {
  const double x = 0.1 * static_cast<double>(variant);
  switch (kind) {
    case JobKind::kQaoa: {
      Graph triangle;
      triangle.n = 3;
      triangle.edges = {{0, 1}, {1, 2}, {0, 2}};
      const ColoringQaoa qaoa(triangle, 3);
      return qaoa.build_circuit({0.5 + x}, {0.4}, {0, 0, 0});
    }
    case JobKind::kQrc: {
      Circuit c(QuditSpace({2, 4}));
      c.add("F", fourier(2), {0});
      c.add("D", displacement(4, cplx(0.3 + x, 0.2)), {1});
      c.add("CSUM", csum(2, 4), {0, 1});
      c.add("F2", fourier(4), {1});
      return c;
    }
    case JobKind::kSqed: {
      GaugeModelParams params;
      params.d = 3;
      TrotterOptions opt;
      opt.dt = 0.2 + x;
      opt.steps = 1;
      return trotter_circuit(gauge_chain(2, params), opt);
    }
    case JobKind::kTomo: {
      Circuit c(QuditSpace({2, 2}));
      c.add("F0", fourier(2), {0});
      if (variant % 2 == 1) c.add("F1", fourier(2), {1});
      c.add("CSUM", csum(2, 2), {0, 1});
      if (variant % 4 >= 2) c.add("F2", fourier(2), {0});
      return c;
    }
  }
  throw std::runtime_error("make_circuit: unknown job kind");
}

JobSpec make_job(const TenantSpec& tenant, std::size_t variant) {
  Circuit circuit =
      make_circuit(tenant.kind, variant % std::max<std::size_t>(
                                              1, tenant.variants));
  std::vector<double> diagonal(circuit.space().dimension());
  for (std::size_t i = 0; i < diagonal.size(); ++i)
    diagonal[i] = static_cast<double>(i % 5);
  return JobSpec(std::move(circuit))
      .with_tenant(tenant.name)
      .with_priority(tenant.priority)
      .with_shots(tenant.shots)
      .with_observable("obs", std::move(diagonal));
}

}  // namespace sim
}  // namespace qs
