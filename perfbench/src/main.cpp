// perfbench: one process = one workload run (or its cold memory probe).
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--trace]
//             [--rss-probe] [--spans-out <path>] [--reference <path>]
//   perfbench --make-reference <path>
//
// Prints human-readable notes, then as its last line one JSON object:
// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
// {"value": .., "unit": ..}}}. perfbench/run.py builds this binary,
// runs it and assembles the benchmark's result line.
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Report;

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--rss-probe") {
      o.rss_probe = true;
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else if (arg == "--reference") {
      o.reference = value();
    } else if (arg == "--make-reference") {
      o.workload = "make-reference";
      o.reference = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.trace && o.rss_probe)
    throw std::invalid_argument("--trace and --rss-probe are exclusive");
  return o;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Report& r) {
  for (const std::string& line : r.notes) std::cout << "# " << line << "\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    if (options.workload == "make-reference") {
      perfbench::make_noisy_reference(options);
      return 0;
    }
    Report report;
    if (options.workload == "scenario-replay")
      report = perfbench::run_scenario_replay(options);
    else if (options.workload == "serve-mix")
      report = perfbench::run_serve_mix(options);
    else if (options.workload == "noisy-trajectories")
      report = perfbench::run_noisy_trajectories(options);
    else if (options.workload == "reservoir")
      report = perfbench::run_reservoir(options);
    else
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    print(report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
