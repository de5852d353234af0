// The shared shape of a workload run: options in, one Report out.
//
// Every workload repeats whole rounds until --seconds has passed. A round
// sets up fresh middleware from the seed (timed as setup_s), runs a fixed
// amount of work through the public API, and checks the outputs. The
// end-to-end metrics are medians over rounds.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace file.
  std::string trace_dir = ".bench_build/traces";
  /// Compute-pool threads (nproc).
  std::size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Problems problems;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void expect(const Problems& found, const std::string& where) {
    for (const auto& p : found) problems.push_back(where + ": " + p);
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

Report run_campaign(const Options& options);
Report run_uplink(const Options& options);
Report run_failover(const Options& options);

}  // namespace perfbench
