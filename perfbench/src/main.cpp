// goflow_perfbench --workload campaign|uplink|failover --seed N
//                  --seconds S --trace 0|1 [--trace-dir DIR]
//
// Runs one workload against the GoFlow middleware libraries, checks its
// outputs and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "workload.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"obs_per_s", "obs/s"},
    {"op_p50_ms", "ms"},
};

// Every traced run prints all of these; a layer a workload never calls
// reads 0 there (campaign sends no frame, so its net.* times are 0).
const MetricSpec kPerLayer[] = {
    // campaign
    {"map_s", "s"},
    {"broker.publish_flat_s", "s"},
    {"ingest.make_batch_s", "s"},
    {"sim.residual_s", "s"},
    {"sim.events", "count"},
    {"broker.route_cache_hit_ratio", "ratio"},
    {"docstore.inserts", "count"},
    {"ingest.arena_high_water_bytes", "bytes"},
    {"docstore.query_s", "s"},
    {"docstore.plans_indexed", "count"},
    {"assim.advance_s", "s"},
    {"assim.advance_seq_s", "s"},
    {"assim.observations_used", "count"},
    {"exec.region_s", "s"},
    {"exec.parallel_efficiency", "ratio"},
    // uplink
    {"ack_p50_us", "us"},
    {"ack_p99_us", "us"},
    {"net.wire_encode_s", "s"},
    {"net.wire_decode_s", "s"},
    {"durable.journal_s", "s"},
    {"durable.storage_s", "s"},
    {"shard.ship_s", "s"},
    {"net.server_pump_s", "s"},
    {"net.client_self_s", "s"},
    {"net.bytes_in", "bytes"},
    {"net.frames_in", "count"},
    {"durable.wal_appends", "count"},
    {"shard.shipped_records", "count"},
    {"shard.ship_bytes", "bytes"},
    {"server.duplicate_batches", "count"},
    // uplink and failover
    {"shard.snapshot_ms", "ms"},
    // failover
    {"failover_ms", "ms"},
    {"rebalance_ms", "ms"},
    {"durable.replayed_records", "count"},
    {"durable.snapshot_bytes", "bytes"},
    {"shard.migrated_docs", "count"},
    // every workload
    {"trace.residual_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: goflow_perfbench --workload campaign|uplink|failover "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 3600) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();
  unsigned hw = std::thread::hardware_concurrency();
  options.threads = hw == 0 ? 1 : hw;

  std::printf("host: nproc=%ld compiler=\"%s\" build=%s pool_threads=%zu "
              "seed=%llu workload=%s seconds=%.0f trace=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), compiler().c_str(),
              PERFBENCH_BUILD_TYPE, options.threads,
              static_cast<unsigned long long>(options.seed),
              options.workload.c_str(), options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    if (options.workload == "campaign") {
      report = run_campaign(options);
    } else if (options.workload == "uplink") {
      report = run_uplink(options);
    } else if (options.workload == "failover") {
      report = run_failover(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::map<std::string, Metric> got;
  for (const Metric& m : report.metrics) got[m.name] = m;
  if (!options.trace)
    for (const auto& spec : kEndToEnd)
      if (got.count(spec.name) == 0)
        report.problems.push_back(std::string("metric not measured: ") +
                                  spec.name);
  for (const auto& p : report.problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += report.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = got.find(spec.name);
    double value = it == got.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const auto& spec : kPerLayer) emit(spec);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.problems.empty() ? 0 : 1;
}
