// failover: the operator's recovery path. A 2-shard ShardFleet is loaded
// in process through broker_for(client); then every round runs a fixed
// number of cycles, each an ingest tranche, kill() + fail_over() of one
// shard (alternating) and rebalance of one populated slot. After every
// failover and every rebalance each shard must hold exactly the ledger
// of the slots it owns.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "ingest/obs_batch.h"
#include "inputs.h"
#include "shard/fleet.h"
#include "shard/shard_map.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mps;

constexpr int kFirstDay = 10;
constexpr int kDaysSent = 3;
constexpr std::size_t kBatchSize = 10;
constexpr std::size_t kBaseBatches = 1000;
constexpr std::size_t kTrancheBatches = 50;
constexpr int kCycles = 6;
const char* const kApp = "soundcity";

struct FailoverRound {
  double setup_s = 0.0;
  std::vector<double> failover_ms, rebalance_ms, ack_us;
  double ingest_s = 0.0;  ///< base load and tranches
  std::uint64_t ingest_obs = 0;
  // Traced round.
  std::vector<double> snapshot_ms, replayed, snapshot_bytes, migrated;
};

FailoverRound failover_round(std::uint64_t seed, Tracer& tracer,
                             Report& report, bool traced) {
  FailoverRound out;
  Tracer::Scope round_span(tracer, "failover.round");
  auto setup_start = Clock::now();
  std::vector<DeviceBatch> batches =
      device_batches(seed, kFirstDay, kDaysSent, kBatchSize);
  const std::size_t needed = kBaseBatches + kTrancheBatches * kCycles;
  if (batches.size() < needed)
    throw std::runtime_error("failover: only " + std::to_string(batches.size()) +
                             " input batches, need " + std::to_string(needed));
  batches.resize(needed);
  sim::Simulation sim;
  obs::Registry registry;
  shard::FleetConfig config;
  config.shards = 2;
  config.app = kApp;
  if (traced) config.metrics = &registry;
  shard::ShardFleet fleet(sim, config);
  std::set<std::string> clients;
  for (const auto& b : batches) clients.insert(b.client);
  // The identical registration sequence on every node, so tokens and
  // exchanges agree wherever a slot lands.
  std::map<std::string, std::string> exchanges;
  for (std::uint32_t i = 0; i < fleet.size(); ++i) {
    core::GoFlowServer& server = fleet.node(i).server();
    auto reg = server.register_app(kApp).value_or_throw();
    std::string token = server
                            .register_account(reg.admin_token, kApp, "fleet",
                                              core::Role::kClient)
                            .value_or_throw();
    for (const auto& c : clients)
      exchanges[c] = server.login_client(token, kApp, c).value_or_throw().exchange;
  }
  std::vector<std::uint32_t> slots;
  for (const auto& c : clients) slots.push_back(shard::slot_of(kApp, c));
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());

  ingest::BatchPool pool;
  Ledger ledger;
  std::size_t next = 0;
  auto publish = [&](const DeviceBatch& b) {
    auto flat = pool.make_batch(kApp, b.client, b.batch_id, b.sent_at, b.rows);
    report.attempted += 1;
    Tracer::Scope span(tracer, "broker.publish_flat");
    auto r = fleet.broker_for(b.client).publish_flat(
        exchanges.at(b.client), std::string(kApp) + ".obs." + b.client, flat,
        b.sent_at);
    if (!r.ok()) {
      report.failed += 1;
      report.problems.push_back("failover: publish of " + b.batch_id +
                                " failed: " + r.error().message);
      return;
    }
    record_sent(ledger, b);
  };
  out.setup_s = seconds_since(setup_start);

  // The base load is ingest too: it counts towards obs_per_s.
  auto load_start = Clock::now();
  for (; next < kBaseBatches; ++next) {
    publish(batches[next]);
    out.ingest_obs += batches[next].rows.size();
  }
  out.ingest_s += seconds_since(load_start);
  fleet.snapshot_all();

  auto check = [&](const std::string& when) {
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < fleet.size(); ++i) {
      StoreScan scan =
          scan_store(fleet.node(i).db().find_collection("observations"));
      total += scan.documents;
      report.expect(compare_ledger(ledger, scan,
                                   [&](std::string_view c) {
                                     return fleet.shard_for(c) == i;
                                   }),
                    "failover " + when + ", shard " + std::to_string(i));
    }
    report.expect(total == ledger.total(),
                  "failover " + when + ": shards hold " +
                      std::to_string(total) + " observations, ledger " +
                      std::to_string(ledger.total()));
  };

  for (int c = 0; c < kCycles; ++c) {
    std::string cycle = "cycle " + std::to_string(c);
    auto tranche_start = Clock::now();
    for (std::size_t k = 0; k < kTrancheBatches && next < batches.size();
         ++k, ++next) {
      auto t = Clock::now();
      publish(batches[next]);
      out.ack_us.push_back(seconds_since(t) * 1e6);
      out.ingest_obs += batches[next].rows.size();
    }
    out.ingest_s += seconds_since(tranche_start);

    shard::ShardNode& node = fleet.node(static_cast<std::uint32_t>(c % 2));
    report.attempted += 1;
    {
      Tracer::Scope span(tracer, "shard.failover");
      auto t = Clock::now();
      node.kill();
      node.fail_over();
      out.failover_ms.push_back(seconds_since(t) * 1e3);
    }
    check(cycle + " failover");
    if (traced) {
      out.replayed.push_back(
          static_cast<double>(node.lifecycle().last_recovery().replayed));
      out.snapshot_bytes.push_back(
          registry.has_gauge("durable.snapshot_bytes")
              ? registry.gauge("durable.snapshot_bytes").value()
              : 0.0);
      Tracer::Scope span(tracer, "shard.snapshot");
      auto t = Clock::now();
      node.snapshot();
      out.snapshot_ms.push_back(seconds_since(t) * 1e3);
    }

    std::uint32_t slot = slots[static_cast<std::size_t>(c) * 7 % slots.size()];
    std::uint64_t moving = 0;
    for (const auto& [client, digest] : ledger.per_client())
      if (shard::slot_of(kApp, client) == slot) moving += digest.count;
    report.attempted += 1;
    bool moved = false;
    {
      Tracer::Scope span(tracer, "shard.rebalance");
      auto t = Clock::now();
      moved = fleet.rebalance_next(slot);
      out.rebalance_ms.push_back(seconds_since(t) * 1e3);
    }
    if (!moved) {
      report.failed += 1;
      report.problems.push_back("failover " + cycle + ": rebalance of slot " +
                                std::to_string(slot) + " refused");
    }
    out.migrated.push_back(static_cast<double>(moving));
    check(cycle + " rebalance");
  }
  return out;
}

}  // namespace

Report run_failover(const Options& options) {
  Report report;
  std::printf("failover inputs: %zu batches loaded + %d cycles x %zu "
              "batches, <= %zu observations each\n",
              kBaseBatches, kCycles, kTrancheBatches, kBatchSize);

  Tracer off(false);
  std::vector<double> setup, rate, failover, rebalance;
  auto untraced = [&](int round) {
    FailoverRound r = failover_round(options.seed, off, report, false);
    double r_rate = static_cast<double>(r.ingest_obs) / r.ingest_s;
    if (round > 0) {
      setup.push_back(r.setup_s);
      rate.push_back(r_rate);
      failover.push_back(median(r.failover_ms));
      rebalance.push_back(median(r.rebalance_ms));
    }
    std::printf("failover round %d: setup %.3f s, failover %.2f ms, "
                "rebalance %.2f ms, ingest %.0f obs/s, ack p50 %.1f us\n",
                round, r.setup_s, median(r.failover_ms),
                median(r.rebalance_ms), r_rate, median(r.ack_us));
    return r;
  };

  if (!options.trace) {
    int rounds = repeat_rounds(options.seconds, [&](int round) { untraced(round); });
    std::printf("failover: %d rounds, failover_ms %.2f, rebalance_ms %.2f\n",
                rounds, median(failover), median(rebalance));
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("obs_per_s", median(rate), "obs/s");
    report.set("op_p50_ms", median(failover), "ms");
    return report;
  }

  untraced(0);
  FailoverRound base = untraced(1);
  Tracer tracer(true);
  auto start = Clock::now();
  FailoverRound traced = failover_round(options.seed, tracer, report, true);
  double traced_wall = seconds_since(start);
  std::string path = options.trace_dir + "/failover_seed" +
                     std::to_string(options.seed) + ".json";
  if (tracer.write_chrome(path))
    std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());
  else
    std::printf("trace: cannot write %s\n", path.c_str());
  double residual = traced_wall - tracer.attributed_s();
  double sum_base = 0.0, sum_traced = 0.0;
  for (double v : base.failover_ms) sum_base += v;
  for (double v : base.rebalance_ms) sum_base += v;
  for (double v : traced.failover_ms) sum_traced += v;
  for (double v : traced.rebalance_ms) sum_traced += v;
  double overhead = (sum_traced - sum_base) / 1e3 + (traced.ingest_s - base.ingest_s);
  std::printf("trace: wall %.3f s, attributed %.3f s, residual %.3f s "
              "(setup, checks), overhead %.4f s\n",
              traced_wall, tracer.attributed_s(), residual, overhead);
  report.set("ack_p50_us", median(base.ack_us), "us");
  report.set("ack_p99_us", quantile(base.ack_us, tail_percentile(base.ack_us.size()) / 100.0),
             "us");
  report.set("failover_ms", median(base.failover_ms), "ms");
  report.set("rebalance_ms", median(base.rebalance_ms), "ms");
  report.set("shard.snapshot_ms", median(traced.snapshot_ms), "ms");
  report.set("durable.replayed_records", median(traced.replayed), "count");
  report.set("durable.snapshot_bytes", median(traced.snapshot_bytes), "bytes");
  report.set("shard.migrated_docs", median(traced.migrated), "count");
  report.set("trace.residual_s", residual, "s");
  report.set("trace.overhead_s", overhead, "s");
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
  return report;
}

}  // namespace perfbench
