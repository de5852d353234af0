// uplink: the serving plane as a collection gateway sees it. Device
// batches (20 observations, the campaign uploads 10) are sent in a closed
// loop from one thread over 4 loopback NetClient connections into a
// NetServer, in front of a journaled, WAL-shipping 1-shard ShardFleet
// that snapshots every 6 simulated hours, the snapshot period of the
// sharded deployment example (examples/city_deployment.cpp). Every 20th
// batch is sent twice, as a device does after a lost ack: 5%, the ack-loss
// probability of the "lossy-network" fault profile (fault::FaultPlan).
// The loop is closed because NetClient co-simulates the round trip in the
// caller's thread.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/recovery.h"
#include "durable/storage.h"
#include "ingest/obs_batch.h"
#include "inputs.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "shard/fleet.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mps;

constexpr int kFirstDay = 10;
constexpr int kDaysSent = 3;
constexpr std::size_t kBatchSize = 20;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kDuplicateEvery = 20;
constexpr DurationMs kSnapshotPeriod = hours(6);
const char* const kApp = "soundcity";

/// A MemStorageEnv that times every call the journal makes into it.
class TimingEnv final : public durable::StorageEnv {
  template <typename F>
  auto timed(F&& f) const -> decltype(f()) {
    auto start = Clock::now();
    auto r = f();
    busy_s_ += seconds_since(start);
    return r;
  }

 public:
  std::vector<std::string> list() const override { return timed([&] { return env_.list(); }); }
  bool exists(const std::string& n) const override {
    return timed([&] { return env_.exists(n); });
  }
  std::string read(const std::string& n) const override {
    return timed([&] { return env_.read(n); });
  }
  std::string read_suffix(const std::string& n, std::size_t off) const override {
    return timed([&] { return env_.read_suffix(n, off); });
  }
  void append(const std::string& n, std::string_view d) override {
    timed([&] { env_.append(n, d); return 0; });
  }
  void write_atomic(const std::string& n, std::string_view d) override {
    timed([&] { env_.write_atomic(n, d); return 0; });
  }
  void remove(const std::string& n) override {
    timed([&] { env_.remove(n); return 0; });
  }
  void sync(const std::string& n) override {
    timed([&] { env_.sync(n); return 0; });
  }
  void crash() override { env_.crash(); }

  double busy_s() const { return busy_s_; }

 private:
  durable::MemStorageEnv env_;
  mutable double busy_s_ = 0.0;
};

/// One send in the closed loop: the batch index, whether it is the
/// re-send after a lost ack, and whether the shard snapshots before it
/// (its upload time is the first past a snapshot-period boundary).
struct Send {
  std::size_t batch;
  bool duplicate;
  bool snapshot_first;
};

std::vector<Send> send_order(const std::vector<DeviceBatch>& batches) {
  std::vector<Send> order;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    bool crosses = i > 0 && batches[i].sent_at / kSnapshotPeriod !=
                                batches[i - 1].sent_at / kSnapshotPeriod;
    order.push_back({i, false, crosses});
    if (i % kDuplicateEvery == kDuplicateEvery - 1)
      order.push_back({i, true, false});
  }
  return order;
}

/// Registers the app, one client account and logs every device in;
/// returns each device's exchange.
std::map<std::string, std::string> login_fleet(
    core::GoFlowServer& server, const std::vector<DeviceBatch>& batches) {
  auto reg = server.register_app(kApp).value_or_throw();
  std::string token = server
                          .register_account(reg.admin_token, kApp,
                                            "gateway-fleet", core::Role::kClient)
                          .value_or_throw();
  std::map<std::string, std::string> exchanges;
  for (const auto& b : batches)
    if (exchanges.count(b.client) == 0)
      exchanges[b.client] =
          server.login_client(token, kApp, b.client).value_or_throw().exchange;
  return exchanges;
}

std::string routing_key(const std::string& client) {
  return std::string(kApp) + ".obs." + client;
}

struct UplinkRound {
  double setup_s = 0.0;
  double publish_s = 0.0;  ///< wall of the publish phase, snapshots included
  double ack_total_s = 0.0;
  std::vector<double> ack_us;
  std::vector<double> snapshot_ms;
  std::uint64_t distinct_obs = 0;
  double promote_ms = 0.0;
  double pump_s = 0.0;
  // Traced round counts.
  std::uint64_t bytes_in = 0, frames_in = 0, wal_appends = 0,
                shipped_records = 0, ship_bytes = 0, duplicate_batches = 0;
};

/// The devices' side of a round, made from the seed during set-up.
struct UplinkInputs {
  std::vector<DeviceBatch> batches;
  std::vector<Send> order;
  Ledger ledger;
};

UplinkRound uplink_round(std::uint64_t seed, UplinkInputs& in, Tracer& tracer,
                         Report& report, bool traced) {
  UplinkRound out;
  Tracer::Scope round_span(tracer, "uplink.round");
  auto setup_start = Clock::now();
  in = UplinkInputs{};
  in.batches = device_batches(seed, kFirstDay, kDaysSent, kBatchSize);
  in.order = send_order(in.batches);
  for (const auto& b : in.batches) record_sent(in.ledger, b);
  const std::vector<DeviceBatch>& batches = in.batches;
  const std::vector<Send>& order = in.order;
  const Ledger& ledger = in.ledger;
  // Each device serializes its upload once, at the edge.
  ingest::BatchPool pool;
  std::vector<std::shared_ptr<const ingest::ObsBatch>> flats;
  flats.reserve(batches.size());
  for (const auto& b : batches)
    flats.push_back(pool.make_batch(kApp, b.client, b.batch_id, b.sent_at, b.rows));
  sim::Simulation sim;
  obs::Registry registry;
  shard::FleetConfig fleet_config;
  fleet_config.shards = 1;
  fleet_config.app = kApp;
  if (traced) fleet_config.metrics = &registry;
  shard::ShardFleet fleet(sim, fleet_config);
  shard::ShardNode& node = fleet.node(0);
  auto exchanges = login_fleet(node.server(), batches);
  net::NetServer server(sim, node.broker());
  server.start().throw_if_error();
  std::vector<std::unique_ptr<net::NetClient>> conns;
  for (std::size_t i = 0; i < kConnections; ++i) {
    net::NetClientConfig nc;
    nc.port = server.port();
    nc.client_id = "gateway-" + std::to_string(i);
    conns.push_back(std::make_unique<net::NetClient>(sim, nc));
    conns.back()->set_pump([&server, &tracer] {
      Tracer::Scope span(tracer, "net.server_pump");
      server.pump();
    });
  }
  out.setup_s = seconds_since(setup_start);

  out.ack_us.reserve(order.size());
  std::size_t sent = 0;
  auto phase_start = Clock::now();
  for (const Send& s : order) {
    const DeviceBatch& b = batches[s.batch];
    const auto& flat = flats[s.batch];
    // A re-send goes out on the connection that carried the original.
    net::NetClient& conn =
        *conns[(s.duplicate ? sent - 1 : sent) % kConnections];
    if (s.snapshot_first) {
      Tracer::Scope span(tracer, "shard.snapshot");
      auto t = Clock::now();
      node.snapshot();
      out.snapshot_ms.push_back(seconds_since(t) * 1e3);
    }
    report.attempted += 1;
    auto start = Clock::now();
    Result<broker::PublishResult> r = [&] {
      Tracer::Scope span(tracer, "net.publish_flat");
      return conn.publish_flat(exchanges.at(b.client), routing_key(b.client),
                               flat, b.sent_at);
    }();
    double ack_s = seconds_since(start);
    out.ack_us.push_back(ack_s * 1e6);
    out.ack_total_s += ack_s;
    if (!r.ok()) {
      report.failed += 1;
      report.problems.push_back("uplink: publish of " + b.batch_id +
                                " failed: " + r.error().message);
    }
    if (!s.duplicate) {
      out.distinct_obs += b.rows.size();
      ++sent;
    }
  }
  out.publish_s = seconds_since(phase_start);

  std::size_t duplicates = order.size() - sent;
  report.expect(compare_ledger(ledger, scan_store(node.db().find_collection(
                                           "observations"))),
                "uplink primary");
  report.expect(node.server().duplicate_batches() == duplicates,
                "uplink: " + std::to_string(duplicates) +
                    " re-sent batches, server dropped " +
                    std::to_string(node.server().duplicate_batches()));
  if (traced) {
    out.pump_s = tracer.totals()["net.server_pump"];
    out.bytes_in = server.stats().bytes_in;
    out.frames_in = server.stats().frames_in;
    out.wal_appends = registry.has_counter("durable.wal_appends")
                          ? registry.counter("durable.wal_appends").value()
                          : 0;
    out.shipped_records = node.shipper().stats().records_shipped;
    out.ship_bytes = node.shipper().stats().bytes_shipped;
    out.duplicate_batches = node.server().duplicate_batches();
  }

  // The follower must hold everything acknowledged.
  auto t = Clock::now();
  node.fail_over();
  out.promote_ms = seconds_since(t) * 1e3;
  report.expect(compare_ledger(ledger, scan_store(node.db().find_collection(
                                           "observations"))),
                "uplink promoted follower");
  return out;
}

/// The ladder: the same sends through one more layer per rung, each
/// timed over its publish calls only (snapshots excluded).
struct Ladder {
  double encode_s = 0.0, decode_s = 0.0;
  double broker_s = 0.0;   ///< unjournaled in-process server
  double journal_s = 0.0;  ///< + ServerLifecycle over a timed MemStorageEnv
  double storage_s = 0.0;
  double fleet_s = 0.0;    ///< 1-shard fleet: + WAL shipping
};

Ladder run_ladder(const std::vector<DeviceBatch>& batches,
                  const std::vector<Send>& order, Tracer& tracer,
                  Report& report) {
  Ladder l;
  ingest::BatchPool pool;
  {
    std::string body, frame;
    std::uint64_t request = 0;
    for (const Send& s : order) {
      const DeviceBatch& b = batches[s.batch];
      auto flat = pool.make_batch(kApp, b.client, b.batch_id, b.sent_at, b.rows);
      std::string exchange = "app." + std::string(kApp) + ".client." + b.client;
      auto t = Clock::now();
      {
        Tracer::Scope span(tracer, "wire.encode");
        body.clear();
        frame.clear();
        net::wire::encode_publish_flat(exchange, routing_key(b.client),
                                       b.sent_at, *flat, body);
        net::wire::encode_frame(net::wire::MsgType::kPublishFlat, ++request,
                                body, frame);
      }
      l.encode_s += seconds_since(t);
      t = Clock::now();
      net::wire::PublishFlatMsg msg;
      bool ok = false;
      {
        Tracer::Scope span(tracer, "wire.decode");
        net::wire::Frame f;
        ok = net::wire::decode_frame(frame, 0, f) ==
                 net::wire::DecodeResult::kOk &&
             net::wire::decode_publish_flat(f.body, msg);
      }
      l.decode_s += seconds_since(t);
      report.expect(ok && msg.observations.size() == b.rows.size() &&
                        msg.batch_id == b.batch_id,
                    "uplink: wire round trip of " + b.batch_id + " differs");
    }
  }

  // Publishes every send into `broker`, snapshotting on the schedule.
  auto drive = [&](broker::Broker& broker,
                   const std::map<std::string, std::string>& exchanges,
                   const char* span_name, const std::function<void()>& snapshot) {
    double total = 0.0;
    for (const Send& s : order) {
      const DeviceBatch& b = batches[s.batch];
      if (s.snapshot_first) snapshot();
      auto flat = pool.make_batch(kApp, b.client, b.batch_id, b.sent_at, b.rows);
      auto t = Clock::now();
      {
        Tracer::Scope span(tracer, span_name);
        broker.publish_flat(exchanges.at(b.client), routing_key(b.client), flat,
                            b.sent_at)
            .value_or_throw();
      }
      total += seconds_since(t);
    }
    return total;
  };
  {
    sim::Simulation sim;
    broker::Broker broker;
    docstore::Database db;
    core::GoFlowServer server(sim, broker, db);
    auto exchanges = login_fleet(server, batches);
    l.broker_s = drive(broker, exchanges, "broker.publish_flat", [] {});
  }
  {
    sim::Simulation sim;
    broker::Broker broker;
    docstore::Database db;
    core::GoFlowServer server(sim, broker, db);
    TimingEnv env;
    core::ServerLifecycle lifecycle(env, sim, broker, db, server);
    auto exchanges = login_fleet(server, batches);
    double before = env.busy_s();
    l.journal_s = drive(broker, exchanges, "journal.publish_flat",
                        [&] { lifecycle.snapshot(); });
    l.storage_s = env.busy_s() - before;
  }
  {
    sim::Simulation sim;
    shard::FleetConfig fc;
    fc.shards = 1;
    fc.app = kApp;
    shard::ShardFleet fleet(sim, fc);
    auto exchanges = login_fleet(fleet.node(0).server(), batches);
    l.fleet_s = drive(fleet.node(0).broker(), exchanges, "fleet.publish_flat",
                      [&] { fleet.node(0).snapshot(); });
  }
  return l;
}

}  // namespace

Report run_uplink(const Options& options) {
  Report report;
  UplinkInputs in;
  Tracer off(false);
  std::vector<double> setup, rate, p50, p99, snap;
  int tail = 50;
  auto untraced = [&](int round) {
    UplinkRound r = uplink_round(options.seed, in, off, report, false);
    if (round == 0)
      std::printf("uplink inputs: %zu devices, %zu batches of <= %zu, %zu "
                  "sends (%zu re-sent), %llu observations, %zu snapshots\n",
                  in.ledger.per_client().size(), in.batches.size(), kBatchSize,
                  in.order.size(), in.order.size() - in.batches.size(),
                  static_cast<unsigned long long>(in.ledger.total()),
                  r.snapshot_ms.size());
    tail = tail_percentile(r.ack_us.size());
    double r_rate = static_cast<double>(r.distinct_obs) / r.publish_s;
    double r_p50 = median(r.ack_us), r_tail = quantile(r.ack_us, tail / 100.0);
    double r_snap = median(r.snapshot_ms);
    if (round > 0) {
      setup.push_back(r.setup_s);
      rate.push_back(r_rate);
      p50.push_back(r_p50);
      p99.push_back(r_tail);
      snap.push_back(r_snap);
    }
    std::printf("uplink round %d: setup %.3f s, publish %.3f s (%.0f obs/s), "
                "ack p50 %.1f us p%d %.1f us (%zu acks), snapshot %.2f ms, "
                "promote %.2f ms\n",
                round, r.setup_s, r.publish_s, r_rate, r_p50, tail, r_tail,
                r.ack_us.size(), r_snap, r.promote_ms);
    return r;
  };

  if (!options.trace) {
    int rounds = repeat_rounds(options.seconds, [&](int round) { untraced(round); });
    std::printf("uplink: %d rounds, ack p50 %.1f us, p%d %.1f us\n", rounds,
                median(p50), tail, median(p99));
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("obs_per_s", median(rate), "obs/s");
    report.set("op_p50_ms", median(p50) / 1e3, "ms");
    return report;
  }

  untraced(0);
  UplinkRound base = untraced(1);
  Tracer tracer(true);
  auto start = Clock::now();
  UplinkRound traced = uplink_round(options.seed, in, tracer, report, true);
  Ladder ladder = [&] {
    Tracer::Scope span(tracer, "uplink.ladder");
    return run_ladder(in.batches, in.order, tracer, report);
  }();
  double traced_wall = seconds_since(start);
  std::string path = options.trace_dir + "/uplink_seed" +
                     std::to_string(options.seed) + ".json";
  if (tracer.write_chrome(path))
    std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());
  else
    std::printf("trace: cannot write %s\n", path.c_str());

  // The socket path's wall time, explained rung by rung: wire codec +
  // the in-process 1-shard fleet (broker + journal + shipping). What is
  // left is syscalls, batch rebuilding on the server and the ack frame.
  double socket_s = traced.ack_total_s;
  double residual = socket_s - (ladder.encode_s + ladder.decode_s + ladder.fleet_s);
  double overhead = traced.publish_s - base.publish_s;
  std::printf("ladder: socket path %.4f s = encode %.4f + decode %.4f + "
              "broker %.4f + journal %.4f + ship %.4f + residual %.4f s\n",
              socket_s, ladder.encode_s, ladder.decode_s, ladder.broker_s,
              ladder.journal_s - ladder.broker_s,
              ladder.fleet_s - ladder.journal_s, residual);
  std::printf("trace: wall %.3f s, attributed %.3f s, overhead %.4f s "
              "(traced publish phase minus untraced)\n",
              traced_wall, tracer.attributed_s(), overhead);
  report.set("ack_p50_us", p50.front(), "us");
  report.set("ack_p99_us", p99.front(), "us");  // the tail rule's percentile
  report.set("net.wire_encode_s", ladder.encode_s, "s");
  report.set("net.wire_decode_s", ladder.decode_s, "s");
  report.set("broker.publish_flat_s", ladder.broker_s, "s");
  report.set("durable.journal_s", ladder.journal_s - ladder.broker_s, "s");
  report.set("durable.storage_s", ladder.storage_s, "s");
  report.set("shard.ship_s", ladder.fleet_s - ladder.journal_s, "s");
  report.set("net.server_pump_s", traced.pump_s, "s");
  report.set("net.client_self_s", socket_s - traced.pump_s, "s");
  report.set("net.bytes_in", static_cast<double>(traced.bytes_in), "bytes");
  report.set("net.frames_in", static_cast<double>(traced.frames_in), "count");
  report.set("durable.wal_appends", static_cast<double>(traced.wal_appends), "count");
  report.set("shard.shipped_records", static_cast<double>(traced.shipped_records),
             "count");
  report.set("shard.ship_bytes", static_cast<double>(traced.ship_bytes), "bytes");
  report.set("server.duplicate_batches",
             static_cast<double>(traced.duplicate_batches), "count");
  report.set("shard.snapshot_ms", snap.front(), "ms");
  report.set("failover_ms", base.promote_ms, "ms");
  report.set("trace.residual_s", residual, "s");
  report.set("trace.overhead_s", overhead, "s");
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
  return report;
}

}  // namespace perfbench
