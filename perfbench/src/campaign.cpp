// campaign: the paper's deployment replayed in process. A 30-day city
// fleet runs through study::StudyRunner (flat ingest, no journal, no
// wire), then the last day is read back one hour at a time with
// GoFlowServer::query_observations and assimilated into hourly noise maps
// by a localized AssimilationCycle on the compute pool.
//
// Fleet size: 3x the study bench's default device slice. Throughput falls
// as the fleet grows (the study bench reads ~100k obs/s at its default
// slice and ~85k obs/s at 3x devices on 4 cores), so the campaign is
// sized for that growth cost to show.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "assim/city_noise_model.h"
#include "assim/cycle.h"
#include "common.h"
#include "ingest/obs_batch.h"
#include "inputs.h"
#include "stats.h"
#include "study/study.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mps;

constexpr int kDays = kCampaignDays;
constexpr std::size_t kBufferSize = 10;
constexpr int kMapHours = 24;
constexpr std::size_t kGridCells = 48;
const char* const kApp = "soundcity";

struct CampaignRound {
  double setup_s = 0.0;
  double run_s = 0.0;
  double map_s = 0.0;
  std::uint64_t stored = 0;
  std::vector<double> hour_ms;
};

/// Layer figures only the traced round fills in; layer times come from
/// the tracer's spans.
struct CampaignLayers {
  double region_s = 0.0;
  double efficiency = 0.0;
  std::uint64_t sim_events = 0;
  double route_hit_ratio = 0.0;
  std::uint64_t inserts = 0;
  double arena_high_water = 0.0;
  std::uint64_t plans_indexed = 0;
  std::uint64_t observations_used = 0;
};

CampaignRound campaign_round(const Options& options, exec::Executor& pool,
                             Tracer& tracer, Report& report,
                             CampaignLayers* layers) {
  CampaignRound out;
  Tracer::Scope round_span(tracer, "campaign.round");
  auto setup_start = Clock::now();
  crowd::Population population = campaign_crowd();

  sim::Simulation sim;
  broker::Broker broker;
  docstore::Database db;
  core::GoFlowServer server(sim, broker, db);
  obs::Registry registry;

  study::StudyConfig config;
  config.seed = options.seed;
  config.app = kApp;
  config.duration_days = kDays;
  config.version = client::AppVersion::kV1_3;
  config.buffer_size = kBufferSize;
  config.journey_release = days(0);
  if (layers != nullptr) {
    config.metrics = &registry;
    db.set_metrics(&registry);
  }
  study::StudyRunner runner(population, config, sim, broker, server);

  // Traced round only: a benchmark-owned queue on the GoFlow exchange
  // (every app exchange forwards there) captures the batch stream so the
  // broker and batch-building costs can be replayed in isolation.
  std::vector<broker::Message> captured;
  if (layers != nullptr) {
    broker.declare_queue("perfbench.tap").throw_if_error();
    broker.bind_queue(server.config().goflow_exchange, "perfbench.tap", "#")
        .throw_if_error();
    broker.subscribe("perfbench.tap", [&captured](const broker::Message& m) {
      captured.push_back(m);
    }).value_or_throw();
  }

  assim::CityModelParams city_params;
  city_params.grid_nx = kGridCells;
  city_params.grid_ny = kGridCells;
  assim::CityNoiseModel city(city_params, options.seed);
  // The numerical model's hourly forecast fields for the mapped day are
  // an input of the map, computed ahead like the forecast runs that feed
  // an assimilation service.
  const TimeMs day_start = days(kDays - 1);
  std::map<TimeMs, assim::Grid> model_fields;
  for (int h = 0; h <= kMapHours; ++h)
    model_fields.emplace(day_start + hours(h), city.model(day_start + hours(h)));
  auto model_at = [&model_fields](TimeMs t) -> const assim::Grid& {
    return model_fields.at(t);
  };
  out.setup_s = seconds_since(setup_start);

  // --- The deployment ---------------------------------------------------
  study::StudyReport study;
  {
    Tracer::Scope span(tracer, "study.run");
    auto start = Clock::now();
    study = runner.run();
    out.run_s = seconds_since(start);
  }
  report.attempted += 1;

  const docstore::Collection* stored = db.find_collection("observations");
  out.stored = stored == nullptr ? 0 : stored->size();
  std::uint64_t recorded = 0, on_device = 0, in_flight = 0, not_shared = 0;
  for (const client::GoFlowClient* c : runner.clients()) {
    recorded += c->stats().observations_recorded;
    not_shared += c->stats().dropped_not_shared;
    on_device += c->buffered();
    in_flight += c->in_flight_count();
  }
  report.expect(check_books(recorded, out.stored, on_device, in_flight,
                            not_shared),
                "campaign books");
  report.expect(recorded == study.observations_recorded,
                "campaign: device count of recorded observations differs "
                "from the study report");

  // --- Hourly noise maps of the last day --------------------------------
  assim::CycleConfig cycle_config;
  cycle_config.step = hours(1);
  cycle_config.blue.localization.enabled = true;
  TimingExecutor timed_pool(pool);
  cycle_config.executor = layers != nullptr ? static_cast<exec::Executor*>(&timed_pool)
                                            : &pool;
  assim::AssimilationCycle cycle(
      [&](TimeMs t) { return model_at(t); }, day_start, cycle_config);
  const double cutoff = cycle_config.blue.cutoff_radius_m();
  const double max_accuracy = cycle_config.policy.max_accuracy_m;

  std::vector<std::vector<phone::Observation>> windows;
  for (int h = 0; h < kMapHours; ++h) {
    core::ObservationFilter filter;
    filter.app = kApp;
    filter.from = day_start + hours(h);
    filter.until = day_start + hours(h + 1);
    assim::Grid previous = cycle.analysis();
    TimeMs t_prev = cycle.time();
    report.attempted += 1;

    auto start = Clock::now();
    Result<std::vector<Value>> docs = [&] {
      Tracer::Scope span(tracer, "docstore.query");
      return server.query_observations(runner.admin_token(), filter);
    }();
    if (!docs.ok()) {
      report.failed += 1;
      report.problems.push_back("campaign: query failed: " +
                                docs.error().message);
      continue;
    }
    std::vector<phone::Observation> window;
    window.reserve(docs.value().size());
    for (const Value& doc : docs.value())
      window.push_back(phone::Observation::from_document(doc));
    assim::CycleStep step;
    {
      Tracer::Scope span(tracer, "assim.advance");
      step = cycle.advance(window);
    }
    double hour_s = seconds_since(start);
    out.hour_ms.push_back(hour_s * 1e3);
    out.map_s += hour_s;

    // Checks, outside the timed request.
    std::vector<phone::Observation> used;
    for (const auto& o : window)
      if (usable(o, max_accuracy)) used.push_back(o);
    report.expect(used.size() == step.observations_used,
                  "campaign hour " + std::to_string(h) + ": " +
                      std::to_string(used.size()) +
                      " usable observations read back, cycle used " +
                      std::to_string(step.observations_used));
    assim::Grid background = model_at(cycle.time());
    const assim::Grid& model_prev = model_at(t_prev);
    for (std::size_t i = 0; i < background.size(); ++i)
      background[i] += cycle_config.persistence_weight *
                       (previous[i] - model_prev[i]);
    report.expect(check_far_cells(background, cycle.analysis(), used, cutoff),
                  "campaign hour " + std::to_string(h));
    if (layers != nullptr) {
      layers->observations_used += step.observations_used;
      windows.push_back(std::move(window));
    }
  }

  // After the map, so the read-back meets the store as ingest left it.
  StoreScan scan = scan_store(stored);
  report.expect(scan.repeated == 0,
                "campaign: " + std::to_string(scan.repeated) +
                    " observations stored twice");
  if (layers == nullptr) return out;

  // --- Traced round: per-layer attribution ------------------------------
  layers->region_s = timed_pool.region_s();
  layers->efficiency = timed_pool.efficiency();
  {
    // The same steps on one thread: what the pool buys.
    assim::CycleConfig seq_config = cycle_config;
    seq_config.executor = nullptr;
    assim::AssimilationCycle seq(
        [&](TimeMs t) { return model_at(t); }, day_start, seq_config);
    Tracer::Scope span(tracer, "assim.advance_seq");
    for (const auto& w : windows) seq.advance(w);
    report.expect(seq.analysis().values() == cycle.analysis().values(),
                  "campaign: threaded analysis differs from the "
                  "sequential one");
  }
  layers->sim_events = sim.executed();
  const broker::BrokerStats& bs = broker.stats();
  std::uint64_t lookups = bs.route_cache_hits + bs.route_cache_misses;
  layers->route_hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(bs.route_cache_hits) /
                         static_cast<double>(lookups);
  layers->inserts = stored == nullptr ? 0 : stored->stats().total_inserts;
  layers->plans_indexed = stored == nullptr ? 0 : stored->stats().plans_indexed;
  if (stored != nullptr)
    std::printf("docstore plans: scan %llu, indexed %llu, intersect %llu, "
                "covered %llu\n",
                static_cast<unsigned long long>(stored->stats().plans_scan),
                static_cast<unsigned long long>(stored->stats().plans_indexed),
                static_cast<unsigned long long>(stored->stats().plans_intersect),
                static_cast<unsigned long long>(stored->stats().plans_covered));
  layers->arena_high_water =
      registry.has_gauge("ingest.arena_high_water_bytes")
          ? registry.gauge("ingest.arena_high_water_bytes").value()
          : 0.0;

  // Replay the captured batch stream into a fresh server: route, dedup
  // and insert, without the simulator around them.
  {
    sim::Simulation replay_sim;
    broker::Broker replay_broker;
    docstore::Database replay_db;
    core::GoFlowServer replay(replay_sim, replay_broker, replay_db);
    auto reg = replay.register_app(kApp).value_or_throw();
    std::string token = replay
                            .register_account(reg.admin_token, kApp,
                                              "study-fleet", core::Role::kClient)
                            .value_or_throw();
    std::set<std::string> clients;
    for (const auto& m : captured) clients.insert(std::string(m.flat->client()));
    for (const auto& c : clients)
      replay.login_client(token, kApp, c).value_or_throw();
    for (const auto& m : captured) {
      Tracer::Scope span(tracer, "broker.publish_flat");
      replay_broker.publish_flat(m.exchange, m.routing_key, m.flat,
                                 m.published_at)
          .value_or_throw();
    }
    const docstore::Collection* replayed =
        replay_db.find_collection("observations");
    report.expect(replayed != nullptr && replayed->size() == out.stored,
                  "campaign: replayed batch stream stored a different count");
  }
  {
    ingest::BatchPool pool_replay;
    std::vector<phone::Observation> rows;
    for (const auto& m : captured) {
      const ingest::ObsBatch& b = *m.flat;
      rows.clear();
      for (std::size_t i = 0; i < b.size(); ++i) rows.push_back(b.observation_at(i));
      Tracer::Scope span(tracer, "ingest.make_batch");
      pool_replay.make_batch(b.app(), b.client(), b.batch_id(), b.sent_at(),
                             rows);
    }
  }
  return out;
}

}  // namespace

Report run_campaign(const Options& options) {
  Report report;
  exec::ThreadPool pool(options.threads);
  Tracer off(false);
  std::vector<double> setup, rate, op, map;

  auto untraced = [&](int round) {
    CampaignRound r = campaign_round(options, pool, off, report, nullptr);
    if (round > 0) {
      setup.push_back(r.setup_s);
      rate.push_back(static_cast<double>(r.stored) / r.run_s);
      op.push_back(median(r.hour_ms));
      map.push_back(r.map_s);
    }
    std::printf("campaign round %d: setup %.3f s, run %.3f s, %llu stored "
                "(%.0f obs/s), map %.3f s\n",
                round, r.setup_s, r.run_s, static_cast<unsigned long long>(r.stored),
                static_cast<double>(r.stored) / r.run_s, r.map_s);
    return r;
  };

  if (!options.trace) {
    int rounds = repeat_rounds(options.seconds, [&](int round) { untraced(round); });
    std::printf("campaign: %d rounds, map_s median %.4f s\n", rounds,
                median(map));
    report.set("setup_s", median(setup), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("obs_per_s", median(rate), "obs/s");
    report.set("op_p50_ms", median(op), "ms");
    return report;
  }

  untraced(0);
  CampaignRound base = untraced(1);
  Tracer tracer(true);
  CampaignLayers layers;
  auto start = Clock::now();
  CampaignRound traced = campaign_round(options, pool, tracer, report, &layers);
  double traced_wall = seconds_since(start);
  std::string path = options.trace_dir + "/campaign_seed" +
                     std::to_string(options.seed) + ".json";
  if (!tracer.write_chrome(path))
    std::printf("trace: cannot write %s\n", path.c_str());
  else
    std::printf("trace: %zu spans written to %s\n", tracer.size(), path.c_str());

  double residual = traced_wall - tracer.attributed_s();
  double overhead = (traced.run_s + traced.map_s) - (base.run_s + base.map_s);
  std::printf("trace: wall %.3f s, attributed %.3f s, residual %.3f s, "
              "overhead %.3f s (traced run+map minus untraced)\n",
              traced_wall, tracer.attributed_s(), residual, overhead);
  auto spans = tracer.totals();
  double publish_s = spans["broker.publish_flat"];
  double make_s = spans["ingest.make_batch"];
  report.set("map_s", base.map_s, "s");
  report.set("broker.publish_flat_s", publish_s, "s");
  report.set("ingest.make_batch_s", make_s, "s");
  report.set("sim.residual_s", traced.run_s - publish_s - make_s, "s");
  report.set("sim.events", static_cast<double>(layers.sim_events), "count");
  report.set("broker.route_cache_hit_ratio", layers.route_hit_ratio, "ratio");
  report.set("docstore.inserts", static_cast<double>(layers.inserts), "count");
  report.set("ingest.arena_high_water_bytes", layers.arena_high_water, "bytes");
  report.set("docstore.query_s", spans["docstore.query"], "s");
  report.set("docstore.plans_indexed", static_cast<double>(layers.plans_indexed),
             "count");
  report.set("assim.advance_s", spans["assim.advance"], "s");
  report.set("assim.advance_seq_s", spans["assim.advance_seq"], "s");
  report.set("assim.observations_used",
             static_cast<double>(layers.observations_used), "count");
  report.set("exec.region_s", layers.region_s, "s");
  report.set("exec.parallel_efficiency", layers.efficiency, "ratio");
  report.set("trace.residual_s", residual, "s");
  report.set("trace.overhead_s", overhead, "s");
  report.set("trace.spans", static_cast<double>(tracer.size()), "count");
  return report;
}

}  // namespace perfbench
