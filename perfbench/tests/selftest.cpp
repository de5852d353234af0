// Self-tests of the benchmark's output checks, statistics and span
// recorder: each check must accept the true output and reject a tampered
// ledger or result.
// Run: python3 perfbench/run.py selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "docstore/database.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace perfbench;
using mps::Object;
using mps::Value;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

struct Row {
  std::string client;
  std::uint64_t span;
  std::int64_t captured_at;
  double spl;
};

std::vector<Row> rows() {
  return {{"dev1", 1, 1000, 55.5}, {"dev1", 2, 2000, 61.25},
          {"dev2", 1, 1500, 40.0}, {"dev3", 7, 9000, 72.125}};
}

Value doc_of(const Row& r) {
  return Value(Object{{"client", Value(r.client)},
                      {"span", Value(static_cast<std::int64_t>(r.span))},
                      {"captured_at", Value(r.captured_at)},
                      {"spl", Value(r.spl)}});
}

Ledger ledger_of(const std::vector<Row>& rs) {
  Ledger l;
  for (const auto& r : rs) l.add(r.client, r.span, r.captured_at, r.spl);
  return l;
}

StoreScan store_of(const std::vector<Row>& rs) {
  mps::docstore::Database db;
  auto& c = db.collection("observations");
  for (const auto& r : rs) c.insert(doc_of(r));
  return scan_store(&c);
}

void test_ledger_checks() {
  const Ledger ledger = ledger_of(rows());
  expect(compare_ledger(ledger, store_of(rows())).empty(),
         "true store matches its ledger");

  auto lost = rows();
  lost.pop_back();
  expect(!compare_ledger(ledger, store_of(lost)).empty(), "lost observation");

  auto changed = rows();
  changed[1].spl += 0.5;
  expect(!compare_ledger(ledger, store_of(changed)).empty(), "changed spl");

  auto moved = rows();
  moved[2].captured_at += 1;
  expect(!compare_ledger(ledger, store_of(moved)).empty(), "changed time");

  auto doubled = rows();
  doubled.push_back(doubled[0]);
  StoreScan scan = store_of(doubled);
  expect(scan.repeated == 1, "repeat counted");
  expect(!compare_ledger(ledger, scan).empty(), "observation stored twice");

  auto stranger = rows();
  stranger.push_back({"dev9", 1, 1, 1.0});
  expect(!compare_ledger(ledger, store_of(stranger)).empty(),
         "observation of a client never sent");

  auto padded = rows();
  padded.push_back({"dev2", 2, 1600, 41.0});
  expect(!compare_ledger(ledger_of(padded), store_of(rows())).empty(),
         "tampered ledger (one more sent than stored)");

  // Ownership: a shard holding dev1 only matches the ledger for dev1 and
  // must hold nothing of the others.
  auto owns_dev1 = [](std::string_view c) { return c == "dev1"; };
  std::vector<Row> shard1 = {rows()[0], rows()[1]};
  expect(compare_ledger(ledger, store_of(shard1), owns_dev1).empty(),
         "shard matches its slots");
  expect(!compare_ledger(ledger, store_of(rows()), owns_dev1).empty(),
         "shard holding a foreign slot");

  // Without span ids, identity falls back to (client, time, spl).
  mps::docstore::Database db;
  auto& c = db.collection("observations");
  Value unspanned(Object{{"client", Value("dev1")},
                         {"captured_at", Value(std::int64_t{5})},
                         {"spl", Value(50.0)}});
  c.insert(unspanned);
  c.insert(unspanned);
  expect(scan_store(&c).repeated == 1, "unspanned duplicate detected");
}

void test_digest_is_order_free() {
  Digest a, b;
  a.add("x", 1, 10, 1.5);
  a.add("y", 2, 20, 2.5);
  b.add("y", 2, 20, 2.5);
  b.add("x", 1, 10, 1.5);
  expect(a == b, "digest independent of order");
  Digest c;
  c.add("x", 2, 10, 1.5);
  c.add("y", 1, 20, 2.5);
  expect(!(a == c), "digest tells swapped spans apart");
}

void test_books() {
  expect(check_books(100, 90, 6, 3, 1).empty(), "books close");
  expect(!check_books(100, 91, 6, 3, 1).empty(), "stored one too many");
  expect(!check_books(101, 90, 6, 3, 1).empty(), "recorded one unaccounted");
}

void test_far_cells() {
  mps::assim::Grid background(10, 10, 10'000, 10'000, 40.0);
  mps::phone::Observation near;
  near.location = mps::phone::LocationFix{mps::phone::LocationProvider::kGps,
                                          500.0, 500.0, 10.0};
  std::vector<mps::phone::Observation> used = {near};
  mps::assim::Grid analysis = background;
  analysis.at(0, 0) += 3.0;  // within 2 km of the observation
  expect(check_far_cells(background, analysis, used, 2000.0).empty(),
         "change near an observation allowed");
  analysis.at(9, 9) += 0.1;  // ~13 km away
  expect(!check_far_cells(background, analysis, used, 2000.0).empty(),
         "change far from every observation rejected");
  expect(usable(near, 100.0), "accurate fix usable");
  near.location->accuracy_m = 150.0;
  expect(!usable(near, 100.0), "inaccurate fix unusable");
  near.location.reset();
  expect(!usable(near, 100.0), "unlocalized unusable");
}

void test_stats() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25) == 2.0, "quartile");
  expect(tail_percentile(39) == 50, "median alone below 40 samples");
  expect(tail_percentile(40) == 75, "p75 at 40 samples");
  expect(tail_percentile(100) == 90, "p90 at 100 samples");
  expect(tail_percentile(999) == 98, "p98 below 1000 samples");
  expect(tail_percentile(1000) == 99, "p99 at 1000 samples");
}

void test_tracer() {
  Tracer tracer(true);
  {
    Tracer::Scope root(tracer, "root");
    {
      Tracer::Scope child(tracer, "child");
      Tracer::Scope grandchild(tracer, "grandchild");
    }
    Tracer::Scope sibling(tracer, "child");
  }
  auto totals = tracer.totals();
  expect(tracer.size() == 4 && totals.size() == 3, "one span per scope");
  expect(totals["root"] >= totals["child"] && totals["child"] >= totals["grandchild"],
         "a span covers its children");
  // Roots are left out; the children's self times add up to their totals.
  expect(std::abs(tracer.attributed_s() - totals["child"]) < 1e-9,
         "attributed time is the non-root self time");
  Tracer off(false);
  { Tracer::Scope span(off, "root"); }
  expect(off.size() == 0 && off.attributed_s() == 0.0, "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_ledger_checks();
  test_digest_is_order_free();
  test_books();
  test_far_cells();
  test_stats();
  test_tracer();
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
