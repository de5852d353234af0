// Planner tests: the query planner must (a) pick indexed access paths and
// say so through the stats counters, and (b) return byte-identical
// results to the full-scan reference execution, which stays reachable
// through set_planner_enabled(false).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "docstore/collection.h"

namespace mps::docstore {
namespace {

Value doc(const std::string& user, int t, double spl) {
  return Value(Object{{"user", Value(user)},
                      {"captured_at", Value(t)},
                      {"spl", Value(spl)}});
}

/// A collection with indexes on user and captured_at: 300 docs across 10
/// users, shuffled insertion order so index order != insertion order.
Collection make_indexed_collection() {
  Collection c("obs");
  c.create_index("user");
  c.create_index("captured_at");
  std::vector<int> times;
  for (int i = 0; i < 300; ++i) times.push_back(i * 7 % 500);
  for (int i = 0; i < 300; ++i) {
    int t = times[static_cast<std::size_t>(i)];
    c.insert(doc("u" + std::to_string(i % 10), t, 30.0 + i % 60));
  }
  // A few documents without the indexed fields at all.
  c.insert(Value(Object{{"spl", Value(55.0)}}));
  c.insert(Value(Object{{"user", Value("u3")}}));
  return c;
}

/// Runs `find` twice — planner on and planner off — and asserts identical
/// results (order included) before returning them.
std::vector<Document> find_both_ways(Collection& c, const Query& q,
                                     const FindOptions& options = {}) {
  c.set_planner_enabled(true);
  auto fast = c.find(q, options);
  c.set_planner_enabled(false);
  auto reference = c.find(q, options);
  c.set_planner_enabled(true);
  EXPECT_EQ(fast.size(), reference.size()) << q.to_string();
  for (std::size_t i = 0; i < std::min(fast.size(), reference.size()); ++i)
    EXPECT_EQ(fast[i], reference[i]) << q.to_string() << " at " << i;
  return fast;
}

/// find (with `options`) and count agree with the planner on and off.
void expect_same_both_ways(Collection& c, const Query& q,
                           const FindOptions& options = {}) {
  find_both_ways(c, q, options);
  c.set_planner_enabled(true);
  std::size_t fast = c.count(q);
  c.set_planner_enabled(false);
  std::size_t reference = c.count(q);
  c.set_planner_enabled(true);
  EXPECT_EQ(fast, reference) << q.to_string();
}

/// A page of the time-sorted matches: exercises sort, skip and limit.
FindOptions sorted_page(const std::string& path) {
  FindOptions options;
  options.sort_by = path;
  options.skip = 3;
  options.limit = 25;
  return options;
}

TEST(PlannerTest, IndexedEqBumpsIndexedCounter) {
  Collection c = make_indexed_collection();
  std::uint64_t before = c.stats().indexed_finds;
  auto results = c.find(Query::eq("user", Value("u3")));
  EXPECT_EQ(results.size(), 31u);  // 30 full docs + 1 user-only doc
  EXPECT_EQ(c.stats().indexed_finds, before + 1);
  EXPECT_GE(c.stats().plans_indexed, 1u);
}

TEST(PlannerTest, NonIndexedFieldFallsBackToScan) {
  Collection c = make_indexed_collection();
  std::uint64_t before = c.stats().scanned_finds;
  auto results = c.find(Query::gt("spl", Value(80.0)));
  EXPECT_FALSE(results.empty());
  EXPECT_EQ(c.stats().scanned_finds, before + 1);
  EXPECT_GE(c.stats().plans_scan, 1u);
}

TEST(PlannerTest, PlannerDisabledCountsAsScan) {
  Collection c = make_indexed_collection();
  c.set_planner_enabled(false);
  std::uint64_t before = c.stats().scanned_finds;
  c.find(Query::eq("user", Value("u3")));
  EXPECT_EQ(c.stats().scanned_finds, before + 1);
}

TEST(PlannerTest, IndexedExecutionEqualsScanExecution) {
  Collection c = make_indexed_collection();
  find_both_ways(c, Query::eq("user", Value("u7")));
  find_both_ways(c, Query::in("user", {Value("u1"), Value("u5"), Value("u5")}));
  find_both_ways(c, Query::range("captured_at", Value(100), Value(200)));
  find_both_ways(c, Query::lte("captured_at", Value(50)));
  find_both_ways(c, Query::gt("captured_at", Value(450)));
  find_both_ways(c, Query::exists("user"));
  find_both_ways(c, Query::ne("user", Value("u0")));
}

TEST(PlannerTest, AndIntersectionUsesMultipleIndexes) {
  Collection c = make_indexed_collection();
  Query q = Query::and_({Query::eq("user", Value("u2")),
                         Query::range("captured_at", Value(0), Value(400))});
  std::uint64_t before = c.stats().plans_intersect;
  auto fast = find_both_ways(c, q);
  EXPECT_GE(c.stats().plans_intersect, before + 1);
  for (const auto& d : fast) EXPECT_EQ(d.get_string("user"), "u2");
}

TEST(PlannerTest, SortByIndexedPathSkipsStableSort) {
  Collection c = make_indexed_collection();
  for (bool descending : {false, true}) {
    FindOptions options;
    options.sort_by = "captured_at";
    options.descending = descending;
    std::uint64_t before = c.stats().plans_sort_index;
    find_both_ways(c, Query::all(), options);
    EXPECT_EQ(c.stats().plans_sort_index, before + 1) << descending;
  }
}

TEST(PlannerTest, SortIndexHonorsSkipAndLimit) {
  Collection c = make_indexed_collection();
  for (bool descending : {false, true}) {
    FindOptions options;
    options.sort_by = "captured_at";
    options.descending = descending;
    options.skip = 13;
    options.limit = 20;
    options.projection = {"captured_at"};
    auto fast = find_both_ways(c, Query::all(), options);
    EXPECT_EQ(fast.size(), 20u);
  }
}

TEST(PlannerTest, SortIndexPlacesMissingFieldDocsLikeStableSort) {
  // The two docs lacking captured_at must land exactly where stable_sort
  // puts documents whose sort key is missing (the null group).
  Collection c = make_indexed_collection();
  FindOptions asc;
  asc.sort_by = "captured_at";
  auto fast = find_both_ways(c, Query::all(), asc);
  EXPECT_EQ(fast.size(), c.size());
  FindOptions desc = asc;
  desc.descending = true;
  find_both_ways(c, Query::all(), desc);
}

TEST(PlannerTest, SortByNonIndexedPathStillSorts) {
  Collection c = make_indexed_collection();
  FindOptions options;
  options.sort_by = "spl";
  auto fast = find_both_ways(c, Query::all(), options);
  for (std::size_t i = 1; i < fast.size(); ++i) {
    auto* a = fast[i - 1].find_path("spl");
    auto* b = fast[i].find_path("spl");
    if (a != nullptr && b != nullptr)
      EXPECT_LE(Value::compare(*a, *b), 0) << i;
  }
}

TEST(PlannerTest, CoveredCountMatchesScanCount) {
  Collection c = make_indexed_collection();
  std::vector<Query> queries = {
      Query::eq("user", Value("u4")),
      Query::in("user", {Value("u0"), Value("u9"), Value("nobody")}),
      Query::lt("captured_at", Value(250)),
      Query::lte("captured_at", Value(250)),
      Query::gt("captured_at", Value(250)),
      Query::gte("captured_at", Value(250)),
      Query::exists("captured_at"),
      Query::range("captured_at", Value(100), Value(101)),
  };
  for (const Query& q : queries) {
    c.set_planner_enabled(true);
    std::size_t fast = c.count(q);
    c.set_planner_enabled(false);
    std::size_t reference = c.count(q);
    c.set_planner_enabled(true);
    EXPECT_EQ(fast, reference) << q.to_string();
  }
  EXPECT_GE(c.stats().plans_covered, queries.size() - 1);
}

TEST(PlannerTest, CoveredCountDoesNotMissEqOnAbsentValue) {
  Collection c = make_indexed_collection();
  EXPECT_EQ(c.count(Query::eq("user", Value("stranger"))), 0u);
}

TEST(PlannerTest, CrossTypeNumericKeysStayExact) {
  // 1 (int) and 1.0 (double) are operator==-equal and compare-equal; the
  // covered paths must count both under either literal, like a scan does.
  Collection c("t");
  c.create_index("k");
  c.insert(Value(Object{{"k", Value(1)}}));
  c.insert(Value(Object{{"k", Value(1.0)}}));
  c.insert(Value(Object{{"k", Value(2)}}));
  for (const Query& q :
       {Query::eq("k", Value(1)), Query::eq("k", Value(1.0))}) {
    c.set_planner_enabled(true);
    std::size_t fast = c.count(q);
    c.set_planner_enabled(false);
    EXPECT_EQ(fast, c.count(q)) << q.to_string();
    c.set_planner_enabled(true);
    EXPECT_EQ(fast, 2u);
  }
}

TEST(PlannerTest, CoveredDistinctAndGroupCountMatchScan) {
  Collection c = make_indexed_collection();
  c.set_planner_enabled(true);
  std::uint64_t before = c.stats().plans_covered;
  auto fast_distinct = c.distinct("user");
  auto fast_groups = c.group_count("user");
  EXPECT_GT(c.stats().plans_covered, before);
  c.set_planner_enabled(false);
  auto ref_distinct = c.distinct("user");
  auto ref_groups = c.group_count("user");
  c.set_planner_enabled(true);
  EXPECT_EQ(fast_distinct, ref_distinct);
  ASSERT_EQ(fast_groups.size(), ref_groups.size());
  for (std::size_t i = 0; i < fast_groups.size(); ++i) {
    EXPECT_EQ(fast_groups[i].first, ref_groups[i].first) << i;
    EXPECT_EQ(fast_groups[i].second, ref_groups[i].second) << i;
  }
}

TEST(PlannerTest, DistinctWithFilterStillCorrect) {
  Collection c = make_indexed_collection();
  Query q = Query::lt("captured_at", Value(100));
  c.set_planner_enabled(true);
  auto fast = c.distinct("user", q);
  c.set_planner_enabled(false);
  auto reference = c.distinct("user", q);
  c.set_planner_enabled(true);
  EXPECT_EQ(fast, reference);
}

TEST(PlannerTest, UpdateManyKeepsIndexedExecutionExact) {
  // After update_many rewrites indexed fields, indexed and scan execution
  // must still agree (reindexing moves slots between multimap groups).
  Collection c = make_indexed_collection();
  c.update_many(Query::eq("user", Value("u1")), [](Document& d) {
    d.as_object().set("captured_at", Value(42));
  });
  find_both_ways(c, Query::eq("captured_at", Value(42)));
  FindOptions options;
  options.sort_by = "captured_at";
  find_both_ways(c, Query::all(), options);
}

TEST(PlannerTest, RandomizedQueriesAgreeWithReference) {
  Rng rng(2024);
  Collection c("f");
  c.create_index("a");
  c.create_index("b");
  for (int i = 0; i < 400; ++i) {
    Object o;
    if (!rng.bernoulli(0.1)) o.set("a", Value(rng.uniform_int(0, 20)));
    if (!rng.bernoulli(0.1))
      o.set("b", Value("s" + std::to_string(rng.uniform_int(0, 5))));
    o.set("c", Value(rng.uniform(0.0, 1.0)));
    c.insert(Value(std::move(o)));
  }
  for (int i = 0; i < 200; ++i) {
    Query q = Query::all();
    switch (rng.uniform_int(0, 4)) {
      case 0: q = Query::eq("a", Value(rng.uniform_int(0, 20))); break;
      case 1:
        q = Query::range("a", Value(rng.uniform_int(0, 10)),
                         Value(rng.uniform_int(10, 21)));
        break;
      case 2: q = Query::eq("b", Value("s" + std::to_string(rng.uniform_int(0, 5)))); break;
      case 3:
        q = Query::and_({Query::gte("a", Value(rng.uniform_int(0, 15))),
                         Query::eq("b", Value("s" + std::to_string(
                                                  rng.uniform_int(0, 5))))});
        break;
      case 4: q = Query::exists("a"); break;
    }
    FindOptions options;
    if (rng.bernoulli(0.5)) {
      options.sort_by = rng.bernoulli(0.5) ? "a" : "c";
      options.descending = rng.bernoulli(0.5);
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 5));
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 30));
    }
    find_both_ways(c, q, options);
    c.set_planner_enabled(true);
    std::size_t fast_count = c.count(q);
    c.set_planner_enabled(false);
    std::size_t ref_count = c.count(q);
    c.set_planner_enabled(true);
    EXPECT_EQ(fast_count, ref_count) << q.to_string();
  }
}

TEST(PlannerTest, WindowBesideUnselectiveEqWalksOnlyTheWindow) {
  // The hourly read-back shape: "app == a AND t in [from, until)" where
  // nearly every document belongs to the app. The window drives; the app
  // range is far past the intersection cap and is left to the residual
  // filter, which still drops the few "other" documents in the window.
  Collection c("obs");
  c.create_index("app");
  c.create_index("t");
  for (int i = 0; i < 2000; ++i)
    c.insert(Value(Object{{"app", Value(i % 25 == 0 ? "other" : "main")},
                          {"t", Value(i * 7919 % 2000)},
                          {"spl", Value(30.0 + i % 60)}}));
  Query q = Query::and_({Query::eq("app", Value("main")),
                         Query::gte("t", Value(700)),
                         Query::lt("t", Value(760))});
  for (const FindOptions& options : {FindOptions{}, sorted_page("t")}) {
    CollectionStats before = c.stats();
    expect_same_both_ways(c, q, options);
    EXPECT_EQ(c.stats().plans_indexed, before.plans_indexed + 2);
    EXPECT_EQ(c.stats().plans_intersect, before.plans_intersect);
  }
  c.set_planner_enabled(true);
  auto all = c.find(q);
  EXPECT_EQ(all.size(), 57u);  // 60 window docs, 3 of them "other"
}

TEST(PlannerTest, BoundsOnOnePathFoldIntoOneRange) {
  Collection c = make_indexed_collection();
  auto t = [](auto v) { return Value(v); };
  std::vector<Query> queries = {
      // Duplicate bounds.
      Query::and_({Query::gte("captured_at", t(100)),
                   Query::gte("captured_at", t(100)),
                   Query::lt("captured_at", t(200)),
                   Query::lt("captured_at", t(200))}),
      // gt + lte, and the tighter of two bounds on each side.
      Query::and_({Query::gt("captured_at", t(140)),
                   Query::lte("captured_at", t(210))}),
      Query::and_({Query::gt("captured_at", t(50)),
                   Query::gte("captured_at", t(140)),
                   Query::lte("captured_at", t(300)),
                   Query::lt("captured_at", t(210))}),
      // Strict and inclusive bounds on the same key: strict wins.
      Query::and_({Query::gte("captured_at", t(140)),
                   Query::gt("captured_at", t(140)),
                   Query::lte("captured_at", t(210)),
                   Query::lt("captured_at", t(210))}),
      // Nested ANDs fold with the outer bounds.
      Query::and_({Query::range("captured_at", t(0), t(400)),
                   Query::and_({Query::gte("captured_at", t(350))})}),
      // An eq folds with the range bounds around it.
      Query::and_({Query::eq("captured_at", t(140)),
                   Query::range("captured_at", t(100), t(200))}),
      // Inverted windows (lo >= hi) and empty ones.
      Query::range("captured_at", t(300), t(200)),
      Query::range("captured_at", t(200), t(200)),
      Query::and_({Query::gt("captured_at", t(200)),
                   Query::lte("captured_at", t(200))}),
      Query::and_({Query::eq("captured_at", t(140)),
                   Query::lt("captured_at", t(140))}),
      Query::range("captured_at", t(501), t(900)),
      Query::range("captured_at", t(-50), t(0)),
  };
  for (const Query& q : queries) {
    CollectionStats before = c.stats();
    expect_same_both_ways(c, q);
    expect_same_both_ways(c, q, sorted_page("captured_at"));
    // One path is one source: nothing to intersect.
    EXPECT_EQ(c.stats().plans_intersect, before.plans_intersect)
        << q.to_string();
    EXPECT_EQ(c.stats().plans_indexed, before.plans_indexed + 4)
        << q.to_string();
  }
  c.set_planner_enabled(true);
  EXPECT_TRUE(c.find(Query::range("captured_at", t(300), t(200))).empty());
  EXPECT_EQ(c.count(queries[9]), 0u);
}

TEST(PlannerTest, BoundsOfMixedValueTypesFoldLikeTheScan) {
  // Value::compare ranks null < bool < number < string, with ints and
  // doubles on one numeric axis; folded bounds must follow that order.
  Collection c("mixed");
  c.create_index("k");
  c.create_index("g");
  for (int i = 0; i < 10; ++i) {
    c.insert(Value(Object{{"k", Value(i)}, {"g", Value(i % 2)}}));
    c.insert(Value(Object{{"k", Value(i + 0.5)}, {"g", Value(i % 2)}}));
    c.insert(Value(Object{{"k", Value(std::string(1, char('a' + i)))},
                          {"g", Value(i % 2)}}));
  }
  c.insert(Value(Object{{"k", Value()}, {"g", Value(0)}}));
  c.insert(Value(Object{{"k", Value(true)}, {"g", Value(1)}}));
  c.insert(Value(Object{{"g", Value(0)}}));  // no k at all
  std::vector<Query> queries = {
      Query::range("k", Value(2), Value(5.5)),
      Query::range("k", Value(2.0), Value(5)),
      Query::and_({Query::gte("k", Value(3)), Query::lt("k", Value("c"))}),
      Query::and_({Query::gt("k", Value()), Query::lt("k", Value(1))}),
      Query::and_({Query::gte("k", Value()), Query::lte("k", Value())}),
      Query::and_({Query::gte("k", Value("b")), Query::lt("k", Value(100))}),
      Query::and_({Query::eq("k", Value(3)), Query::gte("k", Value(3.0))}),
      Query::and_({Query::gt("k", Value(4.0)), Query::lte("k", Value(4))}),
      Query::and_({Query::gt("k", Value(false)), Query::lt("k", Value(0))}),
      Query::and_({Query::eq("g", Value(1)), Query::gte("k", Value(7)),
                   Query::lt("k", Value("zz"))}),
      Query::and_({Query::in("g", {Value(0), Value(0.0)}),
                   Query::lte("k", Value(2.5))}),
  };
  for (const Query& q : queries) {
    expect_same_both_ways(c, q);
    expect_same_both_ways(c, q, sorted_page("k"));
  }
}

TEST(PlannerTest, FoldedRangeClausesAgreeWithReference) {
  // Property test: 1-4 range clauses on each of two indexed paths plus an
  // eq/in on a low-cardinality indexed field, against the full scan.
  Rng rng(77);
  Collection c("p");
  c.create_index("a");
  c.create_index("b");
  c.create_index("g");
  for (int i = 0; i < 600; ++i) {
    Object o;
    if (!rng.bernoulli(0.05)) {
      std::int64_t a = rng.uniform_int(0, 40);
      o.set("a", rng.bernoulli(0.2) ? Value(static_cast<double>(a) + 0.5)
                                    : Value(a));
    }
    if (!rng.bernoulli(0.05)) o.set("b", Value(rng.uniform_int(0, 200)));
    o.set("g", Value("g" + std::to_string(rng.uniform_int(0, 2))));
    c.insert(Value(std::move(o)));
  }
  const QueryOp kRangeOps[] = {QueryOp::kGt, QueryOp::kGte, QueryOp::kLt,
                               QueryOp::kLte};
  auto bound = [&](const std::string& path, int hi) {
    std::int64_t x = rng.uniform_int(-2, hi);
    Value v = rng.bernoulli(0.25) ? Value(static_cast<double>(x) + 0.5)
                                  : Value(x);
    switch (kRangeOps[rng.uniform_int(0, 3)]) {
      case QueryOp::kGt: return Query::gt(path, std::move(v));
      case QueryOp::kGte: return Query::gte(path, std::move(v));
      case QueryOp::kLt: return Query::lt(path, std::move(v));
      default: return Query::lte(path, std::move(v));
    }
  };
  for (int i = 0; i < 300; ++i) {
    std::vector<Query> clauses;
    for (auto n = rng.uniform_int(1, 4); n > 0; --n)
      clauses.push_back(bound("a", 42));
    if (rng.bernoulli(0.5))
      for (auto n = rng.uniform_int(1, 4); n > 0; --n)
        clauses.push_back(bound("b", 202));
    switch (rng.uniform_int(0, 2)) {
      case 0:
        clauses.push_back(
            Query::eq("g", Value("g" + std::to_string(rng.uniform_int(0, 2)))));
        break;
      case 1:
        clauses.push_back(Query::in(
            "g", {Value("g" + std::to_string(rng.uniform_int(0, 2))),
                  Value("g" + std::to_string(rng.uniform_int(0, 3)))}));
        break;
      default: break;
    }
    for (std::size_t j = clauses.size() - 1; j > 0; --j)
      std::swap(clauses[j], clauses[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(j)))]);
    Query q = Query::and_(std::move(clauses));
    FindOptions options;
    if (rng.bernoulli(0.5)) {
      options.sort_by = rng.bernoulli(0.5) ? "a" : "b";
      options.descending = rng.bernoulli(0.5);
      options.skip = static_cast<std::size_t>(rng.uniform_int(0, 5));
      options.limit = static_cast<std::size_t>(rng.uniform_int(0, 30));
    }
    expect_same_both_ways(c, q, options);
  }
}

}  // namespace
}  // namespace mps::docstore
