// Column segments: journal-less insert_batch copies rows out of the batch,
// so the batch's arena goes back to the pool at once, while every read
// path and every mutator keeps working on the stored rows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "docstore/collection.h"
#include "ingest/obs_batch.h"
#include "phone/observation.h"

namespace mps::ingest {
namespace {

using docstore::Collection;
using docstore::Document;
using docstore::Query;

std::vector<phone::Observation> observations(std::uint64_t seed,
                                             std::size_t n) {
  Rng rng(seed);
  const char* users[] = {"u1", "u2", "u3"};
  const char* models[] = {"m1", "m2"};
  std::vector<phone::Observation> obs;
  for (std::size_t i = 0; i < n; ++i) {
    phone::Observation o;
    o.user = users[rng.uniform_int(0, 2)];
    o.model = models[rng.uniform_int(0, 1)];
    o.captured_at = static_cast<TimeMs>(1000 * (seed * n + i));
    o.spl_db = rng.uniform(30.0, 90.0);
    o.mode = static_cast<phone::SensingMode>(rng.uniform_int(0, 2));
    o.activity = static_cast<phone::Activity>(rng.uniform_int(0, 6));
    if (rng.bernoulli(0.7)) {
      o.location = phone::LocationFix{
          static_cast<phone::LocationProvider>(rng.uniform_int(0, 2)),
          rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0),
          rng.uniform(1.0, 150.0)};
    }
    if (rng.bernoulli(0.8)) o.span_id = seed * n + i + 1;
    obs.push_back(std::move(o));
  }
  return obs;
}

Collection indexed_collection() {
  Collection c("obs");
  c.create_index("user");
  c.create_index("captured_at");
  c.create_index("location");  // not a flat column: indexed from the row
  return c;
}

/// Inserts `batches` flat batches of `rows` rows into `c` through a pool
/// and drops every batch; returns the documents the oracle path stores
/// for them (storage_document() plus the generated _id), in order.
std::vector<Document> insert_flat(Collection& c, BatchPool& pool,
                                  std::size_t batches, std::size_t rows) {
  std::vector<Document> expected;
  for (std::size_t b = 0; b < batches; ++b) {
    auto batch = pool.make_batch("soundcity", "c" + std::to_string(b % 2),
                                 "c#" + std::to_string(b), 0,
                                 observations(b + 1, rows));
    const TimeMs received_at = 5000 + static_cast<TimeMs>(b);
    EXPECT_EQ(c.insert_batch(*batch, 0, batch->size(), received_at),
              batch->size());
    for (std::size_t i = 0; i < batch->size(); ++i) {
      Document doc = batch->storage_document(i, received_at);
      doc.as_object().set(
          "_id", Value("obs-" + std::to_string(expected.size() + 1)));
      expected.push_back(std::move(doc));
    }
  }
  return expected;
}

std::vector<std::string> json_of(const std::vector<Document>& docs) {
  std::vector<std::string> out;
  for (const Document& d : docs) out.push_back(d.to_json());
  return out;
}

std::vector<std::string> scan(const Collection& c) {
  std::vector<std::string> out;
  c.for_each([&](const Document& d) { out.push_back(d.to_json()); });
  return out;
}

TEST(ColumnSegment, ReleasedBatchArenaIsReusedWhileRowsStayReadable) {
  BatchPool pool;
  Collection c = indexed_collection();
  std::vector<Document> expected = insert_flat(c, pool, 4, 12);
  // Nothing in the collection holds a batch: each dropped batch's arena
  // went straight back to the pool, so one arena served all four.
  EXPECT_EQ(pool.stats().arenas_created, 1u);
  EXPECT_EQ(pool.stats().arenas_reused, 3u);
  EXPECT_EQ(pool.free_arenas(), 1u);
  auto next = pool.make_batch("a", "c", "c#x", 0, observations(9, 3));
  EXPECT_EQ(pool.stats().arenas_reused, 4u);
  EXPECT_EQ(pool.stats().arenas_created, 1u);
  next.reset();
  EXPECT_EQ(pool.free_arenas(), 1u);

  ASSERT_EQ(c.size(), expected.size());
  for (const Document& doc : expected) {
    std::optional<Document> got = c.get(doc.at("_id").as_string());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->to_json(), doc.to_json());
  }
  EXPECT_EQ(json_of(c.find(Query::all())), json_of(expected));
  // Reads build rows afresh and cache nothing: two scans agree.
  EXPECT_EQ(scan(c), json_of(expected));
  EXPECT_EQ(scan(c), json_of(expected));
  std::vector<Document> u1;
  for (const Document& doc : expected)
    if (doc.at("user").as_string() == "u1") u1.push_back(doc);
  EXPECT_EQ(json_of(c.find(Query::eq("user", Value("u1")))), json_of(u1));

  // Mutators on segment rows.
  const std::string replaced = expected[3].at("_id").as_string();
  const std::string removed = expected[7].at("_id").as_string();
  ASSERT_TRUE(c.replace(replaced, Value(Object{{"user", Value("zed")}})));
  expected[3] = Value(Object{{"user", Value("zed")}, {"_id", Value(replaced)}});
  ASSERT_TRUE(c.remove(removed));
  expected.erase(expected.begin() + 7);
  EXPECT_FALSE(c.get(removed).has_value());
  EXPECT_FALSE(c.remove(removed));
  std::size_t updated = c.update_many(
      Query::eq("user", Value("u2")),
      [](Document& d) { d.as_object().set("user", Value("u2x")); });
  std::size_t expected_updates = 0;
  for (Document& doc : expected) {
    if (doc.at("user").as_string() != "u2") continue;
    doc.as_object().set("user", Value("u2x"));
    ++expected_updates;
  }
  EXPECT_GT(expected_updates, 0u);
  EXPECT_EQ(updated, expected_updates);
  EXPECT_EQ(c.size(), expected.size());
  EXPECT_EQ(scan(c), json_of(expected));
  // The indexes followed every mutation.
  EXPECT_EQ(c.count(Query::eq("user", Value("u2"))), 0u);
  EXPECT_EQ(c.count(Query::eq("user", Value("u2x"))), expected_updates);
  EXPECT_EQ(c.find(Query::eq("user", Value("zed"))).size(), 1u);
  EXPECT_EQ(c.count(Query::exists("location")),
            c.find(Query::exists("location")).size());
}

TEST(ColumnSegment, OneRunSpanningASegmentBoundaryReadsBack) {
  // A segment holds 16,384 rows; this run fills one and starts the next.
  BatchPool pool;
  Collection c("obs");
  c.create_index("captured_at");
  std::vector<Document> expected = insert_flat(c, pool, 1, 20'000);
  ASSERT_EQ(c.size(), 20'000u);
  EXPECT_EQ(scan(c), json_of(expected));
  for (std::size_t i : {0u, 16'383u, 16'384u, 19'999u})
    EXPECT_EQ(c.get("obs-" + std::to_string(i + 1))->to_json(),
              expected[i].to_json());
}

TEST(ColumnSegment, SnapshotMatchesDocumentInsertsAndRestores) {
  BatchPool pool;
  Collection flat = indexed_collection();
  std::vector<Document> docs = insert_flat(flat, pool, 3, 9);
  Collection eager = indexed_collection();
  for (Document doc : docs) {
    doc.as_object().erase("_id");  // regenerated: obs-1, obs-2, ...
    eager.insert(std::move(doc));
  }
  const std::string removed = docs[4].at("_id").as_string();
  ASSERT_TRUE(flat.remove(removed));
  ASSERT_TRUE(eager.remove(removed));

  const std::string snapshot = flat.durable_snapshot().to_json();
  EXPECT_EQ(snapshot, eager.durable_snapshot().to_json());

  Collection restored("obs");
  restored.restore_snapshot(Value::parse_json(snapshot));
  EXPECT_EQ(restored.durable_snapshot().to_json(), snapshot);
  EXPECT_EQ(scan(restored), scan(flat));
  for (const Document& doc : docs) {
    const std::string id = doc.at("_id").as_string();
    std::optional<Document> got = restored.get(id);
    ASSERT_EQ(got.has_value(), id != removed);
    if (got.has_value()) {
      EXPECT_EQ(got->to_json(), doc.to_json());
    }
  }

  flat.crash();
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_TRUE(scan(flat).empty());
  EXPECT_FALSE(flat.get(docs[0].at("_id").as_string()).has_value());
  // The emptied collection takes segment rows again from _id 1.
  flat.create_index("user");
  std::vector<Document> again = insert_flat(flat, pool, 1, 5);
  EXPECT_EQ(scan(flat), json_of(again));
  EXPECT_EQ(flat.count(Query::exists("user")), 5u);
}

}  // namespace
}  // namespace mps::ingest
