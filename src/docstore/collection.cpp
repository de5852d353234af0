#include "docstore/collection.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "common/strings.h"
#include "durable/journal.h"
#include "ingest/obs_batch.h"

namespace mps::docstore {

std::string Collection::generate_id() {
  return name_ + "-" + std::to_string(++id_counter_);
}

void Collection::set_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.inserts = &registry->counter("docstore.inserts");
  metrics_.removes = &registry->counter("docstore.removes");
  metrics_.finds_indexed = &registry->counter("docstore.finds_indexed");
  metrics_.finds_scanned = &registry->counter("docstore.finds_scanned");
  metrics_.plans_scan = &registry->counter("docstore.plans_scan");
  metrics_.plans_indexed = &registry->counter("docstore.plans_indexed");
  metrics_.plans_intersect = &registry->counter("docstore.plans_intersect");
  metrics_.plans_covered = &registry->counter("docstore.plans_covered");
  metrics_.plans_sort_index = &registry->counter("docstore.plans_sort_index");
  metrics_.documents = &registry->gauge("docstore.documents");
  // Count documents already stored before the registry was attached.
  metrics_.documents->add(static_cast<double>(id_to_slot_.size()));
}

void Collection::arm_faults(fault::FaultPlan* plan) {
  insert_fault_ = fault::FaultPoint(plan, fault::FaultSite::kDocstoreInsert);
  update_fault_ = fault::FaultPoint(plan, fault::FaultSite::kDocstoreUpdate);
}

void Collection::log_record(Value record) {
  if (journal_ != nullptr) journal_->append(record);
}

std::string Collection::insert(Document doc) {
  // Injected transient failure fires before any state is touched: the
  // write never happened, so a catching caller can safely retry with the
  // same document.
  if (insert_fault_.should_fail())
    throw fault::TransientError(fault::FaultSite::kDocstoreInsert,
                                "injected fault: insert into '" + name_ + "'");
  return insert_checked(std::move(doc), /*journaled=*/true);
}

std::string Collection::apply_insert(Document doc) {
  // Replayed documents carry the _id the original insert generated;
  // advance the generator past it so post-recovery inserts can't
  // collide with replayed ones.
  if (const Value* id = doc.find("_id")) {
    if (id->is_string()) {
      const std::string& s = id->as_string();
      const std::string prefix = name_ + "-";
      if (s.size() > prefix.size() &&
          s.compare(0, prefix.size(), prefix) == 0) {
        char* end = nullptr;
        std::uint64_t n = std::strtoull(s.c_str() + prefix.size(), &end, 10);
        if (end != nullptr && *end == '\0' && n > id_counter_) id_counter_ = n;
      }
    }
  }
  return insert_checked(std::move(doc), /*journaled=*/false);
}

std::string Collection::insert_checked(Document doc, bool journaled) {
  if (!doc.is_object())
    throw std::invalid_argument("Collection::insert: document must be an object");
  std::string id;
  if (const Value* existing = doc.find("_id")) {
    if (!existing->is_string())
      throw std::invalid_argument("Collection::insert: _id must be a string");
    id = existing->as_string();
    if (id_to_slot_.count(id) > 0)
      throw std::invalid_argument("Collection::insert: duplicate _id '" + id + "'");
  } else {
    id = generate_id();
    doc.as_object().set("_id", Value(id));
  }
  // Log-before-apply: validation is done, so the record re-applies
  // cleanly on recovery; the state change below cannot throw.
  if (journaled)
    log_record(Value(Object{{"op", Value("db.insert")},
                            {"c", Value(name_)},
                            {"doc", doc}}));
  Slot slot = slots_.size();
  store_eager(slot, std::move(doc));
  id_to_slot_[id] = slot;
  index_document(slot, docs_.back());
  ++stats_.total_inserts;
  stats_.document_count = id_to_slot_.size();
  if (metrics_.inserts != nullptr) metrics_.inserts->inc();
  if (metrics_.documents != nullptr) metrics_.documents->add(1.0);
  return id;
}

Collection::Segment::Segment() {
  auto reserve = [](auto&... columns) { (columns.reserve(kRows), ...); };
  reserve(span_id, captured_at, spl, x, y, accuracy, mode, activity,
          has_location, provider, user, model, app, client, received_at,
          id_counter);
}

std::uint32_t Collection::Segment::intern(std::string_view s) {
  auto it = string_ids.find(s);
  if (it != string_ids.end()) return it->second;
  auto id = static_cast<std::uint32_t>(strings.size());
  strings.emplace_back(s);
  string_ids.emplace(std::string(s), id);
  return id;
}

void Collection::Segment::append(const ingest::ObsBatch& b, std::size_t first,
                                 std::size_t n, TimeMs at,
                                 std::uint64_t first_id) {
  auto block = [&](auto& column, auto whole) {
    column.insert(column.end(), whole.begin() + first,
                  whole.begin() + first + n);
  };
  block(span_id, b.span_ids());
  block(captured_at, b.captured_ats());
  block(spl, b.spls());
  block(mode, b.modes());
  block(activity, b.activities());
  block(has_location, b.has_locations());
  block(provider, b.providers());
  block(x, b.xs());
  block(y, b.ys());
  block(accuracy, b.accuracies());
  // The batch's own string table maps to this segment's once per batch.
  std::vector<std::uint32_t> local(b.string_count());
  for (std::size_t k = 0; k < local.size(); ++k)
    local[k] = intern(b.strings()[k]);
  for (std::size_t i = first; i < first + n; ++i) {
    user.push_back(local[b.user_index(i)]);
    model.push_back(local[b.model_index(i)]);
  }
  app.insert(app.end(), n, intern(b.app()));
  client.insert(client.end(), n, intern(b.client()));
  received_at.insert(received_at.end(), n, at);
  for (std::size_t k = 0; k < n; ++k) id_counter.push_back(first_id + k);
}

Document Collection::Segment::document(std::uint32_t r,
                                       const std::string& collection) const {
  ingest::ObsRow row;
  row.app = strings[app[r]];
  row.client = strings[client[r]];
  row.user = strings[user[r]];
  row.model = strings[model[r]];
  row.span_id = span_id[r];
  row.captured_at = captured_at[r];
  row.spl_db = spl[r];
  row.mode = static_cast<phone::SensingMode>(mode[r]);
  row.activity = static_cast<phone::Activity>(activity[r]);
  row.has_location = has_location[r] != 0;
  row.provider = static_cast<phone::LocationProvider>(provider[r]);
  row.x_m = x[r];
  row.y_m = y[r];
  row.accuracy_m = accuracy[r];
  Document doc = row.storage_document(received_at[r]);
  doc.as_object().set("_id",
                      Value(collection + "-" + std::to_string(id_counter[r])));
  return doc;
}

std::size_t Collection::insert_batch(const ingest::ObsBatch& b,
                                     std::size_t first, std::size_t count,
                                     TimeMs received_at) {
  // Same per-row fault consultation, in the same stream order, as a loop
  // of insert() calls — nothing else consults the plan in between, so
  // asking for every row up front is equivalent. A transient failure
  // stops the run before touching any state for its row, and the caller
  // resumes from first+n after backoff.
  std::size_t n = 0;
  while (n < count && !insert_fault_.should_fail()) ++n;
  const Slot base = slots_.size();
  if (journal_ == nullptr) {
    // Fast path: no document materialization — the rows are copied into
    // the tail segment as column blocks, sealing it when it fills.
    for (std::size_t done = 0; done < n;) {
      if (segments_.empty() || segments_.back().size() == Segment::kRows) {
        if (!segments_.empty()) segments_.back().seal();
        segments_.emplace_back();
      }
      Segment& seg = segments_.back();
      std::size_t take = std::min(n - done, Segment::kRows - seg.size());
      auto seg_row = static_cast<std::uint32_t>(seg.size());
      seg.append(b, first + done, take, received_at, id_counter_ + done + 1);
      auto seg_index = static_cast<std::uint32_t>(segments_.size() - 1);
      for (std::size_t k = 0; k < take; ++k)
        slots_.push_back(
            SlotRef{seg_index, seg_row + static_cast<std::uint32_t>(k)});
      done += take;
    }
  }
  // Per-index insertion cursor. Batch columns are highly repetitive
  // (constant app id, a handful of device models, monotonically
  // increasing timestamps), so remembering where the previous row's
  // entry landed turns most multimap inserts into O(1) hinted
  // emplacements instead of full-tree descents. Within-equal-key entry
  // order is not observable (the planner sorts candidate slots), so the
  // hinted position only has to be *a* valid position for the key.
  struct Cursor {
    const std::string* path;
    Index* index;
    std::multimap<IndexKey, Slot>::iterator last;
    bool has_last = false;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(indexes_.size());
  for (auto& [path, index] : indexes_)
    cursors.push_back(Cursor{&path, &index, index.entries.end(), false});
  Document built;
  for (std::size_t done = 0; done < n; ++done) {
    std::size_t row = first + done;
    std::string id = generate_id();
    Slot slot = base + done;
    if (journal_ != nullptr) {
      // Log-before-apply needs the stored bytes now.
      Document doc = b.storage_document(row, received_at);
      doc.as_object().set("_id", Value(id));
      log_record(Value(Object{{"op", Value("db.insert")},
                              {"c", Value(name_)},
                              {"doc", doc}}));
      store_eager(slot, std::move(doc));
    }
    id_to_slot_.emplace(std::move(id), slot);
    // Column-wise indexing: flat columns answer directly; paths the
    // batch doesn't carry fall back to walking the stored document.
    const ingest::ObsRow flat = b.row(row);
    const Document* stored = nullptr;
    for (Cursor& c : cursors) {
      Value key;
      if (flat.index_value(*c.path, received_at, key)) {
        if (key.is_null()) continue;
      } else {
        if (stored == nullptr) stored = &doc_at(slot, built);
        const Value* v = stored->find_path(*c.path);
        if (v == nullptr) continue;
        key = *v;
      }
      auto& entries = c.index->entries;
      if (c.has_last) {
        int cmp = Value::compare(c.last->first.value, key);
        if (cmp == 0) {
          // Equal to the previous row's key: slot in right after it.
          c.last = entries.emplace_hint(std::next(c.last),
                                        IndexKey{std::move(key)}, slot);
          continue;
        }
        if (cmp < 0 && std::next(c.last) == entries.end()) {
          // Greater than the current maximum (monotonic column).
          c.last = entries.emplace_hint(entries.end(),
                                        IndexKey{std::move(key)}, slot);
          continue;
        }
      }
      c.last = entries.emplace(IndexKey{std::move(key)}, slot);
      c.has_last = true;
    }
    ++stats_.total_inserts;
    stats_.document_count = id_to_slot_.size();
    if (metrics_.inserts != nullptr) metrics_.inserts->inc();
    if (metrics_.documents != nullptr) metrics_.documents->add(1.0);
  }
  return n;
}

const Document& Collection::doc_at(Slot s, Document& built) const {
  // Callers guarantee slot_alive(s); a dead slot here is a logic error.
  const SlotRef& ref = slots_[s];
  if (ref.segment == kEager) return docs_[ref.row];
  built = segments_[ref.segment].document(ref.row, name_);
  return built;
}

Document Collection::document(Slot s) const {
  const SlotRef& ref = slots_[s];
  if (ref.segment == kEager) return docs_[ref.row];
  return segments_[ref.segment].document(ref.row, name_);
}

void Collection::store_eager(Slot s, Document doc) {
  if (s == slots_.size()) slots_.push_back(SlotRef{kDead, 0});
  SlotRef& ref = slots_[s];
  if (ref.segment == kEager) {
    docs_[ref.row] = std::move(doc);
    return;
  }
  ref = SlotRef{kEager, static_cast<std::uint32_t>(docs_.size())};
  docs_.push_back(std::move(doc));
}

std::optional<Document> Collection::get(const std::string& id) const {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return std::nullopt;
  return document(it->second);
}

void Collection::index_document(Slot slot, const Document& doc) {
  for (auto& [path, index] : indexes_) {
    if (const Value* v = doc.find_path(path))
      index.entries.insert({IndexKey{*v}, slot});
  }
}

void Collection::unindex_document(Slot slot, const Document& doc) {
  for (auto& [path, index] : indexes_) {
    if (const Value* v = doc.find_path(path)) {
      auto [lo, hi] = index.entries.equal_range(IndexKey{*v});
      for (auto it = lo; it != hi; ++it) {
        if (it->second == slot) {
          index.entries.erase(it);
          break;
        }
      }
    }
  }
}

void Collection::note_plan(PlanKind kind) const {
  switch (kind) {
    case PlanKind::kScan:
      ++stats_.plans_scan;
      if (metrics_.plans_scan != nullptr) metrics_.plans_scan->inc();
      break;
    case PlanKind::kIndexed:
      ++stats_.plans_indexed;
      if (metrics_.plans_indexed != nullptr) metrics_.plans_indexed->inc();
      break;
    case PlanKind::kIntersect:
      ++stats_.plans_intersect;
      if (metrics_.plans_intersect != nullptr) metrics_.plans_intersect->inc();
      break;
    case PlanKind::kCovered:
      ++stats_.plans_covered;
      if (metrics_.plans_covered != nullptr) metrics_.plans_covered->inc();
      break;
    case PlanKind::kSortIndex:
      ++stats_.plans_sort_index;
      if (metrics_.plans_sort_index != nullptr) metrics_.plans_sort_index->inc();
      break;
  }
}

void Collection::note_find(bool indexed) const {
  if (indexed) {
    ++stats_.indexed_finds;
    if (metrics_.finds_indexed != nullptr) metrics_.finds_indexed->inc();
  } else {
    ++stats_.scanned_finds;
    if (metrics_.finds_scanned != nullptr) metrics_.finds_scanned->inc();
  }
}

namespace {
using Entries = std::multimap<IndexKey, std::size_t>;
using EntryIt = Entries::const_iterator;

/// Cost-model constant of the bounded intersection. Walking an index
/// entry is a tree step and a slot copy; a candidate the intersection
/// would have removed instead costs the residual `query.matches`, which
/// builds a segment row and evaluates every clause — well over ten
/// entry steps. So a range up to this many times the driver's length is
/// worth walking and intersecting, and a longer one (the `app` index
/// beside an hourly window holds every document) is dropped and left to
/// the residual filter.
constexpr std::size_t kIntersectMultiple = 16;

/// The index entries admitted by some clauses on one indexed path, walked
/// as a cursor: either the folded bounds of its eq/range clauses (one
/// span) or one `in` clause (one span per compare-distinct value).
struct Source {
  const Entries* entries = nullptr;
  bool folded = false;
  std::vector<std::pair<EntryIt, EntryIt>> spans;
  std::size_t span = 0;
  EntryIt at;
  std::vector<std::size_t> slots;  // the entries walked so far

  /// Walks one entry into `slots`; false once every span is walked.
  bool next() {
    while (span < spans.size()) {
      if (at != spans[span].second) {
        slots.push_back(at->second);
        ++at;
        return true;
      }
      if (++span < spans.size()) at = spans[span].first;
    }
    return false;
  }
};

// lower_bound/upper_bound/begin/end all return the first entry of a key
// group (or end), so two such positions are ordered by their keys.
EntryIt later(const Entries& e, EntryIt a, EntryIt b) {
  if (a == e.end() || b == e.end()) return e.end();
  return Value::compare(a->first.value, b->first.value) >= 0 ? a : b;
}
EntryIt earlier(const Entries& e, EntryIt a, EntryIt b) {
  if (a == e.end()) return b;
  if (b == e.end()) return a;
  return Value::compare(a->first.value, b->first.value) <= 0 ? a : b;
}
}  // namespace

Collection::Plan Collection::plan(const Query& query) const {
  Plan plan;
  if (!planner_enabled_) return plan;
  // Cost model: the plan's work should follow the size of the answer, not
  // of the collection. Materializing and intersecting a slot list per
  // clause costs the sum of their lengths, so "app == a AND captured_at in
  // [from, until)" would pay for every document of the app to find one
  // hour of it. Instead:
  //  1. Fold: the eq/gt/gte/lt/lte clauses on one indexed path (the query
  //     root, or conjuncts reachable through nested ANDs — Query::range
  //     desugars to one) narrow a single [lower, upper) entry range; an
  //     inverted or empty window admits nothing. Each `in` is a source of
  //     its own.
  //  2. Drive: walk every source one entry at a time in lock-step until
  //     the first is exhausted. That shortest source is the driver, found
  //     for at most (sources x driver length) entry steps.
  //  3. Bound: intersect another source only if it ends within
  //     kIntersectMultiple x the driver's length; a longer one is dropped.
  // Whatever is not intersected stays with the residual query.matches,
  // which re-checks every candidate, so results are exact either way.
  std::vector<Source> sources;
  auto add = [&](const Query& clause) {
    auto index_it = indexes_.find(clause.path());
    if (index_it == indexes_.end()) return;
    const Entries& e = index_it->second.entries;
    if (clause.op() == QueryOp::kIn) {
      Source& in = sources.emplace_back();
      in.entries = &e;
      for (const Value& v : clause.values()) {
        auto span = e.equal_range(IndexKey{v});
        // Compare-equal values share a span; walk it once.
        if (span.first != span.second &&
            std::find(in.spans.begin(), in.spans.end(), span) ==
                in.spans.end())
          in.spans.push_back(span);
      }
      return;
    }
    EntryIt lo = e.begin(), hi = e.end();
    switch (clause.op()) {
      case QueryOp::kEq:
        std::tie(lo, hi) = e.equal_range(IndexKey{clause.values()[0]});
        break;
      case QueryOp::kGt:
        lo = e.upper_bound(IndexKey{clause.values()[0]});
        break;
      case QueryOp::kGte:
        lo = e.lower_bound(IndexKey{clause.values()[0]});
        break;
      case QueryOp::kLt:
        hi = e.lower_bound(IndexKey{clause.values()[0]});
        break;
      case QueryOp::kLte:
        hi = e.upper_bound(IndexKey{clause.values()[0]});
        break;
      default:
        return;
    }
    auto it = std::find_if(sources.begin(), sources.end(),
                           [&](const Source& s) {
                             return s.folded && s.entries == &e;
                           });
    if (it == sources.end()) {
      it = sources.emplace(it);
      it->entries = &e;
      it->folded = true;
      it->spans.emplace_back(e.begin(), e.end());
    }
    auto& [first, last] = it->spans[0];
    first = later(e, first, lo);
    last = earlier(e, last, hi);
  };
  if (query.op() == QueryOp::kAnd) {
    auto gather = [&](auto&& self, const Query& conjunction) -> void {
      for (const Query& child : conjunction.children()) {
        if (child.op() == QueryOp::kAnd) {
          self(self, child);
        } else {
          add(child);
        }
      }
    };
    gather(gather, query);
  } else {
    add(query);
  }
  if (sources.empty()) return plan;
  for (Source& s : sources) {
    if (s.folded) {
      const auto& [first, last] = s.spans[0];
      if (first == s.entries->end() ||
          (last != s.entries->end() &&
           Value::compare(first->first.value, last->first.value) >= 0))
        s.spans.clear();
    }
    if (!s.spans.empty()) s.at = s.spans[0].first;
  }

  std::size_t driver = sources.size();
  while (driver == sources.size()) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].next()) {
        driver = i;
        break;
      }
    }
  }
  plan.use_index = true;
  plan.candidates = std::move(sources[driver].slots);
  std::sort(plan.candidates.begin(), plan.candidates.end());
  const std::size_t cap = kIntersectMultiple * plan.candidates.size();
  std::vector<Slot> tmp;
  for (std::size_t i = 0; i < sources.size() && !plan.candidates.empty();
       ++i) {
    if (i == driver) continue;
    Source& s = sources[i];
    bool walked = false;
    while (!walked && s.slots.size() <= cap) walked = !s.next();
    if (!walked) continue;
    std::sort(s.slots.begin(), s.slots.end());
    tmp.clear();
    std::set_intersection(plan.candidates.begin(), plan.candidates.end(),
                          s.slots.begin(), s.slots.end(),
                          std::back_inserter(tmp));
    plan.candidates.swap(tmp);
    plan.intersected = true;
  }
  return plan;
}

template <typename Fn>
void Collection::visit_matches(const Query& query, const Plan& p,
                               Fn&& fn) const {
  note_plan(p.kind());
  note_find(p.use_index);
  Document built;
  auto visit = [&](Slot s) {
    if (!slot_alive(s)) return;
    const Document& d = doc_at(s, built);
    if (query.matches(d)) fn(s, d);
  };
  if (p.use_index) {
    for (Slot s : p.candidates) visit(s);
  } else {
    for (Slot s = 0; s < slots_.size(); ++s) visit(s);
  }
}

std::vector<Document> Collection::find(const Query& query,
                                       const FindOptions& options) const {
  std::vector<Document> out;
  Plan p = plan(query);
  if (!p.use_index && planner_enabled_ && !options.sort_by.empty()) {
    auto idx_it = indexes_.find(options.sort_by);
    if (idx_it != indexes_.end()) {
      note_plan(PlanKind::kSortIndex);
      note_find(/*indexed=*/true);
      return find_via_sort_index(query, options, idx_it->second);
    }
  }
  visit_matches(query, p,
                [&](Slot, const Document& d) { out.push_back(d); });

  if (!options.sort_by.empty()) {
    std::stable_sort(out.begin(), out.end(),
                     [&](const Document& a, const Document& b) {
                       const Value* va = a.find_path(options.sort_by);
                       const Value* vb = b.find_path(options.sort_by);
                       Value null_value;
                       int c = Value::compare(va ? *va : null_value,
                                              vb ? *vb : null_value);
                       return options.descending ? c > 0 : c < 0;
                     });
  }
  if (options.skip > 0) {
    if (options.skip >= out.size()) {
      out.clear();
    } else {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(options.skip));
    }
  }
  if (options.limit > 0 && out.size() > options.limit) out.resize(options.limit);
  if (!options.projection.empty()) {
    for (Document& d : out) d = project(d, options.projection);
  }
  return out;
}

std::vector<Document> Collection::find_via_sort_index(
    const Query& query, const FindOptions& options, const Index& index) const {
  const auto& entries = index.entries;
  // Documents missing the sort field sort as null; merge their slots with
  // the explicit-null index entries into one group. Every document with
  // the field contributes exactly one entry, so when the entry count
  // equals the document count the missing-field scan can be skipped.
  std::vector<Slot> null_group;
  Document built;
  if (entries.size() != id_to_slot_.size()) {
    for (Slot s = 0; s < slots_.size(); ++s)
      if (slot_alive(s) &&
          doc_at(s, built).find_path(options.sort_by) == nullptr)
        null_group.push_back(s);
  }
  auto [null_lo, null_hi] = entries.equal_range(IndexKey{Value()});
  for (auto it = null_lo; it != null_hi; ++it) null_group.push_back(it->second);
  std::sort(null_group.begin(), null_group.end());

  std::vector<Document> out;
  // Once skip+limit results exist, later groups cannot alter them — stop
  // before touching their documents (a page query over a large index
  // reads only the page, not the collection).
  const std::size_t want =
      options.limit > 0 ? options.skip + options.limit : 0;
  auto done = [&] { return want > 0 && out.size() >= want; };
  // Within every equal-key group slots are emitted in ascending
  // (insertion) order — exactly the tie order stable_sort produces over a
  // scan. `group` is reused scratch; groups are materialized lazily.
  std::vector<Slot> group;
  auto emit_group = [&] {
    std::sort(group.begin(), group.end());
    for (Slot s : group) {
      if (done()) return;
      if (!slot_alive(s)) continue;
      const Document& d = doc_at(s, built);
      if (query.matches(d)) out.push_back(d);
    }
  };
  if (!options.descending) {
    group = null_group;  // already sorted; emit_group's sort is a no-op
    emit_group();
    for (auto it = null_hi; it != entries.end() && !done();) {
      auto hi = entries.upper_bound(it->first);
      group.clear();
      for (auto j = it; j != hi; ++j) group.push_back(j->second);
      emit_group();
      it = hi;
    }
  } else {
    // Walk key groups in descending order, nulls last.
    for (auto it = entries.end(); it != null_hi && !done();) {
      auto lo = entries.lower_bound(std::prev(it)->first);
      group.clear();
      for (auto j = lo; j != it; ++j) group.push_back(j->second);
      emit_group();
      it = lo;
    }
    if (!done()) {
      group = null_group;
      emit_group();
    }
  }

  if (options.skip > 0) {
    if (options.skip >= out.size()) {
      out.clear();
    } else {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(options.skip));
    }
  }
  if (options.limit > 0 && out.size() > options.limit) out.resize(options.limit);
  if (!options.projection.empty()) {
    for (Document& d : out) d = project(d, options.projection);
  }
  return out;
}

bool Collection::covered_count(const Query& query, std::size_t& out) const {
  auto index_it = indexes_.find(query.path());
  if (index_it == indexes_.end()) return false;
  const auto& entries = index_it->second.entries;
  switch (query.op()) {
    case QueryOp::kEq: {
      // compare-equality (the index order) admits keys the filter's
      // operator== rejects — int64s that collide as doubles, objects with
      // reordered fields — so re-check equality on the stored key. The
      // key is a copy of the document's value at the path, so this is
      // exactly the filter's predicate with no document access.
      const Value& v = query.values()[0];
      auto [lo, hi] = entries.equal_range(IndexKey{v});
      out = 0;
      for (auto it = lo; it != hi; ++it)
        if (it->first.value == v) ++out;
      return true;
    }
    case QueryOp::kIn: {
      // One span per compare-distinct value (compare-equal values share a
      // span; visiting it once prevents double counting), then the real
      // `in` predicate on each key.
      std::vector<const Value*> reps;
      for (const Value& v : query.values()) {
        bool dup = false;
        for (const Value* r : reps)
          if (Value::compare(*r, v) == 0) {
            dup = true;
            break;
          }
        if (!dup) reps.push_back(&v);
      }
      out = 0;
      for (const Value* r : reps) {
        auto [lo, hi] = entries.equal_range(IndexKey{*r});
        for (auto it = lo; it != hi; ++it)
          for (const Value& v : query.values())
            if (it->first.value == v) {
              ++out;
              break;
            }
      }
      return true;
    }
    // Range filters use Value::compare — the index order — so the range
    // width is the exact answer.
    case QueryOp::kLt:
      out = static_cast<std::size_t>(std::distance(
          entries.begin(), entries.lower_bound(IndexKey{query.values()[0]})));
      return true;
    case QueryOp::kLte:
      out = static_cast<std::size_t>(std::distance(
          entries.begin(), entries.upper_bound(IndexKey{query.values()[0]})));
      return true;
    case QueryOp::kGt:
      out = static_cast<std::size_t>(std::distance(
          entries.upper_bound(IndexKey{query.values()[0]}), entries.end()));
      return true;
    case QueryOp::kGte:
      out = static_cast<std::size_t>(std::distance(
          entries.lower_bound(IndexKey{query.values()[0]}), entries.end()));
      return true;
    case QueryOp::kExists:
      // Every document with the path present has exactly one entry.
      out = entries.size();
      return true;
    default:
      return false;
  }
}

std::size_t Collection::count(const Query& query) const {
  if (query.op() == QueryOp::kAll) return id_to_slot_.size();
  if (planner_enabled_) {
    std::size_t covered = 0;
    if (covered_count(query, covered)) {
      note_plan(PlanKind::kCovered);
      note_find(/*indexed=*/true);
      return covered;
    }
  }
  std::size_t n = 0;
  visit_matches(query, plan(query), [&](Slot, const Document&) { ++n; });
  return n;
}

bool Collection::replace(const std::string& id, Document doc) {
  return replace_checked(id, std::move(doc), /*journaled=*/true);
}

bool Collection::apply_replace(const std::string& id, Document doc) {
  return replace_checked(id, std::move(doc), /*journaled=*/false);
}

bool Collection::replace_checked(const std::string& id, Document doc,
                                 bool journaled) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  if (!doc.is_object())
    throw std::invalid_argument("Collection::replace: document must be an object");
  Slot slot = it->second;
  doc.as_object().set("_id", Value(id));
  if (journaled)
    log_record(Value(Object{{"op", Value("db.replace")},
                            {"c", Value(name_)},
                            {"id", Value(id)},
                            {"doc", doc}}));
  Document built;
  unindex_document(slot, doc_at(slot, built));
  index_document(slot, doc);
  store_eager(slot, std::move(doc));
  return true;
}

std::size_t Collection::update_many(
    const Query& query, const std::function<void(Document&)>& mutate) {
  if (update_fault_.should_fail())
    throw fault::TransientError(fault::FaultSite::kDocstoreUpdate,
                                "injected fault: update in '" + name_ + "'");
  // Two passes: match first, then mutate. Mutating while scanning would
  // break if the callback reentrantly inserts (slots_ reallocation under
  // the loop) or removes the very document being updated (the old code
  // dereferenced the now-empty slot — UB). The callback mutates a copy;
  // if it removed the document mid-flight, the update is dropped rather
  // than resurrecting it.
  std::vector<Slot> matches;
  visit_matches(query, plan(query),
                [&](Slot slot, const Document&) { matches.push_back(slot); });
  std::size_t updated = 0;
  Document built;
  for (Slot slot : matches) {
    if (!slot_alive(slot)) continue;  // removed by an earlier mutate
    Document next = document(slot);
    std::string id = next.at("_id").as_string();
    mutate(next);
    next.as_object().set("_id", Value(id));  // _id is immutable
    auto it = id_to_slot_.find(id);
    if (it == id_to_slot_.end() || it->second != slot) continue;
    // Journaled as a replace of the post-mutation document: recovery
    // replays final states, not callbacks.
    log_record(Value(Object{{"op", Value("db.replace")},
                            {"c", Value(name_)},
                            {"id", Value(id)},
                            {"doc", next}}));
    unindex_document(slot, doc_at(slot, built));
    index_document(slot, next);
    store_eager(slot, std::move(next));
    ++updated;
  }
  return updated;
}

bool Collection::remove(const std::string& id) {
  return remove_checked(id, /*journaled=*/true);
}

bool Collection::apply_remove(const std::string& id) {
  return remove_checked(id, /*journaled=*/false);
}

bool Collection::remove_checked(const std::string& id, bool journaled) {
  auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  if (journaled)
    log_record(Value(Object{{"op", Value("db.remove")},
                            {"c", Value(name_)},
                            {"id", Value(id)}}));
  Slot slot = it->second;
  Document built;
  unindex_document(slot, doc_at(slot, built));
  SlotRef& ref = slots_[slot];
  if (ref.segment == kEager) docs_[ref.row] = Document();
  ref.segment = kDead;
  id_to_slot_.erase(it);
  ++stats_.total_removes;
  stats_.document_count = id_to_slot_.size();
  if (metrics_.removes != nullptr) metrics_.removes->inc();
  if (metrics_.documents != nullptr) metrics_.documents->add(-1.0);
  return true;
}

std::size_t Collection::remove_many(const Query& query) {
  std::vector<std::string> ids;
  visit_matches(query, plan(query), [&](Slot, const Document& d) {
    ids.push_back(d.at("_id").as_string());
  });
  for (const std::string& id : ids) remove(id);
  return ids.size();
}

void Collection::create_index(const std::string& path) {
  if (indexes_.count(path) > 0) return;
  log_record(Value(Object{{"op", Value("db.index")},
                          {"c", Value(name_)},
                          {"path", Value(path)}}));
  apply_create_index(path);
}

void Collection::apply_create_index(const std::string& path) {
  if (indexes_.count(path) > 0) return;
  Index& index = indexes_[path];
  Document built;
  for (Slot slot = 0; slot < slots_.size(); ++slot) {
    if (!slot_alive(slot)) continue;
    if (const Value* v = doc_at(slot, built).find_path(path))
      index.entries.insert({IndexKey{*v}, slot});
  }
  stats_.index_count = indexes_.size();
}

bool Collection::has_index(const std::string& path) const {
  return indexes_.count(path) > 0;
}

namespace {
/// Walks an index's compare-equal key groups in order, calling
/// `group(first_entry_key, group_size)` per group. Returns false (a
/// planner bail-out to the scan path) when a group mixes keys that
/// compare equal but are not operator==-equal (e.g. int64s that collide
/// as doubles), where index grouping and scan semantics could diverge, or
/// when the callback itself vetoes the group.
template <typename Entries, typename GroupFn>
bool walk_index_groups(const Entries& entries, GroupFn&& group) {
  for (auto it = entries.begin(); it != entries.end();) {
    auto hi = entries.upper_bound(it->first);
    std::size_t n = 0;
    for (auto j = it; j != hi; ++j, ++n)
      if (!(j->first.value == it->first.value)) return false;
    if (!group(it->first.value, n)) return false;
    it = hi;
  }
  return true;
}
}  // namespace

std::vector<Value> Collection::distinct(const std::string& path,
                                        const Query& query) const {
  if (planner_enabled_ && query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: one representative per key group, already in compare
      // order — no documents touched, no quadratic dedup. Restricted to
      // scalar keys: the scan below dedups by operator==, which for
      // objects is field-order-insensitive while the index order is not.
      std::vector<Value> out;
      if (walk_index_groups(index_it->second.entries,
                            [&](const Value& key, std::size_t) {
                              if (key.is_array() || key.is_object())
                                return false;
                              out.push_back(key);
                              return true;
                            })) {
        note_plan(PlanKind::kCovered);
        note_find(/*indexed=*/true);
        return out;
      }
    }
  }
  std::vector<Value> out;
  visit_matches(query, plan(query), [&](Slot, const Document& d) {
    const Value* v = d.find_path(path);
    if (v == nullptr) return;
    for (const Value& existing : out)
      if (existing == *v) return;
    out.push_back(*v);
  });
  std::sort(out.begin(), out.end(), [](const Value& a, const Value& b) {
    return Value::compare(a, b) < 0;
  });
  return out;
}

std::vector<std::pair<Value, std::size_t>> Collection::group_count(
    const std::string& path, const Query& query) const {
  if (planner_enabled_ && query.op() == QueryOp::kAll) {
    auto index_it = indexes_.find(path);
    if (index_it != indexes_.end()) {
      // Covered: group sizes are key-group widths in the index — the scan
      // below groups by the same IndexKey order, so results are identical.
      std::vector<std::pair<Value, std::size_t>> out;
      if (walk_index_groups(index_it->second.entries,
                            [&](const Value& key, std::size_t n) {
                              out.emplace_back(key, n);
                              return true;
                            })) {
        note_plan(PlanKind::kCovered);
        note_find(/*indexed=*/true);
        return out;
      }
    }
  }
  std::map<IndexKey, std::size_t> groups;
  visit_matches(query, plan(query), [&](Slot, const Document& d) {
    if (const Value* v = d.find_path(path)) ++groups[IndexKey{*v}];
  });
  std::vector<std::pair<Value, std::size_t>> out;
  out.reserve(groups.size());
  for (auto& [key, n] : groups) out.emplace_back(key.value, n);
  return out;
}

std::vector<Collection::GroupAggregate> Collection::group_aggregate(
    const std::string& group_path, const std::string& value_path,
    const Query& query) const {
  std::map<IndexKey, GroupAggregate> groups;
  visit_matches(query, plan(query), [&](Slot, const Document& d) {
    const Value* key = d.find_path(group_path);
    const Value* value = d.find_path(value_path);
    if (key == nullptr || value == nullptr || !value->is_number()) return;
    double x = value->as_double();
    auto [it, inserted] = groups.try_emplace(IndexKey{*key});
    GroupAggregate& agg = it->second;
    if (inserted) {
      agg.key = *key;
      agg.min = agg.max = x;
    } else {
      agg.min = std::min(agg.min, x);
      agg.max = std::max(agg.max, x);
    }
    ++agg.count;
    agg.sum += x;
  });
  std::vector<GroupAggregate> out;
  out.reserve(groups.size());
  for (auto& [_, agg] : groups) {
    agg.mean = agg.sum / static_cast<double>(agg.count);
    out.push_back(agg);
  }
  return out;
}

void Collection::for_each(
    const std::function<void(const Document&)>& fn) const {
  Document built;
  for (Slot s = 0; s < slots_.size(); ++s)
    if (slot_alive(s)) fn(doc_at(s, built));
}

Value Collection::durable_snapshot() const {
  Array docs;
  docs.reserve(id_to_slot_.size());
  for (Slot s = 0; s < slots_.size(); ++s)
    if (slot_alive(s)) docs.push_back(document(s));
  Array index_paths;
  for (const auto& [path, _] : indexes_) index_paths.push_back(Value(path));
  return Value(Object{
      {"name", Value(name_)},
      {"id_counter", Value(static_cast<std::int64_t>(id_counter_))},
      {"indexes", Value(std::move(index_paths))},
      {"docs", Value(std::move(docs))}});
}

void Collection::restore_snapshot(const Value& state) {
  id_counter_ = static_cast<std::uint64_t>(state.get_int("id_counter"));
  if (const Value* docs = state.find("docs"))
    for (const Value& doc : docs->as_array())
      insert_checked(doc, /*journaled=*/false);
  // Indexes after documents: one bulk build instead of per-doc inserts.
  if (const Value* paths = state.find("indexes"))
    for (const Value& path : paths->as_array())
      apply_create_index(path.as_string());
}

void Collection::crash() {
  if (metrics_.documents != nullptr)
    metrics_.documents->add(-static_cast<double>(id_to_slot_.size()));
  slots_.clear();
  segments_.clear();
  docs_.clear();
  id_to_slot_.clear();
  indexes_.clear();
  id_counter_ = 0;
  stats_.document_count = 0;
  stats_.index_count = 0;
}

Document Collection::project(const Document& doc,
                             const std::vector<std::string>& fields) {
  Object out;
  if (const Value* id = doc.find("_id")) out.set("_id", *id);
  for (const std::string& f : fields) {
    if (f == "_id") continue;
    if (const Value* v = doc.find(f)) out.set(f, *v);
  }
  return Value(std::move(out));
}

}  // namespace mps::docstore
