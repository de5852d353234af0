#include "checks.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/hash.h"

namespace perfbench {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

}  // namespace

void Digest::add(std::string_view client, std::uint64_t span,
                 std::int64_t captured_at, double spl) {
  std::uint64_t h = mps::fnv1a64(client);
  h = mix(h ^ span);
  h = mix(h ^ static_cast<std::uint64_t>(captured_at));
  h = mix(h ^ bits_of(spl));
  ++count;
  sum += h;
  xor_fold ^= mix(h + 0x9e3779b97f4a7c15ULL);
}

void Ledger::add(std::string_view client, std::uint64_t span,
                 std::int64_t captured_at, double spl) {
  auto it = per_client_.find(client);
  if (it == per_client_.end())
    it = per_client_.emplace(std::string(client), Digest{}).first;
  it->second.add(client, span, captured_at, spl);
}

std::uint64_t Ledger::total() const {
  std::uint64_t n = 0;
  for (const auto& [client, d] : per_client_) n += d.count;
  return n;
}

StoreScan scan_store(const mps::docstore::Collection* observations) {
  StoreScan scan;
  if (observations == nullptr) return scan;
  std::unordered_set<std::string> seen;
  seen.reserve(observations->size());
  std::string key;
  observations->for_each([&](const mps::Value& doc) {
    std::string client = doc.get_string("client");
    auto span = static_cast<std::uint64_t>(doc.get_int("span", 0));
    std::int64_t captured_at = doc.get_int("captured_at");
    double spl = doc.get_double("spl");
    key = client;
    key += '#';
    if (span != 0) {
      key += std::to_string(span);
    } else {
      key += std::to_string(captured_at);
      key += '#';
      key += std::to_string(bits_of(spl));
    }
    if (!seen.insert(key).second) ++scan.repeated;
    ++scan.documents;
    auto it = scan.per_client.find(client);
    if (it == scan.per_client.end())
      it = scan.per_client.emplace(client, Digest{}).first;
    it->second.add(client, span, captured_at, spl);
  });
  return scan;
}

Problems compare_ledger(const Ledger& ledger, const StoreScan& store,
                        const std::function<bool(std::string_view)>& owns) {
  Problems problems;
  auto owned = [&](std::string_view client) { return !owns || owns(client); };
  if (store.repeated != 0)
    problems.push_back(std::to_string(store.repeated) +
                       " observations stored more than once");
  for (const auto& [client, expected] : ledger.per_client()) {
    if (!owned(client)) continue;
    auto it = store.per_client.find(client);
    Digest got = it == store.per_client.end() ? Digest{} : it->second;
    if (!(got == expected))
      problems.push_back("client " + client + ": stored " +
                         std::to_string(got.count) + " observations, sent " +
                         std::to_string(expected.count) +
                         (got.count == expected.count ? " (digest differs)" : ""));
  }
  for (const auto& [client, got] : store.per_client) {
    if (ledger.per_client().count(client) == 0 || !owned(client))
      problems.push_back("client " + client + ": " + std::to_string(got.count) +
                         " observations stored where none belong");
  }
  return problems;
}

Problems check_books(std::uint64_t recorded, std::uint64_t stored,
                     std::uint64_t on_device, std::uint64_t in_flight,
                     std::uint64_t not_shared) {
  if (recorded == stored + on_device + in_flight + not_shared) return {};
  return {"books do not close: recorded " + std::to_string(recorded) +
          " != stored " + std::to_string(stored) + " + on device " +
          std::to_string(on_device) + " + in flight " +
          std::to_string(in_flight) + " + not shared " +
          std::to_string(not_shared)};
}

bool usable(const mps::phone::Observation& obs, double max_accuracy_m) {
  return obs.location.has_value() && obs.location->accuracy_m <= max_accuracy_m;
}

Problems check_far_cells(const mps::assim::Grid& background,
                         const mps::assim::Grid& analysis,
                         const std::vector<mps::phone::Observation>& used,
                         double cutoff_m) {
  std::size_t changed = 0;
  double cutoff2 = cutoff_m * cutoff_m;
  for (std::size_t iy = 0; iy < background.ny(); ++iy) {
    for (std::size_t ix = 0; ix < background.nx(); ++ix) {
      double cx = background.cell_x(ix), cy = background.cell_y(iy);
      bool near = false;
      for (const auto& obs : used) {
        double dx = obs.location->x_m - cx, dy = obs.location->y_m - cy;
        if (dx * dx + dy * dy <= cutoff2) {
          near = true;
          break;
        }
      }
      if (near) continue;
      double a = analysis.at(ix, iy), b = background.at(ix, iy);
      if (std::fabs(a - b) > 1e-9 * std::max(1.0, std::fabs(b))) ++changed;
    }
  }
  if (changed == 0) return {};
  return {std::to_string(changed) +
          " cells beyond the cutoff radius of every observation changed"};
}

}  // namespace perfbench
