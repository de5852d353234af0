// Output checks that recount the middleware's results from its stored
// documents instead of trusting its own counters. Every check returns a
// list of mismatch descriptions; empty means the output is correct.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "assim/grid.h"
#include "docstore/collection.h"
#include "phone/observation.h"

namespace perfbench {

using Problems = std::vector<std::string>;

/// Order-independent digest of a set of observations: count plus two
/// 64-bit folds of a per-observation hash over (client, span,
/// captured_at, spl bits).
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xor_fold = 0;

  void add(std::string_view client, std::uint64_t span, std::int64_t captured_at,
           double spl);
  bool operator==(const Digest& other) const = default;
};

/// What the benchmark itself sent, per client.
class Ledger {
 public:
  void add(std::string_view client, std::uint64_t span, std::int64_t captured_at,
           double spl);
  const std::map<std::string, Digest, std::less<>>& per_client() const {
    return per_client_;
  }
  std::uint64_t total() const;

 private:
  std::map<std::string, Digest, std::less<>> per_client_;
};

/// Per-client digests of the stored observation documents.
struct StoreScan {
  std::map<std::string, Digest, std::less<>> per_client;
  std::uint64_t documents = 0;
  /// Documents whose identity was already seen: (client, span) when the
  /// documents carry span ids, else (client, captured_at, spl bits).
  std::uint64_t repeated = 0;
};

StoreScan scan_store(const mps::docstore::Collection* observations);

/// Stored documents must equal the ledger for every client `owns`
/// accepts (all clients when `owns` is empty), each stored once.
Problems compare_ledger(const Ledger& ledger, const StoreScan& store,
                        const std::function<bool(std::string_view)>& owns = {});

/// Observation books: everything the devices recorded is stored, still
/// buffered on a device, mid-upload, or kept on a device that does not
/// share.
Problems check_books(std::uint64_t recorded, std::uint64_t stored,
                     std::uint64_t on_device, std::uint64_t in_flight,
                     std::uint64_t not_shared);

/// True when the assimilation policy (localized, accuracy within bound)
/// would use this observation.
bool usable(const mps::phone::Observation& obs, double max_accuracy_m);

/// Cells farther than `cutoff_m` from every used observation must keep
/// their background value (the localized analysis adds nothing there).
Problems check_far_cells(const mps::assim::Grid& background,
                         const mps::assim::Grid& analysis,
                         const std::vector<mps::phone::Observation>& used,
                         double cutoff_m);

}  // namespace perfbench
