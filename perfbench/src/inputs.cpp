#include "inputs.h"

#include <algorithm>
#include <map>

#include "crowd/dataset.h"

namespace perfbench {

mps::crowd::Population campaign_crowd() {
  mps::crowd::PopulationConfig pop_config;
  pop_config.seed = kCrowdSeed;
  pop_config.device_scale = kDeviceScale;
  pop_config.obs_scale = kObsScale;
  pop_config.horizon = mps::days(kCampaignDays);
  return mps::crowd::Population::generate(pop_config);
}

std::vector<DeviceBatch> device_batches(std::uint64_t seed, int first_day,
                                        int days, std::size_t batch_size) {
  mps::crowd::Population population = campaign_crowd();
  mps::crowd::DatasetConfig data_config;
  data_config.seed = seed;
  data_config.journey_release = 0;
  mps::crowd::DatasetGenerator generator(population, data_config);

  const mps::TimeMs from = mps::days(first_day);
  const mps::TimeMs until = mps::days(first_day + days);
  std::vector<DeviceBatch> batches;
  for (const auto& user : population.users()) {
    std::vector<mps::phone::Observation> rows;
    generator.generate_user(user, [&](const mps::phone::Observation& o) {
      if (o.captured_at >= from && o.captured_at < until) rows.push_back(o);
    });
    std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.captured_at < b.captured_at;
    });
    std::uint64_t span = 0;
    for (std::size_t i = 0; i < rows.size(); i += batch_size) {
      DeviceBatch b;
      b.client = user.id;
      b.batch_id = user.id + "#" + std::to_string(batches.size());
      std::size_t end = std::min(rows.size(), i + batch_size);
      b.rows.assign(rows.begin() + static_cast<std::ptrdiff_t>(i),
                    rows.begin() + static_cast<std::ptrdiff_t>(end));
      for (auto& o : b.rows) o.span_id = ++span;
      b.sent_at = b.rows.back().captured_at;
      batches.push_back(std::move(b));
    }
  }
  std::stable_sort(batches.begin(), batches.end(),
                   [](const DeviceBatch& a, const DeviceBatch& b) {
                     return a.sent_at != b.sent_at ? a.sent_at < b.sent_at
                                                   : a.client < b.client;
                   });
  return batches;
}

void record_sent(Ledger& ledger, const DeviceBatch& batch) {
  for (const auto& o : batch.rows)
    ledger.add(batch.client, o.span_id, o.captured_at, o.spl_db);
}

}  // namespace perfbench
