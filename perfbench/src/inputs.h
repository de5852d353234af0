// Device upload batches for the serving-plane workloads, made from the
// same generated crowd as the campaign (crowd::Population +
// crowd::DatasetGenerator), so only --seed chooses them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "crowd/population.h"
#include "phone/observation.h"

namespace perfbench {

// The crowd every workload draws from: 3x the study bench's default
// device slice (~310 devices) over a 30-day campaign. The crowd itself
// (who the users are, their phones and habits) is fixed, like the city a
// deployment serves; --seed drives everything that happens to it:
// sensing schedules, connectivity, ambient levels and the city map. With
// a heavy-tailed contribution profile, redrawing the crowd per seed would
// swing the stored volume by +-10% between seeds.
constexpr std::uint64_t kCrowdSeed = 2016;
constexpr double kDeviceScale = 0.15;
constexpr double kObsScale = 0.08;
constexpr int kCampaignDays = 30;

/// The fixed crowd.
mps::crowd::Population campaign_crowd();

struct DeviceBatch {
  std::string client;
  std::string batch_id;
  mps::TimeMs sent_at = 0;
  std::vector<mps::phone::Observation> rows;
};

/// Every device's observations captured in [first_day, first_day +
/// days) of the campaign, cut in capture order into batches of `batch_size` (the last
/// batch of a device may be shorter) and ordered by upload time. Span ids
/// are assigned per client from 1, so (client, span) names each
/// observation.
std::vector<DeviceBatch> device_batches(std::uint64_t seed, int first_day,
                                        int days, std::size_t batch_size);

/// Adds every row of `batch` to the ledger.
void record_sent(Ledger& ledger, const DeviceBatch& batch);

}  // namespace perfbench
