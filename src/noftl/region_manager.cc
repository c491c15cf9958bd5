#include "noftl/region_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace noftl::region {

using flash::DieId;

RegionManager::RegionManager(flash::FlashDevice* device,
                             const GlobalWlOptions& wl)
    : device_(device), wl_(wl) {
  const auto& geo = device_->geometry();
  free_pool_.resize(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) free_pool_[i] = i;
}

Result<std::vector<DieId>> RegionManager::AllocateDies(uint32_t count,
                                                       uint32_t max_channels) {
  if (count == 0) return Status::InvalidArgument("region needs >= 1 die");
  if (count > free_pool_.size()) {
    return Status::NoSpace("only " + std::to_string(free_pool_.size()) +
                           " free dies, need " + std::to_string(count));
  }
  const auto& geo = device_->geometry();

  // Group the free pool by channel.
  std::map<uint32_t, std::vector<DieId>> per_channel;
  for (DieId die : free_pool_) per_channel[geo.channel_of(die)].push_back(die);

  // Prefer the channels with the most free dies; cap the number of distinct
  // channels at max_channels if set.
  std::vector<uint32_t> channels;
  for (auto& [ch, dies] : per_channel) {
    (void)dies;
    channels.push_back(ch);
  }
  std::sort(channels.begin(), channels.end(), [&](uint32_t a, uint32_t b) {
    if (per_channel[a].size() != per_channel[b].size()) {
      return per_channel[a].size() > per_channel[b].size();
    }
    return a < b;
  });
  if (max_channels != 0 && channels.size() > max_channels) {
    channels.resize(max_channels);
  }

  uint64_t available = 0;
  for (uint32_t ch : channels) available += per_channel[ch].size();
  if (available < count) {
    return Status::NoSpace("MAX_CHANNELS=" + std::to_string(max_channels) +
                           " limits region to " + std::to_string(available) +
                           " dies, need " + std::to_string(count));
  }

  // Round-robin across the chosen channels for maximal parallelism.
  std::vector<DieId> picked;
  size_t idx = 0;
  while (picked.size() < count) {
    auto& bucket = per_channel[channels[idx % channels.size()]];
    if (!bucket.empty()) {
      picked.push_back(bucket.back());
      bucket.pop_back();
    }
    idx++;
  }

  for (DieId die : picked) {
    free_pool_.erase(std::find(free_pool_.begin(), free_pool_.end(), die));
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

Result<Region*> RegionManager::CreateRegion(const RegionOptions& options) {
  if (options.name.empty()) return Status::InvalidArgument("region needs a name");
  if (by_name_.count(options.name) != 0) {
    return Status::AlreadyExists("region " + options.name + " exists");
  }
  // Validate the exported size against the die count before taking dies.
  auto logical =
      RegionLogicalPages(device_->geometry(), options, options.max_chips);
  if (!logical.ok()) return logical.status();

  auto dies = AllocateDies(options.max_chips, options.max_channels);
  if (!dies.ok()) return dies.status();

  const RegionId id = next_id_++;
  auto region = std::make_unique<Region>(id, options, device_, *dies);
  Region* out = region.get();
  by_id_.emplace(id, std::move(region));
  by_name_.emplace(options.name, id);
  NOFTL_LOG_INFO("created region %s: %u dies, %llu logical pages",
                 options.name.c_str(), options.max_chips,
                 static_cast<unsigned long long>(out->logical_pages()));
  return out;
}

Status RegionManager::DropRegion(const std::string& name) {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return Status::NotFound("region " + name);
  Region* region = by_id_.at(it->second).get();
  if (region->mapper().valid_pages() != 0) {
    return Status::Busy("region " + name + " still holds mapped pages");
  }
  for (DieId die : region->dies()) free_pool_.push_back(die);
  std::sort(free_pool_.begin(), free_pool_.end());
  by_id_.erase(it->second);
  by_name_.erase(it);
  return Status::OK();
}

Region* RegionManager::Get(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : by_id_.at(it->second).get();
}

Region* RegionManager::Get(RegionId id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::vector<Region*> RegionManager::regions() {
  std::vector<Region*> out;
  out.reserve(by_id_.size());
  for (auto& [id, r] : by_id_) {
    (void)id;
    out.push_back(r.get());
  }
  return out;
}

Status RegionManager::GrowRegion(const std::string& name, uint32_t count,
                                 SimTime issue) {
  (void)issue;
  Region* region = Get(name);
  if (region == nullptr) return Status::NotFound("region " + name);
  if (count == 0) return Status::InvalidArgument("chip count must be > 0");
  auto dies = AllocateDies(count, region->options().max_channels);
  if (!dies.ok()) return dies.status();
  for (DieId die : *dies) {
    Status s = region->AddDie(die);
    if (!s.ok()) {
      // Return untouched dies to the pool before failing.
      free_pool_.push_back(die);
      std::sort(free_pool_.begin(), free_pool_.end());
      return s;
    }
  }
  NOFTL_LOG_INFO("region %s grew by %u dies", name.c_str(), count);
  return Status::OK();
}

Status RegionManager::ShrinkRegion(const std::string& name, uint32_t count,
                                   SimTime issue) {
  Region* region = Get(name);
  if (region == nullptr) return Status::NotFound("region " + name);
  if (count == 0) return Status::InvalidArgument("chip count must be > 0");
  if (region->dies().size() <= count) {
    return Status::InvalidArgument("region would be left with no dies");
  }
  // The remaining dies must still back the exported logical space.
  const auto& geo = device_->geometry();
  const uint64_t reserve_blocks =
      region->options().mapper.gc_high_watermark + 2;
  const uint64_t usable_after =
      (region->dies().size() - count) *
      (geo.blocks_per_die - reserve_blocks) * geo.pages_per_block;
  if (usable_after < region->logical_pages()) {
    return Status::NoSpace("remaining dies cannot back the logical size");
  }
  for (uint32_t i = 0; i < count; i++) {
    // Drain the most-worn die (shrinking doubles as wear retirement).
    DieId worn = region->dies().front();
    for (DieId d : region->dies()) {
      if (DieAvgErase(d) > DieAvgErase(worn)) worn = d;
    }
    NOFTL_RETURN_IF_ERROR(region->RemoveDie(worn, issue));
    free_pool_.push_back(worn);
  }
  std::sort(free_pool_.begin(), free_pool_.end());
  NOFTL_LOG_INFO("region %s shrank by %u dies", name.c_str(), count);
  return Status::OK();
}

double RegionManager::DieAvgErase(DieId die) const {
  const auto& geo = device_->geometry();
  uint64_t sum = 0;
  for (uint32_t b = 0; b < geo.blocks_per_die; b++) {
    sum += device_->EraseCount(die, b);
  }
  return static_cast<double>(sum) / geo.blocks_per_die;
}

double RegionManager::WearSpread() const {
  double lo = std::numeric_limits<double>::max();
  double hi = 0;
  for (const auto& [id, r] : by_id_) {
    (void)id;
    const double avg = r->AvgEraseCount();
    lo = std::min(lo, avg);
    hi = std::max(hi, avg);
  }
  return by_id_.empty() ? 0.0 : hi - lo;
}

Status RegionManager::RebalanceWear(SimTime issue, bool* swapped) {
  if (swapped != nullptr) *swapped = false;
  if (by_id_.size() < 2) return Status::OK();

  Region* hot = nullptr;
  Region* cold = nullptr;
  for (auto& [id, r] : by_id_) {
    (void)id;
    if (hot == nullptr || r->AvgEraseCount() > hot->AvgEraseCount()) hot = r.get();
    if (cold == nullptr || r->AvgEraseCount() < cold->AvgEraseCount()) cold = r.get();
  }
  if (hot == cold ||
      hot->AvgEraseCount() - cold->AvgEraseCount() < wl_.spread_threshold) {
    return Status::OK();
  }
  if (hot->dies().size() < 2 && cold->dies().size() < 2) {
    return Status::OK();  // neither region can drain a die into another
  }

  // Most-worn die of the hot region, least-worn die of the cold region.
  DieId worn = hot->dies().front();
  for (DieId d : hot->dies()) {
    if (DieAvgErase(d) > DieAvgErase(worn)) worn = d;
  }
  DieId fresh = cold->dies().front();
  for (DieId d : cold->dies()) {
    if (DieAvgErase(d) < DieAvgErase(fresh)) fresh = d;
  }
  // A drain that is not safely possible (NoSpace/Busy) cancels the swap.
  auto cancelled = [](const Status& s) {
    return s.IsNoSpace() || s.IsBusy() ? Status::OK() : s;
  };

  if (hot->dies().size() >= 2 && cold->dies().size() >= 2) {
    // Drain both dies; if either drain is impossible, roll back.
    Status s = hot->RemoveDie(worn, issue);
    if (!s.ok()) return cancelled(s);
    s = cold->RemoveDie(fresh, issue);
    if (!s.ok()) {
      NOFTL_RETURN_IF_ERROR(hot->AddDie(worn));
      return cancelled(s);
    }
    // Exchange: the hot region gets the fresh die, the cold one the worn die.
    NOFTL_RETURN_IF_ERROR(hot->AddDie(fresh));
    NOFTL_RETURN_IF_ERROR(cold->AddDie(worn));
  } else {
    // A one-die region cannot give its die up first: the other region hands
    // over its die, the one-die region takes it and then drains its own die
    // onto it, and that die goes back the other way.
    struct Move {
      DieId die;
      Region* from;
      Region* to;
    };
    Move first{worn, hot, cold};
    Move second{fresh, cold, hot};
    if (hot->dies().size() < 2) std::swap(first, second);
    Status s = first.from->RemoveDie(first.die, issue);
    if (!s.ok()) return cancelled(s);
    NOFTL_RETURN_IF_ERROR(first.to->AddDie(first.die));
    s = second.from->RemoveDie(second.die, issue);
    if (!s.ok()) {
      // Restore both die sets: drain the handed-over die back out.
      NOFTL_RETURN_IF_ERROR(first.to->RemoveDie(first.die, issue));
      NOFTL_RETURN_IF_ERROR(first.from->AddDie(first.die));
      return cancelled(s);
    }
    NOFTL_RETURN_IF_ERROR(second.to->AddDie(second.die));
  }
  if (swapped != nullptr) *swapped = true;
  NOFTL_LOG_INFO("global WL: swapped die %u (hot %s) with die %u (cold %s)",
                 worn, hot->name().c_str(), fresh, cold->name().c_str());
  return Status::OK();
}

}  // namespace noftl::region
