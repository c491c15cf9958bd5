#include "mvcc/snapshot_manager.h"

#include <algorithm>

namespace noftl::mvcc {

void SnapshotManager::RegisterMapper(ftl::OutOfPlaceMapper* mapper) {
  MutexLock lock(mu_);
  if (std::find(mappers_.begin(), mappers_.end(), mapper) != mappers_.end()) {
    return;
  }
  mappers_.push_back(mapper);
}

void SnapshotManager::UnregisterMapper(ftl::OutOfPlaceMapper* mapper) {
  MutexLock lock(mu_);
  std::erase(mappers_, mapper);
}

bool SnapshotManager::IsRegistered(const ftl::OutOfPlaceMapper* mapper) const {
  MutexLock lock(mu_);
  return std::find(mappers_.begin(), mappers_.end(), mapper) != mappers_.end();
}

uint64_t SnapshotManager::Open() {
  // Order matters: raise `opening` first so writers retain unconditionally,
  // then draw the sequence, then publish the window, then drop `opening`.
  // A writer racing anywhere inside this sequence either sees the published
  // window covering the new snapshot or the opening guard — never a gap.
  horizon_.opening.fetch_add(1, std::memory_order_acq_rel);
  const uint64_t snap = horizon_.Draw();
  {
    MutexLock lock(mu_);
    live_.insert(snap);
    horizon_.horizon.store(*live_.begin(), std::memory_order_release);
    horizon_.newest.store(*live_.rbegin(), std::memory_order_release);
  }
  horizon_.opening.fetch_sub(1, std::memory_order_acq_rel);
  return snap;
}

void SnapshotManager::Release(uint64_t snapshot) {
  MutexLock lock(mu_);
  auto it = live_.find(snapshot);
  if (it == live_.end()) return;
  live_.erase(it);
  if (live_.empty()) {
    horizon_.horizon.store(0, std::memory_order_release);
    horizon_.newest.store(0, std::memory_order_release);
  } else {
    horizon_.horizon.store(*live_.begin(), std::memory_order_release);
    horizon_.newest.store(*live_.rbegin(), std::memory_order_release);
  }
  // Eager reclamation: retained copies only this snapshot could read become
  // free space now, not at the next GC pass that happens to visit them.
  for (ftl::OutOfPlaceMapper* m : mappers_) {
    m->ReclaimRetainedVersions();
  }
}

size_t SnapshotManager::live_count() const {
  MutexLock lock(mu_);
  return live_.size();
}

Status SnapshotManager::Verify() const {
  MutexLock lock(mu_);
  const uint64_t h = horizon_.horizon.load(std::memory_order_acquire);
  const uint64_t t = horizon_.newest.load(std::memory_order_acquire);
  if (horizon_.opening.load(std::memory_order_acquire) != 0) {
    return Status::Corruption("snapshot stuck mid-open");
  }
  if (live_.empty()) {
    if (h != 0 || t != 0) {
      return Status::Corruption("pinned horizon without a live handle");
    }
    return Status::OK();
  }
  if (h != *live_.begin()) {
    return Status::Corruption("published horizon != oldest live snapshot");
  }
  if (t != *live_.rbegin()) {
    return Status::Corruption("published newest != youngest live snapshot");
  }
  return Status::OK();
}

}  // namespace noftl::mvcc
