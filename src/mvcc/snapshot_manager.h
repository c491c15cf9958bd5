// Flash-native MVCC snapshots over the FTL's out-of-place copies.
//
// Every update the mapper performs leaves the superseded page copy on flash
// (out-of-place writes); the SnapshotManager turns that side effect into a
// version store. Opening a snapshot draws a commit sequence and publishes
// the [horizon, newest] window of live snapshots; while the window is
// nonempty, every mapper sharing the VersionHorizon *retains* superseded
// copies (valid bit kept, mapping moved into a per-lpn version chain)
// instead of invalidating them, and resolves reads tagged with a snapshot
// sequence against the chain. Releasing the last snapshot that needs a
// retained copy makes it garbage again — reclaimed either eagerly by
// Release() fanning out to the registered mappers, or lazily by the next GC
// pass that visits the copy.
//
// There is no undo log and no WAL: the version store is the flash itself,
// exactly the database-integrated flash-management thesis one level up.
//
// Thread safety: Open/Release serialize on a mutex ranked kSnapshot
// (strictly below the mapper latch — Release reclaims through the mappers
// under it); the mapper's write path reads the horizon through the
// lock-free VersionHorizon atomics only. The opening counter closes the
// window where a concurrent writer could discard a copy a half-opened
// snapshot still needs (see version_horizon.h).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "ftl/mapping.h"
#include "mvcc/version_horizon.h"

namespace noftl::mvcc {

class SnapshotManager {
 public:
  SnapshotManager() = default;
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// The horizon block the mappers watch; wire it into
  /// ftl::MapperOptions::snapshots before any write traffic.
  VersionHorizon* horizon() { return &horizon_; }

  /// Attach / detach a mapper for eager reclamation on Release (region
  /// create/drop, DDL). Registered mappers must outlive their registration.
  void RegisterMapper(ftl::OutOfPlaceMapper* mapper);
  void UnregisterMapper(ftl::OutOfPlaceMapper* mapper);
  bool IsRegistered(const ftl::OutOfPlaceMapper* mapper) const;

  /// Open a snapshot: returns its sequence (the handle). Versions with
  /// seq <= the handle are visible to it. The caller is responsible for
  /// making flash current first (flush dirty buffers) — the snapshot covers
  /// what is on flash, not what sits dirty in a cache above. A cache whose
  /// clean copy of a page is the page's newest flash copy may serve it to
  /// every snapshot whose handle is >= that copy's commit sequence (the
  /// version the mappers report with every read and write): it is the
  /// version the snapshot would resolve on flash. The buffer pool does
  /// exactly this after Database::OpenSnapshot's flush.
  uint64_t Open();

  /// Release a snapshot handle; recomputes and publishes the horizon and
  /// eagerly reclaims retained versions no live snapshot can read. Unknown
  /// handles are ignored.
  void Release(uint64_t snapshot);

  /// Live snapshots right now.
  size_t live_count() const;

  /// Leak check (satellite of the mapper-side VerifyIntegrity checks):
  /// the published window matches the live-handle set exactly — no pinned
  /// horizon without a live handle, horizon == min, newest == max, and no
  /// snapshot stuck mid-open.
  Status Verify() const;

 private:
  VersionHorizon horizon_;
  mutable Mutex mu_{LockRank::kSnapshot};
  std::multiset<uint64_t> live_ GUARDED_BY(mu_);
  std::vector<ftl::OutOfPlaceMapper*> mappers_ GUARDED_BY(mu_);
};

}  // namespace noftl::mvcc
