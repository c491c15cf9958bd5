// Shared version-horizon state between the SnapshotManager and the mappers.
//
// The FTL's out-of-place writes already leave every superseded page copy on
// flash with its version stamp in OOB; MVCC here is nothing more than *not
// discarding* those copies while a snapshot may still need them. This little
// header is the only thing the mapper layer needs to see: a monotonically
// increasing write sequence and the published [horizon, newest] window of
// live snapshots. It is dependency-free on purpose — ftl/ includes it, and
// mvcc/snapshot_manager.h includes ftl/, so the arrow between the layers
// only ever points one way.
//
// Protocol (all lock-free on the writer side):
//   * every superseding write draws `next_seq.fetch_add(1)` as its commit
//     sequence; the pre-increment value is the version's seq, so seqs are
//     unique and totally ordered across every mapper sharing the horizon
//     (all shards of one database).
//   * a snapshot draws its own seq the same way: versions with seq <= snap
//     are visible to it, versions with seq > snap are not (seqs are unique,
//     so <= is effectively <).
//   * `horizon` (H) is the oldest live snapshot's seq and `newest` (T) the
//     youngest's; both 0 when no snapshot is live. A superseded copy whose
//     seq is <= T may be needed by some snapshot and is retained; a retained
//     copy whose covering interval [seq, next_seq) ends at or before H can
//     no longer be read by any live snapshot and is reclaimable.
//   * `opening` closes the open-vs-writer race: a writer that loads T
//     *before* a freshly opened snapshot publishes it could discard a copy
//     the snapshot still needs. Open() increments `opening` before drawing
//     its seq and decrements after publishing; writers retain
//     unconditionally while `opening` is nonzero.
#pragma once

#include <atomic>
#include <cstdint>

namespace noftl::mvcc {

/// "No flash copy": the version reported when the copy a request touched is
/// unknown (failed request, trim, a backend that does not track sequences)
/// and carried by a buffer frame that equals no flash copy yet. Compares
/// above every real sequence, so it is never visible to a snapshot.
inline constexpr uint64_t kNoVersion = ~uint64_t{0};

struct VersionHorizon {
  /// Next commit sequence to hand out (1-based; 0 means "no sequence").
  std::atomic<uint64_t> next_seq{1};
  /// Oldest live snapshot seq (H); 0 = no live snapshot.
  std::atomic<uint64_t> horizon{0};
  /// Newest live snapshot seq (T); 0 = no live snapshot.
  std::atomic<uint64_t> newest{0};
  /// Snapshots mid-Open (seq drawn, window not yet published).
  std::atomic<uint32_t> opening{0};

  /// Draw one commit sequence (writers and snapshots alike).
  uint64_t Draw() { return next_seq.fetch_add(1, std::memory_order_relaxed); }

  /// Writer-side retention test for a superseded copy of sequence
  /// `old_seq`: true if some live (or currently opening) snapshot may still
  /// need it.
  bool ShouldRetain(uint64_t old_seq) const {
    if (opening.load(std::memory_order_acquire) > 0) return true;
    const uint64_t t = newest.load(std::memory_order_acquire);
    return t != 0 && old_seq <= t;
  }

  /// Reclaim-side liveness test for a retained copy covering
  /// [seq, next_seq): true if some live snapshot can still read it. The
  /// conservative `opening` clause keeps everything while a snapshot is
  /// mid-publish.
  bool MayBeLive(uint64_t seq, uint64_t next) const {
    if (opening.load(std::memory_order_acquire) > 0) return true;
    const uint64_t t = newest.load(std::memory_order_acquire);
    const uint64_t h = horizon.load(std::memory_order_acquire);
    return t != 0 && seq <= t && next > h;
  }
};

}  // namespace noftl::mvcc
