// Tablespace — the logical storage structure the DBA already knows, coupled
// to a NoFTL region (or an FTL LBA range) exactly as in paper §2:
//
//   CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 128K);
//
// A tablespace grows in fixed-size extents drawn from its SpaceProvider and
// exposes a dense page space [0, page_count). Each page remembers which
// database object owns it, so the NoFTL write path can tag flash OOB
// metadata with the object id.
//
// Thread safety: the page map (extent bases, owners, free list) sits behind
// a reader/writer latch — page-I/O paths resolve under a shared hold and
// release it before crossing into the provider, allocation/free/drop take it
// exclusively. In-flight queued submissions live in a ticket map behind a
// separate mutex; provider Submit/Wait calls always run with both released
// (the provider stacks have their own latches). Single-thread behaviour is
// byte-identical to the unlatched code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/annotated_mutex.h"
#include "common/status.h"
#include "storage/object_stats.h"
#include "storage/space_provider.h"

namespace noftl::storage {

struct TablespaceOptions {
  std::string name;
  /// Pages per extent (e.g. EXTENT SIZE 128K at 4 KiB pages = 32).
  uint32_t extent_pages = 32;
};

class Tablespace : public buffer::PageIo {
 public:
  Tablespace(uint32_t id, const TablespaceOptions& options,
             SpaceProvider* space);

  const std::string& name() const { return options_.name; }
  const TablespaceOptions& options() const { return options_; }
  uint64_t page_count() const {
    ReaderLock lock(meta_mu_);
    return page_owner_.size();
  }
  SpaceProvider* space() { return space_; }

  /// Allocate the next page for `object_id`; grows by one extent on demand.
  Result<uint64_t> AllocatePage(uint32_t object_id);

  /// Return a page to the tablespace free list (its flash copy is trimmed).
  Status FreePage(uint64_t page_no);

  /// Pages currently owned by some object (free-listed pages excluded).
  uint64_t LivePages() const;

  /// Return every extent to the space provider (DROP TABLESPACE). All pages
  /// must have been freed first; afterwards the tablespace is empty and the
  /// underlying logical ranges are reusable by future allocations.
  Status ReleaseExtents();

  uint32_t ObjectOf(uint64_t page_no) const {
    ReaderLock lock(meta_mu_);
    return page_no < page_owner_.size() ? page_owner_[page_no] : 0;
  }

  /// Attach a per-object I/O profiler; every page read/write is attributed
  /// to the owning object. May be null (profiling off).
  void SetIoStats(ObjectIoStats* stats) { io_stats_ = stats; }

  /// Currently-allocated pages per owning object.
  std::map<uint32_t, uint64_t> PageCountByObject() const;

  // --- buffer::PageIo ---
  uint32_t tablespace_id() const override { return id_; }
  uint32_t page_size() const override { return space_->page_size(); }
  Status ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                     SimTime* complete, uint64_t read_seq = 0,
                     uint64_t* version = nullptr,
                     bool* live = nullptr) override;
  Status WritePageRaw(uint64_t page_no, SimTime issue, const char* data,
                      SimTime* complete, uint64_t* version = nullptr) override;
  /// Queued variants: resolve every page and cross the provider boundary
  /// once, as a single queued IoBatch submission (cross-die overlap below)
  /// that stays in flight until WaitBatch delivers the slots.
  Status SubmitReads(buffer::PageReadReq* reqs, size_t count, SimTime issue,
                     buffer::PageIoTicket* ticket) override;
  Status SubmitWrites(buffer::PageWriteReq* reqs, size_t count, SimTime issue,
                      buffer::PageIoTicket* ticket) override;
  Status WaitBatch(buffer::PageIoTicket ticket, SimTime* complete) override;

 private:
  /// Provider logical page backing tablespace page `page_no`. Caller holds
  /// meta_mu_ (shared suffices).
  Result<uint64_t> Resolve(uint64_t page_no) const REQUIRES_SHARED(meta_mu_);

  /// One in-flight queued submission. The IoBatch owns the requests the
  /// provider holds pointers into; the target pointers name the PageReadReq/
  /// PageWriteReq slots the completions are copied to at the reap.
  struct PendingBatch {
    IoBatch batch;
    IoTicket provider_ticket = 0;
    SimTime issue = 0;
    std::vector<buffer::PageReadReq*> read_targets;
    std::vector<buffer::PageWriteReq*> write_targets;
  };

  uint32_t id_;
  TablespaceOptions options_;
  SpaceProvider* space_;
  ObjectIoStats* io_stats_ = nullptr;
  /// Page-map latch: shared for resolve/lookup, exclusive for allocate/free/
  /// drop. LockRank::kTablespaceMeta — above the provider's allocator locks
  /// and mapper latches (FreePage trims under it); released before provider
  /// page I/O.
  mutable SharedMutex meta_mu_{LockRank::kTablespaceMeta};
  /// Provider lpn of each extent.
  std::vector<uint64_t> extent_base_ GUARDED_BY(meta_mu_);
  /// Object id per allocated page.
  std::vector<uint32_t> page_owner_ GUARDED_BY(meta_mu_);
  /// Freed page numbers, reusable.
  std::vector<uint64_t> free_pages_ GUARDED_BY(meta_mu_);
  /// Guards the in-flight submission map and ticket counter only.
  /// LockRank::kTablespacePending: taken around provider calls, never
  /// across them (NOFTL_ASSERT_NO_UPPER_LATCHES enforces this at every
  /// mapper/device entry).
  mutable Mutex pending_mu_{LockRank::kTablespacePending};
  std::map<buffer::PageIoTicket, PendingBatch> pending_ GUARDED_BY(pending_mu_);
  buffer::PageIoTicket next_ticket_ GUARDED_BY(pending_mu_) = 1;
};

}  // namespace noftl::storage
