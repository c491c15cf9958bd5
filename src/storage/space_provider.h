// SpaceProvider — the storage manager's view of "somewhere pages live".
//
// Implementations mirror the paper's two architectures, plus the router:
//   * region::Region — NoFTL: the region itself is the provider; object ids
//     reach the flash OOB metadata and GC is object-aware by construction;
//   * FtlSpace       — traditional SSD: a linear LBA space behind a block
//     device; object identity is invisible below this line;
//   * shard::ShardedSpace — one logical space striped over N of the above.
//
// The I/O surface is one event-driven submission/completion queue:
// SubmitBatch hands N requests to the backend at one issue time and returns
// a ticket immediately; requests on distinct dies overlap, the batch retires
// at the max over dies, and the caller reaps with WaitBatch/PollCompletions
// (or per-request callbacks), so whatever it computes in between overlaps
// with the in-flight flash work (see storage/io_batch.h). The blocking calls
// below (RunBatch and the single-page ReadPage/WritePage/TrimPage) are the
// one shared helper over that queue: every layer gets them from here.
#pragma once

#include <cstdint>

#include "common/sim_clock.h"
#include "common/status.h"
#include "ftl/page_ftl.h"
#include "storage/extent_allocator.h"
#include "storage/io_batch.h"

namespace noftl::storage {

class SpaceProvider {
 public:
  virtual ~SpaceProvider() = default;

  virtual uint32_t page_size() const = 0;

  /// Allocate / free a contiguous run of logical pages.
  virtual Result<uint64_t> AllocateExtent(uint64_t pages) = 0;
  virtual Status FreeExtent(uint64_t start, uint64_t pages) = 0;

  /// Placement-hinted allocation: backends that partition the space across
  /// devices (the shard router) use `hint` — by default the allocating
  /// object's id, flowed down from Tablespace::AllocatePage — to choose a
  /// partition. Single-device providers ignore it.
  virtual Result<uint64_t> AllocateExtentHinted(uint64_t pages,
                                                uint64_t hint) {
    (void)hint;
    return AllocateExtent(pages);
  }

  /// Enqueue a batch of reads/writes/trims at `issue` and return a ticket
  /// immediately; the per-request completion slots are filled only when the
  /// ticket is reaped. The returned status covers the submission itself
  /// (malformed or failed-atomic batches, which deliver their slots
  /// immediately and yield no ticket); per-request failures live in the
  /// slots. The batch object must stay alive and unmoved until reaped.
  virtual Status SubmitBatch(IoBatch* batch, SimTime issue,
                             IoTicket* ticket) = 0;

  /// Reap all requests of `ticket`; `*complete` (if non-null) receives the
  /// batch finish time. No-op for an unknown or already-reaped ticket.
  virtual Status WaitBatch(IoTicket ticket, SimTime* complete) = 0;

  /// Reap every request retired by simulated time `until` across this
  /// provider's in-flight batches; returns the number retired.
  virtual size_t PollCompletions(SimTime until) = 0;

  /// Call-and-resolve convenience: submit + wait in one step.
  Status RunBatch(IoBatch* batch, SimTime issue, SimTime* complete) {
    IoTicket ticket = 0;
    NOFTL_RETURN_IF_ERROR(SubmitBatch(batch, issue, &ticket));
    return WaitBatch(ticket, complete);
  }

  // --- Single-page convenience wrappers (one-element batches) ---
  // `version`/`live` (if non-null) receive the request's completion slots
  // of the same names on success.

  Status ReadPage(uint64_t lpn, SimTime issue, char* data, SimTime* complete,
                  uint64_t read_seq = 0, uint64_t* version = nullptr,
                  bool* live = nullptr) {
    IoBatch batch;
    batch.AddRead(lpn, data).read_seq = read_seq;
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, issue, nullptr));
    const IoRequest& r = batch[0];
    if (r.status.ok()) {
      if (complete != nullptr) *complete = r.complete;
      if (version != nullptr) *version = r.version;
      if (live != nullptr) *live = r.live;
    }
    return r.status;
  }

  Status WritePage(uint64_t lpn, SimTime issue, const char* data,
                   uint32_t object_id, SimTime* complete,
                   uint64_t* version = nullptr) {
    IoBatch batch;
    batch.AddWrite(lpn, data, object_id);
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, issue, nullptr));
    const IoRequest& r = batch[0];
    if (r.status.ok()) {
      if (complete != nullptr) *complete = r.complete;
      if (version != nullptr) *version = r.version;
    }
    return r.status;
  }

  Status TrimPage(uint64_t lpn) {
    IoBatch batch;
    batch.AddTrim(lpn);
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, /*issue=*/0, nullptr));
    return batch[0].status;
  }
};

/// Traditional path: the FTL's LBA space. The object id is discarded — an
/// FTL cannot see it, which is the paper's point.
class FtlSpace : public SpaceProvider {
 public:
  explicit FtlSpace(ftl::PageMappingFtl* ftl)
      : ftl_(ftl), extents_(ftl->sector_count(), "FTL LBA space") {}

  uint32_t page_size() const override { return ftl_->sector_size(); }

  Result<uint64_t> AllocateExtent(uint64_t pages) override {
    return extents_.Allocate(pages);
  }
  /// Trims the extent's sectors, then returns it for reuse.
  Status FreeExtent(uint64_t start, uint64_t pages) override {
    return extents_.Free(start, pages, [this](uint64_t lba) {
      return ftl_->mapper().Trim(lba);
    });
  }
  const ExtentAllocator& extents() const { return extents_; }

  Status SubmitBatch(IoBatch* batch, SimTime issue,
                     IoTicket* ticket) override {
    return ftl_->SubmitBatch(batch, issue, ticket);
  }
  Status WaitBatch(IoTicket ticket, SimTime* complete) override {
    return ftl_->WaitBatch(ticket, complete);
  }
  size_t PollCompletions(SimTime until) override {
    return ftl_->PollCompletions(until);
  }

 private:
  ftl::PageMappingFtl* ftl_;
  ExtentAllocator extents_;
};

}  // namespace noftl::storage
