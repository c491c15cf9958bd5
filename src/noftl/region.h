// NoFTL regions — the paper's physical storage structure.
//
// A region is a set of flash dies over which data is striped, with its own
// out-of-place address translation, garbage collection, and wear leveling.
// Database objects with similar access properties are placed in the same
// region; objects with different properties in different, physically
// separate regions (hot/cold separation at object granularity).
//
// A region is itself a storage::SpaceProvider: tablespaces allocate
// *extents* from its logical page space and submit page I/O to it directly
// — the "Native Flash Interface" path of the paper's Figure 1, with no FTL,
// file system or forwarding layer in between. The blocking single-page
// calls are SpaceProvider's shared helpers over SubmitBatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/mapping.h"
#include "storage/extent_allocator.h"
#include "storage/io_batch.h"
#include "storage/space_provider.h"

namespace noftl::region {

using RegionId = uint32_t;

/// CREATE REGION parameters (paper §2):
///   CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
struct RegionOptions {
  std::string name;
  /// Number of dies ("chips") the region spans. Required, >= 1.
  uint32_t max_chips = 1;
  /// Distinct channels the dies may come from; 0 = no constraint.
  uint32_t max_channels = 0;
  /// Exported logical size in bytes; 0 = all usable capacity of the die set
  /// (physical capacity minus the per-die GC reserve).
  uint64_t max_size_bytes = 0;
  ftl::MapperOptions mapper;
};

/// A live region: die set + translation + GC/WL, plus the extent allocator
/// for the tablespaces bound to it.
class Region : public storage::SpaceProvider {
 public:
  Region(RegionId id, const RegionOptions& options,
         flash::FlashDevice* device, std::vector<flash::DieId> dies);

  RegionId id() const { return id_; }
  const std::string& name() const { return options_.name; }
  const RegionOptions& options() const { return options_; }
  std::vector<flash::DieId> dies() const { return mapper_->dies(); }
  uint64_t logical_pages() const { return mapper_->logical_pages(); }
  uint32_t page_size() const override;

  // --- storage::SpaceProvider ---

  /// Allocate a contiguous run of `pages` logical pages; returns the first
  /// logical page number. First-fit over the free span list.
  Result<uint64_t> AllocateExtent(uint64_t pages) override {
    return extents_.Allocate(pages);
  }

  /// Return an extent to the region; its pages are trimmed first.
  Status FreeExtent(uint64_t start, uint64_t pages) override {
    return extents_.Free(start, pages,
                         [this](uint64_t p) { return mapper_->Trim(p); });
  }

  /// Host-origin submission to the region's mapper (write requests carry
  /// their owning object id into the OOB metadata). See
  /// ftl::OutOfPlaceMapper::SubmitBatch for queueing and atomic batches.
  Status SubmitBatch(storage::IoBatch* batch, SimTime issue,
                     storage::IoTicket* ticket) override {
    return mapper_->SubmitBatch(batch, issue, ticket);
  }
  Status WaitBatch(storage::IoTicket ticket, SimTime* complete) override {
    return mapper_->WaitBatch(ticket, complete);
  }
  size_t PollCompletions(SimTime until) override {
    return mapper_->PollCompletions(until);
  }

  /// Atomic multi-page write (paper §1, advantage iv): either every page of
  /// the batch becomes visible or none does, with no journaling overhead —
  /// out-of-place updates plus a batch stamp in the OOB metadata suffice.
  Status WriteAtomic(const std::vector<ftl::OutOfPlaceMapper::BatchPage>& pages,
                     SimTime issue, uint32_t object_id, SimTime* complete) {
    return mapper_->WriteAtomicBatch(pages, issue, flash::OpOrigin::kHost,
                                     object_id, complete);
  }

  bool IsMapped(uint64_t rlpn) const { return mapper_->IsMapped(rlpn); }

  const storage::ExtentAllocator& extents() const { return extents_; }

  // --- Wear & maintenance ---

  double AvgEraseCount() const { return mapper_->AvgEraseCount(); }
  /// Cross-check the region's translation state (bitmaps, candidate
  /// buckets, free pools) against the device; O(physical pages).
  Status VerifyIntegrity() const { return mapper_->VerifyIntegrity(); }
  const ftl::MapperStats& stats() const { return mapper_->stats(); }
  ftl::OutOfPlaceMapper& mapper() { return *mapper_; }
  const ftl::OutOfPlaceMapper& mapper() const { return *mapper_; }

  /// Die-set reshaping used by global wear leveling.
  Status RemoveDie(flash::DieId die, SimTime issue) {
    return mapper_->RemoveDie(die, issue);
  }
  Status AddDie(flash::DieId die) { return mapper_->AddDie(die); }

 private:
  RegionId id_;
  RegionOptions options_;
  flash::FlashDevice* device_;
  std::unique_ptr<ftl::OutOfPlaceMapper> mapper_;
  /// Page I/O needs no region lock — it goes straight to the mapper, which
  /// has its own latch; the allocator has its own.
  storage::ExtentAllocator extents_;
};

/// Compute the logical page count a region of `dies` dies exports under
/// `options` (respecting MAX_SIZE and the GC reserve). NoSpace if MAX_SIZE
/// exceeds what the die set can safely back.
Result<uint64_t> RegionLogicalPages(const flash::FlashGeometry& geometry,
                                    const RegionOptions& options,
                                    size_t die_count);

}  // namespace noftl::region
