// ExtentAllocator — the extent allocator of a logical page space: a NoFTL
// region's pages (region::Region) and the FTL's LBA space (FtlSpace) both
// hand out their extents through one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"

namespace noftl::storage {

/// First-fit over free spans of [0, capacity), kept sorted by start and
/// coalesced; the never-allocated tail is simply the last span, so freed
/// extents are reused before fresh space and create/drop cycles never leak.
class ExtentAllocator {
 public:
  /// `owner` names the space in NoSpace errors ("region rg_hot").
  ExtentAllocator(uint64_t capacity, std::string owner)
      : capacity_(capacity), owner_(std::move(owner)), free_{{0, capacity}} {}

  /// Allocate `pages` contiguous pages; returns the first.
  Result<uint64_t> Allocate(uint64_t pages) {
    if (pages == 0) return Status::InvalidArgument("empty extent");
    MutexLock lock(mu_);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->pages < pages) continue;
      const uint64_t start = it->start;
      it->start += pages;
      it->pages -= pages;
      if (it->pages == 0) free_.erase(it);
      return start;
    }
    return Status::NoSpace(owner_ + " has no extent of " +
                           std::to_string(pages) + " pages");
  }

  /// Return [start, start+pages) to the free list. `trim(page)` deallocates
  /// each page first, outside the lock, so the span is reusable only once
  /// its pages are gone; a range outside the space is rejected untouched.
  template <typename TrimFn>
  Status Free(uint64_t start, uint64_t pages, TrimFn&& trim) {
    if (start > capacity_ || pages > capacity_ - start) {
      return Status::OutOfRange("extent beyond " + owner_);
    }
    for (uint64_t p = start; p < start + pages; p++) {
      NOFTL_RETURN_IF_ERROR(trim(p));
    }
    MutexLock lock(mu_);
    auto it = std::lower_bound(
        free_.begin(), free_.end(), start,
        [](const Span& s, uint64_t v) { return s.start < v; });
    it = free_.insert(it, {start, pages});
    auto next = std::next(it);
    if (next != free_.end() && it->start + it->pages == next->start) {
      it->pages += next->pages;
      free_.erase(next);
    }
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->start + prev->pages == it->start) {
        prev->pages += it->pages;
        free_.erase(it);
      }
    }
    return Status::OK();
  }

  /// Pages not allocated to any extent.
  uint64_t FreePages() const {
    MutexLock lock(mu_);
    uint64_t total = 0;
    for (const Span& s : free_) total += s.pages;
    return total;
  }

 private:
  struct Span {
    uint64_t start;
    uint64_t pages;
  };

  const uint64_t capacity_;
  const std::string owner_;
  /// Ranked kBackendAlloc; never held across the trims or any other I/O.
  mutable Mutex mu_{LockRank::kBackendAlloc};
  std::vector<Span> free_ GUARDED_BY(mu_);
};

}  // namespace noftl::storage
