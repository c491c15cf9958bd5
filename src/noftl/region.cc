#include "noftl/region.h"

#include <cassert>

#include "ftl/checkpoint.h"

namespace noftl::region {

Result<uint64_t> RegionLogicalPages(const flash::FlashGeometry& geometry,
                                    const RegionOptions& options,
                                    size_t die_count) {
  // GC headroom plus the checkpoint slots reserved at the top of each die.
  const uint64_t reserve_blocks =
      options.mapper.gc_high_watermark + 2 +
      ftl::CheckpointStore::ReservedBlocksPerDie(
          geometry, options.mapper.checkpoint_slots);
  if (geometry.blocks_per_die <= reserve_blocks) {
    return Status::InvalidArgument(
        "die too small for GC + checkpoint reserve");
  }
  const uint64_t usable = die_count *
                          (geometry.blocks_per_die - reserve_blocks) *
                          geometry.pages_per_block;
  if (options.max_size_bytes == 0) return usable;
  const uint64_t requested = options.max_size_bytes / geometry.page_size;
  if (requested > usable) {
    return Status::NoSpace("MAX_SIZE exceeds usable capacity of " +
                           std::to_string(die_count) + " dies");
  }
  return requested;
}

namespace {
std::unique_ptr<ftl::OutOfPlaceMapper> NewMapper(
    flash::FlashDevice* device, const RegionOptions& options,
    std::vector<flash::DieId> dies) {
  auto logical = RegionLogicalPages(device->geometry(), options, dies.size());
  assert(logical.ok());
  return std::make_unique<ftl::OutOfPlaceMapper>(device, std::move(dies),
                                                 *logical, options.mapper);
}
}  // namespace

Region::Region(RegionId id, const RegionOptions& options,
               flash::FlashDevice* device, std::vector<flash::DieId> dies)
    : id_(id),
      options_(options),
      device_(device),
      mapper_(NewMapper(device, options, std::move(dies))),
      extents_(mapper_->logical_pages(), "region " + options.name) {}

uint32_t Region::page_size() const { return device_->geometry().page_size; }

}  // namespace noftl::region
