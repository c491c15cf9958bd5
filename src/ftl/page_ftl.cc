#include "ftl/page_ftl.h"

#include <cassert>

#include "ftl/checkpoint.h"

namespace noftl::ftl {

namespace {
std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

uint64_t LogicalPagesFor(const flash::FlashGeometry& geo,
                         const FtlOptions& options) {
  const double keep = 1.0 - options.over_provisioning;
  const auto total = static_cast<double>(geo.total_pages());
  auto logical = static_cast<uint64_t>(total * keep);
  // Never export more than the mapper's GC reserve (plus any reserved
  // checkpoint slots) allows.
  const uint64_t reserve =
      static_cast<uint64_t>(geo.total_dies()) *
      (options.mapper.gc_high_watermark + 2 +
       CheckpointStore::ReservedBlocksPerDie(geo,
                                             options.mapper.checkpoint_slots)) *
      geo.pages_per_block;
  const uint64_t usable = geo.total_pages() - reserve;
  return std::min(logical, usable);
}
}  // namespace

PageMappingFtl::PageMappingFtl(flash::FlashDevice* device,
                               const FtlOptions& options)
    : device_(device), options_(options) {
  mapper_ = std::make_unique<OutOfPlaceMapper>(
      device, AllDies(device->geometry()),
      LogicalPagesFor(device->geometry(), options), options.mapper);
  assert(mapper_->CheckCapacity().ok());
}

uint32_t PageMappingFtl::sector_size() const {
  return device_->geometry().page_size;
}

Status PageMappingFtl::SubmitBatch(storage::IoBatch* batch, SimTime issue,
                                   storage::IoTicket* ticket) {
  // Object identity is invisible below the block interface (precisely the
  // paper's criticism), so every sector is tagged object 0. The ids come
  // back once the submission is enqueued: writes resolve at submit, pending
  // completions never read them, and the batch belongs to the caller, who
  // may resubmit it to an object-aware provider.
  std::vector<uint32_t> object_ids;
  object_ids.reserve(batch->size());
  for (storage::IoRequest& r : batch->requests()) {
    object_ids.push_back(r.object_id);
    r.object_id = 0;
  }
  const Status s = mapper_->SubmitBatch(batch, issue, ticket);
  for (size_t i = 0; i < object_ids.size(); i++) {
    batch->requests()[i].object_id = object_ids[i];
  }
  return s;
}

}  // namespace noftl::ftl
