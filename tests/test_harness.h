// Shared test fixture: a small native-flash stack (device -> region ->
// tablespace -> buffer pool) for storage/index tests.
#pragma once

#include <memory>

#include "buffer/buffer_pool.h"
#include "flash/device.h"
#include "noftl/region_manager.h"
#include "storage/tablespace.h"
#include "txn/txn.h"

namespace noftl::test {

struct StackOptions {
  uint32_t channels = 2;
  uint32_t dies_per_channel = 2;
  uint32_t blocks_per_die = 64;
  uint32_t pages_per_block = 16;
  uint32_t page_size = 512;
  uint32_t region_dies = 4;
  uint32_t frames = 64;
  uint32_t extent_pages = 8;
};

/// Builds the full native stack with one region and one tablespace.
class NativeStack {
 public:
  explicit NativeStack(const StackOptions& o = {}) {
    flash::FlashGeometry geo;
    geo.channels = o.channels;
    geo.dies_per_channel = o.dies_per_channel;
    geo.planes_per_die = 1;
    geo.blocks_per_die = o.blocks_per_die;
    geo.pages_per_block = o.pages_per_block;
    geo.page_size = o.page_size;
    device = std::make_unique<flash::FlashDevice>(geo, flash::FlashTiming{});
    manager = std::make_unique<region::RegionManager>(device.get());

    region::RegionOptions ro;
    ro.name = "rg_test";
    ro.max_chips = o.region_dies;
    rg = *manager->CreateRegion(ro);

    storage::TablespaceOptions tso;
    tso.name = "ts_test";
    tso.extent_pages = o.extent_pages;
    tablespace = std::make_unique<storage::Tablespace>(1, tso, rg);

    buffer::BufferOptions bo;
    bo.frame_count = o.frames;
    pool = std::make_unique<buffer::BufferPool>(bo, o.page_size);
    pool->RegisterTablespace(tablespace.get());
  }

  std::unique_ptr<flash::FlashDevice> device;
  std::unique_ptr<region::RegionManager> manager;
  region::Region* rg = nullptr;
  std::unique_ptr<storage::Tablespace> tablespace;
  std::unique_ptr<buffer::BufferPool> pool;
  txn::TxnContext ctx;
};

}  // namespace noftl::test
