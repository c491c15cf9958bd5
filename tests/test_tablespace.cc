// Tablespace tests: extent growth, page allocation/free, object
// attribution, provider resolution, the FTL-backed variant, and the extent
// allocator both page spaces (region and FtlSpace) share.
#include <gtest/gtest.h>

#include "storage/extent_allocator.h"
#include "storage/space_provider.h"
#include "storage/tablespace.h"
#include "test_harness.h"

namespace noftl::storage {
namespace {

using test::NativeStack;
using test::StackOptions;

class TablespaceTest : public ::testing::Test {
 protected:
  NativeStack stack_;
};

TEST_F(TablespaceTest, AllocatesPagesAcrossExtents) {
  Tablespace* ts = stack_.tablespace.get();
  // Extent size is 8 pages in the harness; 20 pages = 3 extents.
  for (uint64_t i = 0; i < 20; i++) {
    auto page = ts->AllocatePage(/*object_id=*/5);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, i);  // dense numbering
  }
  EXPECT_EQ(ts->page_count(), 20u);
  // Region-side extents: 3 x 8 pages drawn.
  EXPECT_EQ(stack_.rg->extents().FreePages(),
            stack_.rg->logical_pages() - 24);
}

TEST_F(TablespaceTest, ObjectAttributionPerPage) {
  Tablespace* ts = stack_.tablespace.get();
  ASSERT_TRUE(ts->AllocatePage(1).ok());
  ASSERT_TRUE(ts->AllocatePage(2).ok());
  ASSERT_TRUE(ts->AllocatePage(1).ok());
  EXPECT_EQ(ts->ObjectOf(0), 1u);
  EXPECT_EQ(ts->ObjectOf(1), 2u);
  EXPECT_EQ(ts->ObjectOf(2), 1u);
  auto by_object = ts->PageCountByObject();
  EXPECT_EQ(by_object[1], 2u);
  EXPECT_EQ(by_object[2], 1u);
}

TEST_F(TablespaceTest, WriteTagsFlashWithObjectId) {
  Tablespace* ts = stack_.tablespace.get();
  auto page = ts->AllocatePage(/*object_id=*/9);
  ASSERT_TRUE(page.ok());
  std::vector<char> data(ts->page_size(), 't');
  SimTime done = 0;
  ASSERT_TRUE(ts->WritePageRaw(*page, 0, data.data(), &done).ok());
  // The region's flash copy carries the object id in OOB metadata.
  auto addr = stack_.rg->mapper().Lookup(0);  // first extent starts at rlpn 0
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(stack_.device->PeekMetadata(*addr).object_id, 9u);
}

TEST_F(TablespaceTest, ReadBeyondAllocationFails) {
  Tablespace* ts = stack_.tablespace.get();
  std::vector<char> buf(ts->page_size());
  SimTime done = 0;
  EXPECT_TRUE(ts->ReadPageRaw(0, 0, buf.data(), &done).IsOutOfRange());
  ASSERT_TRUE(ts->AllocatePage(1).ok());
  // Allocated but never written: the region reports NotFound.
  EXPECT_TRUE(ts->ReadPageRaw(0, 0, buf.data(), &done).IsNotFound());
}

TEST_F(TablespaceTest, RoundTripThroughProvider) {
  Tablespace* ts = stack_.tablespace.get();
  auto page = ts->AllocatePage(1);
  ASSERT_TRUE(page.ok());
  std::vector<char> data(ts->page_size(), 'r');
  std::vector<char> buf(ts->page_size(), 0);
  SimTime done = 0;
  ASSERT_TRUE(ts->WritePageRaw(*page, 0, data.data(), &done).ok());
  ASSERT_TRUE(ts->ReadPageRaw(*page, done, buf.data(), &done).ok());
  EXPECT_EQ(buf, data);
}

TEST_F(TablespaceTest, FreedPagesAreTrimmedAndReused) {
  Tablespace* ts = stack_.tablespace.get();
  auto page = ts->AllocatePage(3);
  ASSERT_TRUE(page.ok());
  std::vector<char> data(ts->page_size(), 'f');
  ASSERT_TRUE(ts->WritePageRaw(*page, 0, data.data(), nullptr).ok());
  EXPECT_EQ(stack_.rg->mapper().valid_pages(), 1u);

  ASSERT_TRUE(ts->FreePage(*page).ok());
  EXPECT_EQ(stack_.rg->mapper().valid_pages(), 0u);  // trimmed on flash

  auto again = ts->AllocatePage(4);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *page);  // page number recycled
  EXPECT_EQ(ts->ObjectOf(*again), 4u);
}

TEST_F(TablespaceTest, IoStatsAttribution) {
  Tablespace* ts = stack_.tablespace.get();
  ObjectIoStats stats;
  ts->SetIoStats(&stats);
  auto p1 = ts->AllocatePage(1);
  auto p2 = ts->AllocatePage(2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  std::vector<char> data(ts->page_size(), 's');
  ASSERT_TRUE(ts->WritePageRaw(*p1, 0, data.data(), nullptr).ok());
  ASSERT_TRUE(ts->WritePageRaw(*p1, 0, data.data(), nullptr).ok());
  ASSERT_TRUE(ts->WritePageRaw(*p2, 0, data.data(), nullptr).ok());
  ASSERT_TRUE(ts->ReadPageRaw(*p2, 0, data.data(), nullptr).ok());
  EXPECT_EQ(stats.Get(1).writes, 2u);
  EXPECT_EQ(stats.Get(1).reads, 0u);
  EXPECT_EQ(stats.Get(2).writes, 1u);
  EXPECT_EQ(stats.Get(2).reads, 1u);
  EXPECT_EQ(stats.Get(99).reads, 0u);
  stats.Reset();
  EXPECT_EQ(stats.Get(1).writes, 0u);
}

TEST(FtlTablespaceTest, WorksOverBlockDevice) {
  flash::FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 32;
  geo.pages_per_block = 16;
  geo.page_size = 512;
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::PageMappingFtl ftl(&device, ftl::FtlOptions{});
  storage::FtlSpace space(&ftl);

  TablespaceOptions options;
  options.name = "ts_ftl";
  options.extent_pages = 8;
  Tablespace ts(1, options, &space);

  auto page = ts.AllocatePage(7);
  ASSERT_TRUE(page.ok());
  std::vector<char> data(512, 'b');
  std::vector<char> buf(512, 0);
  SimTime done = 0;
  ASSERT_TRUE(ts.WritePageRaw(*page, 0, data.data(), &done).ok());
  ASSERT_TRUE(ts.ReadPageRaw(*page, done, buf.data(), &done).ok());
  EXPECT_EQ(buf, data);
  // Behind the block interface the object id is invisible on flash.
  auto addr = ftl.mapper().Lookup(0);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(device.PeekMetadata(*addr).object_id, 0u);
}

/// The extent-allocation contract of a page space of `capacity` pages that
/// starts empty: first-fit reuse of freed extents, coalescing with both
/// neighbours and with the unallocated tail, and out-of-range frees refused.
void ExpectExtentAllocatorContract(SpaceProvider* space,
                                   const ExtentAllocator& extents,
                                   uint64_t capacity) {
  ASSERT_GT(capacity, 64u);
  ASSERT_EQ(extents.FreePages(), capacity);
  // Five 8-page extents, packed from the front: 0, 8, 16, 24, 32.
  for (uint64_t i = 0; i < 5; i++) {
    auto e = space->AllocateExtent(8);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    EXPECT_EQ(*e, 8 * i);
  }
  EXPECT_EQ(extents.FreePages(), capacity - 40);

  // First fit: a freed extent is reused before the tail at 40.
  ASSERT_TRUE(space->FreeExtent(8, 8).ok());
  auto reused = space->AllocateExtent(8);
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, 8u);

  // Free [8,16) and [24,32), then [16,24) between them: the three merge
  // into one 24-page hole, which a 24-page extent fits ahead of the tail.
  ASSERT_TRUE(space->FreeExtent(8, 8).ok());
  ASSERT_TRUE(space->FreeExtent(24, 8).ok());
  ASSERT_TRUE(space->FreeExtent(16, 8).ok());
  EXPECT_EQ(extents.FreePages(), capacity - 16);
  auto merged = space->AllocateExtent(24);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 8u);

  // Freeing the last extent merges it into the unallocated tail: the rest
  // of the space is then one extent starting at 32.
  ASSERT_TRUE(space->FreeExtent(32, 8).ok());
  auto rest = space->AllocateExtent(capacity - 32);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(*rest, 32u);
  EXPECT_EQ(extents.FreePages(), 0u);
  EXPECT_TRUE(space->AllocateExtent(1).status().IsNoSpace());

  // A range reaching past the end is refused and frees nothing.
  EXPECT_TRUE(space->FreeExtent(capacity - 4, 8).IsOutOfRange());
  EXPECT_TRUE(space->FreeExtent(capacity, 1).IsOutOfRange());
  EXPECT_EQ(extents.FreePages(), 0u);

  // Everything back: one span again.
  ASSERT_TRUE(space->FreeExtent(32, capacity - 32).ok());
  ASSERT_TRUE(space->FreeExtent(8, 24).ok());
  ASSERT_TRUE(space->FreeExtent(0, 8).ok());
  auto all = space->AllocateExtent(capacity);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0u);
}

TEST(ExtentAllocatorTest, RegionAndFtlSpaceShareOneContract) {
  NativeStack native;
  ExpectExtentAllocatorContract(native.rg, native.rg->extents(),
                                native.rg->logical_pages());

  flash::FlashDevice device(native.device->geometry(), flash::FlashTiming{});
  ftl::PageMappingFtl ftl(&device, ftl::FtlOptions{});
  FtlSpace space(&ftl);
  ExpectExtentAllocatorContract(&space, space.extents(), ftl.sector_count());
}

}  // namespace
}  // namespace noftl::storage
