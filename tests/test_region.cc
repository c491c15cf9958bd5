// Tests for NoFTL regions and the RegionManager: CREATE REGION semantics,
// die allocation across channels, extent allocation, logical sizing
// (MAX_SIZE), drop rules, and global wear leveling via die swaps.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flash/device.h"
#include "noftl/region.h"
#include "noftl/region_manager.h"

namespace noftl::region {
namespace {

flash::FlashGeometry TestGeometry() {
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel = 4;  // 16 dies
  geo.planes_per_die = 1;
  geo.blocks_per_die = 16;
  geo.pages_per_block = 8;
  geo.page_size = 512;
  return geo;
}

class RegionTest : public ::testing::Test {
 protected:
  RegionTest()
      : device_(TestGeometry(), flash::FlashTiming{}), manager_(&device_) {}

  RegionOptions Options(const std::string& name, uint32_t chips,
                        uint32_t channels = 0, uint64_t max_size = 0) {
    RegionOptions o;
    o.name = name;
    o.max_chips = chips;
    o.max_channels = channels;
    o.max_size_bytes = max_size;
    return o;
  }

  flash::FlashDevice device_;
  RegionManager manager_;
};

TEST_F(RegionTest, CreateAllocatesRequestedDies) {
  auto rg = manager_.CreateRegion(Options("rg1", 4));
  ASSERT_TRUE(rg.ok()) << rg.status().ToString();
  EXPECT_EQ((*rg)->dies().size(), 4u);
  EXPECT_EQ(manager_.free_dies(), 12u);
  // Usable: 4 dies x (16 - 6 reserve) x 8 = 320 pages.
  EXPECT_EQ((*rg)->logical_pages(), 320u);
}

TEST_F(RegionTest, DiesSpreadAcrossChannels) {
  auto rg = manager_.CreateRegion(Options("rg1", 4));
  ASSERT_TRUE(rg.ok());
  std::set<uint32_t> channels;
  for (auto die : (*rg)->dies()) {
    channels.insert(TestGeometry().channel_of(die));
  }
  EXPECT_EQ(channels.size(), 4u);  // one die from each channel
}

TEST_F(RegionTest, MaxChannelsConstrainsAllocation) {
  auto rg = manager_.CreateRegion(Options("rg1", 4, /*channels=*/2));
  ASSERT_TRUE(rg.ok());
  std::set<uint32_t> channels;
  for (auto die : (*rg)->dies()) {
    channels.insert(TestGeometry().channel_of(die));
  }
  EXPECT_LE(channels.size(), 2u);
}

TEST_F(RegionTest, MaxChannelsTooTightFails) {
  // 1 channel has 4 dies; asking for 8 dies over 1 channel must fail.
  auto rg = manager_.CreateRegion(Options("rg1", 8, /*channels=*/1));
  EXPECT_TRUE(rg.status().IsNoSpace());
  EXPECT_EQ(manager_.free_dies(), 16u);  // nothing leaked
}

TEST_F(RegionTest, MaxSizeCapsLogicalSpace) {
  // 2 dies usable = 2 x 10 x 8 = 160 pages; cap at 64 pages = 32 KiB.
  auto rg = manager_.CreateRegion(Options("rg1", 2, 0, 64 * 512));
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ((*rg)->logical_pages(), 64u);
}

TEST_F(RegionTest, MaxSizeBeyondCapacityFails) {
  auto rg = manager_.CreateRegion(Options("rg1", 2, 0, 10 << 20));
  EXPECT_TRUE(rg.status().IsNoSpace());
}

TEST_F(RegionTest, DuplicateNameRejected) {
  ASSERT_TRUE(manager_.CreateRegion(Options("rg1", 2)).ok());
  EXPECT_TRUE(manager_.CreateRegion(Options("rg1", 2)).status().IsAlreadyExists());
}

TEST_F(RegionTest, PoolExhaustionRejected) {
  ASSERT_TRUE(manager_.CreateRegion(Options("rg1", 10)).ok());
  EXPECT_TRUE(manager_.CreateRegion(Options("rg2", 10)).status().IsNoSpace());
}

TEST_F(RegionTest, RegionsOwnDisjointDies) {
  auto a = manager_.CreateRegion(Options("a", 6));
  auto b = manager_.CreateRegion(Options("b", 6));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::set<flash::DieId> all;
  for (auto d : (*a)->dies()) all.insert(d);
  for (auto d : (*b)->dies()) all.insert(d);
  EXPECT_EQ(all.size(), 12u);
}

TEST_F(RegionTest, PageIoRoundTrip) {
  auto rg = manager_.CreateRegion(Options("rg1", 2));
  ASSERT_TRUE(rg.ok());
  std::vector<char> data(512, 'p');
  SimTime done = 0;
  ASSERT_TRUE((*rg)->WritePage(10, 0, data.data(), /*object_id=*/5, &done).ok());
  std::vector<char> buf(512, 0);
  ASSERT_TRUE((*rg)->ReadPage(10, done, buf.data(), &done).ok());
  EXPECT_EQ(buf, data);
}

TEST_F(RegionTest, ExtentAllocationFirstFitAndCoalescing) {
  auto rg_result = manager_.CreateRegion(Options("rg1", 2));
  ASSERT_TRUE(rg_result.ok());
  Region* rg = *rg_result;

  auto e1 = rg->AllocateExtent(32);
  auto e2 = rg->AllocateExtent(32);
  auto e3 = rg->AllocateExtent(32);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(*e1, 0u);
  EXPECT_EQ(*e2, 32u);
  EXPECT_EQ(*e3, 64u);
  EXPECT_EQ(rg->extents().FreePages(), 160u - 96u);

  // Free the middle extent, then the first; they must coalesce so a 64-page
  // extent fits at offset 0 again.
  ASSERT_TRUE(rg->FreeExtent(*e2, 32).ok());
  ASSERT_TRUE(rg->FreeExtent(*e1, 32).ok());
  auto e4 = rg->AllocateExtent(64);
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(*e4, 0u);
}

TEST_F(RegionTest, ExtentExhaustionFails) {
  auto rg = manager_.CreateRegion(Options("rg1", 2));
  ASSERT_TRUE(rg.ok());
  auto e = (*rg)->AllocateExtent(161);  // logical is 160 pages
  EXPECT_TRUE(e.status().IsNoSpace());
}

TEST_F(RegionTest, FreeExtentTrimsPages) {
  auto rg = manager_.CreateRegion(Options("rg1", 2));
  ASSERT_TRUE(rg.ok());
  auto e = (*rg)->AllocateExtent(8);
  ASSERT_TRUE(e.ok());
  std::vector<char> data(512, 'x');
  for (uint64_t p = *e; p < *e + 8; p++) {
    ASSERT_TRUE((*rg)->WritePage(p, 0, data.data(), 1, nullptr).ok());
  }
  EXPECT_EQ((*rg)->mapper().valid_pages(), 8u);
  ASSERT_TRUE((*rg)->FreeExtent(*e, 8).ok());
  EXPECT_EQ((*rg)->mapper().valid_pages(), 0u);
}

TEST_F(RegionTest, DropRequiresEmptyRegion) {
  auto rg = manager_.CreateRegion(Options("rg1", 2));
  ASSERT_TRUE(rg.ok());
  std::vector<char> data(512, 'd');
  ASSERT_TRUE((*rg)->WritePage(0, 0, data.data(), 1, nullptr).ok());
  EXPECT_TRUE(manager_.DropRegion("rg1").IsBusy());
  ASSERT_TRUE((*rg)->TrimPage(0).ok());
  EXPECT_TRUE(manager_.DropRegion("rg1").ok());
  EXPECT_EQ(manager_.free_dies(), 16u);
  EXPECT_EQ(manager_.Get("rg1"), nullptr);
}

TEST_F(RegionTest, LookupByNameAndId) {
  auto rg = manager_.CreateRegion(Options("rgX", 2));
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ(manager_.Get("rgX"), *rg);
  EXPECT_EQ(manager_.Get((*rg)->id()), *rg);
  EXPECT_EQ(manager_.Get("nope"), nullptr);
  EXPECT_EQ(manager_.region_count(), 1u);
}

TEST(GlobalWearLevelingTest, SwapsDiesBetweenHotAndColdRegions) {
  // Two-die regions, and the one-die regions of the Figure 2 placement
  // (rg_meta, rg_item): a one-die region cannot drain its die first, so it
  // takes the incoming die, then drains. Both directions are covered.
  for (const auto& [hot_chips, cold_chips] :
       std::vector<std::pair<uint32_t, uint32_t>>{{2, 2}, {2, 1}, {1, 2}}) {
    SCOPED_TRACE("hot " + std::to_string(hot_chips) + " dies, cold " +
                 std::to_string(cold_chips));
    flash::FlashGeometry geo = TestGeometry();
    flash::FlashDevice device(geo, flash::FlashTiming{});
    GlobalWlOptions wl;
    wl.spread_threshold = 5.0;
    RegionManager manager(&device, wl);
    RegionOptions hot_options;
    hot_options.name = "hot";
    hot_options.max_chips = hot_chips;
    RegionOptions cold_options;
    cold_options.name = "cold";
    cold_options.max_chips = cold_chips;
    Region* hot = *manager.CreateRegion(hot_options);
    Region* cold = *manager.CreateRegion(cold_options);

    // Cold region: a little static data. Hot region: heavy churn.
    std::vector<char> data(geo.page_size, 'w');
    for (uint64_t p = 0; p < 20; p++) {
      ASSERT_TRUE(cold->WritePage(p, 0, data.data(), 1, nullptr).ok());
    }
    for (int round = 0; round < 300; round++) {
      for (uint64_t p = 0; p < 40; p++) {
        ASSERT_TRUE(hot->WritePage(p, 0, data.data(), 2, nullptr).ok());
      }
    }
    ASSERT_GT(manager.WearSpread(), wl.spread_threshold);
    const auto hot_before = hot->dies();
    const auto cold_before = cold->dies();

    bool swapped = false;
    ASSERT_TRUE(manager.RebalanceWear(0, &swapped).ok());
    ASSERT_TRUE(swapped);
    EXPECT_NE(hot->dies(), hot_before);
    EXPECT_NE(cold->dies(), cold_before);
    EXPECT_EQ(hot->dies().size(), hot_chips);
    EXPECT_EQ(cold->dies().size(), cold_chips);
    // The two regions traded dies and share none.
    std::set<flash::DieId> before(hot_before.begin(), hot_before.end());
    before.insert(cold_before.begin(), cold_before.end());
    std::set<flash::DieId> after;
    for (auto d : hot->dies()) after.insert(d);
    for (auto d : cold->dies()) after.insert(d);
    EXPECT_EQ(after, before);
    EXPECT_EQ(after.size(), hot_chips + cold_chips);

    std::vector<char> buf(geo.page_size);
    for (uint64_t p = 0; p < 20; p++) {
      ASSERT_TRUE(cold->ReadPage(p, 0, buf.data(), nullptr).ok());
      EXPECT_EQ(buf, data);
    }
    for (uint64_t p = 0; p < 40; p++) {
      ASSERT_TRUE(hot->ReadPage(p, 0, buf.data(), nullptr).ok());
      EXPECT_EQ(buf, data);
    }
    EXPECT_TRUE(hot->VerifyIntegrity().ok());
    EXPECT_TRUE(cold->VerifyIntegrity().ok());
  }
}

TEST(GlobalWearLevelingTest, NoSwapWhenBalanced) {
  flash::FlashDevice device(TestGeometry(), flash::FlashTiming{});
  RegionManager manager(&device);
  RegionOptions a;
  a.name = "a";
  a.max_chips = 2;
  RegionOptions b;
  b.name = "b";
  b.max_chips = 2;
  ASSERT_TRUE(manager.CreateRegion(a).ok());
  ASSERT_TRUE(manager.CreateRegion(b).ok());
  bool swapped = true;
  ASSERT_TRUE(manager.RebalanceWear(0, &swapped).ok());
  EXPECT_FALSE(swapped);
}

}  // namespace
}  // namespace noftl::region
