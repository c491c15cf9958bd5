// Tests for the traditional-SSD baseline (PageMappingFtl, driven through
// the FtlSpace the storage manager sees): block-device semantics,
// over-provisioning arithmetic, TRIM, and write amplification behaviour
// under sequential vs. random overwrite (the classic FTL story).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "flash/device.h"
#include "ftl/page_ftl.h"
#include "storage/space_provider.h"

namespace noftl::ftl {
namespace {

using storage::FtlSpace;

flash::FlashGeometry SmallGeometry() {
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 32;
  geo.pages_per_block = 16;
  geo.page_size = 512;
  return geo;
}

TEST(PageFtlTest, SectorCountHonoursOverProvisioning) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  FtlOptions options;
  options.over_provisioning = 0.25;
  PageMappingFtl ftl(&device, options);
  // 8 dies x 32 blk x 16 pg = 4096 physical pages; 25% OP -> 3072 sectors.
  EXPECT_EQ(ftl.sector_count(), 3072u);
  EXPECT_EQ(ftl.sector_size(), 512u);
}

TEST(PageFtlTest, SectorCountNeverExceedsGcReserveLimit) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  FtlOptions options;
  options.over_provisioning = 0.0;  // degenerate: ask for everything
  PageMappingFtl ftl(&device, options);
  // The mapper still keeps (high watermark + 2) blocks per die in reserve.
  const uint64_t reserve = 8ull * (options.mapper.gc_high_watermark + 2) * 16;
  EXPECT_EQ(ftl.sector_count(), 4096u - reserve);
  EXPECT_TRUE(ftl.mapper().CheckCapacity().ok());
}

TEST(PageFtlTest, WriteReadRoundTrip) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  PageMappingFtl ftl(&device, FtlOptions{});
  FtlSpace space(&ftl);
  std::vector<char> data(512, 'd');
  SimTime done = 0;
  ASSERT_TRUE(space.WritePage(100, 0, data.data(), 0, &done).ok());
  std::vector<char> buf(512, 0);
  ASSERT_TRUE(space.ReadPage(100, done, buf.data(), &done).ok());
  EXPECT_EQ(memcmp(buf.data(), data.data(), 512), 0);
}

TEST(PageFtlTest, ReadOfUnwrittenSectorFails) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  PageMappingFtl ftl(&device, FtlOptions{});
  FtlSpace space(&ftl);
  std::vector<char> buf(512);
  EXPECT_TRUE(space.ReadPage(5, 0, buf.data(), nullptr).IsNotFound());
}

TEST(PageFtlTest, TrimInvalidatesSector) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  PageMappingFtl ftl(&device, FtlOptions{});
  FtlSpace space(&ftl);
  std::vector<char> data(512, 't');
  ASSERT_TRUE(space.WritePage(9, 0, data.data(), 0, nullptr).ok());
  ASSERT_TRUE(space.TrimPage(9).ok());
  EXPECT_TRUE(space.ReadPage(9, 0, data.data(), nullptr).IsNotFound());
}

TEST(PageFtlTest, SustainedRandomOverwriteTriggersGc) {
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  FtlOptions options;
  options.over_provisioning = 0.15;
  PageMappingFtl ftl(&device, options);
  FtlSpace space(&ftl);
  std::vector<char> data(512, 'r');
  const uint64_t n = ftl.sector_count();

  // Fill the whole logical space once, then overwrite randomly 2x capacity.
  for (uint64_t lba = 0; lba < n; lba++) {
    ASSERT_TRUE(space.WritePage(lba, 0, data.data(), 0, nullptr).ok());
  }
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < 2 * n; i++) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ASSERT_TRUE(space.WritePage(x % n, 0, data.data(), 0, nullptr).ok());
  }
  const auto& stats = device.stats();
  EXPECT_GT(stats.gc_erases(), 0u);
  EXPECT_GT(stats.gc_copybacks(), 0u);
  // Random overwrites at 85% utilization must amplify writes.
  EXPECT_GT(stats.WriteAmplification(), 1.05);
  EXPECT_TRUE(ftl.mapper().VerifyIntegrity().ok());
}

TEST(PageFtlTest, SequentialOverwriteHasLowerWriteAmpThanRandom) {
  // The classic FTL result: sequential rewrites invalidate whole blocks
  // (cheap GC), random rewrites scatter invalidations (expensive GC).
  auto run = [](bool sequential) {
    flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
    FtlOptions options;
    options.over_provisioning = 0.12;
    PageMappingFtl ftl(&device, options);
    FtlSpace space(&ftl);
    std::vector<char> data(512, 's');
    const uint64_t n = ftl.sector_count();
    for (uint64_t lba = 0; lba < n; lba++) {
      EXPECT_TRUE(space.WritePage(lba, 0, data.data(), 0, nullptr).ok());
    }
    uint64_t x = 1234567ull;
    for (uint64_t i = 0; i < 3 * n; i++) {
      uint64_t lba;
      if (sequential) {
        lba = i % n;
      } else {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lba = x % n;
      }
      EXPECT_TRUE(space.WritePage(lba, 0, data.data(), 0, nullptr).ok());
    }
    return device.stats().WriteAmplification();
  };
  const double wa_seq = run(true);
  const double wa_rand = run(false);
  EXPECT_LT(wa_seq, wa_rand);
}

TEST(PageFtlTest, ObjectIdentityIsInvisible) {
  // Everything written through the block interface is tagged object 0,
  // whatever owner the storage manager names — the FTL cannot know better
  // (the paper's criticism).
  flash::FlashDevice device(SmallGeometry(), flash::FlashTiming{});
  PageMappingFtl ftl(&device, FtlOptions{});
  FtlSpace space(&ftl);
  std::vector<char> data(512, 'o');
  ASSERT_TRUE(
      space.WritePage(3, 0, data.data(), /*object_id=*/7, nullptr).ok());
  auto addr = ftl.mapper().Lookup(3);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(device.PeekMetadata(*addr).object_id, 0u);
}

}  // namespace
}  // namespace noftl::ftl
