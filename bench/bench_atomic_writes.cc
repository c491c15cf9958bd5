// §1 advantage (iv): "direct control over the out-of-place updates ...
// allows implementing short atomic writes without additional overhead."
//
// A transaction updating k pages atomically:
//   * NoFTL      — one WriteAtomicBatch: k programs, batch-stamped OOB
//     metadata, mapping switched after the last program. Crash atomicity
//     comes for free from out-of-place updates.
//   * FTL        — the engine cannot control the mapping, so it does what
//     engines do on block devices: a doublewrite (journal the k pages to a
//     dedicated area, then write them home): 2k programs.
//
// The table reports flash programs, commit latency, GC traffic and wear per
// configuration across batch sizes.
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "flash/device.h"
#include "ftl/page_ftl.h"
#include "noftl/region_manager.h"
#include "storage/space_provider.h"

namespace noftl::bench {
namespace {

flash::FlashGeometry Geometry() {
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel = 2;  // 8 dies
  geo.blocks_per_die = 64;
  geo.pages_per_block = 64;
  geo.page_size = 4096;
  return geo;
}

struct Outcome {
  double commit_us;  ///< mean commit latency
  uint64_t programs;
  uint64_t copybacks;
  uint64_t erases;
};

Outcome RunNoFtl(uint32_t batch_pages, uint64_t commits) {
  flash::FlashGeometry geo = Geometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  region::RegionManager manager(&device);
  region::RegionOptions options;
  options.name = "rg";
  options.max_chips = geo.total_dies();
  region::Region* rg = *manager.CreateRegion(options);

  const uint64_t working_set = rg->logical_pages() * 3 / 4;
  for (uint64_t p = 0; p < working_set; p++) {
    rg->WritePage(p, 0, nullptr, 0, nullptr);
  }
  device.stats().Reset();

  Rng rng(4);
  // Measure from a drained device (past the populate burst).
  SimTime now = 0;
  for (flash::DieId d = 0; d < geo.total_dies(); d++) {
    now = std::max(now, device.DieBusyUntil(d));
  }
  double total_latency = 0;
  for (uint64_t c = 0; c < commits; c++) {
    std::vector<ftl::OutOfPlaceMapper::BatchPage> batch;
    std::set<uint64_t> used;
    while (batch.size() < batch_pages) {
      const uint64_t lpn = rng.Below(working_set);
      if (used.insert(lpn).second) batch.push_back({lpn, nullptr});
    }
    now += 1500 * batch_pages;  // offered load below device capacity
    SimTime done = now;
    Status s = rg->WriteAtomic(batch, now, 0, &done);
    if (!s.ok()) {
      fprintf(stderr, "atomic write failed: %s\n", s.ToString().c_str());
      exit(1);
    }
    total_latency += static_cast<double>(done - now);
  }
  const auto& st = device.stats();
  return {total_latency / static_cast<double>(commits), st.host_writes(),
          st.gc_copybacks(), st.gc_erases()};
}

Outcome RunFtlDoublewrite(uint32_t batch_pages, uint64_t commits) {
  flash::FlashGeometry geo = Geometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::PageMappingFtl ftl(&device, ftl::FtlOptions{});
  storage::FtlSpace space(&ftl);

  // Reserve a journal window at the top of the LBA space.
  const uint64_t journal_pages = 1024;
  const uint64_t journal_base = ftl.sector_count() - journal_pages;
  const uint64_t working_set = (ftl.sector_count() - journal_pages) * 3 / 4;
  for (uint64_t p = 0; p < working_set; p++) {
    space.WritePage(p, 0, nullptr, 0, nullptr);
  }
  device.stats().Reset();

  Rng rng(4);
  SimTime now = 0;
  for (flash::DieId d = 0; d < geo.total_dies(); d++) {
    now = std::max(now, device.DieBusyUntil(d));
  }
  uint64_t journal_cursor = 0;
  double total_latency = 0;
  for (uint64_t c = 0; c < commits; c++) {
    std::vector<uint64_t> batch;
    std::set<uint64_t> used;
    while (batch.size() < batch_pages) {
      const uint64_t lpn = rng.Below(working_set);
      if (used.insert(lpn).second) batch.push_back(lpn);
    }
    now += 1500 * batch_pages;  // same offered load as the NoFTL run
    SimTime done = now;
    // Phase 1: journal the new images (sequential window, wraps around).
    for (size_t i = 0; i < batch.size(); i++) {
      SimTime t = now;
      Status s = space.WritePage(journal_base +
                                     (journal_cursor++ % journal_pages),
                                 now, nullptr, 0, &t);
      if (!s.ok()) {
        fprintf(stderr, "journal write failed: %s\n", s.ToString().c_str());
        exit(1);
      }
      done = std::max(done, t);
    }
    // Phase 2: write home only after the journal is durable.
    const SimTime home_start = done;
    for (uint64_t lpn : batch) {
      SimTime t = home_start;
      Status s = space.WritePage(lpn, home_start, nullptr, 0, &t);
      if (!s.ok()) {
        fprintf(stderr, "home write failed: %s\n", s.ToString().c_str());
        exit(1);
      }
      done = std::max(done, t);
    }
    total_latency += static_cast<double>(done - now);
  }
  const auto& st = device.stats();
  return {total_latency / static_cast<double>(commits), st.host_writes(),
          st.gc_copybacks(), st.gc_erases()};
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t commits = flags.GetInt("commits", 4000);

  printf("Atomic multi-page writes: NoFTL batch vs FTL doublewrite\n");
  printf("device: %s, %llu commits per point\n\n",
         Geometry().ToString().c_str(),
         static_cast<unsigned long long>(commits));
  printf("%-6s | %12s %12s %10s | %12s %12s %10s | %8s\n", "pages",
         "noftl us", "programs", "erases", "ftl us", "programs", "erases",
         "lat gain");
  PrintRule(100);
  for (uint32_t batch : {2u, 4u, 8u, 16u, 32u}) {
    const Outcome noftl = RunNoFtl(batch, commits);
    const Outcome ftl = RunFtlDoublewrite(batch, commits);
    printf("%-6u | %12.1f %12llu %10llu | %12.1f %12llu %10llu | %7.2fx\n",
           batch, noftl.commit_us,
           static_cast<unsigned long long>(noftl.programs),
           static_cast<unsigned long long>(noftl.erases), ftl.commit_us,
           static_cast<unsigned long long>(ftl.programs),
           static_cast<unsigned long long>(ftl.erases),
           ftl.commit_us / noftl.commit_us);
  }
  PrintRule(100);
  printf("\nshape: the doublewrite pays 2x the programs (and the journal's\n"
         "GC/wear) plus a serialization point between journal and home\n"
         "writes; the NoFTL batch commits in one flash pass.\n");
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
