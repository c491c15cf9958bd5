// §1 claim: the FTL's black-box abstraction wastes the DBMS's knowledge.
//
// A synthetic two-object workload — a small hot object taking most updates
// and a large cold object — runs against (a) the traditional SSD (page-
// mapping FTL behind a block interface, objects interleaved in one LBA
// space) and (b) NoFTL with two regions, hot and cold separated and the
// device's spare capacity placed where the writes land. Same flash, same
// logical traffic; the table reports what the architecture costs.
//
// Flags: dies=16 blocks=64 updates=200000 hot_frac=0.125 hot_writes=0.90
//        out=BENCH_ftl_vs_noftl.json
//
// Writes both runs and the shape check as JSON to `out` and exits non-zero
// when NoFTL does not beat the FTL on GC traffic.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "flash/device.h"
#include "ftl/page_ftl.h"
#include "noftl/region_manager.h"
#include "storage/space_provider.h"

namespace noftl::bench {
namespace {

struct RunStats {
  double write_us;
  double read_us;
  double wa;
  uint64_t copybacks;
  uint64_t erases;
};

flash::FlashGeometry Geometry(const Flags& flags) {
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel = static_cast<uint32_t>(flags.GetInt("dies", 16)) / 4;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 64));
  geo.pages_per_block = 64;
  geo.page_size = 4096;
  return geo;
}

/// Issue the workload through any (write, read) page functions. The load
/// phase runs first; measurement starts after the device drains and stats
/// reset, exactly like the TPC-C harness.
template <typename WriteFn, typename ReadFn>
void Drive(const Flags& flags, flash::FlashDevice* device, uint64_t hot_pages,
           uint64_t cold_pages, WriteFn&& write, ReadFn&& read) {
  const uint64_t updates = flags.GetInt("updates", 200000);
  const double hot_writes = flags.GetDouble("hot_writes", 0.90);
  Rng rng(99);

  // Populate both objects once.
  for (uint64_t p = 0; p < hot_pages + cold_pages; p++) write(p, 0);
  // Let the device drain the load burst, then measure from a clean slate.
  SimTime now = 0;
  for (flash::DieId die = 0; die < device->geometry().total_dies(); die++) {
    now = std::max(now, device->DieBusyUntil(die));
  }
  device->stats().Reset();

  // Steady-state: skewed updates with occasional reads (10%).
  for (uint64_t i = 0; i < updates; i++) {
    const bool hot = rng.NextDouble() < hot_writes;
    const uint64_t page =
        hot ? rng.Below(hot_pages) : hot_pages + rng.Below(cold_pages);
    now += 400;  // 2.5k updates/s offered load
    write(page, now);
    if (i % 10 == 0) {
      read(rng.Below(hot_pages + cold_pages), now);
    }
  }
}

RunStats RunFtl(const Flags& flags, uint64_t hot_pages, uint64_t cold_pages) {
  flash::FlashDevice device(Geometry(flags), flash::FlashTiming{});
  ftl::FtlOptions options;
  // Give the FTL the same physical spare the NoFTL run gets.
  options.over_provisioning = 0.0;
  ftl::PageMappingFtl ftl(&device, options);
  storage::FtlSpace space(&ftl);
  std::vector<char> buf(4096, 'x');

  Drive(flags, &device, hot_pages, cold_pages,
        [&](uint64_t page, SimTime now) {
          space.WritePage(page, now, buf.data(), 0, nullptr);
        },
        [&](uint64_t page, SimTime now) {
          space.ReadPage(page, now, buf.data(), nullptr);
        });

  const auto& s = device.stats();
  return {s.host_write_latency_us.Mean(), s.host_read_latency_us.Mean(),
          s.WriteAmplification(), s.gc_copybacks(), s.gc_erases()};
}

RunStats RunNoFtl(const Flags& flags, uint64_t hot_pages, uint64_t cold_pages) {
  flash::FlashGeometry geo = Geometry(flags);
  flash::FlashDevice device(geo, flash::FlashTiming{});
  region::RegionManager manager(&device);

  // Cold region: sized to its data plus a small margin. Hot region: small
  // footprint but all remaining dies — the spare capacity goes where the
  // writes land, which the DBMS knows and the FTL cannot (paper §2).
  const uint64_t usable_per_die =
      tpcc::UsablePagesPerDie(geo.blocks_per_die, geo.pages_per_block);
  const auto cold_dies = static_cast<uint32_t>(
      (cold_pages + cold_pages / 16 + usable_per_die - 1) / usable_per_die);
  const uint32_t hot_dies = geo.total_dies() - cold_dies;

  region::RegionOptions hot_options;
  hot_options.name = "hot";
  hot_options.max_chips = hot_dies;
  region::Region* hot = *manager.CreateRegion(hot_options);
  region::RegionOptions cold_options;
  cold_options.name = "cold";
  cold_options.max_chips = cold_dies;
  region::Region* cold = *manager.CreateRegion(cold_options);

  std::vector<char> buf(4096, 'x');
  Drive(flags, &device, hot_pages, cold_pages,
        [&](uint64_t page, SimTime now) {
          if (page < hot_pages) {
            hot->WritePage(page, now, buf.data(), 1, nullptr);
          } else {
            cold->WritePage(page - hot_pages, now, buf.data(), 2, nullptr);
          }
        },
        [&](uint64_t page, SimTime now) {
          if (page < hot_pages) {
            hot->ReadPage(page, now, buf.data(), nullptr);
          } else {
            cold->ReadPage(page - hot_pages, now, buf.data(), nullptr);
          }
        });

  const auto& s = device.stats();
  return {s.host_write_latency_us.Mean(), s.host_read_latency_us.Mean(),
          s.WriteAmplification(), s.gc_copybacks(), s.gc_erases()};
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  flash::FlashGeometry geo = Geometry(flags);
  const double hot_frac = flags.GetDouble("hot_frac", 0.125);
  // Fill ~65% of the device's usable space (leaves the hot region enough
  // dies for its write stream when the cold data takes its share).
  const uint64_t usable =
      geo.total_dies() *
      tpcc::UsablePagesPerDie(geo.blocks_per_die, geo.pages_per_block);
  const auto data_pages = static_cast<uint64_t>(0.65 * usable);
  const auto hot_pages = static_cast<uint64_t>(hot_frac * data_pages);
  const uint64_t cold_pages = data_pages - hot_pages;

  printf("FTL (traditional SSD) vs NoFTL regions — skewed update workload\n");
  printf("device: %s\n", geo.ToString().c_str());
  printf("objects: hot %llu pages (%.0f%% of writes), cold %llu pages\n\n",
         static_cast<unsigned long long>(hot_pages),
         100 * flags.GetDouble("hot_writes", 0.90),
         static_cast<unsigned long long>(cold_pages));

  const RunStats ftl = RunFtl(flags, hot_pages, cold_pages);
  const RunStats noftl = RunNoFtl(flags, hot_pages, cold_pages);

  printf("%-22s %14s %14s %8s\n", "", "FTL", "NoFTL", "ratio");
  PrintRule(62);
  auto row = [](const char* name, double a, double b) {
    printf("%-22s %14.2f %14.2f %7.2fx\n", name, a, b, a != 0 ? b / a : 0);
  };
  row("WRITE 4KB (us)", ftl.write_us, noftl.write_us);
  row("READ 4KB (us)", ftl.read_us, noftl.read_us);
  row("write amplification", ftl.wa, noftl.wa);
  row("GC COPYBACKs", static_cast<double>(ftl.copybacks),
      static_cast<double>(noftl.copybacks));
  row("GC ERASEs", static_cast<double>(ftl.erases),
      static_cast<double>(noftl.erases));
  PrintRule(62);
  printf("\nshape: NoFTL separation must cut copybacks and write "
         "amplification;\nthe FTL mixes both objects into one append stream "
         "and pays GC for it.\n");
  const bool ok = noftl.copybacks < ftl.copybacks && noftl.wa < ftl.wa;
  printf("[%s] NoFTL beats the FTL on GC traffic\n", ok ? "ok" : "MISS");

  auto run_json = [](const RunStats& r) {
    JsonObject j;
    j.Set("write_4k_us", r.write_us)
        .Set("read_4k_us", r.read_us)
        .Set("write_amp", r.wa)
        .Set("gc_copybacks", r.copybacks)
        .Set("gc_erases", r.erases);
    return j;
  };
  JsonObject config;
  config.Set("device", geo.ToString())
      .Set("updates", flags.GetInt("updates", 200000))
      .Set("hot_writes", flags.GetDouble("hot_writes", 0.90))
      .Set("hot_pages", hot_pages)
      .Set("cold_pages", cold_pages);
  JsonObject out;
  out.Set("bench", std::string("ftl_vs_noftl"))
      .Set("config", config)
      .Set("ftl", run_json(ftl))
      .Set("noftl", run_json(noftl))
      .Set("shape_ok", ok ? 1 : 0);
  const std::string path = flags.GetString("out", "BENCH_ftl_vs_noftl.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());
  if (!ok) {
    fprintf(stderr, "GATE FAILED: NoFTL does not cut GC copybacks and "
                    "write amplification below the FTL's\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
