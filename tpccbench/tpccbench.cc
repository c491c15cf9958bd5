// The repository's TPC-C benchmark: one workload per invocation, in two
// clocks.
//
// It drives transactions itself through the public tpcc::TpccTransactions
// calls with TpccDriver's semantics (a closed loop of 8 terminals ordered by
// the simulated clock, the 45/43/4/4/4 deck, warmup, think time, scheduler
// ticks behind the causality gate, Stock-Level on a snapshot when the
// workload asks for it). Every transaction call is timed with steady_clock,
// so the wall clock measures what the code costs while the simulated clock
// measures what the paper measures. The loop is checked against
// TpccDriver::Run by `--fidelity`.
//
// Usage:
//   tpccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//   tpccbench --fidelity <name> --seed <n>
//
// The last stdout line is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). The
// line before it is a JSON detail record (sample counts, sizes, digest).
// Exit status is 0 only when every correctness check passed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "flash/device.h"
#include "ftl/checkpoint.h"
#include "spans.h"
#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/schema.h"
#include "tpcc/tpcc_db.h"
#include "tpcc/transactions.h"

namespace tpccbench {
namespace {

namespace tp = noftl::tpcc;
using noftl::SimTime;
using noftl::Status;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kTerminals = 8;
constexpr uint32_t kDies = 64;
constexpr uint32_t kChannels = 16;
constexpr uint32_t kPagesPerBlock = 64;
constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kCheckpointSlots = 4;  // incremental checkpoints need > 2
constexpr uint32_t kRetryLimit = 3;        // TpccDriver's default
constexpr SimTime kRetryBackoffUs = 500;   // TpccDriver's default
// Warmup runs in windows until write amplification per window has levelled
// off (GC active and within kWarmupLevel of the previous window), bounded
// by kWarmupMaxWindows. Device capacity is sized for the bound.
constexpr uint64_t kWarmupWindow = 4000;
constexpr uint32_t kWarmupMinWindows = 3;
constexpr uint32_t kWarmupMaxWindows = 10;
constexpr double kWarmupLevel = 0.025;
constexpr int kSetupRepeats = 5;
// Think time per terminal on the idle-snapshot workload.
constexpr SimTime kIdleThinkUs = 20000;
// The traced run alternates traced and untraced windows of this many
// measured transactions; their throughput ratio is trace.overhead.
constexpr uint64_t kTraceWindow = 1000;
// txn_p99_us_wall is the mean of the p99s of consecutive windows of about
// this many measured transactions (50 samples beyond each p99). Delivery's
// cost grows through a run, so the p99 of the whole run is set by the last
// stretch of the run alone, and it spread between runs more than
// throughput_wall did; the mean over windows follows the whole run.
constexpr size_t kTailWindow = 5000;

struct Workload {
  const char* name;
  uint32_t frames;           ///< buffer-pool frames (4 KiB pages)
  /// Background scheduler ticked in the loop, kIdleThinkUs of think time
  /// per terminal, and every Stock-Level on an MVCC snapshot.
  bool idle_snapshot;
  uint64_t txns_per_second;  ///< measured transactions per --seconds
};

// Why each workload exists is recorded in BENCHMARK.json. The measured
// phase is a fixed transaction count, so every simulated-clock metric and
// the digest repeat exactly for one seed; --seconds scales that count.
const Workload kWorkloads[] = {
    {"tpcc-regions", 1024, false, 7000},
    {"tpcc-resident", 16384, false, 11500},
    {"tpcc-snapshot-idle", 1024, true, 6000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t Nanos(Clock::time_point from, Clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

// --- Database set-up -------------------------------------------------------

tp::TpccDbOptions MakeDbOptions(const Workload& w, uint64_t seed,
                                uint64_t planned_txns) {
  tp::TpccScale scale;
  scale.warehouses = 1;
  const uint64_t expected_new_orders = planned_txns * 45 / 100;
  noftl::db::DatabaseOptions o;
  o.geometry.channels = kChannels;
  o.geometry.dies_per_channel = kDies / kChannels;
  o.geometry.pages_per_block = kPagesPerBlock;
  o.geometry.page_size = kPageSize;
  o.geometry.blocks_per_die =
      tp::SuggestBlocksPerDie(scale, kPageSize, expected_new_orders, kDies,
                              kPagesPerBlock, /*target_utilization=*/0.80);
  // Checkpoint slots are reserved per die on top of the data capacity.
  const uint32_t slots = w.idle_snapshot ? kCheckpointSlots : 0;
  const uint32_t reserved =
      noftl::ftl::CheckpointStore::ReservedBlocksPerDie(o.geometry, slots);
  const uint32_t planes = o.geometry.planes_per_die;
  o.geometry.blocks_per_die =
      (o.geometry.blocks_per_die + reserved + planes - 1) / planes * planes;
  o.buffer.frame_count = w.frames;
  o.buffer.flush_batch = 16;
  o.buffer.flush_high_water = 0.20;
  // The idle-snapshot workload also checkpoints incrementally once a simulated
  // second and paces background erases, so the checkpoint and erase-pacing
  // counters have work to measure.
  if (w.idle_snapshot) {
    o.scheduler.enabled = true;
    o.scheduler.batch_pages = 4;
    o.scheduler.quanta_per_tick = 1;
    o.scheduler.gc_free_target = 0;
    o.scheduler.checkpoint_interval_us = 1000000;
    o.scheduler.erase_pace_window_us = 2000;
    o.default_mapper.checkpoint_slots = slots;
    o.default_mapper.incremental_checkpoints = true;
  }
  tp::TpccDbOptions t;
  t.db = o;
  t.scale = scale;
  t.placement = tp::DeriveFigure2Placement(
      scale, kPageSize, expected_new_orders, kDies,
      tp::UsablePagesPerDie(o.geometry.blocks_per_die - reserved,
                            kPagesPerBlock));
  t.seed = seed;
  return t;
}

// --- Counters read from the layers' public stats -------------------------

struct DeviceTotals {
  uint64_t host_reads = 0;
  uint64_t host_writes = 0;
  uint64_t programs = 0;
  uint64_t copybacks = 0;
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
};

DeviceTotals ReadDevice(noftl::db::Database* d) {
  DeviceTotals t;
  d->ForEachDevice([&](noftl::flash::FlashDevice* dev) {
    const auto& s = dev->stats();
    t.host_reads += s.host_reads();
    t.host_writes += s.host_writes();
    t.programs += s.total_programs();
    t.copybacks += s.total_copybacks();
    t.gc_copybacks += s.gc_copybacks();
    t.gc_erases += s.gc_erases();
  });
  return t;
}

struct MapperTotals {
  uint64_t victim_picks = 0;
  uint64_t victim_scan_steps = 0;
  uint64_t throttle_events = 0;
  uint64_t ckpt_incr_written = 0;
  uint64_t ckpt_bytes_incr = 0;
  uint64_t versions_retained = 0;
  uint64_t versions_reclaimed = 0;
  uint64_t snapshot_reads = 0;
};

MapperTotals ReadMappers(noftl::db::Database* d) {
  MapperTotals t;
  if (d->regions() == nullptr) return t;
  for (auto* rg : d->regions()->regions()) {
    const auto& s = rg->stats();
    t.victim_picks += s.victim_picks;
    t.victim_scan_steps += s.victim_scan_steps;
    t.throttle_events += s.throttle_events;
    t.ckpt_incr_written += s.ckpt_incr_written;
    t.ckpt_bytes_incr += s.ckpt_bytes_incr;
    t.versions_retained += s.versions_retained;
    t.versions_reclaimed += s.versions_reclaimed;
    t.snapshot_reads += s.snapshot_reads;
  }
  return t;
}

struct SchedTotals {
  uint64_t idle_grants = 0;
  uint64_t preemptions = 0;
  uint64_t bg_gc_pages = 0;
  uint64_t bg_erase_deferred = 0;
};

SchedTotals ReadSched(noftl::db::Database* d) {
  const noftl::sched::SchedulerStats s = d->SchedulerStatsTotal();
  SchedTotals t;
  t.idle_grants = s.idle_grants;
  t.preemptions = s.preemptions;
  t.bg_gc_pages = s.bg_gc_pages;
  t.bg_erase_deferred = s.bg_erase_deferred;
  return t;
}

SpanCounters ReadSpanCounters(noftl::db::Database* d) {
  SpanCounters c;
  const auto& b = d->buffer()->stats();
  c.page_fixes = b.hits + b.misses;
  const auto& f = d->device()->stats();
  c.host_reads = f.host_reads();
  c.host_writes = f.host_writes();
  return c;
}

SpanCounters Minus(const SpanCounters& a, const SpanCounters& b) {
  return {a.page_fixes - b.page_fixes, a.host_reads - b.host_reads,
          a.host_writes - b.host_writes};
}

// --- The transaction loop ---------------------------------------------------

std::vector<tp::TxnType> MakeDeck() {
  std::vector<tp::TxnType> deck;
  deck.insert(deck.end(), 45, tp::TxnType::kNewOrder);
  deck.insert(deck.end(), 43, tp::TxnType::kPayment);
  deck.insert(deck.end(), 4, tp::TxnType::kOrderStatus);
  deck.insert(deck.end(), 4, tp::TxnType::kDelivery);
  deck.insert(deck.end(), 4, tp::TxnType::kStockLevel);
  return deck;
}

const char* TxnSpanName(tp::TxnType type) {
  switch (type) {
    case tp::TxnType::kNewOrder: return "txn.neworder";
    case tp::TxnType::kPayment: return "txn.payment";
    case tp::TxnType::kOrderStatus: return "txn.orderstatus";
    case tp::TxnType::kDelivery: return "txn.delivery";
    case tp::TxnType::kStockLevel: return "txn.stocklevel";
  }
  return "txn.unknown";
}

struct LoopOptions {
  uint64_t seed = 0;        ///< the driver's deck-shuffle seed
  bool adaptive_warmup = true;
  uint64_t warmup = 0;      ///< used when adaptive_warmup is off; > 0
  uint64_t measured = 0;    ///< measured transactions (attempts)
  SimTime think_us = 0;
  bool snapshot_stocklevel = false;
  bool trace = false;
};

struct LoopResult {
  uint64_t warmup = 0;
  std::vector<double> warmup_wa;  ///< write amplification per warmup window

  // Measured phase.
  uint64_t attempted = 0;
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  uint64_t retries = 0;
  uint64_t giveups = 0;
  uint64_t errors = 0;
  Status error;
  SimTime measure_start = 0;
  SimTime end_time = 0;
  std::vector<uint32_t> resp_sim_us;        ///< every transaction
  std::vector<uint32_t> stocklevel_sim_us;
  std::vector<uint32_t> txn_wall_ns;
  double wall_s = 0;
  uint64_t type_count[tp::kNumTxnTypes] = {};
  uint64_t type_resp_us[tp::kNumTxnTypes] = {};
  uint64_t sum_resp_us = 0;
  uint64_t sum_read_wait_us = 0;
  uint64_t sum_write_wait_us = 0;
  uint64_t sum_pages_read = 0;
  uint64_t sum_pages_written_sync = 0;
  MapperTotals mapper_base;
  SchedTotals sched_base;
  uint64_t snapshot_opens = 0;
  uint64_t snapshot_scans = 0;
  uint64_t open_sim_us = 0;
  uint64_t open_flush_pages = 0;
  uint64_t retained_peak = 0;

  // Whole run (warmup + measured), for the digest cross-checks.
  uint64_t run_neworders = 0;
  uint64_t run_payments = 0;
  SimTime final_clock = 0;

  // Traced run.
  std::vector<Span> spans;
  uint64_t traced_txns = 0;
  uint64_t untraced_txns = 0;
  double traced_s = 0;
  double untraced_s = 0;
};

/// TpccDriver::Run's deterministic loop (shared rng streams, non-threaded),
/// timed per call. Returns the first non-transient error, which ends the
/// run the way it ends TpccDriver::Run; it is also counted in r->errors.
Status RunLoop(tp::TpccDb* db, const LoopOptions& opt, Clock::time_point t0,
               LoopResult* r) {
  noftl::db::Database* dbase = db->database();
  const tp::TpccScale& scale = db->scale();
  noftl::Rng rng(opt.seed);
  tp::TpccTransactions txns(db, db->rng(), db->nurand());
  txns.SetBatchedIo(true);

  struct Terminal {
    noftl::txn::TxnContext ctx;
    int32_t home_w = 0;
    int32_t stock_d = 0;
    std::vector<tp::TxnType> deck;
    size_t deck_pos = 0;
  };
  auto shuffle = [&](std::vector<tp::TxnType>* deck) {
    for (size_t k = deck->size(); k > 1; k--) {
      std::swap((*deck)[k - 1], (*deck)[rng.Below(k)]);
    }
  };
  std::vector<Terminal> terms(kTerminals);
  const SimTime start_time = db->load_end_time();
  for (uint32_t i = 0; i < kTerminals; i++) {
    Terminal& t = terms[i];
    t.ctx.now = start_time;
    t.home_w = static_cast<int32_t>(i % scale.warehouses) + 1;
    t.stock_d = static_cast<int32_t>(i % scale.districts_per_warehouse) + 1;
    t.deck = MakeDeck();
    shuffle(&t.deck);
  }
  using QEntry = std::pair<SimTime, uint32_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  for (uint32_t i = 0; i < kTerminals; i++) queue.push({start_time, i});

  uint64_t warmup = opt.adaptive_warmup ? ~0ull : opt.warmup;
  bool measuring = false;
  uint64_t total = 0;
  SimTime measure_start = start_time;
  SimTime end_time = start_time;
  DeviceTotals window_base = ReadDevice(dbase);
  uint32_t windows = 0;
  Clock::time_point phase_start = Clock::now();
  r->resp_sim_us.reserve(opt.measured);
  r->txn_wall_ns.reserve(opt.measured);
  if (opt.trace) r->spans.reserve(opt.measured + opt.measured / 8);

  auto retained_now = [&] {
    const MapperTotals m = ReadMappers(dbase);
    return m.versions_retained - m.versions_reclaimed;
  };

  Status failure;
  while (!queue.empty()) {
    if (measuring && total - warmup >= opt.measured) break;
    if (!measuring && total >= warmup) {
      // Warmup done: restart the measurement window at the current front of
      // the event queue, exactly as TpccDriver::Run does.
      measuring = true;
      dbase->ResetDeviceStats();
      dbase->buffer()->ResetStats();
      r->mapper_base = ReadMappers(dbase);
      r->sched_base = ReadSched(dbase);
      measure_start = queue.top().first;
      end_time = measure_start;
      r->warmup = total;
      phase_start = Clock::now();
    }
    const auto [when, idx] = queue.top();
    queue.pop();
    Terminal& t = terms[idx];
    if (t.deck_pos == t.deck.size()) {
      shuffle(&t.deck);
      t.deck_pos = 0;
    }
    const tp::TxnType type = t.deck[t.deck_pos++];
    dbase->SetShardPlacementHint(static_cast<uint64_t>(t.home_w));

    const bool traced =
        measuring && opt.trace && ((total - warmup) / kTraceWindow) % 2 == 0;
    const Clock::time_point iter_start =
        opt.trace ? Clock::now() : Clock::time_point{};
    SpanCounters c0;
    int64_t span_idx = -1;
    if (traced) {
      c0 = ReadSpanCounters(dbase);
      Span s;
      s.name = TxnSpanName(type);
      s.request = total;
      r->spans.push_back(s);
      span_idx = static_cast<int64_t>(r->spans.size() - 1);
    }
    auto child_span = [&](const char* name, Clock::time_point a,
                          Clock::time_point b) {
      Span s;
      s.name = name;
      s.start_ns = Nanos(t0, a);
      s.end_ns = Nanos(t0, b);
      s.parent = span_idx;
      s.request = total;
      r->spans.push_back(s);
    };

    const Clock::time_point txn_start = Clock::now();
    t.ctx.Begin(when);
    bool committed = true;
    Status s;
    uint32_t attempt = 0;
    for (;;) {
      committed = true;
      switch (type) {
        case tp::TxnType::kNewOrder:
          s = txns.NewOrder(&t.ctx, t.home_w, &committed);
          break;
        case tp::TxnType::kPayment:
          s = txns.Payment(&t.ctx, t.home_w);
          break;
        case tp::TxnType::kOrderStatus:
          s = txns.OrderStatus(&t.ctx, t.home_w);
          break;
        case tp::TxnType::kDelivery:
          s = txns.Delivery(&t.ctx, t.home_w);
          break;
        case tp::TxnType::kStockLevel: {
          uint64_t snap = 0;
          if (opt.snapshot_stocklevel) {
            const SimTime sim0 = t.ctx.now;
            const uint64_t writes0 =
                measuring ? dbase->device()->stats().host_writes() : 0;
            const auto a = Clock::now();
            auto opened = dbase->OpenSnapshot(&t.ctx);
            const auto b = Clock::now();
            if (traced) child_span("mvcc.open", a, b);
            if (measuring) {
              r->snapshot_opens++;
              r->open_sim_us += t.ctx.now - sim0;
              r->open_flush_pages +=
                  dbase->device()->stats().host_writes() - writes0;
            }
            if (opened.ok()) {
              snap = *opened;
              t.ctx.snapshot_seq = snap;
            }
          }
          s = txns.StockLevel(&t.ctx, t.home_w, t.stock_d);
          if (snap != 0) {
            if (measuring) {
              r->snapshot_scans++;
              if (opt.trace) {
                r->retained_peak = std::max(r->retained_peak, retained_now());
              }
            }
            t.ctx.snapshot_seq = 0;
            const auto a = Clock::now();
            dbase->ReleaseSnapshot(snap);
            const auto b = Clock::now();
            if (traced) child_span("mvcc.release", a, b);
          }
          break;
        }
      }
      if (s.ok()) break;
      // IOError (the mapper's read retries exhausted) and Busy are transient:
      // back off on this terminal's clock and re-run. Anything else ends the
      // run, as it ends TpccDriver::Run.
      if (!s.IsIOError() && !s.IsBusy()) break;
      if (attempt >= kRetryLimit) {
        if (measuring) r->giveups++;
        committed = false;
        s = Status::OK();
        break;
      }
      attempt++;
      if (measuring) r->retries++;
      t.ctx.Begin(t.ctx.now + kRetryBackoffUs * attempt);
    }
    const Clock::time_point txn_end = Clock::now();
    if (!s.ok()) {
      if (measuring) r->attempted++;
      r->errors++;
      failure = s;
      break;
    }
    if (traced) {
      Span& sp = r->spans[static_cast<size_t>(span_idx)];
      sp.start_ns = Nanos(t0, txn_start);
      sp.end_ns = Nanos(t0, txn_end);
      sp.delta = Minus(ReadSpanCounters(dbase), c0);
    }

    if (measuring) {
      const SimTime resp = t.ctx.ResponseTime();
      const int ti = static_cast<int>(type);
      r->attempted++;
      r->resp_sim_us.push_back(static_cast<uint32_t>(resp));
      if (type == tp::TxnType::kStockLevel) {
        r->stocklevel_sim_us.push_back(static_cast<uint32_t>(resp));
      }
      r->txn_wall_ns.push_back(
          static_cast<uint32_t>(std::min<uint64_t>(Nanos(txn_start, txn_end),
                                                   ~0u)));
      r->type_count[ti]++;
      r->type_resp_us[ti] += resp;
      r->sum_resp_us += resp;
      r->sum_read_wait_us += t.ctx.read_wait_us;
      r->sum_write_wait_us += t.ctx.write_wait_us;
      r->sum_pages_read += t.ctx.pages_read;
      r->sum_pages_written_sync += t.ctx.pages_written_sync;
      if (committed) {
        r->commits++;
      } else {
        r->rollbacks++;
      }
      end_time = std::max(end_time, t.ctx.now);
    }
    if (committed && type == tp::TxnType::kNewOrder) r->run_neworders++;
    if (committed && type == tp::TxnType::kPayment) r->run_payments++;
    total++;
    queue.push({t.ctx.now + opt.think_us, idx});
    // Background ticks only when this transaction's end precedes every
    // pending terminal event (die queues serve in call order).
    if (queue.empty() || t.ctx.now <= queue.top().first) {
      if (traced) {
        const auto a = Clock::now();
        dbase->TickSchedulers(t.ctx.now);
        const auto b = Clock::now();
        Span sp;
        sp.name = "sched.tick";
        sp.start_ns = Nanos(t0, a);
        sp.end_ns = Nanos(t0, b);
        sp.request = total - 1;
        r->spans.push_back(sp);
      } else {
        dbase->TickSchedulers(t.ctx.now);
      }
    }
    if (opt.trace && measuring) {
      const double d = Seconds(Clock::now() - iter_start);
      if (traced) {
        r->traced_txns++;
        r->traced_s += d;
      } else {
        r->untraced_txns++;
        r->untraced_s += d;
      }
    }

    if (!measuring && opt.adaptive_warmup && total % kWarmupWindow == 0) {
      const DeviceTotals now = ReadDevice(dbase);
      const uint64_t host = now.host_writes - window_base.host_writes;
      const uint64_t phys = (now.programs - window_base.programs) +
                            (now.copybacks - window_base.copybacks);
      const bool gc_active = now.gc_erases != window_base.gc_erases;
      const double wa =
          host ? static_cast<double>(phys) / static_cast<double>(host) : 1.0;
      const double prev = r->warmup_wa.empty() ? 0.0 : r->warmup_wa.back();
      r->warmup_wa.push_back(wa);
      windows++;
      const bool level = windows >= kWarmupMinWindows && gc_active &&
                         prev > 0 && std::fabs(wa - prev) <= kWarmupLevel * prev;
      if (level || windows >= kWarmupMaxWindows) warmup = total;
      window_base = now;
    }
  }
  r->wall_s = Seconds(Clock::now() - phase_start);
  r->measure_start = measure_start;
  r->end_time = end_time;
  for (const Terminal& t : terms) {
    r->final_clock = std::max(r->final_clock, t.ctx.now);
  }
  dbase->ClearShardPlacementHint();
  r->error = failure;
  return failure;
}

// --- Correctness checks ----------------------------------------------------

/// Interleaving-invariant committed-work digest: counts and counters only,
/// no timestamps (the same fields as bench_threads' TpccDigest).
struct Digest {
  uint64_t orders = 0;
  uint64_t order_lines = 0;
  uint64_t new_orders = 0;
  uint64_t history_rows = 0;
  uint64_t delivered_orders = 0;
  uint64_t sum_next_o_id = 0;
  uint64_t sum_payment_cnt = 0;

  bool operator==(const Digest&) const = default;

  std::string ToJson() const {
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "{\"orders\": %llu, \"order_lines\": %llu, \"new_orders\": %llu, "
        "\"history_rows\": %llu, \"delivered_orders\": %llu, "
        "\"sum_next_o_id\": %llu, \"sum_payment_cnt\": %llu}",
        static_cast<unsigned long long>(orders),
        static_cast<unsigned long long>(order_lines),
        static_cast<unsigned long long>(new_orders),
        static_cast<unsigned long long>(history_rows),
        static_cast<unsigned long long>(delivered_orders),
        static_cast<unsigned long long>(sum_next_o_id),
        static_cast<unsigned long long>(sum_payment_cnt));
    return buf;
  }
};

struct DbState {
  Digest digest;
  std::vector<double> w_ytd;        ///< indexed by warehouse id
  std::vector<double> d_ytd_sum;    ///< Σ D_YTD per warehouse
  std::vector<int32_t> next_o_id;   ///< (w - 1) * districts + (d - 1)
};

Status ReadState(tp::TpccDb* db, noftl::txn::TxnContext* ctx, DbState* st) {
  const tp::TpccScale& scale = db->scale();
  Digest& d = st->digest;
  d.orders = db->order->record_count();
  d.order_lines = db->order_line->record_count();
  d.new_orders = db->new_order->record_count();
  d.history_rows = db->history->record_count();
  st->w_ytd.assign(scale.warehouses + 1, 0.0);
  st->d_ytd_sum.assign(scale.warehouses + 1, 0.0);
  st->next_o_id.assign(
      static_cast<size_t>(scale.warehouses) * scale.districts_per_warehouse, 0);
  using noftl::Slice;
  using noftl::storage::RecordId;
  Status bad;
  auto in_range = [&](int32_t w) {
    return w >= 1 && static_cast<uint32_t>(w) <= scale.warehouses;
  };
  NOFTL_RETURN_IF_ERROR(db->warehouse->Scan(ctx, [&](RecordId, Slice row) {
    tp::WarehouseRow wr;
    std::memcpy(&wr, row.data(), sizeof(wr));
    if (!in_range(wr.w_id)) {
      bad = Status::Corruption("warehouse id out of range");
      return false;
    }
    st->w_ytd[static_cast<size_t>(wr.w_id)] = wr.ytd;
    return true;
  }));
  NOFTL_RETURN_IF_ERROR(db->district->Scan(ctx, [&](RecordId, Slice row) {
    tp::DistrictRow dr;
    std::memcpy(&dr, row.data(), sizeof(dr));
    if (!in_range(dr.w_id) || dr.d_id < 1 ||
        static_cast<uint32_t>(dr.d_id) > scale.districts_per_warehouse) {
      bad = Status::Corruption("district id out of range");
      return false;
    }
    st->d_ytd_sum[static_cast<size_t>(dr.w_id)] += dr.ytd;
    st->next_o_id[static_cast<size_t>(dr.w_id - 1) *
                      scale.districts_per_warehouse +
                  static_cast<size_t>(dr.d_id - 1)] = dr.next_o_id;
    d.sum_next_o_id += static_cast<uint64_t>(dr.next_o_id);
    return true;
  }));
  NOFTL_RETURN_IF_ERROR(db->customer->Scan(ctx, [&](RecordId, Slice row) {
    tp::CustomerRow cr;
    std::memcpy(&cr, row.data(), sizeof(cr));
    d.sum_payment_cnt += static_cast<uint64_t>(cr.payment_cnt);
    return true;
  }));
  NOFTL_RETURN_IF_ERROR(db->order->Scan(ctx, [&](RecordId, Slice row) {
    tp::OrderRow orow;
    std::memcpy(&orow, row.data(), sizeof(orow));
    if (orow.carrier_id != 0) d.delivered_orders++;
    return true;
  }));
  return bad;
}

/// Record counts right after the load (no I/O: nothing may perturb the
/// simulated state between the load and the loop).
struct InitialCounts {
  uint64_t orders = 0;
  uint64_t history_rows = 0;
};

InitialCounts ReadInitialCounts(tp::TpccDb* db) {
  return {db->order->record_count(), db->history->record_count()};
}

std::vector<noftl::index::BTree*> AllIndexes(tp::TpccDb* db) {
  return {db->w_idx, db->d_idx, db->c_idx,  db->c_name_idx, db->i_idx,
          db->s_idx, db->no_idx, db->o_idx, db->o_cust_idx, db->ol_idx};
}

/// Pages of every table and index.
uint64_t DataPages(tp::TpccDb* db) {
  uint64_t pages = 0;
  for (auto* h : {db->warehouse, db->district, db->customer, db->history,
                  db->new_order, db->order, db->order_line, db->item, db->stock}) {
    pages += h->page_count();
  }
  for (auto* idx : AllIndexes(db)) pages += idx->page_count();
  return pages;
}

/// Every check of a run; each failure is one message. The checks' I/O
/// starts at the run's last simulated time and advances *ctx.
std::vector<std::string> CheckRun(tp::TpccDb* db, const LoopResult& r,
                                  const InitialCounts& init,
                                  noftl::txn::TxnContext* ctx, DbState* st) {
  std::vector<std::string> errors;
  auto fail = [&](const std::string& what) { errors.push_back(what); };
  noftl::db::Database* dbase = db->database();
  const tp::TpccScale& scale = db->scale();
  ctx->now = r.final_clock;

  if (r.errors != 0) fail("transaction error: " + r.error.ToString());
  for (auto* idx : AllIndexes(db)) {
    Status s = idx->Validate(ctx);
    if (!s.ok()) fail("BTree::Validate " + idx->name() + ": " + s.ToString());
  }
  Status s = dbase->buffer()->VerifyIntegrity();
  if (!s.ok()) fail("buffer VerifyIntegrity: " + s.ToString());
  if (dbase->regions() != nullptr) {
    for (auto* rg : dbase->regions()->regions()) {
      s = rg->VerifyIntegrity();
      if (!s.ok()) fail("region " + rg->name() + " VerifyIntegrity: " + s.ToString());
    }
  }
  s = dbase->snapshots()->Verify();
  if (!s.ok()) fail("snapshot manager Verify: " + s.ToString());
  if (dbase->snapshots()->live_count() != 0) fail("snapshots left open");

  s = ReadState(db, ctx, st);
  if (!s.ok()) {
    fail("digest scans: " + s.ToString());
    return errors;
  }
  const Digest& d = st->digest;
  for (uint32_t w = 1; w <= scale.warehouses; w++) {
    if (std::fabs(st->w_ytd[w] - st->d_ytd_sum[w]) > 1e-3) {
      fail("consistency condition 1 (W_YTD = sum D_YTD) violated for w=" +
           std::to_string(w));
    }
  }
  const uint64_t districts =
      static_cast<uint64_t>(scale.warehouses) * scale.districts_per_warehouse;
  const uint64_t customers = districts * scale.customers_per_district;
  const uint64_t initial_next_o_id =
      districts * (scale.initial_orders_per_district + 1ull);
  if (d.orders - init.orders != r.run_neworders) {
    fail("orders added != committed NewOrders");
  }
  if (d.sum_next_o_id - initial_next_o_id != r.run_neworders) {
    fail("sum(D_NEXT_O_ID) advanced != committed NewOrders");
  }
  if (d.history_rows - init.history_rows != r.run_payments) {
    fail("history rows added != committed Payments");
  }
  if (d.sum_payment_cnt - customers != r.run_payments) {
    fail("sum(C_PAYMENT_CNT) advanced != committed Payments");
  }
  if (d.orders != d.new_orders + d.delivered_orders) {
    fail("orders != undelivered (NEW_ORDER rows) + delivered orders");
  }
  return errors;
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) m.value = value;
  }
}

template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

size_t TailWindows(size_t samples) { return std::max<size_t>(1, samples / kTailWindow); }

/// Mean of the p-th percentiles of TailWindows(v.size()) consecutive windows
/// of equal size (within one) that cover all of v.
double WindowedPercentile(const std::vector<uint32_t>& v, double p) {
  const size_t windows = TailWindows(v.size());
  double sum = 0;
  for (size_t i = 0; i < windows; i++) {
    sum += Percentile(std::vector<uint32_t>(v.begin() + i * v.size() / windows,
                                            v.begin() + (i + 1) * v.size() / windows),
                      p);
  }
  return sum / static_cast<double>(windows);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// --- Probes (traced run, after the checks) ---------------------------------

struct ProbeContext {
  tp::TpccDb* db;
  noftl::txn::TxnContext ctx;
  noftl::Rng rng;
  Clock::time_point t0;
  std::vector<Span>* spans;
};

/// Time `ops` operations of `fn` as one span probe.<layer>; returns ns/op.
double Probe(ProbeContext* pc, const char* name, uint64_t ops,
             const std::function<void()>& fn) {
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  Span s;
  s.name = name;
  s.start_ns = Nanos(pc->t0, a);
  s.end_ns = Nanos(pc->t0, b);
  pc->spans->push_back(s);
  return ops ? static_cast<double>(Nanos(a, b)) / static_cast<double>(ops) : 0;
}

struct StockSample {
  std::vector<noftl::storage::RecordId> rids;
  std::vector<noftl::buffer::PageKey> pages;  ///< distinct pages of rids
};

Status SampleStock(ProbeContext* pc, size_t count, StockSample* out) {
  tp::TpccDb* db = pc->db;
  const uint32_t ts = db->stock->tablespace()->tablespace_id();
  std::vector<uint64_t> seen;
  for (size_t k = 0; k < count; k++) {
    const auto w = static_cast<int32_t>(pc->rng.Uniform(1, db->scale().warehouses));
    const auto i = static_cast<int32_t>(pc->rng.Uniform(1, db->scale().items));
    auto v = db->s_idx->Lookup(&pc->ctx, tp::StockKey(w, i));
    if (!v.ok()) return v.status();
    const auto rid = noftl::storage::RecordId::Unpack(*v);
    out->rids.push_back(rid);
    if (std::find(seen.begin(), seen.end(), rid.page_no) == seen.end()) {
      seen.push_back(rid.page_no);
      out->pages.push_back({ts, rid.page_no, 0});
    }
  }
  return Status::OK();
}

Status FixAll(noftl::buffer::BufferPool* pool, noftl::txn::TxnContext* ctx,
              const std::vector<noftl::buffer::PageKey>& keys, size_t from,
              size_t to) {
  for (size_t k = from; k < to; k++) {
    auto h = pool->FixPage(ctx, keys[k], false);
    if (!h.ok()) return h.status();
    pool->Unfix(*h, false);
  }
  return Status::OK();
}

/// Direct calls into each layer's public functions on the warmed database.
Status RunProbes(ProbeContext* pc, const Workload& w,
                 std::vector<Metric>* out) {
  tp::TpccDb* db = pc->db;
  noftl::db::Database* dbase = db->database();
  noftl::buffer::BufferPool* pool = dbase->buffer();
  Status err;
  auto keep = [&](const Status& s) {
    if (err.ok() && !s.ok()) err = s;
  };

  // mvcc: a workload that opens no snapshot in its loop opens one on the
  // pool the loop left, before any other probe touches it.
  if (!w.idle_snapshot) {
    const SimTime sim0 = pc->ctx.now;
    const uint64_t writes0 = dbase->device()->stats().host_writes();
    const auto a = Clock::now();
    auto snap = dbase->OpenSnapshot(&pc->ctx);
    const auto b = Clock::now();
    if (!snap.ok()) return snap.status();
    dbase->ReleaseSnapshot(*snap);
    const auto c = Clock::now();
    SetMetric(out, "mvcc.open_us_wall", static_cast<double>(Nanos(a, b)) / 1000.0);
    SetMetric(out, "mvcc.release_us_wall", static_cast<double>(Nanos(b, c)) / 1000.0);
    SetMetric(out, "mvcc.open_ms_sim", static_cast<double>(pc->ctx.now - sim0) / 1000.0);
    SetMetric(out, "mvcc.open_flush_pages",
              static_cast<double>(dbase->device()->stats().host_writes() - writes0));
  }

  // buffer: fix/unfix on resident pages, one thread and two threads.
  StockSample hot;
  NOFTL_RETURN_IF_ERROR(SampleStock(pc, 512, &hot));
  const size_t half = std::min<size_t>(hot.pages.size() / 2, 200);
  NOFTL_RETURN_IF_ERROR(FixAll(pool, &pc->ctx, hot.pages, 0, 2 * half));
  constexpr int kRounds = 200;
  const double fix_hit_ns =
      Probe(pc, "probe.buffer", kRounds * half, [&] {
        for (int round = 0; round < kRounds; round++) {
          keep(FixAll(pool, &pc->ctx, hot.pages, 0, half));
        }
      });
  double fix_hit_ns_2t = 0;
  {
    std::atomic<int> ready{0};
    std::vector<double> per_thread(2, 0);
    std::vector<Status> status(2);
    std::vector<std::thread> threads;
    for (int k = 0; k < 2; k++) {
      threads.emplace_back([&, k] {
        noftl::txn::TxnContext ctx;
        ctx.now = pc->ctx.now;
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        const auto a = Clock::now();
        for (int round = 0; round < kRounds && status[k].ok(); round++) {
          status[k] = FixAll(pool, &ctx, hot.pages, k * half, (k + 1) * half);
        }
        per_thread[k] = static_cast<double>(Nanos(a, Clock::now())) /
                        static_cast<double>(kRounds * half);
      });
    }
    for (auto& t : threads) t.join();
    keep(status[0]);
    keep(status[1]);
    fix_hit_ns_2t = (per_thread[0] + per_thread[1]) / 2;
  }

  // index: point lookups and a Stock-Level-shaped range scan.
  constexpr int kLookups = 20000;
  std::vector<noftl::index::Key128> keys;
  for (int k = 0; k < kLookups; k++) {
    keys.push_back(tp::StockKey(
        static_cast<int32_t>(pc->rng.Uniform(1, db->scale().warehouses)),
        static_cast<int32_t>(pc->rng.Uniform(1, db->scale().items))));
  }
  const uint64_t fixes0 = pool->stats().hits + pool->stats().misses;
  const double lookup_ns = Probe(pc, "probe.index", kLookups, [&] {
    for (const auto& key : keys) keep(db->s_idx->Lookup(&pc->ctx, key).status());
  });
  const double fixes_per_lookup = Ratio(
      static_cast<double>(pool->stats().hits + pool->stats().misses - fixes0),
      kLookups);
  DbState st;
  NOFTL_RETURN_IF_ERROR(ReadState(db, &pc->ctx, &st));
  constexpr int kScans = 200;
  uint64_t scanned = 0;
  const double range_ns = Probe(pc, "probe.index_scan", kScans, [&] {
    for (int k = 0; k < kScans; k++) {
      const auto wd = static_cast<int32_t>(
          pc->rng.Uniform(1, db->scale().districts_per_warehouse));
      const int32_t next = st.next_o_id[static_cast<size_t>(wd - 1)];
      keep(db->ol_idx->ScanRange(
          &pc->ctx, tp::OrderLineKey(1, wd, std::max(1, next - 20), 0),
          tp::OrderLineKey(1, wd, next, 0), [&](noftl::index::Key128, uint64_t) {
            scanned++;
            return true;
          }));
    }
  });

  // storage: heap read, same-bytes heap update, raw tablespace page read.
  const double heap_read_ns = Probe(pc, "probe.storage", hot.rids.size() * 20, [&] {
    for (int round = 0; round < 20; round++) {
      for (const auto& rid : hot.rids) keep(db->stock->Read(&pc->ctx, rid).status());
    }
  });
  std::vector<std::string> rows;
  for (const auto& rid : hot.rids) {
    auto row = db->stock->Read(&pc->ctx, rid);
    if (!row.ok()) return row.status();
    rows.push_back(std::move(*row));
  }
  const double heap_update_ns = Probe(pc, "probe.storage_update", hot.rids.size(), [&] {
    for (size_t k = 0; k < hot.rids.size(); k++) {
      keep(db->stock->Update(&pc->ctx, hot.rids[k], noftl::Slice(rows[k])));
    }
  });
  std::vector<char> page(kPageSize);
  noftl::storage::Tablespace* stock_ts = db->stock->tablespace();
  const double ts_read_ns = Probe(pc, "probe.tablespace", hot.pages.size(), [&] {
    for (const auto& key : hot.pages) {
      SimTime complete = 0;
      keep(stock_ts->ReadPageRaw(key.page_no, pc->ctx.now, page.data(), &complete));
    }
  });

  // ftl and flash: mapper reads and vectored device reads of mapped pages.
  auto* region = dbase->regions()->Get(db->options().placement.RegionOf("STOCK"));
  if (region == nullptr) return Status::NotFound("STOCK region");
  noftl::ftl::OutOfPlaceMapper& mapper = region->mapper();
  std::vector<uint64_t> lpns;
  for (int tries = 0; tries < 20000 && lpns.size() < 512; tries++) {
    const uint64_t lpn = pc->rng.Below(mapper.logical_pages());
    if (mapper.IsMapped(lpn)) lpns.push_back(lpn);
  }
  const double ftl_read_ns = Probe(pc, "probe.ftl", lpns.size(), [&] {
    for (uint64_t lpn : lpns) {
      SimTime complete = 0;
      keep(mapper.Read(lpn, pc->ctx.now, noftl::flash::OpOrigin::kHost,
                       page.data(), &complete));
    }
  });
  std::vector<noftl::flash::PageReadOp> ops;
  std::vector<std::vector<char>> bufs(lpns.size(), std::vector<char>(kPageSize));
  for (size_t k = 0; k < lpns.size(); k++) {
    auto addr = mapper.Lookup(lpns[k]);
    if (!addr.ok()) return addr.status();
    noftl::flash::PageReadOp op;
    op.addr = *addr;
    op.data = bufs[k].data();
    ops.push_back(op);
  }
  std::vector<noftl::flash::OpResult> results(ops.size());
  const double flash_read_ns = Probe(pc, "probe.flash", ops.size(), [&] {
    dbase->device()->ReadPages(ops.data(), ops.size(), pc->ctx.now,
                               noftl::flash::OpOrigin::kHost, results.data());
  });
  for (const auto& res : results) keep(res.status);

  // buffer miss path: flush, drop a page, fix it again from flash.
  NOFTL_RETURN_IF_ERROR(pool->FlushAll(&pc->ctx));
  const size_t misses = std::min<size_t>(hot.pages.size(), 200);
  uint64_t miss_ns = 0;
  const uint64_t misses0 = pool->stats().misses;
  Probe(pc, "probe.buffer_miss", misses, [&] {
    for (size_t k = 0; k < misses; k++) {
      pool->Discard(hot.pages[k]);
      const auto a = Clock::now();
      keep(FixAll(pool, &pc->ctx, hot.pages, k, k + 1));
      miss_ns += Nanos(a, Clock::now());
    }
  });
  if (pool->stats().misses - misses0 != misses) {
    keep(Status::Corruption("miss probe did not miss"));
  }

  // common: Rng::AlphaString at the loader's TPC-C field lengths.
  static const int kLengths[][2] = {{6, 10},  {10, 20}, {14, 24}, {26, 50},
                                    {24, 24}, {8, 16},  {2, 2},   {300, 500}};
  constexpr int kStrings = 40000;
  uint64_t chars = 0;
  noftl::Rng alpha(pc->rng.Next());
  const double alpha_ns = Probe(pc, "probe.common", kStrings, [&] {
    for (int k = 0; k < kStrings; k++) {
      const auto& len = kLengths[k % 8];
      chars += alpha.AlphaString(len[0], len[1]).size();
    }
  });
  if (chars == 0) keep(Status::Corruption("AlphaString produced nothing"));
  NOFTL_RETURN_IF_ERROR(err);

  out->push_back({"buffer.fix_hit_ns", fix_hit_ns, "ns"});
  out->push_back({"buffer.fix_hit_ns_2t", fix_hit_ns_2t, "ns"});
  out->push_back({"buffer.fix_miss_us_wall",
                  static_cast<double>(miss_ns) / 1000.0 / static_cast<double>(misses),
                  "us"});
  out->push_back({"index.lookup_ns", lookup_ns, "ns"});
  out->push_back({"index.fixes_per_lookup", fixes_per_lookup, "count"});
  out->push_back({"index.range_scan_us_wall", range_ns / 1000.0, "us"});
  out->push_back({"storage.heap_read_ns", heap_read_ns, "ns"});
  out->push_back({"storage.heap_update_ns", heap_update_ns, "ns"});
  out->push_back({"storage.tablespace_read_us_wall", ts_read_ns / 1000.0, "us"});
  out->push_back({"ftl.read_ns_wall", ftl_read_ns, "ns"});
  out->push_back({"flash.read_page_ns", flash_read_ns, "ns"});
  out->push_back({"common.alpha_string_ns", alpha_ns, "ns"});
  if (scanned == 0) return Status::Corruption("range scan probe found nothing");
  return Status::OK();
}

// --- Threads: 2 unpaced workers over a shared pool, mapper and device -------

struct ThreadsResult {
  double speedup_2w = 0;
  bool digests_equal = false;
};

noftl::Result<ThreadsResult> MeasureThreads(uint64_t seed) {
  tp::TpccScale scale;
  scale.warehouses = 4;
  scale.items = 10000;
  scale.customers_per_district = 600;
  scale.initial_orders_per_district = 300;
  scale.initial_new_orders_per_district = 90;
  constexpr uint64_t kWarmup = 2000;
  constexpr uint64_t kTxns = 16000;
  constexpr uint32_t kThreadDies = 16;
  noftl::db::DatabaseOptions o;
  o.geometry.channels = 8;
  o.geometry.dies_per_channel = kThreadDies / 8;
  o.geometry.planes_per_die = 1;
  o.geometry.pages_per_block = kPagesPerBlock;
  o.geometry.page_size = kPageSize;
  o.geometry.blocks_per_die = tp::SuggestBlocksPerDie(
      scale, kPageSize, (kWarmup + kTxns) * 45 / 100, kThreadDies,
      kPagesPerBlock, 0.80);
  o.buffer.frame_count = 16384;
  o.buffer.flush_batch = 16;
  o.buffer.flush_high_water = 0.20;
  tp::TpccDbOptions options;
  options.db = o;
  options.scale = scale;
  options.placement = tp::TraditionalPlacement(kThreadDies);
  options.seed = seed;

  std::vector<Digest> digests;
  std::vector<double> wall_tps;
  for (uint32_t workers : {0u, 1u, 2u}) {
    auto db = tp::TpccDb::CreateAndLoad(options);
    if (!db.ok()) return db.status();
    tp::DriverOptions d;
    d.terminals = kTerminals;
    d.max_transactions = kTxns;
    d.warmup_transactions = kWarmup;
    d.seed = seed + 1;
    d.per_terminal_streams = true;
    d.worker_threads = workers;
    d.wall_pace = 0;
    auto report = tp::TpccDriver(db->get(), d).Run();
    if (!report.ok()) return report.status();
    if (report->txn_giveups != 0) return Status::IOError("threads: giveups");
    DbState st;
    noftl::txn::TxnContext ctx;
    ctx.now = (*db)->load_end_time();
    NOFTL_RETURN_IF_ERROR(ReadState(db->get(), &ctx, &st));
    digests.push_back(st.digest);
    wall_tps.push_back(report->wall_tps);
  }
  ThreadsResult r;
  r.speedup_2w = Ratio(wall_tps[2], wall_tps[1]);
  r.digests_equal = digests[1] == digests[0] && digests[2] == digests[0];
  return r;
}

// --- Output ----------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string JsonList(const std::vector<std::string>& items, bool quote) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); i++) {
    if (i > 0) out += ", ";
    if (quote) {
      out += "\"";
      for (char c : items[i]) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += "\"";
    } else {
      out += items[i];
    }
  }
  return out + "]";
}

struct Args {
  std::string workload;
  std::string fidelity;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--fidelity") {
      a->fidelity = v;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else if (k == "--seed" || k == "--seconds" || k == "--trace") {
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return false;
      if (k == "--seed") a->seed = n;
      if (k == "--seconds") a->seconds = n;
      if (k == "--trace") a->trace = n != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

// --- Fidelity: this loop against TpccDriver::Run ----------------------------

int RunFidelity(const Workload& w, uint64_t seed) {
  constexpr uint64_t kWarmup = 3000;
  constexpr uint64_t kTxns = 3000;
  const tp::TpccDbOptions options = MakeDbOptions(w, seed, kWarmup + kTxns);
  auto a = tp::TpccDb::CreateAndLoad(options);
  auto b = tp::TpccDb::CreateAndLoad(options);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "fidelity: load failed\n");
    return 1;
  }
  tp::DriverOptions d;
  d.terminals = kTerminals;
  d.max_transactions = kTxns;
  d.warmup_transactions = kWarmup;
  d.seed = seed + 1;
  d.think_time_us = w.idle_snapshot ? kIdleThinkUs : 0;
  d.snapshot_stocklevel = w.idle_snapshot;
  auto report = tp::TpccDriver(a->get(), d).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "fidelity: TpccDriver::Run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  LoopOptions lo;
  lo.seed = seed + 1;
  lo.adaptive_warmup = false;
  lo.warmup = kWarmup;
  lo.measured = kTxns;
  lo.think_us = w.idle_snapshot ? kIdleThinkUs : 0;
  lo.snapshot_stocklevel = w.idle_snapshot;
  LoopResult r;
  Status s = RunLoop(b->get(), lo, Clock::now(), &r);
  if (!s.ok()) {
    std::fprintf(stderr, "fidelity: loop failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const DeviceTotals dev = ReadDevice((*b)->database());
  const double tps = Ratio(static_cast<double>(r.commits),
                           static_cast<double>(r.end_time - r.measure_start) / 1e6);
  struct Row {
    const char* name;
    double driver;
    double loop;
  };
  const Row rows[] = {
      {"commits", static_cast<double>(report->transactions), static_cast<double>(r.commits)},
      {"rollbacks", static_cast<double>(report->rollbacks), static_cast<double>(r.rollbacks)},
      {"throughput_sim", report->tps, tps},
      {"host_read_ios", static_cast<double>(report->host_read_ios), static_cast<double>(dev.host_reads)},
      {"host_write_ios", static_cast<double>(report->host_write_ios), static_cast<double>(dev.host_writes)},
      {"gc_copybacks", static_cast<double>(report->gc_copybacks), static_cast<double>(dev.gc_copybacks)},
      {"gc_erases", static_cast<double>(report->gc_erases), static_cast<double>(dev.gc_erases)},
  };
  bool ok = true;
  for (const Row& row : rows) {
    const bool same = row.driver == row.loop;
    ok = ok && same;
    std::printf("%-16s driver %-16s loop %-16s %s\n", row.name,
                FormatNumber(row.driver).c_str(), FormatNumber(row.loop).c_str(),
                same ? "ok" : "MISMATCH");
  }
  std::printf("fidelity %s: %s\n", w.name, ok ? "match" : "MISMATCH");
  return ok ? 0 : 1;
}

// --- One benchmark run -------------------------------------------------------

int RunWorkload(const Workload& w, const Args& args) {
  const Clock::time_point t0 = Clock::now();
  const uint64_t measured = std::max<uint64_t>(1, args.seconds) * w.txns_per_second;
  const uint64_t planned = kWarmupMaxWindows * kWarmupWindow + measured;
  const tp::TpccDbOptions options = MakeDbOptions(w, args.seed, planned);

  // Set-up: load several times and keep the last database; setup_s is the
  // median load time.
  std::vector<Span> spans;
  std::vector<double> load_s;
  std::unique_ptr<tp::TpccDb> loaded;
  const int loads = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < loads; k++) {
    loaded.reset();
    const auto a = Clock::now();
    auto l = tp::TpccDb::CreateAndLoad(options);
    const auto b = Clock::now();
    if (!l.ok()) {
      std::fprintf(stderr, "load failed: %s\n", l.status().ToString().c_str());
      return 1;
    }
    loaded = std::move(*l);
    load_s.push_back(Seconds(b - a));
    Span s;
    s.name = "load";
    s.start_ns = Nanos(t0, a);
    s.end_ns = Nanos(t0, b);
    spans.push_back(s);
  }
  tp::TpccDb* db = loaded.get();
  noftl::db::Database* dbase = db->database();
  const InitialCounts init = ReadInitialCounts(db);
  const uint64_t loaded_pages = DataPages(db);

  LoopOptions lo;
  lo.seed = args.seed + 1;
  lo.measured = measured;
  lo.think_us = w.idle_snapshot ? kIdleThinkUs : 0;
  lo.snapshot_stocklevel = w.idle_snapshot;
  lo.trace = args.trace != 0;
  LoopResult r;
  (void)RunLoop(db, lo, t0, &r);

  // Metrics are read before the checks: the digest scans and the probes do
  // I/O of their own.
  const DeviceTotals dev = ReadDevice(dbase);
  const auto& bs = dbase->buffer()->stats();
  const double commits = static_cast<double>(r.commits);
  const double attempted = static_cast<double>(r.attempted);
  const double sim_s = static_cast<double>(r.end_time - r.measure_start) / 1e6;
  const MapperTotals mt = ReadMappers(dbase);
  const SchedTotals sc = ReadSched(dbase);
  noftl::Histogram read_lat;
  noftl::Histogram write_lat;
  dbase->ForEachDevice([&](noftl::flash::FlashDevice* d) {
    read_lat.Merge(d->HostReadLatency());
    write_lat.Merge(d->HostWriteLatency());
  });
  double region_util_max = 0;
  for (auto* rg : dbase->regions()->regions()) {
    const auto& m = rg->mapper();
    region_util_max = std::max(
        region_util_max, Ratio(static_cast<double>(m.valid_pages()),
                               static_cast<double>(m.physical_pages())));
  }
  const uint64_t data_pages = DataPages(db);
  const uint64_t failed = r.giveups + r.errors;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", MedianOf(load_s), "s"},
        {"peak_rss_mb", 0, "MB"},  // set after the checks
        {"throughput_sim", Ratio(commits, sim_s), "txn/s"},
        {"throughput_wall", Ratio(attempted, r.wall_s), "txn/s"},
        {"txn_p50_us_wall", Percentile(r.txn_wall_ns, 50) / 1000.0, "us"},
        {"txn_p99_us_wall", WindowedPercentile(r.txn_wall_ns, 99) / 1000.0, "us"},
        {"resp_p50_ms_sim", Percentile(r.resp_sim_us, 50) / 1000.0, "ms"},
        {"resp_p999_ms_sim", Percentile(r.resp_sim_us, 99.9) / 1000.0, "ms"},
        {"stocklevel_p50_ms_sim", Percentile(r.stocklevel_sim_us, 50) / 1000.0, "ms"},
        {"write_amp",
         Ratio(static_cast<double>(dev.programs + dev.copybacks),
               static_cast<double>(dev.host_writes)),
         "ratio"},
        {"read_ios_per_txn", Ratio(static_cast<double>(dev.host_reads), attempted),
         "count/txn"},
        {"txn_success_ratio",
         Ratio(attempted - static_cast<double>(failed), attempted), "ratio"},
    };
  } else {
    const std::vector<uint64_t> self = SelfTimes(r.spans);
    double self_sum[tp::kNumTxnTypes] = {};
    uint64_t self_n[tp::kNumTxnTypes] = {};
    double open_sum = 0, release_sum = 0, tick_sum = 0;
    uint64_t open_n = 0, release_n = 0, tick_n = 0;
    for (size_t i = 0; i < r.spans.size(); i++) {
      const Span& s = r.spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      for (int t = 0; t < tp::kNumTxnTypes; t++) {
        if (std::strcmp(s.name, TxnSpanName(static_cast<tp::TxnType>(t))) == 0) {
          self_sum[t] += static_cast<double>(self[i]);
          self_n[t]++;
        }
      }
      if (std::strcmp(s.name, "mvcc.open") == 0) open_sum += dur, open_n++;
      if (std::strcmp(s.name, "mvcc.release") == 0) release_sum += dur, release_n++;
      if (std::strcmp(s.name, "sched.tick") == 0) tick_sum += dur, tick_n++;
    }
    auto self_us = [&](tp::TxnType t) {
      const int i = static_cast<int>(t);
      return Ratio(self_sum[i], static_cast<double>(self_n[i])) / 1000.0;
    };
    auto mean_ms_sim = [&](tp::TxnType t) {
      const int i = static_cast<int>(t);
      return Ratio(static_cast<double>(r.type_resp_us[i]),
                   static_cast<double>(r.type_count[i])) / 1000.0;
    };
    const double fixes = static_cast<double>(bs.hits + bs.misses);
    const double bg_pages = static_cast<double>(sc.bg_gc_pages - r.sched_base.bg_gc_pages);
    metrics = {
        {"tpcc.neworder_us_wall", self_us(tp::TxnType::kNewOrder), "us"},
        {"tpcc.payment_us_wall", self_us(tp::TxnType::kPayment), "us"},
        {"tpcc.orderstatus_us_wall", self_us(tp::TxnType::kOrderStatus), "us"},
        {"tpcc.delivery_us_wall", self_us(tp::TxnType::kDelivery), "us"},
        {"tpcc.stocklevel_us_wall", self_us(tp::TxnType::kStockLevel), "us"},
        {"tpcc.neworder_ms_sim", mean_ms_sim(tp::TxnType::kNewOrder), "ms"},
        {"tpcc.payment_ms_sim", mean_ms_sim(tp::TxnType::kPayment), "ms"},
        {"tpcc.retries_per_ktxn", Ratio(1000.0 * static_cast<double>(r.retries), attempted), "count/ktxn"},
        {"txn.read_wait_share_sim", Ratio(static_cast<double>(r.sum_read_wait_us), static_cast<double>(r.sum_resp_us)), "ratio"},
        {"txn.sync_reads_per_txn", Ratio(static_cast<double>(r.sum_pages_read), attempted), "count/txn"},
        {"txn.write_wait_share_sim", Ratio(static_cast<double>(r.sum_write_wait_us), static_cast<double>(r.sum_resp_us)), "ratio"},
        {"txn.sync_writes_per_txn", Ratio(static_cast<double>(r.sum_pages_written_sync), attempted), "count/txn"},
        {"buffer.hit_rate", bs.HitRate(), "ratio"},
        {"buffer.fetch_batch_pages", Ratio(static_cast<double>(bs.batched_fetch_pages), static_cast<double>(bs.batched_fetches)), "count"},
        {"buffer.evictions_per_txn", Ratio(static_cast<double>(bs.evictions), attempted), "count/txn"},
        {"buffer.sync_flushes_per_txn", Ratio(static_cast<double>(bs.sync_flushes), attempted), "count/txn"},
        {"buffer.bg_flushes_per_txn", Ratio(static_cast<double>(bs.background_flushes), attempted), "count/txn"},
        {"buffer.front_hit_rate", Ratio(static_cast<double>(bs.front_hits), static_cast<double>(bs.front_probes)), "ratio"},
        {"buffer.fixes_per_txn", Ratio(fixes, attempted), "count/txn"},
        {"noftl.region_util_max", region_util_max, "ratio"},
        {"ftl.gc_copybacks_per_txn", Ratio(static_cast<double>(dev.gc_copybacks), attempted), "count/txn"},
        {"ftl.gc_erases_per_txn", Ratio(static_cast<double>(dev.gc_erases), attempted), "count/txn"},
        {"ftl.victim_scan_steps_per_pick",
         Ratio(static_cast<double>(mt.victim_scan_steps - r.mapper_base.victim_scan_steps),
               static_cast<double>(mt.victim_picks - r.mapper_base.victim_picks)),
         "count"},
        {"ftl.throttle_events_per_ktxn",
         Ratio(1000.0 * static_cast<double>(mt.throttle_events - r.mapper_base.throttle_events), attempted),
         "count/ktxn"},
        {"ftl.ckpt_bytes_incr_per_ckpt",
         Ratio(static_cast<double>(mt.ckpt_bytes_incr - r.mapper_base.ckpt_bytes_incr),
               static_cast<double>(mt.ckpt_incr_written - r.mapper_base.ckpt_incr_written)),
         "B"},
        {"flash.read_us_sim", read_lat.Mean(), "us"},
        {"flash.write_us_sim", write_lat.Mean(), "us"},
        {"flash.read_p99_us_sim", read_lat.P99(), "us"},
        {"flash.host_writes_per_txn", Ratio(static_cast<double>(dev.host_writes), attempted), "count/txn"},
        {"mvcc.open_ms_sim", Ratio(static_cast<double>(r.open_sim_us), static_cast<double>(r.snapshot_opens)) / 1000.0, "ms"},
        {"mvcc.open_flush_pages", Ratio(static_cast<double>(r.open_flush_pages), static_cast<double>(r.snapshot_opens)), "count"},
        {"mvcc.snapshot_reads_per_scan",
         Ratio(static_cast<double>(mt.snapshot_reads - r.mapper_base.snapshot_reads),
               static_cast<double>(r.snapshot_scans)),
         "count"},
        {"mvcc.versions_retained_per_txn",
         Ratio(static_cast<double>(mt.versions_retained - r.mapper_base.versions_retained), attempted),
         "count/txn"},
        {"mvcc.retained_peak", static_cast<double>(r.retained_peak), "count"},
        {"sched.tick_us_wall", Ratio(tick_sum, static_cast<double>(tick_n)) / 1000.0, "us"},
        {"sched.idle_grants_per_ktxn",
         Ratio(1000.0 * static_cast<double>(sc.idle_grants - r.sched_base.idle_grants), attempted),
         "count/ktxn"},
        {"sched.preemptions_per_ktxn",
         Ratio(1000.0 * static_cast<double>(sc.preemptions - r.sched_base.preemptions), attempted),
         "count/ktxn"},
        {"sched.bg_pages_share", Ratio(bg_pages, static_cast<double>(dev.gc_copybacks)), "ratio"},
        {"sched.bg_erase_deferred",
         static_cast<double>(sc.bg_erase_deferred - r.sched_base.bg_erase_deferred), "count"},
        {"db.load_pages_per_s", Ratio(static_cast<double>(loaded_pages), MedianOf(load_s)), "pages/s"},
        {"trace.overhead",
         Ratio(Ratio(static_cast<double>(r.traced_txns), r.traced_s),
               Ratio(static_cast<double>(r.untraced_txns), r.untraced_s)),
         "ratio"},
    };
    // Workloads without snapshots in the loop overwrite these in RunProbes.
    metrics.push_back({"mvcc.open_us_wall", Ratio(open_sum, static_cast<double>(open_n)) / 1000.0, "us"});
    metrics.push_back({"mvcc.release_us_wall", Ratio(release_sum, static_cast<double>(release_n)) / 1000.0, "us"});
  }

  DbState st;
  noftl::txn::TxnContext check_ctx;
  std::vector<std::string> errors = CheckRun(db, r, init, &check_ctx, &st);

  if (args.trace && errors.empty()) {
    ProbeContext pc{db, {}, noftl::Rng(args.seed * 7919 + 17), t0, &spans};
    pc.ctx.now = check_ctx.now;
    Status s = RunProbes(&pc, w, &metrics);
    if (!s.ok()) errors.push_back("probes: " + s.ToString());
  }
  for (Span& s : r.spans) {
    s.parent = s.parent < 0 ? s.parent : s.parent + static_cast<int64_t>(spans.size());
  }
  spans.insert(spans.end(), r.spans.begin(), r.spans.end());
  loaded.reset();  // the threads measurement loads its own database

  if (args.trace && errors.empty()) {
    auto threads = MeasureThreads(args.seed);
    if (!threads.ok()) {
      errors.push_back("threads: " + threads.status().ToString());
    } else {
      metrics.push_back({"threads.speedup_2w", threads->speedup_2w, "ratio"});
      if (!threads->digests_equal) {
        errors.push_back("threads: 1- and 2-worker digests differ from the worker-free twin");
      }
    }
  }
  if (!args.trace) SetMetric(&metrics, "peak_rss_mb", PeakRssMb());
  if (args.trace && !args.spans_out.empty() &&
      !WriteSpans(spans, args.spans_out.c_str())) {
    errors.push_back("cannot write spans to " + args.spans_out);
  }

  std::vector<std::string> setup;
  for (double v : load_s) setup.push_back(FormatNumber(v));
  std::vector<std::string> wa;
  for (double v : r.warmup_wa) wa.push_back(FormatNumber(v));
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"warmup_txns\": %llu, \"warmup_window_wa\": %s, \"measured_txns\": %llu, "
      "\"commits\": %llu, \"rollbacks\": %llu, \"retries\": %llu, "
      "\"samples\": {\"txn_wall\": %zu, \"txn_p99_windows\": %zu, \"resp_sim\": %zu, "
      "\"stocklevel_sim\": %zu}, "
      "\"setup_samples_s\": %s, \"pool_pages\": %u, \"data_pages_loaded\": %llu, \"data_pages_end\": %llu, "
      "\"sim_seconds\": %s, \"wall_seconds\": %s, \"digest\": %s, \"errors\": %s}}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace,
      static_cast<unsigned long long>(r.warmup), JsonList(wa, false).c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.commits),
      static_cast<unsigned long long>(r.rollbacks),
      static_cast<unsigned long long>(r.retries), r.txn_wall_ns.size(),
      TailWindows(r.txn_wall_ns.size()), r.resp_sim_us.size(),
      r.stocklevel_sim_us.size(),
      JsonList(setup, false).c_str(), w.frames,
      static_cast<unsigned long long>(loaded_pages),
      static_cast<unsigned long long>(data_pages), FormatNumber(sim_s).c_str(),
      FormatNumber(r.wall_s).c_str(),
      st.digest.ToJson().c_str(),
      JsonList(errors, true).c_str());
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = errors.empty();
  PrintResult(correct, std::max<uint64_t>(r.attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tpccbench

int main(int argc, char** argv) {
  tpccbench::Args args;
  if (!tpccbench::ParseArgs(argc, argv, &args) ||
      (args.workload.empty() == args.fidelity.empty())) {
    std::fprintf(stderr,
                 "usage: tpccbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n"
                 "       tpccbench --fidelity <name> --seed <n>\n");
    return 2;
  }
  const std::string name = args.workload.empty() ? args.fidelity : args.workload;
  const tpccbench::Workload* w = tpccbench::FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
    return 2;
  }
  if (!args.fidelity.empty()) return tpccbench::RunFidelity(*w, args.seed);
  return tpccbench::RunWorkload(*w, args);
}
