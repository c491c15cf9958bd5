#include "sched/background_scheduler.h"

#include <algorithm>
#include <chrono>

namespace noftl::sched {

using flash::DieId;

BackgroundScheduler::BackgroundScheduler(flash::FlashDevice* device,
                                         const SchedulerOptions& options)
    : device_(device), options_(options) {}

BackgroundScheduler::~BackgroundScheduler() { Stop(); }

void BackgroundScheduler::RegisterMapper(ftl::OutOfPlaceMapper* mapper) {
  const bool live = running();
  {
    MutexLock lock(mu_);
    for (const Entry& e : mappers_) {
      if (e.mapper == mapper) return;
    }
    mappers_.push_back({mapper});
  }
  if (live) mapper->SetBackgroundReclaimer(true);
}

void BackgroundScheduler::UnregisterMapper(ftl::OutOfPlaceMapper* mapper) {
  {
    MutexLock lock(mu_);
    std::erase_if(mappers_,
                  [&](const Entry& e) { return e.mapper == mapper; });
  }
  mapper->SetBackgroundReclaimer(false);
}

bool BackgroundScheduler::IsRegistered(
    const ftl::OutOfPlaceMapper* mapper) const {
  MutexLock lock(mu_);
  return std::any_of(mappers_.begin(), mappers_.end(),
                     [&](const Entry& e) { return e.mapper == mapper; });
}

void BackgroundScheduler::Start() {
  if (!options_.service_thread || thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { ServiceLoop(); });
  // Only a live service thread justifies blocking a throttled writer: in
  // deterministic mode the writer's own thread is the only one that could
  // reclaim, so admission fails fast into the txn-retry path instead.
  MutexLock lock(mu_);
  for (Entry& e : mappers_) e.mapper->SetBackgroundReclaimer(true);
}

void BackgroundScheduler::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  MutexLock lock(mu_);
  for (Entry& e : mappers_) e.mapper->SetBackgroundReclaimer(false);
}

void BackgroundScheduler::Quiesce() {
  // Taking the lock waits out an in-flight tick; the flag stops new ones.
  MutexLock lock(mu_);
  quiesced_ = true;
}

void BackgroundScheduler::Resume() {
  MutexLock lock(mu_);
  quiesced_ = false;
}

SimTime BackgroundScheduler::Frontier() const {
  std::vector<DieId> dies;
  {
    MutexLock lock(mu_);
    for (const Entry& e : mappers_) {
      const std::vector<DieId> md = e.mapper->dies();
      dies.insert(dies.end(), md.begin(), md.end());
    }
  }
  SimTime frontier = 0;
  for (DieId die : dies) {
    frontier = std::max(frontier, device_->DieBusyUntil(die));
  }
  return frontier;
}

void BackgroundScheduler::ServiceLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Tick(Frontier());
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.poll_interval_us));
  }
}

uint64_t BackgroundScheduler::Tick(SimTime now) {
  MutexLock lock(mu_);
  if (quiesced_) return 0;
  return TickLocked(now);
}

uint64_t BackgroundScheduler::TickLocked(SimTime now) {
  stats_.ticks++;
  uint64_t moved = 0;
  for (Entry& e : mappers_) {
    ftl::OutOfPlaceMapper* m = e.mapper;
    // Erase pacing: refill the mapper's erase credit for the sim time that
    // elapsed since the last refill, scaled down by the foreground arrivals
    // observed over the same span — a busy stack earns erases slowly, an
    // idle one at full rate. The budget below is shared by the mapper's
    // dies within this tick.
    uint64_t erase_budget = ~0ull;
    if (options_.erase_pace_window_us != 0) {
      const uint64_t arrivals = m->foreground_arrivals();
      if (now > e.last_pace_time) {
        const uint64_t delta = arrivals - e.last_pace_arrivals;
        e.erase_credit += (now - e.last_pace_time) / (1 + delta);
        e.erase_credit = std::min(
            e.erase_credit, SimTime{options_.erase_pace_burst} *
                                options_.erase_pace_window_us);
        e.last_pace_time = now;
      }
      e.last_pace_arrivals = arrivals;
      erase_budget = e.erase_credit / options_.erase_pace_window_us;
    }
    bool all_idle = true;
    for (DieId die : m->dies()) {
      // Idle-time detection: the die's horizon has passed and no foreground
      // submission is parked on it. A loaded die gets nothing.
      if (!device_->DieIdleAt(die, now)) {
        stats_.busy_skips++;
        all_idle = false;
        continue;
      }
      stats_.idle_grants++;
      const uint64_t epoch = m->foreground_arrivals();
      for (uint32_t q = 0; q < std::max(1u, options_.quanta_per_tick); q++) {
        ftl::OutOfPlaceMapper::BackgroundPolicy policy;
        policy.max_pages = options_.batch_pages;
        policy.free_target = options_.gc_free_target;
        policy.wl_spread = options_.wl_spread;
        policy.max_erases =
            erase_budget > ~0u ? ~0u : static_cast<uint32_t>(erase_budget);
        ftl::OutOfPlaceMapper::BackgroundWork work;
        if (!m->BackgroundMaintainDie(die, now, policy, &work).ok()) break;
        // Count every background issue, not just page copies: overwrite-heavy
        // churn leaves fully-invalid victims whose reclamation is erase-only.
        moved += work.gc_pages + work.gc_erases + work.wl_pages +
                 work.scrub_blocks;
        stats_.bg_gc_pages += work.gc_pages;
        stats_.bg_gc_erases += work.gc_erases;
        stats_.bg_scrub_blocks += work.scrub_blocks;
        stats_.bg_wl_pages += work.wl_pages;
        stats_.bg_erase_deferred += work.gc_erases_deferred;
        if (options_.erase_pace_window_us != 0 && work.gc_erases != 0) {
          // Spend the credit the erases consumed.
          const SimTime cost =
              SimTime{work.gc_erases} * options_.erase_pace_window_us;
          e.erase_credit = e.erase_credit > cost ? e.erase_credit - cost : 0;
          erase_budget -= work.gc_erases;
        }
        if (!work.backlog) break;
        // Preemption between quanta: a foreground op arrived on the mapper
        // (epoch moved) or queued on this die — defer the backlog to the
        // next tick; the grant loop releases the mapper latch between
        // quanta, so the arrival proceeds first.
        if (m->foreground_arrivals() != epoch ||
            device_->DiePendingHostOps(die) > 0) {
          stats_.preemptions++;
          break;
        }
      }
    }
    if (all_idle) MaybeCheckpoint(&e, now);
  }
  return moved;
}

void BackgroundScheduler::MaybeCheckpoint(Entry* e, SimTime now) {
  if (options_.checkpoint_interval_us == 0) return;
  if (e->mapper->options().checkpoint_slots == 0) return;
  if (now < e->last_checkpoint + options_.checkpoint_interval_us) return;
  if (e->mapper->WriteCheckpoint(now, nullptr).ok()) {
    stats_.bg_checkpoints++;
  }
  // Failed attempts also wait out the interval: a stack that cannot
  // checkpoint (e.g. worn slots) must not retry it every tick.
  e->last_checkpoint = now;
}

}  // namespace noftl::sched
