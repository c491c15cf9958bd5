#include "storage/heap_file.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace noftl::storage {

using buffer::PageGuard;
using buffer::PageKey;

HeapFile::HeapFile(uint32_t object_id, std::string name,
                   Tablespace* tablespace, buffer::BufferPool* pool)
    : object_id_(object_id),
      name_(std::move(name)),
      tablespace_(tablespace),
      pool_(pool) {}

Status HeapFile::DropStorage(txn::TxnContext* ctx) {
  (void)ctx;
  WriterLock lock(latch_);
  for (uint64_t page_no : pages_) {
    pool_->Discard({tablespace_->tablespace_id(), page_no});
    NOFTL_RETURN_IF_ERROR(tablespace_->FreePage(page_no));
  }
  pages_.clear();
  free_list_.clear();
  record_count_ = 0;
  return Status::OK();
}

Result<uint64_t> HeapFile::PageWithSpace(txn::TxnContext* ctx, uint32_t bytes) {
  // Check the free-space hints from most recent first; drop stale ones.
  while (!free_list_.empty()) {
    const uint64_t page_no = free_list_.back();
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    SlottedPage sp(h->data, tablespace_->page_size());
    const bool fits = sp.FreeSpaceForInsert() >= bytes;
    pool_->Unfix(*h, /*dirty=*/false);
    if (fits) return page_no;
    free_list_.pop_back();
  }

  auto page_no = tablespace_->AllocatePage(object_id_);
  if (!page_no.ok()) return page_no.status();
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *page_no},
                          /*create=*/true);
  if (!h.ok()) return h.status();
  SlottedPage::Format(h->data, tablespace_->page_size());
  pool_->Unfix(*h, /*dirty=*/true);
  pages_.push_back(*page_no);
  free_list_.push_back(*page_no);
  return *page_no;
}

Result<RecordId> HeapFile::Insert(txn::TxnContext* ctx, Slice record) {
  if (record.size() > SlottedPage::MaxRecordSize(tablespace_->page_size())) {
    return Status::InvalidArgument("record larger than a page");
  }
  WriterLock lock(latch_);
  auto page_no = PageWithSpace(ctx, static_cast<uint32_t>(record.size()));
  if (!page_no.ok()) return page_no.status();

  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  SlottedPage sp(h->data, tablespace_->page_size());
  auto slot = sp.Insert(record);
  pool_->Unfix(*h, /*dirty=*/slot.ok());
  if (!slot.ok()) return slot.status();
  record_count_++;
  return RecordId{*page_no, *slot};
}

Result<std::string> HeapFile::Read(txn::TxnContext* ctx, RecordId rid) {
  ReaderLock lock(latch_);
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), rid.page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  SlottedPage sp(h->data, tablespace_->page_size());
  auto rec = sp.Get(rid.slot);
  std::string out;
  if (rec.ok()) out.assign(rec->data(), rec->size());
  pool_->Unfix(*h, /*dirty=*/false);
  if (!rec.ok()) return rec.status();
  return out;
}

Status HeapFile::Update(txn::TxnContext* ctx, RecordId rid, Slice record) {
  // Optimistic: a same-size update overwrites the slot in place — safe under
  // a shared hold (concurrent same-record access is warehouse-serialized by
  // the caller; other records on the page are disjoint bytes). A
  // size-changing update may compact the page, so it retries exclusively.
  {
    ReaderLock lock(latch_);
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), rid.page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    SlottedPage sp(h->data, tablespace_->page_size());
    auto cur = sp.Get(rid.slot);
    if (cur.ok() && cur->size() == record.size()) {
      // Snapshot readers of this page share the table latch with us: tell
      // the pool before the bytes change (see AnnounceWrite).
      pool_->AnnounceWrite(&*h);
      Status s = sp.Update(rid.slot, record);
      pool_->Unfix(*h, /*dirty=*/s.ok());
      return s;
    }
    pool_->Unfix(*h, /*dirty=*/false);
    if (!cur.ok()) return cur.status();
  }
  WriterLock lock(latch_);
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), rid.page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  SlottedPage sp(h->data, tablespace_->page_size());
  Status s = sp.Update(rid.slot, record);
  pool_->Unfix(*h, /*dirty=*/s.ok());
  return s;
}

Status HeapFile::Delete(txn::TxnContext* ctx, RecordId rid) {
  WriterLock lock(latch_);
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), rid.page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  SlottedPage sp(h->data, tablespace_->page_size());
  Status s = sp.Delete(rid.slot);
  pool_->Unfix(*h, /*dirty=*/s.ok());
  if (s.ok()) {
    record_count_--;
    free_list_.push_back(rid.page_no);
  }
  return s;
}

Status HeapFile::SubmitPrefetch(txn::TxnContext* ctx,
                                const std::vector<RecordId>& rids,
                                buffer::FetchTicket* ticket) {
  ReaderLock lock(latch_);
  // Deduplicate pages while keeping first-seen order (the submission order
  // the backend schedules in).
  std::unordered_set<uint64_t> seen;
  seen.reserve(rids.size());
  std::vector<buffer::PageKey> keys;
  keys.reserve(rids.size());
  for (const RecordId& rid : rids) {
    if (seen.insert(rid.page_no).second) {
      keys.push_back({tablespace_->tablespace_id(), rid.page_no});
    }
  }
  return pool_->SubmitFetch(ctx, keys, ticket);
}

Status HeapFile::Prefetch(txn::TxnContext* ctx,
                          const std::vector<RecordId>& rids) {
  buffer::FetchTicket ticket = 0;
  NOFTL_RETURN_IF_ERROR(SubmitPrefetch(ctx, rids, &ticket));
  return pool_->WaitFetch(ctx, ticket);
}

Status HeapFile::Scan(txn::TxnContext* ctx,
                      const std::function<bool(RecordId, Slice)>& fn) {
  ReaderLock lock(latch_);
  static constexpr size_t kScanChunk = 16;
  // Pipeline only when the pool comfortably holds the resident chunk being
  // scanned plus the next chunk's claims — on a smaller pool the next
  // chunk's claims would evict the current chunk before it is scanned.
  const bool pipeline = pool_->frame_count() >= 4 * kScanChunk;
  std::vector<buffer::PageKey> chunk;
  auto chunk_keys = [&](size_t base) {
    chunk.clear();
    for (size_t i = base; i < std::min(base + kScanChunk, pages_.size()); i++) {
      chunk.push_back({tablespace_->tablespace_id(), pages_[i]});
    }
  };

  if (!pipeline) {
    for (size_t base = 0; base < pages_.size(); base += kScanChunk) {
      chunk_keys(base);
      NOFTL_RETURN_IF_ERROR(pool_->FetchPages(ctx, chunk));
      bool keep_going = true;
      NOFTL_RETURN_IF_ERROR(ScanPages(
          ctx, base, std::min(base + kScanChunk, pages_.size()), fn,
          &keep_going));
      if (!keep_going) break;
    }
    return Status::OK();
  }

  // Pipelined: reap the current chunk, submit the next one, then process the
  // current chunk — the callback CPU overlaps with the next chunk's reads.
  buffer::FetchTicket pending = 0;
  if (!pages_.empty()) {
    chunk_keys(0);
    NOFTL_RETURN_IF_ERROR(pool_->SubmitFetch(ctx, chunk, &pending));
  }
  for (size_t base = 0; base < pages_.size(); base += kScanChunk) {
    Status wait = pool_->WaitFetch(ctx, pending);
    pending = 0;
    if (!wait.ok()) return wait;
    if (base + kScanChunk < pages_.size()) {
      chunk_keys(base + kScanChunk);
      NOFTL_RETURN_IF_ERROR(pool_->SubmitFetch(ctx, chunk, &pending));
    }
    bool keep_going = true;
    Status scan = ScanPages(
        ctx, base, std::min(base + kScanChunk, pages_.size()), fn,
        &keep_going);
    if (!scan.ok() || !keep_going) {
      // Reap the in-flight chunk before leaving so no claim pins outlive
      // the scan.
      Status drain = pool_->WaitFetch(ctx, pending);
      if (!scan.ok()) return scan;
      return drain;
    }
  }
  return Status::OK();
}

Status HeapFile::ScanPages(txn::TxnContext* ctx, size_t begin, size_t end,
                           const std::function<bool(RecordId, Slice)>& fn,
                           bool* keep_going) {
  for (size_t p = begin; p < end && *keep_going; p++) {
    const uint64_t page_no = pages_[p];
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    SlottedPage sp(h->data, tablespace_->page_size());
    for (uint16_t s = 0; *keep_going && s < sp.slot_count(); s++) {
      if (!sp.SlotUsed(s)) continue;
      auto rec = sp.Get(s);
      assert(rec.ok());
      *keep_going = fn(RecordId{page_no, s}, *rec);
    }
    pool_->Unfix(*h, /*dirty=*/false);
  }
  return Status::OK();
}

}  // namespace noftl::storage
