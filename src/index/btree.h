// B+-tree with 128-bit keys and 64-bit values, stored in a tablespace and
// accessed through the buffer pool (so index I/O competes for flash like any
// other page traffic — the paper's Figure 2 places indexes in regions
// exactly like tables).
//
// Keys are (hi, lo) pairs compared lexicographically. TPC-C composite keys
// pack into `hi`; `lo` disambiguates duplicates (usually the record id), so
// every stored key is unique and equal-`hi` ranges enumerate duplicates in
// insertion-independent order.
//
// Deletes free at empty (Johnson & Shasha): entries are removed in place and
// pages may underflow, but a leaf that loses its last entry is unlinked from
// the leaf chain, its routing entry leaves the parent, and the page goes back
// to the tablespace (which trims it on flash). TPC-C uses NEW_ORDER as a
// queue — appends at the right of each district, deletes from the left — so
// without this every Delivery walks the district's chain of dead leaves. Two
// leaves stay even when empty: the root leaf, and a parent's only child.
// Internal nodes are never freed and the root never collapses, so the height
// only grows.
//
// Snapshot reads (TxnContext::snapshot_seq != 0) descend from the root the
// tree had when the snapshot opened. The root page and height live in memory,
// not on a page, so each root split keeps the root it replaces together with
// the commit sequence current at the split; a snapshot older than that
// sequence starts from the old root, whose pages it reads as of the
// snapshot like any other.
//
// Thread safety: a tree-level reader/writer latch. Lookups and scans ride
// shared holds (node pages are only read); Insert/Delete/DropStorage take
// it exclusively — splits and in-node entry shifts restructure pages that
// concurrent descents would otherwise read mid-move. Conflicting access to
// the same logical rows is the caller's job (TPC-C warehouse locks); the
// latch only protects tree structure. Single-thread behaviour is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "buffer/buffer_pool.h"
#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/status.h"
#include "mvcc/version_horizon.h"
#include "storage/tablespace.h"
#include "txn/txn.h"

namespace noftl::index {

struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Key128&) const = default;
  auto operator<=>(const Key128&) const = default;

  static Key128 Min() { return {0, 0}; }
  static Key128 Max() { return {~0ull, ~0ull}; }
};

class BTree {
 public:
  /// Creates an empty tree rooted in a fresh leaf page of `tablespace`.
  /// `object_id` tags the index's pages in flash OOB metadata. `versions`
  /// is the commit-sequence source of the snapshots that may read the tree
  /// (null: no snapshot ever reads it).
  static Result<BTree*> Create(uint32_t object_id, std::string name,
                               storage::Tablespace* tablespace,
                               buffer::BufferPool* pool, txn::TxnContext* ctx,
                               const mvcc::VersionHorizon* versions = nullptr);

  uint32_t object_id() const { return object_id_; }
  const std::string& name() const { return name_; }
  uint64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }

  /// Insert a (key, value) pair. AlreadyExists if the exact key is present.
  Status Insert(txn::TxnContext* ctx, Key128 key, uint64_t value);

  /// Point lookup of the exact key.
  Result<uint64_t> Lookup(txn::TxnContext* ctx, Key128 key);

  /// Remove the exact key. NotFound if absent. A leaf this empties is freed
  /// (see the header comment) unless it is the root or its parent's only
  /// child; every read that can fail runs before the first page changes.
  Status Delete(txn::TxnContext* ctx, Key128 key);

  /// Visit all entries with key >= `from`, in order, until the callback
  /// returns false or the tree is exhausted.
  Status ScanFrom(txn::TxnContext* ctx, Key128 from,
                  const std::function<bool(Key128, uint64_t)>& fn);

  /// Visit all entries in [from, to] inclusive. The leaves covering the
  /// range under the starting leaf's parent are submitted as one queued
  /// prefetch before the chain walk and reaped at the first leaf touch, so
  /// a cold range read waits for the slowest die instead of paying each
  /// leaf miss serially — and the descent work overlaps the in-flight
  /// reads.
  Status ScanRange(txn::TxnContext* ctx, Key128 from, Key128 to,
                   const std::function<bool(Key128, uint64_t)>& fn);

  /// Structural validation, O(pages): every node lies at its level; keys
  /// are ordered within nodes and each child's keys lie within its parent's
  /// separators; the leaf chain links exactly the leaves of the descent, in
  /// key order; every page of page_count() is reached exactly once; no leaf
  /// is empty unless it is the root or its parent's only child; the entry
  /// count matches.
  Status Validate(txn::TxnContext* ctx);

  /// Pages allocated to this index.
  uint64_t page_count() const {
    ReaderLock lock(latch_);
    return pages_.size();
  }

  /// Disable the batched leaf prefetch of ScanRange (serial-baseline A/B
  /// measurements; on by default).
  void set_range_prefetch(bool on) { range_prefetch_ = on; }

  /// Release every node page back to the tablespace (DROP INDEX); flash
  /// copies are trimmed. The tree must not be used afterwards.
  Status DropStorage(txn::TxnContext* ctx);

 private:
  BTree(uint32_t object_id, std::string name, storage::Tablespace* tablespace,
        buffer::BufferPool* pool, const mvcc::VersionHorizon* versions);

  // Node layout constants (see btree.cc for the byte layout).
  static constexpr uint16_t kMagic = 0x4254;  // "BT"
  static constexpr uint32_t kHeaderSize = 32;
  static constexpr uint32_t kEntrySize = 24;

  struct Node;  // page-buffer view, defined in btree.cc

  uint32_t MaxEntries() const {
    return (tablespace_->page_size() - kHeaderSize) / kEntrySize;
  }

  Result<uint64_t> NewNodePage(txn::TxnContext* ctx, bool leaf)
      REQUIRES(latch_);

  /// Descend to the leaf that would contain `key`, recording the path of
  /// (page_no, child_index) for split propagation.
  struct PathEntry {
    uint64_t page_no;
    uint32_t child_index;  ///< index in parent's child list that was taken
  };
  Status DescendToLeaf(txn::TxnContext* ctx, Key128 key,
                       std::vector<PathEntry>* path, uint64_t* leaf_page)
      REQUIRES_SHARED(latch_);

  /// Root page and height `ctx` reads the tree from: the current ones, or
  /// for a snapshot the ones it had when the snapshot opened.
  void RootFor(const txn::TxnContext* ctx, uint64_t* root,
               uint32_t* height) const REQUIRES_SHARED(latch_);

  /// ScanFrom body; caller holds latch_ (shared suffices).
  Status ScanFromLocked(txn::TxnContext* ctx, Key128 from,
                        const std::function<bool(Key128, uint64_t)>& fn)
      REQUIRES_SHARED(latch_);

  /// The leaf left of the one `path` descends to, +1 encoded like
  /// NextLeaf (0 = it is the tree's first leaf): the parent's previous
  /// child, or else the rightmost leaf of the subtree left of the nearest
  /// ancestor that was not entered through its leftmost child.
  Result<uint64_t> LeftLeaf(txn::TxnContext* ctx,
                            const std::vector<PathEntry>& path)
      REQUIRES_SHARED(latch_);

  /// Validate body: checks the subtree at `page_no` (`depth` levels below
  /// the root) against the key bounds [lower, upper) — `upper` absent for
  /// the rightmost edge — and accumulates into `state`.
  struct ValidateState;
  Status ValidateSubtree(txn::TxnContext* ctx, uint64_t page_no,
                         uint32_t depth, Key128 lower, const Key128* upper,
                         bool only_child, ValidateState* state)
      REQUIRES_SHARED(latch_);

  /// Split handling after a leaf/internal insert overflowed.
  Status InsertIntoParent(txn::TxnContext* ctx, std::vector<PathEntry>* path,
                          Key128 sep, uint64_t new_child) REQUIRES(latch_);

  /// Submit a queued read of the leaves of [from, to] that hang off the
  /// starting leaf's parent (the parent's child list names them without
  /// touching the leaf chain). Bounded, best-effort: covers up to one
  /// inner-node fanout. Returns without waiting; `*ticket` names the
  /// in-flight fetch (0 = everything resident).
  Status PrefetchLeaves(txn::TxnContext* ctx, Key128 from, Key128 to,
                        buffer::FetchTicket* ticket) REQUIRES_SHARED(latch_);

  uint32_t object_id_;
  std::string name_;
  storage::Tablespace* tablespace_;
  buffer::BufferPool* pool_;
  /// Tree latch: shared for lookups/scans, exclusive for inserts/deletes.
  /// LockRank::kIndex — ordered above the buffer-pool latch (node fixes run
  /// under a hold) and the tablespace/backend layers page allocation crosses.
  mutable SharedMutex latch_{LockRank::kIndex};
  const mvcc::VersionHorizon* versions_;
  uint64_t root_page_ GUARDED_BY(latch_) = 0;
  Relaxed<uint64_t> entry_count_ = 0;   ///< readable without the latch
  Relaxed<uint32_t> height_ = 1;        ///< readable without the latch
  /// A root a root split replaced: snapshots with a sequence below
  /// `until_seq` (the next commit sequence at the split) descend from it.
  struct PastRoot {
    uint64_t until_seq;
    uint64_t page_no;
    uint32_t height;
  };
  /// Oldest first; only kept when `versions_` is set.
  std::vector<PastRoot> past_roots_ GUARDED_BY(latch_);
  bool range_prefetch_ = true;
  /// All node pages, for DropStorage (freed leaves leave it).
  std::vector<uint64_t> pages_ GUARDED_BY(latch_);
};

}  // namespace noftl::index
