#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace noftl::index {

using buffer::PageKey;

// Node byte layout:
//   0  u16 magic
//   2  u16 flags (bit 0: leaf)
//   4  u16 count
//   6  u16 pad
//   8  u64 next_leaf + 1 (0 = none; leaves only)
//  16  u64 leftmost child page (internal only)
//  24  u64 reserved
//  32  entries[count]: { u64 key_hi, u64 key_lo, u64 value_or_child }
struct BTree::Node {
  char* data;
  uint32_t page_size;

  bool IsLeaf() const { return (DecodeFixed16(data + 2) & 1) != 0; }
  uint16_t Count() const { return DecodeFixed16(data + 4); }
  void SetCount(uint16_t n) { EncodeFixed16(data + 4, n); }
  uint64_t NextLeaf() const { return DecodeFixed64(data + 8); }  // +1 encoded
  void SetNextLeaf(uint64_t page_plus1) { EncodeFixed64(data + 8, page_plus1); }
  uint64_t LeftChild() const { return DecodeFixed64(data + 16); }
  void SetLeftChild(uint64_t page) { EncodeFixed64(data + 16, page); }

  static void Format(char* data, uint32_t page_size, bool leaf) {
    memset(data, 0, page_size);
    EncodeFixed16(data + 0, kMagic);
    EncodeFixed16(data + 2, leaf ? 1 : 0);
  }

  char* Entry(uint32_t i) { return data + kHeaderSize + i * kEntrySize; }
  const char* Entry(uint32_t i) const {
    return data + kHeaderSize + i * kEntrySize;
  }

  Key128 KeyAt(uint32_t i) const {
    return {DecodeFixed64(Entry(i)), DecodeFixed64(Entry(i) + 8)};
  }
  uint64_t ValueAt(uint32_t i) const { return DecodeFixed64(Entry(i) + 16); }
  void SetEntry(uint32_t i, Key128 key, uint64_t value) {
    EncodeFixed64(Entry(i), key.hi);
    EncodeFixed64(Entry(i) + 8, key.lo);
    EncodeFixed64(Entry(i) + 16, value);
  }

  /// First index with KeyAt(i) >= key (binary search).
  uint32_t LowerBound(Key128 key) const {
    uint32_t lo = 0;
    uint32_t hi = Count();
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (KeyAt(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child `i` of an internal node: 0 is the leftmost child, i > 0 the
  /// child of entry i - 1 (Count() names the rightmost).
  uint64_t ChildAt(uint32_t i) const {
    return i == 0 ? LeftChild() : ValueAt(i - 1);
  }

  /// Child to follow for `key` in an internal node: entries are separators
  /// with their subtree's minimum key; take the last entry with key <= key,
  /// or the leftmost child if all separators exceed key.
  uint64_t ChildFor(Key128 key, uint32_t* child_index) const {
    const uint32_t lb = LowerBound(key);
    uint32_t idx;
    if (lb < Count() && KeyAt(lb) == key) {
      idx = lb + 1;  // equal separator: key lives in that entry's child
    } else {
      idx = lb;  // first separator greater than key; take the previous child
    }
    if (child_index != nullptr) *child_index = idx;
    return ChildAt(idx);
  }

  void InsertAt(uint32_t i, Key128 key, uint64_t value) {
    const uint16_t n = Count();
    memmove(Entry(i + 1), Entry(i), static_cast<size_t>(n - i) * kEntrySize);
    SetEntry(i, key, value);
    SetCount(n + 1);
  }

  void RemoveAt(uint32_t i) {
    const uint16_t n = Count();
    memmove(Entry(i), Entry(i + 1),
            static_cast<size_t>(n - i - 1) * kEntrySize);
    SetCount(n - 1);
  }
};

BTree::BTree(uint32_t object_id, std::string name,
             storage::Tablespace* tablespace, buffer::BufferPool* pool,
             const mvcc::VersionHorizon* versions)
    : object_id_(object_id),
      name_(std::move(name)),
      tablespace_(tablespace),
      pool_(pool),
      versions_(versions) {}

Result<BTree*> BTree::Create(uint32_t object_id, std::string name,
                             storage::Tablespace* tablespace,
                             buffer::BufferPool* pool, txn::TxnContext* ctx,
                             const mvcc::VersionHorizon* versions) {
  auto tree = std::unique_ptr<BTree>(
      new BTree(object_id, std::move(name), tablespace, pool, versions));
  // Unpublished, but NewNodePage carries REQUIRES(latch_) and the runtime
  // tracker expects acquisitions to pair — take the (uncontended) latch.
  WriterLock lock(tree->latch_);
  auto root = tree->NewNodePage(ctx, /*leaf=*/true);
  if (!root.ok()) return root.status();
  tree->root_page_ = *root;
  return tree.release();
}

Result<uint64_t> BTree::NewNodePage(txn::TxnContext* ctx, bool leaf) {
  auto page_no = tablespace_->AllocatePage(object_id_);
  if (!page_no.ok()) return page_no.status();
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *page_no},
                          /*create=*/true);
  if (!h.ok()) return h.status();
  Node::Format(h->data, tablespace_->page_size(), leaf);
  pool_->Unfix(*h, /*dirty=*/true);
  pages_.push_back(*page_no);
  return *page_no;
}

Status BTree::DropStorage(txn::TxnContext* ctx) {
  (void)ctx;
  WriterLock lock(latch_);
  for (uint64_t page_no : pages_) {
    pool_->Discard({tablespace_->tablespace_id(), page_no});
    NOFTL_RETURN_IF_ERROR(tablespace_->FreePage(page_no));
  }
  pages_.clear();
  entry_count_ = 0;
  height_ = 1;
  root_page_ = 0;
  past_roots_.clear();
  return Status::OK();
}

void BTree::RootFor(const txn::TxnContext* ctx, uint64_t* root,
                    uint32_t* height) const {
  if (ctx->snapshot_seq != 0) {
    for (const PastRoot& past : past_roots_) {
      if (ctx->snapshot_seq < past.until_seq) {
        *root = past.page_no;
        *height = past.height;
        return;
      }
    }
  }
  *root = root_page_;
  *height = height_;
}

Status BTree::DescendToLeaf(txn::TxnContext* ctx, Key128 key,
                            std::vector<PathEntry>* path,
                            uint64_t* leaf_page) {
  uint64_t page_no = 0;
  uint32_t height = 0;
  RootFor(ctx, &page_no, &height);
  for (uint32_t level = 0; level + 1 < height; level++) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    assert(!node.IsLeaf());
    uint32_t child_index = 0;
    const uint64_t child = node.ChildFor(key, &child_index);
    pool_->Unfix(*h, /*dirty=*/false);
    if (path != nullptr) path->push_back({page_no, child_index});
    page_no = child;
  }
  *leaf_page = page_no;
  return Status::OK();
}

Status BTree::Insert(txn::TxnContext* ctx, Key128 key, uint64_t value) {
  WriterLock lock(latch_);
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, &path, &leaf_page));

  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), leaf_page},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node leaf{h->data, tablespace_->page_size()};
  assert(leaf.IsLeaf());

  const uint32_t pos = leaf.LowerBound(key);
  if (pos < leaf.Count() && leaf.KeyAt(pos) == key) {
    pool_->Unfix(*h, /*dirty=*/false);
    return Status::AlreadyExists("duplicate key");
  }

  if (leaf.Count() < MaxEntries()) {
    leaf.InsertAt(pos, key, value);
    pool_->Unfix(*h, /*dirty=*/true);
    entry_count_++;
    return Status::OK();
  }

  // Split the leaf: upper half moves to a new right sibling.
  auto right_page = NewNodePage(ctx, /*leaf=*/true);
  if (!right_page.ok()) {
    pool_->Unfix(*h, /*dirty=*/false);
    return right_page.status();
  }
  auto rh = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *right_page},
                           /*create=*/false);
  if (!rh.ok()) {
    pool_->Unfix(*h, /*dirty=*/false);
    return rh.status();
  }
  Node right{rh->data, tablespace_->page_size()};

  const uint32_t total = leaf.Count();
  const uint32_t split = total / 2;
  for (uint32_t i = split; i < total; i++) {
    right.InsertAt(i - split, leaf.KeyAt(i), leaf.ValueAt(i));
  }
  leaf.SetCount(static_cast<uint16_t>(split));
  right.SetNextLeaf(leaf.NextLeaf());
  leaf.SetNextLeaf(*right_page + 1);

  // Place the new entry in the correct half.
  const Key128 sep = right.KeyAt(0);
  if (key < sep) {
    leaf.InsertAt(leaf.LowerBound(key), key, value);
  } else {
    right.InsertAt(right.LowerBound(key), key, value);
  }
  pool_->Unfix(*h, /*dirty=*/true);
  pool_->Unfix(*rh, /*dirty=*/true);
  entry_count_++;

  return InsertIntoParent(ctx, &path, sep, *right_page);
}

Status BTree::InsertIntoParent(txn::TxnContext* ctx,
                               std::vector<PathEntry>* path, Key128 sep,
                               uint64_t new_child) {
  while (true) {
    if (path->empty()) {
      // Split reached the root: grow the tree by one level.
      auto new_root = NewNodePage(ctx, /*leaf=*/false);
      if (!new_root.ok()) return new_root.status();
      auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *new_root},
                              /*create=*/false);
      if (!h.ok()) return h.status();
      Node root{h->data, tablespace_->page_size()};
      root.SetLeftChild(root_page_);
      root.InsertAt(0, sep, new_child);
      pool_->Unfix(*h, /*dirty=*/true);
      if (versions_ != nullptr) {
        // A snapshot opened before now must keep descending from the old
        // root: the new one has no flash copy it can see.
        past_roots_.push_back(
            {versions_->next_seq.load(std::memory_order_acquire), root_page_,
             height_});
      }
      root_page_ = *new_root;
      height_++;
      return Status::OK();
    }

    const PathEntry parent = path->back();
    path->pop_back();
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), parent.page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    assert(!node.IsLeaf());

    if (node.Count() < MaxEntries()) {
      node.InsertAt(node.LowerBound(sep), sep, new_child);
      pool_->Unfix(*h, /*dirty=*/true);
      return Status::OK();
    }

    // Split the internal node. The middle separator moves up (it does not
    // stay in either half).
    auto right_page = NewNodePage(ctx, /*leaf=*/false);
    if (!right_page.ok()) {
      pool_->Unfix(*h, /*dirty=*/false);
      return right_page.status();
    }
    auto rh = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *right_page},
                             /*create=*/false);
    if (!rh.ok()) {
      pool_->Unfix(*h, /*dirty=*/false);
      return rh.status();
    }
    Node right{rh->data, tablespace_->page_size()};

    // Conceptually insert (sep, new_child) into the sorted entry list first,
    // then split around the middle.
    std::vector<std::pair<Key128, uint64_t>> entries;
    entries.reserve(node.Count() + 1);
    for (uint32_t i = 0; i < node.Count(); i++) {
      entries.emplace_back(node.KeyAt(i), node.ValueAt(i));
    }
    entries.insert(entries.begin() + node.LowerBound(sep), {sep, new_child});

    const uint32_t mid = static_cast<uint32_t>(entries.size()) / 2;
    const Key128 up_key = entries[mid].first;
    const uint64_t up_child = entries[mid].second;

    node.SetCount(0);
    for (uint32_t i = 0; i < mid; i++) {
      node.InsertAt(i, entries[i].first, entries[i].second);
    }
    right.SetLeftChild(up_child);
    for (uint32_t i = mid + 1; i < entries.size(); i++) {
      right.InsertAt(i - mid - 1, entries[i].first, entries[i].second);
    }
    pool_->Unfix(*h, /*dirty=*/true);
    pool_->Unfix(*rh, /*dirty=*/true);

    sep = up_key;
    new_child = *right_page;
  }
}

Result<uint64_t> BTree::Lookup(txn::TxnContext* ctx, Key128 key) {
  ReaderLock lock(latch_);
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, nullptr, &leaf_page));
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), leaf_page},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node leaf{h->data, tablespace_->page_size()};
  const uint32_t pos = leaf.LowerBound(key);
  Result<uint64_t> out = Status::NotFound("key absent");
  if (pos < leaf.Count() && leaf.KeyAt(pos) == key) {
    out = leaf.ValueAt(pos);
  }
  pool_->Unfix(*h, /*dirty=*/false);
  return out;
}

Status BTree::Delete(txn::TxnContext* ctx, Key128 key) {
  WriterLock lock(latch_);
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, &path, &leaf_page));
  auto fix = [&](uint64_t page_no, buffer::PageGuard* guard) -> Status {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    *guard = buffer::PageGuard(pool_, *h);
    return Status::OK();
  };
  buffer::PageGuard leaf_guard;
  NOFTL_RETURN_IF_ERROR(fix(leaf_page, &leaf_guard));
  Node leaf{leaf_guard.data(), tablespace_->page_size()};
  const uint32_t pos = leaf.LowerBound(key);
  if (pos >= leaf.Count() || !(leaf.KeyAt(pos) == key)) {
    return Status::NotFound("key absent");
  }

  // Free at empty. Fix the parent and the left neighbour before touching
  // anything, so a failed read leaves the tree as it was.
  buffer::PageGuard parent_guard;
  buffer::PageGuard left_guard;
  bool free_leaf = leaf.Count() == 1 && !path.empty();
  if (free_leaf) {
    NOFTL_RETURN_IF_ERROR(fix(path.back().page_no, &parent_guard));
    // A parent's only child stays: the parent would be left with no child.
    free_leaf = Node{parent_guard.data(), tablespace_->page_size()}.Count() > 0;
  }
  if (free_leaf) {
    auto left = LeftLeaf(ctx, path);
    if (!left.ok()) return left.status();
    if (*left != 0) NOFTL_RETURN_IF_ERROR(fix(*left - 1, &left_guard));
  }

  leaf.RemoveAt(pos);
  entry_count_--;
  if (!free_leaf) {
    leaf_guard.MarkDirty();
    return Status::OK();
  }
  if (left_guard.valid()) {
    Node left{left_guard.data(), tablespace_->page_size()};
    assert(left.NextLeaf() == leaf_page + 1);
    left.SetNextLeaf(leaf.NextLeaf());
    left_guard.MarkDirty();
  }
  // Drop the routing entry. The freed child's key range joins its left
  // sibling's — or, for the leftmost child, entry 0's child becomes the
  // leftmost and takes the range down to the parent's lower bound.
  Node parent{parent_guard.data(), tablespace_->page_size()};
  const uint32_t child_index = path.back().child_index;
  if (child_index == 0) {
    parent.SetLeftChild(parent.ValueAt(0));
    parent.RemoveAt(0);
  } else {
    parent.RemoveAt(child_index - 1);
  }
  parent_guard.MarkDirty();
  leaf_guard.Release();  // clean: the frame is dropped, never written
  pool_->Discard({tablespace_->tablespace_id(), leaf_page});
  pages_.erase(std::find(pages_.begin(), pages_.end(), leaf_page));
  return tablespace_->FreePage(leaf_page);
}

Result<uint64_t> BTree::LeftLeaf(txn::TxnContext* ctx,
                                 const std::vector<PathEntry>& path) {
  size_t level = path.size();
  while (level > 0 && path[level - 1].child_index == 0) level--;
  if (level == 0) return uint64_t{0};  // the leftmost edge: no left leaf
  // path[level - 1]'s previous child heads the subtree to the leaf's left;
  // its rightmost edge ends at the left leaf.
  uint64_t page_no = path[level - 1].page_no;
  for (bool turn = true; level <= path.size(); level++, turn = false) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    assert(!node.IsLeaf());
    page_no = node.ChildAt(turn ? path[level - 1].child_index - 1
                                : node.Count());
    pool_->Unfix(*h, /*dirty=*/false);
  }
  return page_no + 1;
}

Status BTree::ScanFrom(txn::TxnContext* ctx, Key128 from,
                       const std::function<bool(Key128, uint64_t)>& fn) {
  ReaderLock lock(latch_);
  return ScanFromLocked(ctx, from, fn);
}

Status BTree::ScanFromLocked(txn::TxnContext* ctx, Key128 from,
                             const std::function<bool(Key128, uint64_t)>& fn) {
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, from, nullptr, &leaf_page));
  uint64_t page_no = leaf_page;
  bool first_leaf = true;
  while (true) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node leaf{h->data, tablespace_->page_size()};
    const uint32_t start = first_leaf ? leaf.LowerBound(from) : 0;
    first_leaf = false;
    for (uint32_t i = start; i < leaf.Count(); i++) {
      if (!fn(leaf.KeyAt(i), leaf.ValueAt(i))) {
        pool_->Unfix(*h, /*dirty=*/false);
        return Status::OK();
      }
    }
    const uint64_t next = leaf.NextLeaf();
    pool_->Unfix(*h, /*dirty=*/false);
    if (next == 0) return Status::OK();
    page_no = next - 1;
  }
}

Status BTree::PrefetchLeaves(txn::TxnContext* ctx, Key128 from, Key128 to,
                             buffer::FetchTicket* ticket) {
  *ticket = 0;
  uint64_t root = 0;
  uint32_t height = 0;
  RootFor(ctx, &root, &height);
  if (height < 2) return Status::OK();  // root is the only leaf
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, from, &path, &leaf_page));
  const PathEntry parent = path.back();

  // The parent's child list names the leaves in key order: child i covers
  // keys from separator i-1 (its subtree minimum). Collect children from the
  // starting position until a separator exceeds `to` — those leaves are the
  // range, and they can be read together without walking the chain.
  static constexpr size_t kMaxPrefetch = 16;
  std::vector<buffer::PageKey> keys;
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), parent.page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node node{h->data, tablespace_->page_size()};
  for (uint32_t idx = parent.child_index;
       idx <= node.Count() && keys.size() < kMaxPrefetch; idx++) {
    if (idx > parent.child_index && to < node.KeyAt(idx - 1)) break;
    keys.push_back({tablespace_->tablespace_id(), node.ChildAt(idx)});
  }
  pool_->Unfix(*h, /*dirty=*/false);
  return pool_->SubmitFetch(ctx, keys, ticket);
}

Status BTree::ScanRange(txn::TxnContext* ctx, Key128 from, Key128 to,
                        const std::function<bool(Key128, uint64_t)>& fn) {
  ReaderLock lock(latch_);
  // Submit-early/reap-late: the leaf reads go out now, the re-descent of
  // ScanFrom overlaps with them, and the first fixed leaf reaps the fetch.
  buffer::FetchTicket prefetch = 0;
  if (range_prefetch_) {
    NOFTL_RETURN_IF_ERROR(PrefetchLeaves(ctx, from, to, &prefetch));
  }
  Status scan = ScanFromLocked(ctx, from, [&](Key128 k, uint64_t v) {
    if (to < k) return false;
    return fn(k, v);
  });
  // An early-stopping scan may never touch the tail of the prefetched
  // leaves; reap them so no claim pins outlive the call.
  Status drain = pool_->WaitFetch(ctx, prefetch);
  return scan.ok() ? drain : scan;
}

struct BTree::ValidateState {
  uint64_t entries = 0;
  bool have_leaf = false;
  uint64_t next_leaf = 0;  ///< NextLeaf of the last leaf visited (+1 encoded)
  std::vector<uint64_t> reached;
};

Status BTree::Validate(txn::TxnContext* ctx) {
  ReaderLock lock(latch_);
  ValidateState state;
  NOFTL_RETURN_IF_ERROR(ValidateSubtree(ctx, root_page_, 0, Key128::Min(),
                                        nullptr, /*only_child=*/true, &state));
  if (state.next_leaf != 0) {
    return Status::Corruption("last leaf links to page " +
                              std::to_string(state.next_leaf - 1));
  }
  if (state.entries != entry_count_) {
    return Status::Corruption("entry count drift: leaves hold " +
                              std::to_string(state.entries) + ", expected " +
                              std::to_string(entry_count_));
  }
  std::vector<uint64_t> owned = pages_;
  std::sort(owned.begin(), owned.end());
  std::sort(state.reached.begin(), state.reached.end());
  const auto twice =
      std::adjacent_find(state.reached.begin(), state.reached.end());
  if (twice != state.reached.end()) {
    return Status::Corruption("page " + std::to_string(*twice) +
                              " reached twice");
  }
  if (owned != state.reached) {
    return Status::Corruption(
        "descent reaches " + std::to_string(state.reached.size()) +
        " pages, index owns " + std::to_string(owned.size()) +
        " (a leaked, lost or foreign page)");
  }
  return Status::OK();
}

Status BTree::ValidateSubtree(txn::TxnContext* ctx, uint64_t page_no,
                              uint32_t depth, Key128 lower,
                              const Key128* upper, bool only_child,
                              ValidateState* state) {
  state->reached.push_back(page_no);
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption(what + " (page " + std::to_string(page_no) +
                              ", depth " + std::to_string(depth) + ")");
  };
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  buffer::PageGuard guard(pool_, *h);
  Node node{h->data, tablespace_->page_size()};
  const bool leaf_level = depth + 1 == height_;
  if (node.IsLeaf() != leaf_level) {
    return corrupt(leaf_level ? "internal node at leaf level"
                              : "leaf above leaf level");
  }
  for (uint32_t i = 0; i < node.Count(); i++) {
    const Key128 k = node.KeyAt(i);
    if (i > 0 && !(node.KeyAt(i - 1) < k)) return corrupt("keys out of order");
    if (k < lower || (upper != nullptr && !(k < *upper))) {
      return corrupt("key outside its parent's separators");
    }
  }

  if (leaf_level) {
    if (node.Count() == 0 && !only_child) {
      return corrupt("empty leaf that is not the root or an only child");
    }
    if (state->have_leaf && state->next_leaf != page_no + 1) {
      return corrupt("leaf chain does not follow key order");
    }
    state->have_leaf = true;
    state->next_leaf = node.NextLeaf();
    state->entries += node.Count();
    return Status::OK();
  }

  // Copy the routing entries out so no pins stack up along the recursion.
  const uint32_t count = node.Count();
  std::vector<Key128> seps(count);
  std::vector<uint64_t> children(count + 1);
  for (uint32_t i = 0; i < count; i++) seps[i] = node.KeyAt(i);
  for (uint32_t i = 0; i <= count; i++) children[i] = node.ChildAt(i);
  guard.Release();
  for (uint32_t i = 0; i <= count; i++) {
    NOFTL_RETURN_IF_ERROR(ValidateSubtree(
        ctx, children[i], depth + 1, i == 0 ? lower : seps[i - 1],
        i == count ? upper : &seps[i], /*only_child=*/count == 0, state));
  }
  return Status::OK();
}

}  // namespace noftl::index
