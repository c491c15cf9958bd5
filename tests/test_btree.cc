// B+-tree tests: point ops, splits across multiple levels, ordered and
// range scans, deletes that free emptied leaves, structural validation, and
// parameterized property tests against std::map for several key patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "index/btree.h"
#include "test_harness.h"

namespace noftl::index {
namespace {

using test::NativeStack;
using test::StackOptions;

StackOptions BigStack() {
  StackOptions o;
  o.blocks_per_die = 128;
  o.frames = 256;
  return o;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : stack_(BigStack()) {
    tree_.reset(*BTree::Create(/*object_id=*/3, "IDX", stack_.tablespace.get(),
                               stack_.pool.get(), &stack_.ctx));
  }

  NativeStack stack_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeLookupFails) {
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {1, 0}).status().IsNotFound());
  EXPECT_EQ(tree_->entry_count(), 0u);
  EXPECT_EQ(tree_->height(), 1u);
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

TEST_F(BTreeTest, InsertLookupRoundTrip) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 111).ok());
  auto v = tree_->Lookup(&stack_.ctx, {10, 0});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 111u);
  EXPECT_EQ(tree_->entry_count(), 1u);
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 1).ok());
  EXPECT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 2).IsAlreadyExists());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 0}), 1u);
}

TEST_F(BTreeTest, LoKeyDisambiguatesDuplicateHi) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 1}, 1).ok());
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 2}, 2).ok());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 1}), 1u);
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 2}), 2u);
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  // 512B pages hold ~20 entries; 500 keys force multi-level splits.
  for (uint64_t k = 0; k < 500; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k * 10).ok()) << k;
  }
  EXPECT_GT(tree_->height(), 1u);
  EXPECT_EQ(tree_->entry_count(), 500u);
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  for (uint64_t k = 0; k < 500; k++) {
    auto v = tree_->Lookup(&stack_.ctx, {k, 0});
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k * 10);
  }
}

TEST_F(BTreeTest, ScanFromIsOrderedAndComplete) {
  std::vector<uint64_t> keys;
  Rng rng(21);
  for (int i = 0; i < 300; i++) keys.push_back(rng.Below(1000000));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Insert in shuffled order.
  std::vector<uint64_t> shuffled = keys;
  for (size_t i = shuffled.size(); i > 1; i--) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  for (uint64_t k : shuffled) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }

  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(),
                              [&](Key128 k, uint64_t v) {
                                EXPECT_EQ(k.hi, v);
                                seen.push_back(k.hi);
                                return true;
                              }).ok());
  EXPECT_EQ(seen, keys);
}

TEST_F(BTreeTest, ScanFromMidpoint) {
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, {50, 0}, [&](Key128 k, uint64_t) {
                seen.push_back(k.hi);
                return true;
              }).ok());
  ASSERT_EQ(seen.size(), 50u);
  EXPECT_EQ(seen.front(), 50u);
  EXPECT_EQ(seen.back(), 99u);
}

TEST_F(BTreeTest, ScanRangeInclusiveBounds) {
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanRange(&stack_.ctx, {10, 0}, {20, 0},
                               [&](Key128 k, uint64_t) {
                                 seen.push_back(k.hi);
                                 return true;
                               }).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{10, 12, 14, 16, 18, 20}));
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(), [&](Key128, uint64_t) {
                count++;
                return count < 7;
              }).ok());
  EXPECT_EQ(count, 7);
}

TEST_F(BTreeTest, DeleteRemovesExactlyOneKey) {
  for (uint64_t k = 0; k < 200; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_TRUE(tree_->Delete(&stack_.ctx, {77, 0}).ok());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {77, 0}).status().IsNotFound());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {76, 0}).ok());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {78, 0}).ok());
  EXPECT_EQ(tree_->entry_count(), 199u);
  EXPECT_TRUE(tree_->Delete(&stack_.ctx, {77, 0}).IsNotFound());
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

TEST_F(BTreeTest, ReinsertAfterDelete) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {5, 5}, 1).ok());
  ASSERT_TRUE(tree_->Delete(&stack_.ctx, {5, 5}).ok());
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {5, 5}, 2).ok());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {5, 5}), 2u);
}

TEST_F(BTreeTest, DescendingInsertOrderWorks) {
  for (uint64_t k = 400; k > 0; k--) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok()) << k;
  }
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  uint64_t prev = 0;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(),
                              [&](Key128 k, uint64_t) {
                                EXPECT_GT(k.hi, prev);
                                prev = k.hi;
                                return true;
                              }).ok());
  EXPECT_EQ(prev, 400u);
}

// --- Free at empty ---------------------------------------------------

TEST_F(BTreeTest, QueuePatternFreesEmptiedLeaves) {
  // NEW_ORDER's pattern: append at the right, consume from the left. Every
  // leaf the front deletes empty must leave the chain, so the oldest entry
  // stays one descent and at most two leaves away, the index stays the
  // size of its live window, and the splits at the right reuse the freed
  // pages instead of growing the tablespace.
  constexpr uint64_t kWindow = 150;  // ~15 half-full leaves: height 2
  constexpr uint64_t kBatch = 30;
  uint64_t head = 0;
  uint64_t tail = 0;
  for (; tail < kWindow; tail++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {tail, 0}, tail).ok());
  }
  ASSERT_EQ(tree_->height(), 2u);
  const uint64_t index_pages = tree_->page_count();
  uint64_t tablespace_pages = 0;
  for (int round = 0; round < 40; round++) {
    for (uint64_t i = 0; i < kBatch; i++, head++) {
      ASSERT_TRUE(tree_->Delete(&stack_.ctx, {head, 0}).ok()) << head;
    }
    ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok()) << "round " << round;
    EXPECT_LE(tree_->page_count(), index_pages + 1) << "round " << round;

    // Pool fixes (hits + misses) of the oldest-entry probe.
    const auto& pool_stats = stack_.pool->stats();
    const uint64_t fixes_before = pool_stats.hits + pool_stats.misses;
    uint64_t oldest = ~0ull;
    ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(),
                                [&](Key128 k, uint64_t) {
                                  oldest = k.hi;
                                  return false;
                                }).ok());
    const uint64_t fixes = pool_stats.hits + pool_stats.misses - fixes_before;
    EXPECT_EQ(oldest, head);
    EXPECT_LE(fixes, (tree_->height() - 1) + 2) << "round " << round;

    for (uint64_t i = 0; i < kBatch; i++, tail++) {
      ASSERT_TRUE(tree_->Insert(&stack_.ctx, {tail, 0}, tail).ok());
    }
    // After one round every later split takes a freed page.
    if (round == 1) tablespace_pages = stack_.tablespace->page_count();
    if (round > 1) {
      EXPECT_EQ(stack_.tablespace->page_count(), tablespace_pages)
          << "round " << round;
    }
  }
  EXPECT_EQ(tree_->height(), 2u);
  EXPECT_EQ(tree_->entry_count(), kWindow);
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

TEST_F(BTreeTest, FreesLeftmostChildOfNonLeftmostInternalNode) {
  // 512 B pages hold 20 entries. Ascending inserts leave leaves of 10 keys
  // ([0,10), [10,20), ...), and the root's first split leaves the second
  // internal node with leftmost child [110,120). Its left neighbour hangs
  // under the first internal node, so the unlink must walk up to the root
  // and down the rightmost edge of the subtree to the left.
  for (uint64_t k = 0; k < 600; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_EQ(tree_->height(), 3u);
  const uint64_t pages = tree_->page_count();
  for (uint64_t k = 110; k < 120; k++) {
    ASSERT_TRUE(tree_->Delete(&stack_.ctx, {k, 0}).ok());
  }
  EXPECT_EQ(tree_->page_count(), pages - 1);
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());

  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, {100, 0}, [&](Key128 k, uint64_t) {
                seen.push_back(k.hi);
                return seen.size() < 15;
              }).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{100, 101, 102, 103, 104, 105, 106,
                                         107, 108, 109, 120, 121, 122, 123,
                                         124}));
  // The freed range routes to the new leftmost child and takes inserts.
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {115, 0}, 115).ok());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {115, 0}), 115u);
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {114, 0}).status().IsNotFound());
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());

  // Drain everything front to back: every leaf is freed in turn except
  // the one left as an internal node's only child, and the height stays.
  for (uint64_t k = 0; k < 600; k++) {
    if (k >= 110 && k < 120 && k != 115) continue;
    ASSERT_TRUE(tree_->Delete(&stack_.ctx, {k, 0}).ok()) << k;
    if (k % 37 == 0) {
      ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok()) << k;
    }
  }
  EXPECT_EQ(tree_->entry_count(), 0u);
  EXPECT_EQ(tree_->height(), 3u);
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  EXPECT_LT(tree_->page_count(), pages / 2);
  bool any = false;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(), [&](Key128, uint64_t) {
                any = true;
                return true;
              }).ok());
  EXPECT_FALSE(any);
}

TEST_F(BTreeTest, FreedLeavesAreTrimmedOnFlash) {
  auto mapped_pages = [&] {
    uint64_t n = 0;
    for (uint64_t rlpn = 0; rlpn < stack_.rg->logical_pages(); rlpn++) {
      if (stack_.rg->IsMapped(rlpn)) n++;
    }
    return n;
  };
  for (uint64_t k = 0; k < 200; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_TRUE(stack_.pool->FlushAll(&stack_.ctx).ok());
  const uint64_t pages = tree_->page_count();
  const uint64_t mapped = mapped_pages();
  EXPECT_EQ(mapped, pages);
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(tree_->Delete(&stack_.ctx, {k, 0}).ok());
  }
  ASSERT_TRUE(stack_.pool->FlushAll(&stack_.ctx).ok());
  // Each freed leaf left the tablespace and its flash copy was trimmed;
  // the write-back of the survivors mapped nothing new.
  const uint64_t freed = pages - tree_->page_count();
  EXPECT_GE(freed, 9u);
  EXPECT_EQ(stack_.tablespace->LivePages(), tree_->page_count());
  EXPECT_EQ(mapped_pages(), mapped - freed);
  ASSERT_TRUE(tree_->DropStorage(&stack_.ctx).ok());
  EXPECT_EQ(stack_.tablespace->LivePages(), 0u);
  EXPECT_EQ(mapped_pages(), 0u);
}

TEST_F(BTreeTest, ValidateCatchesEmptyLeafAndStrayKey) {
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  // Page 0 was the root leaf; the first split made page 1, the second leaf
  // ([10, 20)). Corrupt it in the pool behind the tree's back, check, and
  // put it back.
  auto corrupt_leaf = [&](const std::function<void(char*)>& mutate) {
    auto h = stack_.pool->FixPage(&stack_.ctx, {1, 1}, /*create=*/false);
    ASSERT_TRUE(h.ok());
    std::vector<char> saved(h->data, h->data + 512);
    mutate(h->data);
    stack_.pool->Unfix(*h, /*dirty=*/true);
    Status s = tree_->Validate(&stack_.ctx);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    h = stack_.pool->FixPage(&stack_.ctx, {1, 1}, /*create=*/false);
    ASSERT_TRUE(h.ok());
    std::copy(saved.begin(), saved.end(), h->data);
    stack_.pool->Unfix(*h, /*dirty=*/true);
  };
  // An empty leaf that is neither the root nor an only child.
  corrupt_leaf([](char* page) { EncodeFixed16(page + 4, 0); });
  // Its last key (19) raised past the parent's next separator (20): still
  // sorted within the leaf, but outside the leaf's key range.
  corrupt_leaf([](char* page) { EncodeFixed64(page + 32 + 9 * 24, 25); });
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

// --- Parameterized property tests -------------------------------------

enum class Pattern { kRandom, kAscending, kDescending, kClustered,
                     kDeleteHeavy };

struct BTreeParam {
  Pattern pattern;
  int keys;
  const char* name;
};

class BTreePropertyTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreePropertyTest, MatchesStdMapUnderMixedOps) {
  const BTreeParam param = GetParam();
  NativeStack stack(BigStack());
  std::unique_ptr<BTree> tree(*BTree::Create(1, "P", stack.tablespace.get(),
                                             stack.pool.get(), &stack.ctx));
  Rng rng(static_cast<uint64_t>(param.keys) * 1000 +
          static_cast<uint64_t>(param.pattern));
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> shadow;

  auto make_key = [&](int i) -> Key128 {
    switch (param.pattern) {
      case Pattern::kRandom:
      case Pattern::kDeleteHeavy:
        return {rng.Below(1u << 20), rng.Below(4)};
      case Pattern::kAscending:
        return {static_cast<uint64_t>(i), 0};
      case Pattern::kDescending:
        return {static_cast<uint64_t>(param.keys - i), 0};
      case Pattern::kClustered:
        return {rng.Below(64), rng.Below(1u << 16)};
    }
    return {0, 0};
  };

  for (int i = 0; i < param.keys; i++) {
    const Key128 key = make_key(i);
    const uint64_t value = rng.Next();
    Status s = tree->Insert(&stack.ctx, key, value);
    const bool existed = shadow.count({key.hi, key.lo}) != 0;
    if (existed) {
      ASSERT_TRUE(s.IsAlreadyExists());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      shadow[{key.hi, key.lo}] = value;
    }
    // Sporadic deletes keep the tree churning. The delete-heavy pattern
    // grows the tree for its first half, then deletes two random keys per
    // insert, so it shrinks back through every leaf position (leftmost,
    // inner and rightmost children at every level) and nearly empties.
    int deletes = i % 7 == 3 ? 1 : 0;
    if (param.pattern == Pattern::kDeleteHeavy) {
      deletes = i < param.keys / 2 ? 0 : 2;
    }
    for (; deletes > 0 && !shadow.empty(); deletes--) {
      auto it = shadow.begin();
      std::advance(it, rng.Below(shadow.size()));
      ASSERT_TRUE(
          tree->Delete(&stack.ctx, {it->first.first, it->first.second}).ok());
      shadow.erase(it);
    }
    if (param.pattern == Pattern::kDeleteHeavy && i % 100 == 0) {
      ASSERT_TRUE(tree->Validate(&stack.ctx).ok()) << "op " << i;
    }
  }
  if (param.pattern == Pattern::kDeleteHeavy) {
    // Freed leaves went back: far fewer pages than at the peak.
    EXPECT_LT(tree->page_count(), stack.tablespace->page_count() / 2);
  }

  ASSERT_EQ(tree->entry_count(), shadow.size());
  ASSERT_TRUE(tree->Validate(&stack.ctx).ok());

  // Every shadow entry is found with the right value.
  for (const auto& [k, v] : shadow) {
    auto got = tree->Lookup(&stack.ctx, {k.first, k.second});
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, v);
  }
  // Full scan yields exactly the shadow, in order.
  auto it = shadow.begin();
  uint64_t scanned = 0;
  ASSERT_TRUE(tree->ScanFrom(&stack.ctx, Key128::Min(),
                             [&](Key128 k, uint64_t v) {
                               EXPECT_EQ(k.hi, it->first.first);
                               EXPECT_EQ(k.lo, it->first.second);
                               EXPECT_EQ(v, it->second);
                               ++it;
                               scanned++;
                               return true;
                             }).ok());
  EXPECT_EQ(scanned, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BTreePropertyTest,
    ::testing::Values(BTreeParam{Pattern::kRandom, 800, "random"},
                      BTreeParam{Pattern::kAscending, 800, "ascending"},
                      BTreeParam{Pattern::kDescending, 800, "descending"},
                      BTreeParam{Pattern::kClustered, 800, "clustered"},
                      BTreeParam{Pattern::kRandom, 3000, "random_large"},
                      BTreeParam{Pattern::kDeleteHeavy, 3000,
                                 "delete_heavy"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace noftl::index
