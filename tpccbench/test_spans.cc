// Self-time arithmetic on a synthetic span set: nested children, children
// that overlap each other, a child that runs past its parent's end, and a
// span with no children. Exits non-zero on the first mismatch.
#include <cstdio>
#include <vector>

#include "spans.h"

namespace {

tpccbench::Span MakeSpan(const char* name, uint64_t start, uint64_t end,
                         int64_t parent) {
  tpccbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

int failures = 0;

void Expect(const char* what, uint64_t got, uint64_t want) {
  if (got != want) {
    std::fprintf(stderr, "FAIL %s: got %llu, want %llu\n", what,
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    failures++;
  }
}

}  // namespace

int main() {
  using tpccbench::SelfTimes;
  std::vector<tpccbench::Span> spans = {
      // 0: root [0, 100)
      MakeSpan("txn.stocklevel", 0, 100, -1),
      // 1, 2: overlapping children [10, 40) and [30, 50) -> union [10, 50)
      MakeSpan("mvcc.open", 10, 40, 0),
      MakeSpan("child.b", 30, 50, 0),
      // 3: grandchild inside child 1; it reduces child 1 only.
      MakeSpan("grandchild", 15, 25, 1),
      // 4: child past the parent's end, clipped to [90, 100)
      MakeSpan("mvcc.release", 90, 130, 0),
      // 5: a second root with no children
      MakeSpan("sched.tick", 200, 207, -1),
      // 6: a child nested exactly on its parent covers it fully
      MakeSpan("txn.payment", 300, 310, -1),
      MakeSpan("probe.same", 300, 310, 6),
      // 8: disjoint children [410, 420) and [450, 455)
      MakeSpan("txn.delivery", 400, 500, -1),
      MakeSpan("c1", 410, 420, 8),
      MakeSpan("c2", 450, 455, 8),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  Expect("root minus union and clipped child", self[0], 100 - 40 - 10);
  Expect("child minus grandchild", self[1], 30 - 10);
  Expect("overlapping sibling keeps its own duration", self[2], 20);
  Expect("leaf", self[3], 10);
  Expect("child past parent keeps its own duration", self[4], 40);
  Expect("childless root", self[5], 7);
  Expect("fully covered parent", self[6], 0);
  Expect("fully covering child", self[7], 10);
  Expect("disjoint children", self[8], 100 - 10 - 5);

  // A span whose parent index is out of range is treated as a root.
  std::vector<tpccbench::Span> orphan = {MakeSpan("orphan", 5, 9, 7)};
  Expect("orphan", SelfTimes(orphan)[0], 4);

  if (failures == 0) std::printf("test_spans: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
