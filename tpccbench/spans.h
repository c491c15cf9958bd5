// Spans of the benchmark's traced run and the self-time arithmetic over
// them. A span is recorded by the benchmark around one call into a layer's
// public function (a transaction, a snapshot open, a scheduler tick, a
// probe batch); spans live in memory and are written out when the run ends.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

namespace tpccbench {

/// Counters read at both boundaries of a span; the span stores the delta.
struct SpanCounters {
  uint64_t page_fixes = 0;   ///< buffer-pool hits + misses
  uint64_t host_reads = 0;   ///< flash host page reads
  uint64_t host_writes = 0;  ///< flash host page programs
};

struct Span {
  const char* name = "";  ///< static string, e.g. "txn.neworder"
  uint64_t start_ns = 0;  ///< steady_clock, relative to the run start
  uint64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the parent span, -1 for a root
  uint64_t request = 0;   ///< request id shared by the spans of one request
  SpanCounters delta;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children's intervals covers. Children are
/// clipped to the parent's interval, and overlapping children count once.
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t run_lo = 0;
    uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const uint64_t duration =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

/// One CSV line per span: index, name, start, end, parent, request, self
/// time and the counter deltas.
inline bool WriteSpans(const std::vector<Span>& spans, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::fprintf(f,
               "id,name,start_ns,end_ns,parent,request,self_ns,page_fixes,"
               "host_reads,host_writes\n");
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%llu,%llu,%lld,%llu,%llu,%llu,%llu,%llu\n", i,
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(self[i]),
                 static_cast<unsigned long long>(s.delta.page_fixes),
                 static_cast<unsigned long long>(s.delta.host_reads),
                 static_cast<unsigned long long>(s.delta.host_writes));
  }
  return std::fclose(f) == 0;
}

}  // namespace tpccbench
