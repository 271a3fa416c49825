#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span log of a traced run. Spans are recorded by the benchmark
// around its own calls into each layer and written out once at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ringbench {

using Clock = std::chrono::steady_clock;

/// One timed call. `parent` indexes the span that caused it (-1 for a
/// query's root). A span around a standalone replay loop covers `count`
/// calls; a replayed child lies outside its parent's interval, so self time
/// subtracts child durations rather than the overlap of intervals.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t query = 0;
  uint64_t count = 1;
};

/// Not thread-safe: one log per recording thread, merged with Absorb.
class SpanLog {
 public:
  /// Names must be string literals (stored by pointer).
  int32_t Open(const char* name, int32_t parent, uint32_t query);
  void Close(int32_t id, uint64_t count = 1);
  int32_t Record(const char* name, int32_t parent, uint32_t query,
                 Clock::time_point start, Clock::time_point end,
                 uint64_t count = 1);

  /// Appends `other`'s spans, re-basing their parent indices.
  void Absorb(const SpanLog& other);

  double DurationUs(int32_t id) const;

  /// Per-name sums: duration, self time (duration minus child durations),
  /// number of spans, and calls covered.
  struct Totals {
    double duration_us = 0.0;
    double self_us = 0.0;
    uint64_t spans = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Aggregate() const;

  /// One tab-separated line per span: name, query, parent, start_ns,
  /// end_ns, count.
  ringdde::Status WriteTsv(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

using SpanTotals = std::map<std::string, SpanLog::Totals>;

/// Mean duration per covered call of the spans named `name` (0 if none).
double PerCallUs(const SpanTotals& totals, const char* name);
/// The totals of the spans named `name` (zeros if none).
SpanLog::Totals TotalsOf(const SpanTotals& totals, const char* name);

/// Global operator-new counter; counts only while enabled (traced runs).
void SetAllocCounting(bool enabled);
uint64_t AllocCount();

}  // namespace ringbench

#endif  // PERFBENCH_TRACE_H_
