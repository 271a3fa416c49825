#include "trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

const ringbench::Clock::time_point g_epoch = ringbench::Clock::now();

int64_t Nanos(ringbench::Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ringbench {

void SetAllocCounting(bool enabled) {
  g_count_allocs.store(enabled, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

int32_t SpanLog::Open(const char* name, int32_t parent, uint32_t query) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.query = query;
  spans_.push_back(s);
  spans_.back().start_ns = Nanos(Clock::now());
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t id, uint64_t count) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = Nanos(Clock::now());
  s.count = count;
}

int32_t SpanLog::Record(const char* name, int32_t parent, uint32_t query,
                        Clock::time_point start, Clock::time_point end,
                        uint64_t count) {
  spans_.push_back(Span{name, Nanos(start), Nanos(end), parent, query, count});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Absorb(const SpanLog& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

double SpanLog::DurationUs(int32_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  return 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
}

std::map<std::string, SpanLog::Totals> SpanLog::Aggregate() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      child_us[static_cast<size_t>(spans_[i].parent)] +=
          DurationUs(static_cast<int32_t>(i));
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = DurationUs(static_cast<int32_t>(i));
    t.duration_us += d;
    t.self_us += d - child_us[i];
    t.spans += 1;
    t.count += spans_[i].count;
  }
  return out;
}

double PerCallUs(const SpanTotals& totals, const char* name) {
  const SpanLog::Totals t = TotalsOf(totals, name);
  return t.count == 0 ? 0.0 : t.duration_us / static_cast<double>(t.count);
}

SpanLog::Totals TotalsOf(const SpanTotals& totals, const char* name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanLog::Totals{} : it->second;
}

ringdde::Status SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return ringdde::Status::Unavailable("cannot write spans");
  std::fprintf(f, "name\tquery\tparent\tstart_ns\tend_ns\tcount\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%u\t%d\t%lld\t%lld\t%llu\n", s.name, s.query,
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  if (std::fclose(f) != 0) {
    return ringdde::Status::Unavailable("cannot write spans");
  }
  return ringdde::Status::OK();
}

}  // namespace ringbench
