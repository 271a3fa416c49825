#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "apps/selectivity.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "stats/metrics.h"

namespace ringbench {

using ringdde::ChordRing;
using ringdde::DensityEstimate;
using ringdde::Deployment;
using ringdde::DeploymentSpec;
using ringdde::InsertSpec;
using ringdde::Result;
using ringdde::Status;

namespace {

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Selectivity is scored on this many estimates per run.
constexpr size_t kSelectivityEstimates = 8;

}  // namespace

uint64_t StreamSeed(uint64_t seed, Stream stream) {
  return ringdde::DeriveTaskSeed(seed, static_cast<uint64_t>(stream));
}

DeploymentSpec MakeDeploymentSpec() {
  DeploymentSpec spec;
  spec.peers = kPeers;
  spec.ring_seed = StreamSeed(kDeploymentSeed, kRingStream);
  spec.net_seed = StreamSeed(kDeploymentSeed, kNetStream);
  spec.num_probes = kProbes;
  spec.refinement_rounds = kRefinementRounds;
  spec.local_quantiles = kLocalQuantiles;
  spec.sketch_levels = kSketchLevels;
  return spec;
}

InsertSpec MakeInsertSpec() {
  InsertSpec spec;
  spec.dist_kind = 2;  // Zipf(values = param_a, theta = param_b)
  spec.param_a = kZipfValues;
  spec.param_b = kZipfTheta;
  spec.count = kItems;
  spec.data_seed = StreamSeed(kDeploymentSeed, kDataStream);
  return spec;
}

Status PopulateRecipe(Deployment* dep, SetupTimes* times) {
  const InsertSpec ins = MakeInsertSpec();
  Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<ringdde::Distribution>> dist =
      ringdde::MakeSpecDistribution(ins);
  if (!dist.ok()) return dist.status();
  ringdde::Rng rng(ins.data_seed);
  ringdde::Dataset dataset =
      ringdde::GenerateDataset(**dist, static_cast<size_t>(ins.count), rng);
  Clock::time_point t1 = Clock::now();
  times->generate_s = Seconds(t0, t1);
  dep->ring->InsertDatasetBulk(dataset.keys);
  t0 = Clock::now();
  times->bulk_insert_s = Seconds(t1, t0);
  dep->ring->StabilizeAll();
  t1 = Clock::now();
  times->stabilize_all_s = Seconds(t0, t1);
  dep->ring->PrepareConcurrentReads();
  times->prepare_reads_s = Seconds(t1, Clock::now());
  if (dep->ring->TotalItems() != ins.count) {
    return Status::Internal("deployment lost items during the bulk load");
  }
  return Status::OK();
}

Result<std::unique_ptr<Deployment>> BuildRecipe(SetupTimes* times) {
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<Deployment>> dep =
      ringdde::BuildDeployment(MakeDeploymentSpec());
  if (!dep.ok()) return dep.status();
  times->create_s = Seconds(t0, Clock::now());
  RINGDDE_RETURN_IF_ERROR(PopulateRecipe(dep->get(), times));
  return dep;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SetupTimes MedianSetup(const std::vector<SetupTimes>& reps) {
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : reps) v.push_back(r.*field);
    return Median(std::move(v));
  };
  SetupTimes m;
  m.create_s = median_of(&SetupTimes::create_s);
  m.generate_s = median_of(&SetupTimes::generate_s);
  m.bulk_insert_s = median_of(&SetupTimes::bulk_insert_s);
  m.stabilize_all_s = median_of(&SetupTimes::stabilize_all_s);
  m.prepare_reads_s = median_of(&SetupTimes::prepare_reads_s);
  return m;
}

std::vector<Query> MakeQueries(const ChordRing& ring, uint64_t stream_seed,
                               size_t count) {
  ringdde::Rng rng(stream_seed);
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    q.querier = ring.AliveAddrAtRank(
        static_cast<size_t>(rng.UniformU64(ring.AliveCount())));
    q.seed = rng.NextU64();
  }
  return queries;
}

size_t QueryCount(int seconds, double nominal_per_second, size_t floor) {
  const double n = std::ceil(static_cast<double>(seconds) * nominal_per_second);
  return std::max(floor, static_cast<size_t>(n));
}

ringdde::DdeOptions ProbeQueryOptions(const DeploymentSpec& spec,
                                      uint64_t query_seed) {
  ringdde::DdeOptions opts;
  opts.num_probes = static_cast<size_t>(spec.num_probes);
  opts.refinement_rounds = static_cast<int>(spec.refinement_rounds);
  opts.local_quantiles = static_cast<int>(spec.local_quantiles);
  opts.retry.max_attempts = static_cast<int>(spec.retry_max_attempts);
  opts.seed = query_seed;
  return opts;
}

ringdde::SketchAggregationOptions SketchQueryOptions(
    const DeploymentSpec& spec, uint64_t query_seed) {
  ringdde::SketchAggregationOptions opts;
  opts.sketch_levels = spec.sketch_levels;
  opts.retry.max_attempts = static_cast<int>(spec.retry_max_attempts);
  opts.seed = query_seed;
  return opts;
}

void EncodeEstimateRequest(const Query& q, ringdde::RpcType type,
                           ringdde::Frame* frame) {
  ringdde::Encoder enc;
  enc.PutVarint64(q.querier);
  enc.PutFixed64(q.seed);
  frame->type = static_cast<uint8_t>(type);
  frame->payload = enc.Take();
}

namespace {

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  uint64_t z = digest ^ (value + 0x9E3779B97F4A7C15ULL + (digest << 6) +
                         (digest >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t EstimateDigest(const DensityEstimate& e) {
  uint64_t h = MixDigest(0, e.cdf.knots().size());
  for (const auto& k : e.cdf.knots()) {
    h = MixDigest(h, Bits(k.x));
    h = MixDigest(h, Bits(k.f));
  }
  if (e.sketch.has_value()) {
    h = MixDigest(h, e.sketch->count());
    h = MixDigest(h, e.sketch->merge_depth());
    for (double k : e.sketch->knots()) h = MixDigest(h, Bits(k));
  }
  for (uint64_t v :
       {Bits(e.estimated_total_items), static_cast<uint64_t>(e.peers_probed),
        Bits(e.covered_fraction), Bits(e.produced_at), e.cost.messages,
        e.cost.hops, e.cost.bytes, Bits(e.cost.latency_sum), e.cost.timeouts,
        e.cost.retries, e.cost.failed_probes,
        static_cast<uint64_t>(e.probes_requested), e.failed_probes, e.retries,
        e.timeouts}) {
    h = MixDigest(h, v);
  }
  return h;
}

// --- Scorer ------------------------------------------------------------------

namespace {

const std::vector<ringdde::RangeQuery>& SelectivityRanges() {
  static const std::vector<ringdde::RangeQuery> ranges = [] {
    ringdde::Rng rng(0x5E1EC7);
    return ringdde::GenerateRangeQueries(200, 0.1, rng);
  }();
  return ranges;
}

Status CheckCdf(const ringdde::PiecewiseLinearCdf& cdf) {
  const auto& knots = cdf.knots();
  if (knots.empty()) return Status::Internal("estimate has an empty CDF");
  double prev_x = 0.0;
  double prev_f = 0.0;
  for (const auto& k : knots) {
    if (!(k.x >= prev_x && k.x <= 1.0 && k.f >= prev_f && k.f <= 1.0)) {
      return Status::Internal("estimate CDF is not monotone on [0, 1]");
    }
    prev_x = k.x;
    prev_f = k.f;
  }
  if (!cdf.IsNormalized()) {
    return Status::Internal("estimate CDF is not normalized");
  }
  return Status::OK();
}

}  // namespace

Scorer::Scorer(const ringdde::Distribution* truth, size_t query_count,
               ringdde::RpcType rpc_type)
    : truth_(truth),
      selectivity_stride_(std::max<size_t>(
          1, (query_count + kSelectivityEstimates - 1) /
                 kSelectivityEstimates)),
      rpc_type_(rpc_type) {
  SelectivityRanges();
}

Status Scorer::Add(size_t index, const Query& q, const DensityEstimate& e,
                   const ChordRing& ring) {
  RINGDDE_RETURN_IF_ERROR(CheckCdf(e.cdf));
  ++ok_;
  digest_ = MixDigest(digest_, EstimateDigest(e));
  messages_ += static_cast<double>(e.cost.messages);
  bytes_ += static_cast<double>(e.cost.bytes);
  knots_ += static_cast<double>(e.cdf.knots().size());
  peers_ += static_cast<double>(e.peers_probed);

  ringdde::Frame request;
  EncodeEstimateRequest(q, rpc_type_, &request);
  scratch_.Clear();
  ringdde::EncodeEstimateReply(e, &scratch_);
  frame_bytes_ += 2 * ringdde::kMuxFrameHeaderBytes + request.payload.size() +
                  scratch_.size();

  Clock::time_point t0 = Clock::now();
  ks_sum_ += ringdde::CompareCdfToTruth(e.cdf, *truth_).ks;
  Clock::time_point t1 = Clock::now();
  ks_seconds_ += Seconds(t0, t1);
  if (index % selectivity_stride_ == 0) {
    ringdde::EvaluateSelectivity(e.cdf, ring, SelectivityRanges());
    selectivity_seconds_ += Seconds(t1, Clock::now());
    ++selectivity_count_;
  }
  return Status::OK();
}

double Scorer::ks_mean() const { return ok_ ? ks_sum_ / ok_ : 0.0; }
double Scorer::msgs_per_estimate() const {
  return ok_ ? messages_ / ok_ : 0.0;
}
double Scorer::bytes_per_estimate() const { return ok_ ? bytes_ / ok_ : 0.0; }
double Scorer::frame_bytes_per_estimate() const {
  return ok_ ? static_cast<double>(frame_bytes_) / ok_ : 0.0;
}
double Scorer::knots_per_estimate() const { return ok_ ? knots_ / ok_ : 0.0; }
double Scorer::peers_per_estimate() const { return ok_ ? peers_ / ok_ : 0.0; }

// --- Timing and process probes -------------------------------------------------

double ProcessCpuSeconds() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void TimedPhase::Begin() {
  cpu0_ = ProcessCpuSeconds();
  wall0_ = Clock::now();
}

void TimedPhase::End(size_t estimates) {
  wall_s_ += Seconds(wall0_, Clock::now());
  if (estimates == 0) return;
  segment_sizes_.push_back(estimates);
  segment_cpu_us_.push_back(1e6 * (ProcessCpuSeconds() - cpu0_) / estimates);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

namespace {
size_t g_threads_max = 0;
}  // namespace

void SampleThreads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long n = 0;
    if (std::sscanf(line, "Threads: %lu", &n) == 1) {
      g_threads_max = std::max(g_threads_max, static_cast<size_t>(n));
      break;
    }
  }
  std::fclose(f);
}

size_t ThreadsMax() { return g_threads_max; }

HostCpu ReadHostCpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

double StealFraction(const HostCpu& from, const HostCpu& to) {
  const uint64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t PoolSize() { return ringdde::ThreadPool::Global().concurrency(); }

// --- Metric schemas -----------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const EndToEnd& in) {
  const Scorer& s = *in.scorer;
  const double n = static_cast<double>(in.latencies_us.size());
  const double wire = in.wire_bytes_per_estimate >= 0.0
                          ? in.wire_bytes_per_estimate
                          : s.frame_bytes_per_estimate();
  // Timings are 90th percentiles over the timed segments of a segment's
  // median latency and of its CPU per estimate. The host's memory speed
  // alternates between two states about 1.6x apart for seconds to minutes;
  // a run-wide median follows the mix of states a run catches, while the
  // 90th percentile over segments stays in the loaded state unless nine
  // tenths of a run is quiet, and a segment's median drops the wake-up
  // tails of single requests.
  std::vector<double> segment_p50_us;
  auto next = in.latencies_us.begin();
  for (size_t size : in.phase->segment_sizes()) {
    segment_p50_us.push_back(
        Percentile(std::vector<double>(next, next + size), 50));
    next += size;
  }
  return {
      {"setup_s", in.setup_s, "s"},
      {"estimate_us", Percentile(std::move(segment_p50_us), 90), "us"},
      {"ks_mean", s.ks_mean(), "ks"},
      {"msgs_per_estimate", s.msgs_per_estimate(), "count"},
      {"bytes_per_estimate", s.bytes_per_estimate(), "bytes"},
      {"wire_bytes_per_estimate", wire, "bytes"},
      {"ok_frac", static_cast<double>(s.ok()) / n, "ratio"},
      {"cpu_us_per_estimate", Percentile(in.phase->segment_cpu_us(), 90),
       "us"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

namespace {

struct LayerSchemaEntry {
  const char* name;
  const char* unit;
};

// The per-layer lines of BENCHMARK.json, in order. README.md maps each to
// the end-to-end metric it should move.
constexpr LayerSchemaEntry kLayerSchema[] = {
    {"data.generate_s", "s"},
    {"ring.create_s", "s"},
    {"ring.bulk_insert_s", "s"},
    {"ring.stabilize_all_s", "s"},
    {"ring.prepare_reads_s", "s"},
    {"ring.lookup_us", "us"},
    {"ring.hops_per_lookup", "count"},
    {"ring.lookups_per_estimate", "count"},
    {"core.probe.round_self_us", "us"},
    {"core.probe.summary_us", "us"},
    {"core.probe.fetched_per_estimate", "count"},
    {"core.probe.local_hit_ratio", "ratio"},
    {"core.probe.failed_ratio", "ratio"},
    {"core.global_cdf.us_per_estimate", "us"},
    {"core.global_cdf.calls_per_estimate", "count"},
    {"core.global_cdf.knots_out", "count"},
    {"core.inversion_sampler.us_per_estimate", "us"},
    {"core.density_estimator.self_us", "us"},
    {"core.wire.encode_us", "us"},
    {"core.wire.decode_us", "us"},
    {"core.wire.reply_bytes", "bytes"},
    {"sim.rpc.client_us", "us"},
    {"sim.rpc.overhead_us", "us"},
    {"sim.rpc.frames_per_estimate", "count"},
    {"sim.rpc.allocs_per_estimate", "count"},
    {"sim.rpc.failed", "count"},
    {"core.ring_service.handle_us", "us"},
    {"core.ring_service.wait_us", "us"},
    {"core.sketch_aggregation.us_per_estimate", "us"},
    {"core.sketch_aggregation.self_us", "us"},
    {"core.sketch_aggregation.merged_ratio", "ratio"},
    {"stats.density_sketch.summary_us_per_peer", "us"},
    {"stats.density_sketch.merge_us", "us"},
    {"stats.density_sketch.to_cdf_us", "us"},
    {"ring.churn.advance_us", "us"},
    {"ring.churn.events_per_epoch", "count"},
    {"ring.epoch_snapshot.publish_us", "us"},
    {"ring.epoch_snapshot.first_publish_s", "s"},
    {"ring.epoch_snapshot.reuse_ratio", "ratio"},
    {"ring.epoch_snapshot.reader_wait_us", "us"},
    {"ring.epoch_snapshot.mutator_wait_us", "us"},
    {"estimates_per_s", "1/s"},
    {"estimate_p50_us", "us"},
    {"estimate_p90_us", "us"},
    {"estimate_p99_us", "us"},
    {"score_s", "s"},
    {"stats.metrics.ks_us_per_estimate", "us"},
    {"apps.selectivity.ms_per_estimate", "ms"},
    {"proc.threads_max", "count"},
    {"host.steal_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

Result<std::vector<Metric>> PerLayerMetrics(
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  size_t used = 0;
  for (const LayerSchemaEntry& entry : kLayerSchema) {
    auto it = values.find(entry.name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
      ++used;
    }
    out.push_back({entry.name, v, entry.unit});
  }
  if (used != values.size()) {
    return Status::Internal("a per-layer value is missing from the schema");
  }
  return out;
}

void AddSetupLayers(const SetupTimes& t, std::map<std::string, double>* out) {
  (*out)["data.generate_s"] = t.generate_s;
  (*out)["ring.create_s"] = t.create_s;
  (*out)["ring.bulk_insert_s"] = t.bulk_insert_s;
  (*out)["ring.stabilize_all_s"] = t.stabilize_all_s;
  (*out)["ring.prepare_reads_s"] = t.prepare_reads_s;
}

void AddTailLayers(const std::vector<double>& latencies_us,
                   std::map<std::string, double>* out) {
  (*out)["estimate_p50_us"] = Percentile(latencies_us, 50);
  (*out)["estimate_p90_us"] = Percentile(latencies_us, 90);
  (*out)["estimate_p99_us"] = Percentile(latencies_us, 99);
}

void AddScoringLayers(const Scorer& s, std::map<std::string, double>* out) {
  (*out)["score_s"] = s.score_seconds();
  if (s.ok() > 0) {
    (*out)["stats.metrics.ks_us_per_estimate"] = 1e6 * s.ks_seconds() / s.ok();
  }
  if (s.selectivity_evaluations() > 0) {
    (*out)["apps.selectivity.ms_per_estimate"] =
        1e3 * s.selectivity_seconds() / s.selectivity_evaluations();
  }
}

}  // namespace ringbench
