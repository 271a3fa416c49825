#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the ringbench program: the deployment recipe every
// workload serves, seeded query lists, output checks and scoring, timed
// phases, process probes, and the metric schemas printed in the result.

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/density_estimator.h"
#include "core/ring_service.h"
#include "core/sketch_aggregation.h"
#include "data/distribution.h"
#include "sim/transport.h"
#include "trace.h"

namespace ringbench {

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double Micros(Clock::time_point from, Clock::time_point to) {
  return 1e6 * Seconds(from, to);
}

/// The deployment recipe (identical in all four workloads).
inline constexpr uint64_t kPeers = 4096;
inline constexpr uint64_t kProbes = 256;
inline constexpr uint32_t kRefinementRounds = 2;
inline constexpr uint32_t kLocalQuantiles = 8;
inline constexpr uint32_t kSketchLevels = 64;
inline constexpr uint64_t kItems = 1000000;
inline constexpr double kZipfValues = 1000;
inline constexpr double kZipfTheta = 0.9;

/// Latency of an estimate that failed.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;
/// Estimates per timed segment; scoring passes run between segments.
inline constexpr size_t kScoreBatch = 256;

/// Command line of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the end-to-end metrics of an untraced
/// run, or the per-layer values and spans of a traced one.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Order-sensitive digest of every estimate (EstimateDigest).
  uint64_t digest = 0;
  std::vector<Metric> metrics;
  std::map<std::string, double> layers;
  SpanLog spans;
};

// --- Deployment ------------------------------------------------------------

/// Independent seed streams. The deployment's ring, network and data
/// streams and the churn schedule derive from kDeploymentSeed, the queries
/// from the run seed: mean KS differs by about a quarter between
/// deployments, so only fixed ring states let accuracy repeat within a
/// bound across run seeds.
enum Stream : uint64_t {
  kRingStream = 1,
  kNetStream = 2,
  kDataStream = 3,
  kChurnStream = 4,
  kQueryStream = 5,
  kWarmupStream = 6,
};
inline constexpr uint64_t kDeploymentSeed = 1;
uint64_t StreamSeed(uint64_t seed, Stream stream);

ringdde::DeploymentSpec MakeDeploymentSpec();
ringdde::InsertSpec MakeInsertSpec();

/// Wall seconds of each step of one deployment build.
struct SetupTimes {
  double create_s = 0.0;
  double generate_s = 0.0;
  double bulk_insert_s = 0.0;
  double stabilize_all_s = 0.0;
  double prepare_reads_s = 0.0;
};

/// BuildDeployment, then PopulateRecipe.
ringdde::Result<std::unique_ptr<ringdde::Deployment>> BuildRecipe(
    SetupTimes* times);

/// kInsert's synthesis (MakeSpecDistribution, GenerateDataset,
/// InsertDatasetBulk), StabilizeAll and PrepareConcurrentReads on a built
/// deployment.
ringdde::Status PopulateRecipe(ringdde::Deployment* dep, SetupTimes* times);

/// Per-step medians over the set-up repetitions.
SetupTimes MedianSetup(const std::vector<SetupTimes>& reps);

double Median(std::vector<double> values);

// --- Queries ---------------------------------------------------------------

struct Query {
  ringdde::NodeAddr querier = 0;
  uint64_t seed = 0;
};

/// `count` (querier, query seed) pairs drawn from `stream_seed`.
std::vector<Query> MakeQueries(const ringdde::ChordRing& ring,
                               uint64_t stream_seed, size_t count);

/// The run's fixed query count: `seconds` times the workload's nominal rate
/// on the reference host, never below `floor`. It depends on nothing
/// measured, so every count metric repeats exactly for a seed.
size_t QueryCount(int seconds, double nominal_per_second, size_t floor);

/// The options kEstimate applies for `spec` (RingRpcService), so the sim
/// and wire probe workloads compute identical estimates.
ringdde::DdeOptions ProbeQueryOptions(const ringdde::DeploymentSpec& spec,
                                      uint64_t query_seed);
/// The options kSketchEstimate applies for `spec`.
ringdde::SketchAggregationOptions SketchQueryOptions(
    const ringdde::DeploymentSpec& spec, uint64_t query_seed);

/// Encoded kEstimate / kSketchEstimate request for `q`.
void EncodeEstimateRequest(const Query& q, ringdde::RpcType type,
                           ringdde::Frame* frame);

// --- Output checks and scoring ----------------------------------------------

/// Digest of every field an estimate carries over the wire.
uint64_t EstimateDigest(const ringdde::DensityEstimate& e);

/// Checks, digests and scores estimates in query order. Scoring is the
/// harness's ground-truth work (the score_s line): CompareCdfToTruth on every
/// estimate plus EvaluateSelectivity on 200 fixed ranges for a fixed subset.
class Scorer {
 public:
  Scorer(const ringdde::Distribution* truth, size_t query_count,
         ringdde::RpcType rpc_type);

  /// Scores query `index`. Non-ok on a wrong output: a CDF that is not
  /// monotone and normalized on [0, 1]. `ring` serves selectivity truth.
  ringdde::Status Add(size_t index, const Query& q,
                      const ringdde::DensityEstimate& e,
                      const ringdde::ChordRing& ring);
  void AddFailed() { ++failed_; }

  uint64_t ok() const { return ok_; }
  uint64_t failed() const { return failed_; }
  uint64_t digest() const { return digest_; }
  double ks_mean() const;
  double msgs_per_estimate() const;
  double bytes_per_estimate() const;
  /// Request plus reply frame bytes the estimate's RPC carries (v2 frames).
  double frame_bytes_per_estimate() const;
  uint64_t frame_bytes_total() const { return frame_bytes_; }
  double knots_per_estimate() const;
  double peers_per_estimate() const;
  double score_seconds() const { return ks_seconds_ + selectivity_seconds_; }
  double ks_seconds() const { return ks_seconds_; }
  double selectivity_seconds() const { return selectivity_seconds_; }
  uint64_t selectivity_evaluations() const { return selectivity_count_; }

 private:
  const ringdde::Distribution* truth_;
  size_t selectivity_stride_;
  ringdde::RpcType rpc_type_;
  ringdde::Encoder scratch_;
  uint64_t ok_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0x52494E47424E4348ULL;
  double ks_sum_ = 0.0;
  double messages_ = 0.0;
  double bytes_ = 0.0;
  uint64_t frame_bytes_ = 0;
  double knots_ = 0.0;
  double peers_ = 0.0;
  double ks_seconds_ = 0.0;
  double selectivity_seconds_ = 0.0;
  uint64_t selectivity_count_ = 0;
};

// --- Timing and process probes ----------------------------------------------

/// Process user + system CPU seconds (all threads).
double ProcessCpuSeconds();

/// Accumulates wall time over the timed segments of a run (scoring passes
/// run between segments) and keeps each segment's size and process CPU time.
class TimedPhase {
 public:
  void Begin();
  /// Ends a segment in which `estimates` estimates were attempted.
  void End(size_t estimates);
  double wall_s() const { return wall_s_; }
  /// Estimates attempted in each segment, in run order.
  const std::vector<size_t>& segment_sizes() const { return segment_sizes_; }
  /// Process user + system CPU microseconds per attempted estimate, per
  /// segment.
  const std::vector<double>& segment_cpu_us() const { return segment_cpu_us_; }

 private:
  Clock::time_point wall0_;
  double cpu0_ = 0.0;
  double wall_s_ = 0.0;
  std::vector<size_t> segment_sizes_;
  std::vector<double> segment_cpu_us_;
};

/// Nearest-rank percentile (p in [0, 100]); +inf entries mark failures.
double Percentile(std::vector<double> values, double p);

/// Samples /proc/self/status and keeps the largest thread count seen.
void SampleThreads();
size_t ThreadsMax();

/// Host CPU jiffies from /proc/stat (steal and total), for steal_frac.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpu ReadHostCpu();
double StealFraction(const HostCpu& from, const HostCpu& to);

double PeakRssMb();

/// Size of the pinned global ThreadPool (caller included).
size_t PoolSize();

// --- Metric schemas ----------------------------------------------------------

/// Inputs of the end-to-end metrics every untraced run prints.
struct EndToEnd {
  double setup_s = 0.0;
  /// Per attempted estimate, in the order of the phase's segments; failures
  /// are +inf.
  std::vector<double> latencies_us;
  const TimedPhase* phase = nullptr;
  const Scorer* scorer = nullptr;
  /// Measured wire bytes per estimate (probe-wire); < 0 uses the encoded
  /// frame size.
  double wire_bytes_per_estimate = -1.0;
};
std::vector<Metric> EndToEndMetrics(const EndToEnd& in);

/// Orders a traced run's per-layer values by the schema; a layer the
/// workload does not exercise reads 0. Fails on a name outside the schema.
ringdde::Result<std::vector<Metric>> PerLayerMetrics(
    const std::map<std::string, double>& values);

/// Adds the set-up and scoring lines every traced run shares.
void AddSetupLayers(const SetupTimes& t, std::map<std::string, double>* out);
/// estimate_p50_us, estimate_p90_us and estimate_p99_us over plainly timed
/// estimates. Percentiles over a whole run (and throughput) follow the host's
/// phases and do not repeat within a bound, so they are per-layer
/// diagnostics.
void AddTailLayers(const std::vector<double>& latencies_us,
                   std::map<std::string, double>* out);
void AddScoringLayers(const Scorer& s, std::map<std::string, double>* out);

}  // namespace ringbench

#endif  // PERFBENCH_HARNESS_H_
