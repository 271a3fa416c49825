#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/density_estimator.h"
#include "harness.h"
#include "ring/chord_ring.h"
#include "ring/epoch_snapshot.h"
#include "trace.h"

namespace ringbench {

/// The four workloads. Each builds the recipe deployment kSetupReps times,
/// replays its fixed query list, checks every output, and returns the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
ringdde::Result<RunResult> RunProbeSim(const RunConfig& config);
ringdde::Result<RunResult> RunProbeWire(const RunConfig& config);
ringdde::Result<RunResult> RunSketchSim(const RunConfig& config);
ringdde::Result<RunResult> RunChurnServe(const RunConfig& config);

/// Probe-path layer tallies from TraceProbeQuery.
struct ProbeTally {
  uint64_t estimates = 0;
  uint64_t targets = 0;
  uint64_t local_hits = 0;
  uint64_t probes = 0;
  uint64_t failed_probes = 0;
  uint64_t hops = 0;
  /// Wall time of the plain Estimate call and of the traced replay.
  double untraced_us = 0.0;
  double traced_us = 0.0;
  std::vector<double> untraced_samples_us;

  void Add(const ProbeTally& other);
};

/// Runs one probe-path query twice on the same inputs: the plain
/// DistributionFreeEstimator::Estimate, and a traced replay of its call
/// sequence (ProbeUniform, ReconstructGlobalCdf, SampleStratified,
/// ProbeTargets, ReconstructGlobalCdf) built from the same DdeOptions,
/// MakeQueryContext and Rng. The lookups and summaries inside each probe
/// round are then replayed standalone, each loop under one span. Returns a
/// non-ok Status when the replay does not reproduce the estimate bit for
/// bit; `*out` stays empty when the query itself failed.
ringdde::Status TraceProbeQuery(ringdde::ChordRing* ring, const Query& q,
                                const ringdde::DdeOptions& opts,
                                uint32_t query_id, SpanLog* log,
                                ProbeTally* tally,
                                std::optional<ringdde::DensityEstimate>* out);
ringdde::Status TraceProbeQuery(const ringdde::EpochView* view, const Query& q,
                                const ringdde::DdeOptions& opts,
                                uint32_t query_id, SpanLog* log,
                                ProbeTally* tally,
                                std::optional<ringdde::DensityEstimate>* out);

/// Adds the probe-path per-layer lines derived from `spans` and `tally`,
/// with estimate_p99_us over the plain Estimate calls.
void AddProbeLayers(const SpanTotals& spans,
                    const ProbeTally& tally, const Scorer& scorer,
                    std::map<std::string, double>* out);

}  // namespace ringbench

#endif  // PERFBENCH_WORKLOADS_H_
