// sketch-sim: SketchAggregator's finger-tree convergecast of K = 64 density
// sketches. It touches every peer with no Lookup and no reconstruction, so
// it isolates core/sketch_aggregation and stats/density_sketch.

#include <optional>
#include <unordered_set>

#include "core/local_summary.h"
#include "workloads.h"

namespace ringbench {

using ringdde::ChordRing;
using ringdde::DensityEstimate;
using ringdde::DensitySketch;
using ringdde::NodeAddr;
using ringdde::Result;
using ringdde::RingId;
using ringdde::Status;

namespace {

/// Estimates per second on the reference host (4 vCPU).
constexpr double kSketchNominalPerSecond = 35.0;
/// Floor that leaves >= 10 samples beyond p90.
constexpr size_t kTailFloor = 100;
constexpr size_t kWarmupEstimates = 2;
/// Estimates per timed segment (kScoreBatch elsewhere): ~0.1 s, so a 15 s
/// run has 131. Longer segments spread more between runs (README.md).
constexpr size_t kSketchBatch = 4;
/// SketchAggregator's recursion cap.
constexpr int kMaxDepth = 80;

/// The convergecast of one estimate, recorded by re-walking the tree the way
/// SketchAggregator::Aggregate does: the peers summarized, and every merge
/// in execution order as (destination sink, own sketch or child sink).
struct ConvergecastRecord {
  std::vector<const ringdde::Node*> peers;
  std::vector<DensitySketch> own;
  struct Merge {
    size_t dst = 0;
    bool from_own = false;
    size_t src = 0;
  };
  std::vector<Merge> merges;
  size_t sinks = 1;
};

class ConvergecastRecorder {
 public:
  ConvergecastRecorder(const ChordRing& ring, uint32_t levels)
      : ring_(ring), levels_(levels) {}

  /// Walks from `querier` and returns the root sink.
  DensitySketch Record(NodeAddr querier, ConvergecastRecord* out) {
    out_ = out;
    sinks_.assign(1, DensitySketch(levels_));
    Walk(querier, ring_.GetNode(querier)->id(), 0, 0);
    out->sinks = sinks_.size();
    return sinks_[0];
  }

 private:
  size_t Walk(NodeAddr coordinator, RingId until, size_t sink, int depth) {
    if (depth > kMaxDepth) return 0;
    const ringdde::Node* node = ring_.GetNode(coordinator);
    if (node == nullptr || !node->alive()) return 0;
    if (!visited_.insert(coordinator).second) return 0;
    size_t merged = 0;
    ringdde::LocalSummary own =
        ringdde::ComputeLocalSummaryWithDensitySketch(*node, levels_);
    out_->peers.push_back(node);
    if (own.sketch.has_value() && sinks_[sink].Merge(*own.sketch).ok()) {
      out_->merges.push_back({sink, true, out_->own.size()});
      out_->own.push_back(std::move(*own.sketch));
      merged = 1;
    }
    std::vector<ringdde::NodeEntry> children;
    std::unordered_set<NodeAddr> dedup;
    for (int k = 0; k < ringdde::FingerTable::kBits; ++k) {
      const auto& f = node->fingers().Get(k);
      if (!f.has_value() || f->addr == coordinator) continue;
      if (!ringdde::InArcOpenOpen(f->id, node->id(), until)) continue;
      if (!ring_.IsAlive(f->addr)) continue;
      if (dedup.insert(f->addr).second) children.push_back(*f);
    }
    for (size_t i = 0; i < children.size(); ++i) {
      const RingId bound = i + 1 < children.size() ? children[i + 1].id : until;
      const size_t sub = sinks_.size();
      sinks_.emplace_back(levels_);
      const size_t sub_peers = Walk(children[i].addr, bound, sub, depth + 1);
      if (sub_peers == 0) continue;
      if (sinks_[sink].Merge(sinks_[sub]).ok()) {
        out_->merges.push_back({sink, false, sub});
        merged += sub_peers;
      }
    }
    return merged;
  }

  const ChordRing& ring_;
  uint32_t levels_;
  ConvergecastRecord* out_ = nullptr;
  std::vector<DensitySketch> sinks_;
  std::unordered_set<NodeAddr> visited_;
};

bool SameCdf(const ringdde::PiecewiseLinearCdf& a,
             const ringdde::PiecewiseLinearCdf& b) {
  if (a.knots().size() != b.knots().size()) return false;
  for (size_t i = 0; i < a.knots().size(); ++i) {
    if (a.knots()[i].x != b.knots()[i].x || a.knots()[i].f != b.knots()[i].f) {
      return false;
    }
  }
  return true;
}

/// Replays one estimate's summaries, merges and ToCdf standalone on the
/// same inputs, each loop under one span child of `root`, and checks the
/// replay reproduces the estimate's sketch and CDF bit for bit.
Status ReplayConvergecast(const ChordRing& ring, NodeAddr querier,
                          const DensityEstimate& real, uint32_t qid,
                          int32_t root, SpanLog* log) {
  ConvergecastRecord record;
  ConvergecastRecorder recorder(ring, kSketchLevels);
  const DensitySketch recorded = recorder.Record(querier, &record);
  if (!real.sketch.has_value() || !(recorded == *real.sketch)) {
    return Status::Internal("convergecast replay differs from the estimate");
  }

  uint64_t sink_total = 0;
  Clock::time_point t0 = Clock::now();
  for (const ringdde::Node* peer : record.peers) {
    sink_total +=
        ringdde::ComputeLocalSummaryWithDensitySketch(*peer, kSketchLevels)
            .item_count;
  }
  Clock::time_point t1 = Clock::now();
  log->Record("stats.density_sketch.summary", root, qid, t0, t1,
              record.peers.size());

  std::vector<DensitySketch> sinks(record.sinks, DensitySketch(kSketchLevels));
  t0 = Clock::now();
  for (const ConvergecastRecord::Merge& m : record.merges) {
    (void)sinks[m.dst].Merge(m.from_own ? record.own[m.src] : sinks[m.src]);
  }
  t1 = Clock::now();
  log->Record("stats.density_sketch.merge", root, qid, t0, t1,
              record.merges.size());

  t0 = Clock::now();
  Result<ringdde::PiecewiseLinearCdf> cdf = sinks[0].ToCdf();
  t1 = Clock::now();
  log->Record("stats.density_sketch.to_cdf", root, qid, t0, t1);
  if (!(sinks[0] == *real.sketch) || !cdf.ok() || !SameCdf(*cdf, real.cdf) ||
      sink_total != real.sketch->count()) {
    return Status::Internal("merge replay differs from the estimate");
  }
  return Status::OK();
}

}  // namespace

Result<RunResult> RunSketchSim(const RunConfig& config) {
  const ringdde::DeploymentSpec spec = MakeDeploymentSpec();
  const size_t count =
      QueryCount(config.seconds, kSketchNominalPerSecond, kTailFloor);

  std::unique_ptr<ringdde::Deployment> dep;
  std::vector<SetupTimes> setup_steps;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    Result<std::unique_ptr<ringdde::Deployment>> built =
        BuildRecipe(&times);
    if (!built.ok()) return built.status();
    dep = std::move(*built);
    for (const Query& w :
         MakeQueries(*dep->ring, StreamSeed(config.seed, kWarmupStream),
                     kWarmupEstimates)) {
      ringdde::SketchAggregator aggregator(dep->ring.get(),
                                           SketchQueryOptions(spec, w.seed));
      if (!aggregator.Estimate(w.querier).ok()) {
        return Status::Internal("warm-up estimate failed");
      }
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    setup_steps.push_back(times);
  }
  SampleThreads();

  ChordRing* ring = dep->ring.get();
  const std::vector<Query> queries =
      MakeQueries(*ring, StreamSeed(config.seed, kQueryStream), count);
  Result<std::unique_ptr<ringdde::Distribution>> truth =
      ringdde::MakeSpecDistribution(MakeInsertSpec());
  if (!truth.ok()) return truth.status();
  Scorer scorer(truth->get(), count, ringdde::RpcType::kSketchEstimate);

  // Traced runs time even queries plainly (the overhead baseline) and trace
  // odd ones: the estimate under a span, then its internals replayed.
  std::vector<double> latencies(count, kFailedLatency);
  std::vector<double> plain_latencies;
  double plain_us = 0.0, traced_us = 0.0;
  uint64_t plain_n = 0, traced_n = 0;
  double merged = 0.0, requested = 0.0;
  SpanLog log;
  TimedPhase phase;
  std::vector<std::optional<DensityEstimate>> batch;
  for (size_t b = 0; b < count; b += kSketchBatch) {
    const size_t e = std::min(count, b + kSketchBatch);
    batch.assign(e - b, std::nullopt);
    phase.Begin();
    for (size_t i = b; i < e; ++i) {
      const bool traced = config.trace && i % 2 == 1;
      const uint32_t qid = static_cast<uint32_t>(i);
      const int32_t root =
          traced ? log.Open("core.sketch_aggregation.estimate", -1, qid) : -1;
      const Clock::time_point t0 = Clock::now();
      ringdde::SketchAggregator aggregator(
          ring, SketchQueryOptions(spec, queries[i].seed));
      Result<DensityEstimate> r = aggregator.Estimate(queries[i].querier);
      const Clock::time_point t1 = Clock::now();
      if (traced) log.Close(root);
      if (!r.ok()) continue;
      latencies[i] = Micros(t0, t1);
      if (traced) {
        traced_us += log.DurationUs(root);
        ++traced_n;
        merged += static_cast<double>(r->peers_probed);
        requested += static_cast<double>(r->probes_requested);
        RINGDDE_RETURN_IF_ERROR(
            ReplayConvergecast(*ring, queries[i].querier, *r, qid, root, &log));
      } else {
        plain_us += latencies[i];
        plain_latencies.push_back(latencies[i]);
        ++plain_n;
      }
      batch[i - b] = std::move(*r);
    }
    phase.End(e - b);
    SampleThreads();
    for (size_t i = b; i < e; ++i) {
      if (!batch[i - b].has_value()) {
        scorer.AddFailed();
        continue;
      }
      RINGDDE_RETURN_IF_ERROR(scorer.Add(i, queries[i], *batch[i - b], *ring));
    }
  }

  RunResult result;
  result.attempted = count;
  result.failed = scorer.failed();
  result.digest = scorer.digest();
  if (!config.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_s);
    e2e.latencies_us = std::move(latencies);
    e2e.phase = &phase;
    e2e.scorer = &scorer;
    result.metrics = EndToEndMetrics(e2e);
    return result;
  }
  const SpanTotals spans = log.Aggregate();
  std::map<std::string, double> layers;
  AddSetupLayers(MedianSetup(setup_steps), &layers);
  AddScoringLayers(scorer, &layers);
  if (traced_n > 0) {
    const SpanLog::Totals est =
        TotalsOf(spans, "core.sketch_aggregation.estimate");
    layers["core.sketch_aggregation.us_per_estimate"] =
        est.duration_us / traced_n;
    layers["core.sketch_aggregation.self_us"] = est.self_us / traced_n;
    layers["core.sketch_aggregation.merged_ratio"] = merged / requested;
    layers["stats.density_sketch.summary_us_per_peer"] =
        PerCallUs(spans, "stats.density_sketch.summary");
    layers["stats.density_sketch.merge_us"] =
        PerCallUs(spans, "stats.density_sketch.merge");
    layers["stats.density_sketch.to_cdf_us"] =
        PerCallUs(spans, "stats.density_sketch.to_cdf");
    layers["trace.overhead_frac"] = (traced_us / traced_n) / (plain_us / plain_n);
    layers["estimates_per_s"] = 1e6 * static_cast<double>(plain_n) / plain_us;
    AddTailLayers(plain_latencies, &layers);
  }
  result.layers = std::move(layers);
  result.spans = std::move(log);
  return result;
}

}  // namespace ringbench
