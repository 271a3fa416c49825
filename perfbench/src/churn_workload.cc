// churn-serve: estimates served from epoch snapshots while the ring churns.
// One mutator (this thread) advances E19's 600 s-session ChurnProcess by a
// fixed virtual-time slice and publishes the next epoch, while two reader
// threads drain their shares of the current epoch's fixed batch of queries
// on its EpochView. Query q of epoch e always reads epoch e's view, so which
// state a query reads is fixed by construction, never by timing. Like the
// deployment, the churn schedule is fixed: the run seed draws the queries.
//
// Pacing: the mutator publishes epoch e+1 once both readers have started
// epoch e, and a reader starts epoch e+1 once its view is published. Readers
// therefore wait only when publishing falls behind reading, and no barrier
// sits on the per-epoch critical path.

#include <atomic>
#include <barrier>
#include <optional>
#include <thread>

#include "common/thread_pool.h"
#include "ring/churn.h"
#include "workloads.h"

namespace ringbench {

using ringdde::DensityEstimate;
using ringdde::EpochView;
using ringdde::Result;
using ringdde::Status;

namespace {

/// Estimates per second on the reference host (4 vCPU).
constexpr double kChurnNominalPerSecond = 1800.0;
/// Floor that leaves >= 10 samples beyond p99.
constexpr size_t kTailFloor = 1000;
constexpr size_t kWarmupEstimates = 16;
constexpr int kReaders = 2;
constexpr size_t kQueriesPerReader = 32;
constexpr size_t kQueriesPerEpoch = kReaders * kQueriesPerReader;
/// E19's session length, and its slice of ~2 departures per epoch.
constexpr double kSessionSeconds = 600.0;
constexpr double kSliceSeconds = 2.0 * kSessionSeconds / kPeers;
/// Epochs between scoring passes; a group's estimates fill one batch.
constexpr size_t kEpochsPerGroup = kScoreBatch / kQueriesPerEpoch;
static_assert(kScoreBatch % kQueriesPerEpoch == 0);

/// The churning deployment; members are destroyed in reverse order.
struct ChurnStack {
  std::unique_ptr<ringdde::Deployment> dep;
  std::unique_ptr<ringdde::ChurnProcess> churn;
  std::unique_ptr<ringdde::SnapshotManager> snapshots;
  std::shared_ptr<const EpochView> head;
};

/// A reader's own tallies, read by the mutator after joining.
struct ReaderState {
  /// Epochs this reader has started.
  std::atomic<size_t> started{0};
  double view_wait_us = 0.0;
  SpanLog log;
  ProbeTally tally;
  Status error = Status::OK();
};

void WaitAtLeast(const std::atomic<size_t>& value, size_t target) {
  size_t seen = value.load(std::memory_order_acquire);
  while (seen < target) {
    value.wait(seen, std::memory_order_acquire);
    seen = value.load(std::memory_order_acquire);
  }
}

}  // namespace

Result<RunResult> RunChurnServe(const RunConfig& config) {
  const ringdde::DeploymentSpec spec = MakeDeploymentSpec();
  const size_t epochs =
      (QueryCount(config.seconds, kChurnNominalPerSecond, kTailFloor) +
       kQueriesPerEpoch - 1) /
      kQueriesPerEpoch;
  const size_t count = epochs * kQueriesPerEpoch;

  std::unique_ptr<ChurnStack> stack;
  std::vector<SetupTimes> setup_steps;
  std::vector<double> setup_s, first_publish_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = std::make_unique<ChurnStack>();
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    Result<std::unique_ptr<ringdde::Deployment>> built = BuildRecipe(&times);
    if (!built.ok()) return built.status();
    stack->dep = std::move(*built);
    ringdde::ChurnOptions churn_opts;
    churn_opts.mean_session_seconds = kSessionSeconds;
    churn_opts.seed = StreamSeed(kDeploymentSeed, kChurnStream);
    stack->churn = std::make_unique<ringdde::ChurnProcess>(
        stack->dep->ring.get(), churn_opts);
    stack->churn->Start();
    stack->snapshots =
        std::make_unique<ringdde::SnapshotManager>(stack->dep->ring.get());
    const Clock::time_point p0 = Clock::now();
    stack->head = stack->snapshots->Publish();
    first_publish_s.push_back(Seconds(p0, Clock::now()));
    for (const Query& w :
         MakeQueries(*stack->dep->ring, StreamSeed(config.seed, kWarmupStream),
                     kWarmupEstimates)) {
      ringdde::DistributionFreeEstimator estimator(
          stack->head.get(), ProbeQueryOptions(spec, w.seed));
      if (!estimator.Estimate(w.querier).ok()) {
        return Status::Internal("warm-up estimate failed");
      }
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    setup_steps.push_back(times);
  }
  SampleThreads();

  ringdde::ChordRing& ring = *stack->dep->ring;
  ringdde::Network& net = *stack->dep->network;
  Result<std::unique_ptr<ringdde::Distribution>> truth =
      ringdde::MakeSpecDistribution(MakeInsertSpec());
  if (!truth.ok()) return truth.status();
  Scorer scorer(truth->get(), count, ringdde::RpcType::kEstimate);
  const uint64_t query_stream = StreamSeed(config.seed, kQueryStream);

  // views[e] is read by epoch e's queries. The mutator fills views[e + 1]
  // before raising `published` to e + 1, and clears a group's views once
  // its readers are done with them.
  std::vector<std::shared_ptr<const EpochView>> views(epochs + 1);
  views[0] = stack->head;
  std::atomic<size_t> published{0};
  std::vector<Query> queries(count);
  std::vector<double> latencies(count, kFailedLatency);
  std::vector<std::optional<DensityEstimate>> results(kScoreBatch);
  ReaderState readers_state[kReaders];
  // Set by the mutator before the `go` barrier that starts a group.
  size_t group_begin = 0, group_end = 0;
  bool stop = false;
  std::barrier<> go(kReaders + 1), done(kReaders + 1);

  auto query_id = [](size_t e, int r, size_t i) {
    return e * kQueriesPerEpoch + static_cast<size_t>(r) * kQueriesPerReader +
           i;
  };
  auto reader = [&](int r) {
    ReaderState& me = readers_state[r];
    for (;;) {
      go.arrive_and_wait();
      if (stop) return;
      for (size_t e = group_begin; e < group_end; ++e) {
        me.started.store(e + 1, std::memory_order_release);
        me.started.notify_one();
        const Clock::time_point w0 = Clock::now();
        WaitAtLeast(published, e);
        me.view_wait_us += Micros(w0, Clock::now());
        const EpochView* view = views[e].get();
        ringdde::Rng rng(ringdde::DeriveTaskSeed(query_stream,
                                                 e * kReaders + r));
        for (size_t i = 0; i < kQueriesPerReader; ++i) {
          const size_t q = query_id(e, r, i);
          Result<ringdde::NodeAddr> querier = view->RandomAliveNode(rng);
          queries[q] = Query{querier.ok() ? *querier : 0, rng.NextU64()};
          const Clock::time_point t0 = Clock::now();
          ringdde::DistributionFreeEstimator estimator(
              view, ProbeQueryOptions(spec, queries[q].seed));
          Result<DensityEstimate> est = estimator.Estimate(queries[q].querier);
          const Clock::time_point t1 = Clock::now();
          results[q % kScoreBatch].reset();
          if (est.ok()) {
            latencies[q] = Micros(t0, t1);
            results[q % kScoreBatch] = std::move(*est);
          }
        }
      }
      done.arrive_and_wait();
      if (!config.trace) continue;
      // Traced runs replay the group's queries once it is done, so the
      // pipeline above runs exactly as untraced.
      for (size_t e = group_begin; e < group_end; ++e) {
        for (size_t i = 0; i < kQueriesPerReader && me.error.ok(); ++i) {
          const size_t q = query_id(e, r, i);
          std::optional<DensityEstimate> replayed;
          me.error = TraceProbeQuery(
              views[e].get(), queries[q], ProbeQueryOptions(spec, queries[q].seed),
              static_cast<uint32_t>(q), &me.log, &me.tally, &replayed);
          if (me.error.ok() &&
              replayed.has_value() != results[q % kScoreBatch].has_value()) {
            me.error = Status::Internal("replayed query outcome differs");
          }
        }
      }
      done.arrive_and_wait();
    }
  };

  SpanLog mutator_log;
  double advance_us = 0.0, publish_us = 0.0, mutator_wait_us = 0.0;
  uint64_t events = 0;
  const ringdde::SnapshotManager::Stats snap0 = stack->snapshots->stats();
  TimedPhase phase;
  Status error = Status::OK();
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (group_begin = 0; group_begin < epochs && error.ok();
       group_begin = group_end) {
    group_end = std::min(epochs, group_begin + kEpochsPerGroup);
    phase.Begin();
    go.arrive_and_wait();
    for (size_t e = group_begin; e < group_end; ++e) {
      const Clock::time_point w0 = Clock::now();
      for (const ReaderState& rs : readers_state) WaitAtLeast(rs.started, e + 1);
      const Clock::time_point t0 = Clock::now();
      events += net.events().RunUntil(net.Now() + kSliceSeconds);
      const Clock::time_point t1 = Clock::now();
      views[e + 1] = stack->snapshots->Publish();
      const Clock::time_point t2 = Clock::now();
      published.store(e + 1, std::memory_order_release);
      published.notify_all();
      mutator_wait_us += Micros(w0, t0);
      advance_us += Micros(t0, t1);
      publish_us += Micros(t1, t2);
      if (config.trace) {
        mutator_log.Record("ring.churn.advance", -1, static_cast<uint32_t>(e),
                           t0, t1);
        mutator_log.Record("ring.epoch_snapshot.publish", -1,
                           static_cast<uint32_t>(e), t1, t2);
      }
    }
    done.arrive_and_wait();
    phase.End((group_end - group_begin) * kQueriesPerEpoch);
    SampleThreads();
    if (config.trace) done.arrive_and_wait();
    for (const ReaderState& rs : readers_state) {
      if (!rs.error.ok()) error = rs.error;
    }
    // Readers wait at `go`: the live ring is quiescent while scoring.
    for (size_t q = group_begin * kQueriesPerEpoch;
         q < group_end * kQueriesPerEpoch && error.ok(); ++q) {
      const std::optional<DensityEstimate>& est = results[q % kScoreBatch];
      if (!est.has_value()) {
        scorer.AddFailed();
        continue;
      }
      error = scorer.Add(q, queries[q], *est, ring);
    }
    for (size_t e = group_begin; e < group_end; ++e) views[e].reset();
  }
  stop = true;
  go.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  RINGDDE_RETURN_IF_ERROR(error);
  stack->head = views[epochs];
  const ringdde::SnapshotManager::Stats snap1 = stack->snapshots->stats();

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

  SpanLog log;
  ProbeTally tally;
  double view_wait_us = 0.0;
  log.Absorb(mutator_log);
  for (const ReaderState& rs : readers_state) {
    log.Absorb(rs.log);
    tally.Add(rs.tally);
    view_wait_us += rs.view_wait_us;
  }
  const double n_epochs = static_cast<double>(epochs);
  const double reused = static_cast<double>(snap1.node_views_reused -
                                            snap0.node_views_reused);
  const double built = static_cast<double>(snap1.node_views_built -
                                           snap0.node_views_built);
  std::map<std::string, double> layers;
  AddSetupLayers(MedianSetup(setup_steps), &layers);
  AddScoringLayers(scorer, &layers);
  AddProbeLayers(log.Aggregate(), tally, scorer, &layers);
  layers["ring.churn.advance_us"] = advance_us / n_epochs;
  layers["ring.churn.events_per_epoch"] = static_cast<double>(events) / n_epochs;
  layers["ring.epoch_snapshot.publish_us"] = publish_us / n_epochs;
  layers["ring.epoch_snapshot.first_publish_s"] = Median(first_publish_s);
  layers["ring.epoch_snapshot.reuse_ratio"] = reused / (reused + built);
  layers["ring.epoch_snapshot.reader_wait_us"] =
      view_wait_us / (kReaders * n_epochs);
  layers["ring.epoch_snapshot.mutator_wait_us"] = mutator_wait_us / n_epochs;
  AddTailLayers(latencies, &layers);
  layers["estimates_per_s"] = static_cast<double>(scorer.ok()) / phase.wall_s();
  result.layers = std::move(layers);
  result.spans = std::move(log);
  return result;
}

}  // namespace ringbench
