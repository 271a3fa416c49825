// probe-sim and probe-wire: the paper's probe protocol served in process and
// as kEstimate RPCs, over the same deployment and the same query list, so
// their estimates (and digests) are bit-identical and the latency
// difference is the wire rung's cost.

#include <atomic>
#include <deque>
#include <cmath>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/codec.h"
#include "core/global_cdf.h"
#include "core/inversion_sampler.h"
#include "core/local_summary.h"
#include "core/probe.h"
#include "sim/rpc_server.h"
#include "sim/socket_transport.h"
#include "workloads.h"

namespace ringbench {

using ringdde::ChordRing;
using ringdde::CostContext;
using ringdde::DensityEstimate;
using ringdde::DdeOptions;
using ringdde::EpochView;
using ringdde::LocalSummary;
using ringdde::NodeAddr;
using ringdde::Result;
using ringdde::RingId;
using ringdde::Status;

namespace {

/// Estimates per second probe-wire serves on the reference host (4 vCPU);
/// probe-sim replays the same count so the two digests compare.
constexpr double kProbeNominalPerSecond = 750.0;
/// Floor that leaves >= 10 samples beyond p99.
constexpr size_t kTailFloor = 1000;
constexpr size_t kWarmupEstimates = 16;
/// probe-wire re-computes every this-many-th reply in process.
constexpr size_t kWireCheckStride = 16;

// --- Source adapters: the live ring and an epoch view expose the same reads.

const ringdde::Node* PeerOf(ChordRing* ring, NodeAddr addr) {
  const ringdde::Node* node =
      static_cast<const ChordRing*>(ring)->GetNode(addr);
  return node != nullptr && node->alive() ? node : nullptr;
}
const ringdde::EpochNodeView* PeerOf(const EpochView* view, NodeAddr addr) {
  return view->ViewOf(addr);
}
ringdde::Network& NetOf(ChordRing* ring) { return ring->network(); }
ringdde::Network& NetOf(const EpochView* view) { return view->network(); }
bool AliveIn(ChordRing* ring, NodeAddr addr) { return ring->IsAlive(addr); }
bool AliveIn(const EpochView* view, NodeAddr addr) {
  return view->IsAlive(addr);
}
double ProducedAt(ChordRing* ring) { return ring->network().Now(); }
double ProducedAt(const EpochView* view) { return view->published_at(); }
CostContext QueryContext(ChordRing* ring, uint64_t seed) {
  return ring->network().MakeQueryContext(seed);
}
CostContext QueryContext(const EpochView* view, uint64_t seed) {
  CostContext ctx = view->network().MakeQueryContext(seed);
  ctx.frozen_now = view->published_at();
  return ctx;
}

/// One probe round of a traced estimate: its span, its targets, and the
/// summaries held before and after it.
struct RoundRecord {
  int32_t span = -1;
  std::vector<RingId> targets;
  size_t before = 0;
  size_t after = 0;
};

/// DistributionFreeEstimator::EstimateWith, call for call, under spans.
template <typename Source>
Result<DensityEstimate> TracedEstimate(Source src, NodeAddr querier,
                                       const DdeOptions& opts, uint32_t qid,
                                       SpanLog* log, int32_t* root,
                                       std::vector<RoundRecord>* rounds,
                                       std::vector<LocalSummary>* held) {
  *root = log->Open("core.density_estimator.estimate", -1, qid);
  ringdde::CdfProber prober(
      src, ringdde::ProbeOptions{opts.local_quantiles,
                                 opts.resolve_covered_locally,
                                 opts.use_sketch_summaries, opts.sketch_epsilon,
                                 opts.density_sketch_levels, opts.retry});
  ringdde::Rng rng(opts.seed);
  CostContext ctx = QueryContext(src, opts.seed);
  auto fail = [&](Status s) {
    log->Close(*root);
    return s;
  };
  if (!AliveIn(src, querier)) {
    return fail(Status::InvalidArgument("querier is not an alive peer"));
  }
  const size_t per_round =
      opts.num_probes / static_cast<size_t>(opts.refinement_rounds);
  const size_t first_round =
      opts.num_probes -
      per_round * static_cast<size_t>(opts.refinement_rounds - 1);

  RoundRecord first;
  ringdde::Rng target_rng = rng;  // ProbeUniform's draws, for the replay
  for (size_t i = 0; i < first_round; ++i) {
    first.targets.push_back(RingId(target_rng.NextU64()));
  }
  first.span = log->Open("core.probe.round", *root, qid);
  prober.ProbeUniform(ctx, querier, first_round, rng, held);
  log->Close(first.span);
  first.after = held->size();
  rounds->push_back(std::move(first));
  if (held->empty()) {
    return fail(Status::Unavailable("all probes failed; no summaries"));
  }
  int32_t sp = log->Open("core.global_cdf", *root, qid);
  Result<ringdde::ReconstructionResult> recon =
      ringdde::ReconstructGlobalCdf(*held, opts.reconstruction);
  log->Close(sp);
  if (!recon.ok()) return fail(recon.status());

  for (int r = 1; r < opts.refinement_rounds && per_round > 0; ++r) {
    sp = log->Open("core.inversion_sampler", *root, qid);
    ringdde::InversionSampler sampler(&recon->cdf);
    const std::vector<double> keys = sampler.SampleStratified(per_round, rng);
    log->Close(sp);
    RoundRecord round;
    round.targets.reserve(keys.size());
    for (double k : keys) round.targets.push_back(RingId::FromUnit(k));
    round.before = held->size();
    round.span = log->Open("core.probe.round", *root, qid);
    prober.ProbeTargets(ctx, querier, round.targets, held);
    log->Close(round.span);
    round.after = held->size();
    const bool grew = round.after != round.before;
    rounds->push_back(std::move(round));
    if (!grew) continue;
    sp = log->Open("core.global_cdf", *root, qid);
    recon = ringdde::ReconstructGlobalCdf(*held, opts.reconstruction);
    log->Close(sp);
    if (!recon.ok()) return fail(recon.status());
  }

  DensityEstimate estimate;
  estimate.cdf = std::move(recon->cdf);
  estimate.estimated_total_items = recon->estimated_total;
  estimate.peers_probed = held->size();
  estimate.covered_fraction = recon->covered_fraction;
  estimate.cost = ctx.counters;
  estimate.probes_requested = opts.num_probes;
  estimate.failed_probes = prober.failed_probes();
  estimate.retries = estimate.cost.retries;
  estimate.timeouts = estimate.cost.timeouts;
  estimate.produced_at = ProducedAt(src);
  NetOf(src).Accumulate(estimate.cost, ctx.lost_messages);
  log->Close(*root);
  return estimate;
}

bool SameSummary(const LocalSummary& a, const LocalSummary& b) {
  return a.addr == b.addr && a.arc_lo == b.arc_lo && a.arc_hi == b.arc_hi &&
         a.item_count == b.item_count && a.quantiles == b.quantiles;
}

/// Replays the lookups and summaries of one probe round standalone: first
/// untimed, re-deciding ProbeTargets' coverage skips to find the probed
/// targets and their owners (checked against the summaries the round
/// fetched), then one timed loop per layer.
template <typename Source>
Status ReplayRound(Source src, NodeAddr querier, const DdeOptions& opts,
                   uint32_t qid, const RoundRecord& round,
                   const std::vector<LocalSummary>& fetched, SpanLog* log,
                   ProbeTally* tally) {
  std::vector<LocalSummary> held(fetched.begin(),
                                 fetched.begin() + round.before);
  std::unordered_set<NodeAddr> seen;
  ringdde::ArcCoverageSet covered;
  for (const LocalSummary& s : held) {
    seen.insert(s.addr);
    covered.Add(s.arc_lo, s.arc_hi);
  }
  CostContext scratch = QueryContext(src, opts.seed);
  std::vector<RingId> probed;
  std::vector<NodeAddr> owners;
  size_t knots = 0;
  for (RingId t : round.targets) {
    ++tally->targets;
    if (opts.resolve_covered_locally && covered.Contains(t)) {
      ++tally->local_hits;
      continue;
    }
    probed.push_back(t);
    Result<NodeAddr> owner = src->Lookup(scratch, querier, t);
    const auto* peer = owner.ok() ? PeerOf(src, *owner) : nullptr;
    if (peer == nullptr) {
      ++tally->failed_probes;
      continue;
    }
    owners.push_back(*owner);
    LocalSummary s = ringdde::ComputeLocalSummaryOf(*peer, opts.local_quantiles);
    knots += s.quantiles.size();
    if (seen.insert(s.addr).second) {
      covered.Add(s.arc_lo, s.arc_hi);
      held.push_back(std::move(s));
    } else {
      for (LocalSummary& h : held) {
        if (h.addr == s.addr) {
          h = s;
          break;
        }
      }
      covered.Clear();
      for (const LocalSummary& h : held) covered.Add(h.arc_lo, h.arc_hi);
    }
  }
  tally->probes += probed.size();
  if (held.size() != round.after) {
    return Status::Internal("lookup replay fetched a different peer set");
  }
  for (size_t i = 0; i < held.size(); ++i) {
    if (!SameSummary(held[i], fetched[i])) {
      return Status::Internal("lookup replay fetched different summaries");
    }
  }

  CostContext timed = QueryContext(src, opts.seed);
  Clock::time_point t0 = Clock::now();
  for (RingId t : probed) (void)src->Lookup(timed, querier, t);
  Clock::time_point t1 = Clock::now();
  log->Record("ring.lookup", round.span, qid, t0, t1, probed.size());
  tally->hops += timed.counters.hops;

  size_t replayed_knots = 0;
  t0 = Clock::now();
  for (NodeAddr a : owners) {
    replayed_knots += ringdde::ComputeLocalSummaryOf(*PeerOf(src, a),
                                                     opts.local_quantiles)
                          .quantiles.size();
  }
  t1 = Clock::now();
  log->Record("core.probe.summary", round.span, qid, t0, t1, owners.size());
  if (timed.counters.hops != scratch.counters.hops ||
      replayed_knots != knots) {
    return Status::Internal("timed replay differs from the untimed one");
  }
  return Status::OK();
}

template <typename Source>
Status TraceProbeQueryImpl(Source src, const Query& q, const DdeOptions& opts,
                           uint32_t qid, SpanLog* log, ProbeTally* tally,
                           std::optional<DensityEstimate>* out) {
  out->reset();
  Result<DensityEstimate> real = Status::Internal("not run");
  Result<DensityEstimate> traced = Status::Internal("not run");
  double real_us = 0.0;
  int32_t root = -1;
  std::vector<RoundRecord> rounds;
  std::vector<LocalSummary> held;
  auto run_real = [&] {
    const Clock::time_point t0 = Clock::now();
    ringdde::DistributionFreeEstimator estimator(src, opts);
    real = estimator.Estimate(q.querier);
    real_us = Micros(t0, Clock::now());
  };
  auto run_traced = [&] {
    traced = TracedEstimate(src, q.querier, opts, qid, log, &root, &rounds,
                            &held);
  };
  // Alternate the order so neither run always finds the caches warm.
  if (qid % 2 == 0) {
    run_real();
    run_traced();
  } else {
    run_traced();
    run_real();
  }
  if (real.ok() != traced.ok() ||
      (real.ok() && EstimateDigest(*real) != EstimateDigest(*traced))) {
    return Status::Internal("traced replay does not reproduce Estimate");
  }
  if (!real.ok()) return Status::OK();
  ++tally->estimates;
  tally->untraced_us += real_us;
  tally->untraced_samples_us.push_back(real_us);
  tally->traced_us += log->DurationUs(root);
  for (const RoundRecord& round : rounds) {
    RINGDDE_RETURN_IF_ERROR(ReplayRound(src, q.querier, opts, qid, round, held,
                                        log, tally));
  }
  *out = std::move(*real);
  return Status::OK();
}

}  // namespace

void ProbeTally::Add(const ProbeTally& o) {
  estimates += o.estimates;
  targets += o.targets;
  local_hits += o.local_hits;
  probes += o.probes;
  failed_probes += o.failed_probes;
  hops += o.hops;
  untraced_us += o.untraced_us;
  traced_us += o.traced_us;
  untraced_samples_us.insert(untraced_samples_us.end(),
                             o.untraced_samples_us.begin(),
                             o.untraced_samples_us.end());
}

Status TraceProbeQuery(ChordRing* ring, const Query& q, const DdeOptions& opts,
                       uint32_t query_id, SpanLog* log, ProbeTally* tally,
                       std::optional<DensityEstimate>* out) {
  return TraceProbeQueryImpl(ring, q, opts, query_id, log, tally, out);
}

Status TraceProbeQuery(const EpochView* view, const Query& q,
                       const DdeOptions& opts, uint32_t query_id, SpanLog* log,
                       ProbeTally* tally, std::optional<DensityEstimate>* out) {
  return TraceProbeQueryImpl(view, q, opts, query_id, log, tally, out);
}

void AddProbeLayers(const SpanTotals& spans,
                    const ProbeTally& tally, const Scorer& scorer,
                    std::map<std::string, double>* out) {
  if (tally.estimates == 0) return;
  const double n = static_cast<double>(tally.estimates);
  auto total = [&](const char* name) { return TotalsOf(spans, name); };
  const SpanLog::Totals lookups = total("ring.lookup");
  (*out)["ring.lookup_us"] = PerCallUs(spans, "ring.lookup");
  (*out)["ring.hops_per_lookup"] =
      lookups.count ? static_cast<double>(tally.hops) / lookups.count : 0.0;
  (*out)["ring.lookups_per_estimate"] = static_cast<double>(lookups.count) / n;
  (*out)["core.probe.round_self_us"] = total("core.probe.round").self_us / n;
  (*out)["core.probe.summary_us"] = PerCallUs(spans, "core.probe.summary");
  (*out)["core.probe.fetched_per_estimate"] = scorer.peers_per_estimate();
  (*out)["core.probe.local_hit_ratio"] =
      tally.targets ? static_cast<double>(tally.local_hits) / tally.targets
                    : 0.0;
  (*out)["core.probe.failed_ratio"] =
      tally.probes ? static_cast<double>(tally.failed_probes) / tally.probes
                   : 0.0;
  const SpanLog::Totals recon = total("core.global_cdf");
  (*out)["core.global_cdf.us_per_estimate"] = recon.duration_us / n;
  (*out)["core.global_cdf.calls_per_estimate"] =
      static_cast<double>(recon.spans) / n;
  (*out)["core.global_cdf.knots_out"] = scorer.knots_per_estimate();
  (*out)["core.inversion_sampler.us_per_estimate"] =
      total("core.inversion_sampler").duration_us / n;
  (*out)["core.density_estimator.self_us"] =
      total("core.density_estimator.estimate").self_us / n;
  (*out)["trace.overhead_frac"] = tally.traced_us / tally.untraced_us;
  (*out)["estimates_per_s"] = 1e6 * n / tally.untraced_us;
  AddTailLayers(tally.untraced_samples_us, out);
}

// --- probe-sim -----------------------------------------------------------------

Result<RunResult> RunProbeSim(const RunConfig& config) {
  const ringdde::DeploymentSpec spec = MakeDeploymentSpec();
  const size_t count =
      QueryCount(config.seconds, kProbeNominalPerSecond, kTailFloor);

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
      ringdde::DistributionFreeEstimator estimator(
          dep->ring.get(), ProbeQueryOptions(spec, w.seed));
      if (!estimator.Estimate(w.querier).ok()) {
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
  Scorer scorer(truth->get(), count, ringdde::RpcType::kEstimate);

  std::vector<double> latencies(count, kFailedLatency);
  TimedPhase phase;
  SpanLog log;
  ProbeTally tally;
  std::vector<std::optional<DensityEstimate>> batch;
  for (size_t b = 0; b < count; b += kScoreBatch) {
    const size_t e = std::min(count, b + kScoreBatch);
    batch.assign(e - b, std::nullopt);
    phase.Begin();
    for (size_t i = b; i < e; ++i) {
      const DdeOptions opts = ProbeQueryOptions(spec, queries[i].seed);
      if (config.trace) {
        RINGDDE_RETURN_IF_ERROR(TraceProbeQuery(ring, queries[i], opts,
                                                static_cast<uint32_t>(i), &log,
                                                &tally, &batch[i - b]));
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      ringdde::DistributionFreeEstimator estimator(ring, opts);
      Result<DensityEstimate> r = estimator.Estimate(queries[i].querier);
      const Clock::time_point t1 = Clock::now();
      if (r.ok()) {
        latencies[i] = Micros(t0, t1);
        batch[i - b] = std::move(*r);
      }
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
  std::map<std::string, double> layers;
  AddSetupLayers(MedianSetup(setup_steps), &layers);
  AddScoringLayers(scorer, &layers);
  AddProbeLayers(log.Aggregate(), tally, scorer, &layers);
  result.layers = std::move(layers);
  result.spans = std::move(log);
  return result;
}

// --- probe-wire ------------------------------------------------------------------

namespace {

/// Server-side spans: the benchmark's wrapper around RingRpcService::Handle
/// runs on the event-loop threads.
struct HandleTimes {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  double total_us = 0.0;
  uint64_t calls = 0;
};

/// One in-process service behind one RpcServer (2 event-loop threads), and
/// the client's two pipelined channels. Members are declared in
/// construction order, so on destruction the channels close before the
/// server stops and the server stops before the service it calls.
struct WireStack {
  std::unique_ptr<ringdde::RingRpcService> service;
  std::unique_ptr<ringdde::RpcServer> server;
  std::unique_ptr<ringdde::MultiplexedRpcChannel> channels[2];
};

Status StartWireStack(HandleTimes* handle_times, WireStack* stack,
                      SetupTimes* times) {
  stack->service =
      std::make_unique<ringdde::RingRpcService>(MakeDeploymentSpec());
  const Clock::time_point t0 = Clock::now();
  RINGDDE_RETURN_IF_ERROR(stack->service->Init());
  times->create_s = Seconds(t0, Clock::now());
  RINGDDE_RETURN_IF_ERROR(PopulateRecipe(stack->service->deployment(), times));
  ringdde::RingRpcService* service = stack->service.get();
  stack->server = std::make_unique<ringdde::RpcServer>(
      [service, handle_times](const ringdde::Frame& request,
                              ringdde::Frame* reply) {
        if (!handle_times->enabled.load(std::memory_order_relaxed)) {
          return service->Handle(request, reply);
        }
        const Clock::time_point start = Clock::now();
        Status s = service->Handle(request, reply);
        const double us = Micros(start, Clock::now());
        std::lock_guard<std::mutex> lock(handle_times->mu);
        handle_times->total_us += us;
        ++handle_times->calls;
        return s;
      });
  RINGDDE_RETURN_IF_ERROR(stack->server->Start());
  const uint64_t fingerprint = stack->service->Fingerprint();
  for (auto& channel : stack->channels) {
    channel = std::make_unique<ringdde::MultiplexedRpcChannel>(
        stack->server->port());
    ringdde::RingClient client(channel.get());
    Result<ringdde::RingClient::HelloReply> hello = client.Hello();
    if (!hello.ok()) return hello.status();
    if (hello->fingerprint != fingerprint || hello->alive_count != kPeers ||
        hello->total_items != kItems) {
      return Status::Internal("served ring differs from the recipe");
    }
  }
  return Status::OK();
}

/// A reply that arrived but does not decode is a wrong output.
Result<DensityEstimate> DecodeReply(const ringdde::Frame& reply) {
  if (reply.type != static_cast<uint8_t>(ringdde::RpcType::kEstimate)) {
    return Status::Internal("rpc reply type mismatch");
  }
  Result<DensityEstimate> decoded = ringdde::DecodeEstimateReply(reply.payload);
  if (!decoded.ok()) return Status::Internal("undecodable estimate reply");
  return decoded;
}

struct WireTotals {
  uint64_t bytes = 0;
  uint64_t failed = 0;
};

WireTotals ChannelTotals(const WireStack& stack) {
  WireTotals t;
  for (const auto& channel : stack.channels) {
    const ringdde::RpcChannelStats& s = channel->stats();
    t.bytes += s.wire_bytes_sent + s.wire_bytes_received;
    t.failed += s.rpcs_failed;
  }
  return t;
}

}  // namespace

Result<RunResult> RunProbeWire(const RunConfig& config) {
  const ringdde::DeploymentSpec spec = MakeDeploymentSpec();
  const size_t count =
      QueryCount(config.seconds, kProbeNominalPerSecond, kTailFloor);

  HandleTimes handle_times;
  std::unique_ptr<WireStack> owned_stack;
  std::vector<SetupTimes> setup_steps;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    owned_stack.reset();
    owned_stack = std::make_unique<WireStack>();
    const Clock::time_point t0 = Clock::now();
    SetupTimes times;
    RINGDDE_RETURN_IF_ERROR(
        StartWireStack(&handle_times, owned_stack.get(), &times));
    WireStack& stack = *owned_stack;
    // Warm-up fills the service's lazy caches and grows the channel and
    // connection buffers to reply size.
    const std::vector<Query> warmup =
        MakeQueries(*stack.service->deployment()->ring,
                    StreamSeed(config.seed, kWarmupStream), kWarmupEstimates);
    for (size_t i = 0; i < warmup.size(); ++i) {
      ringdde::Frame request;
      EncodeEstimateRequest(warmup[i], ringdde::RpcType::kEstimate, &request);
      Result<ringdde::Frame> reply = stack.channels[i % 2]->Call(request);
      if (!reply.ok() || !DecodeReply(*reply).ok()) {
        return Status::Internal("warm-up estimate RPC failed");
      }
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    setup_steps.push_back(times);
  }
  SampleThreads();

  WireStack& stack = *owned_stack;
  ChordRing* ring = stack.service->deployment()->ring.get();
  const std::vector<Query> queries =
      MakeQueries(*ring, StreamSeed(config.seed, kQueryStream), count);
  Result<std::unique_ptr<ringdde::Distribution>> truth =
      ringdde::MakeSpecDistribution(MakeInsertSpec());
  if (!truth.ok()) return truth.status();
  Scorer scorer(truth->get(), count, ringdde::RpcType::kEstimate);

  // Traced runs alternate batches: even batches run exactly as untraced
  // (the overhead baseline), odd batches record spans and allocations.
  std::vector<double> latencies(count, kFailedLatency);
  std::vector<double> plain_latencies;
  std::vector<size_t> traced_queries;
  double plain_us = 0.0, traced_us = 0.0, client_us = 0.0, decode_us = 0.0;
  double reply_bytes = 0.0, plain_wall_s = 0.0;
  uint64_t plain_n = 0, allocs = 0;
  const WireTotals wire0 = ChannelTotals(stack);
  const uint64_t frames0 = stack.server->frames_served();
  TimedPhase phase;
  std::vector<std::optional<DensityEstimate>> batch;
  struct Slot {
    size_t query = 0;
    uint64_t cid = 0;
    Clock::time_point start;
  };
  for (size_t b = 0; b < count; b += kScoreBatch) {
    const size_t e = std::min(count, b + kScoreBatch);
    const bool traced_batch = config.trace && (b / kScoreBatch) % 2 == 1;
    batch.assign(e - b, std::nullopt);
    handle_times.enabled.store(traced_batch);
    SetAllocCounting(traced_batch);
    const uint64_t allocs0 = AllocCount();
    phase.Begin();
    std::deque<Slot> inflight[2];
    size_t next = b;
    auto start = [&](int c) {
      while (next < e) {
        ringdde::Frame request;
        EncodeEstimateRequest(queries[next], ringdde::RpcType::kEstimate,
                              &request);
        const Clock::time_point t0 = Clock::now();
        Result<uint64_t> cid = stack.channels[c]->Start(request);
        if (cid.ok()) {
          inflight[c].push_back(Slot{next++, *cid, t0});
          return;
        }
        ++next;  // a refused request counts failed at scoring
      }
    };
    start(0);
    start(1);
    while (!inflight[0].empty() || !inflight[1].empty()) {
      for (int c = 0; c < 2; ++c) {
        if (inflight[c].empty()) continue;
        const Slot slot = inflight[c].front();
        inflight[c].pop_front();
        ringdde::Frame reply;
        const Status awaited = stack.channels[c]->Await(slot.cid, &reply);
        const Clock::time_point t_reply = Clock::now();
        // A failed RPC or a non-ok estimate counts failed at scoring.
        if (awaited.ok()) {
          Result<DensityEstimate> decoded = DecodeReply(reply);
          if (!decoded.ok()) return decoded.status();
          const Clock::time_point t_done = Clock::now();
          const size_t q = slot.query;
          latencies[q] = Micros(slot.start, t_done);
          batch[q - b] = std::move(*decoded);
          if (traced_batch) {
            traced_queries.push_back(q);
            traced_us += latencies[q];
            client_us += Micros(slot.start, t_reply);
            decode_us += Micros(t_reply, t_done);
            reply_bytes += static_cast<double>(reply.payload.size());
          } else {
            plain_us += latencies[q];
            plain_latencies.push_back(latencies[q]);
            ++plain_n;
          }
        }
        start(c);
      }
    }
    const double wall_before = phase.wall_s();
    phase.End(e - b);
    if (!traced_batch) plain_wall_s += phase.wall_s() - wall_before;
    if (traced_batch) allocs += AllocCount() - allocs0;
    SetAllocCounting(false);
    SampleThreads();
    for (size_t i = b; i < e; ++i) {
      if (!batch[i - b].has_value()) {
        scorer.AddFailed();
        continue;
      }
      const DensityEstimate& got = *batch[i - b];
      if (i % kWireCheckStride == 0) {
        ringdde::DistributionFreeEstimator estimator(
            ring, ProbeQueryOptions(spec, queries[i].seed));
        Result<DensityEstimate> local = estimator.Estimate(queries[i].querier);
        if (!local.ok() || EstimateDigest(*local) != EstimateDigest(got)) {
          return Status::Internal("wire reply differs from in-process Estimate");
        }
      }
      RINGDDE_RETURN_IF_ERROR(scorer.Add(i, queries[i], got, *ring));
    }
  }
  handle_times.enabled.store(false);

  const WireTotals wire1 = ChannelTotals(stack);
  const double rpcs = static_cast<double>(count);
  const uint64_t wire_bytes = wire1.bytes - wire0.bytes;
  if (scorer.failed() == 0 && wire_bytes != scorer.frame_bytes_total()) {
    return Status::Internal("wire bytes differ from the encoded frames");
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
    e2e.wire_bytes_per_estimate = static_cast<double>(wire_bytes) / rpcs;
    result.metrics = EndToEndMetrics(e2e);
    return result;
  }

  // In-process replay of the traced batches' queries on the served ring:
  // the probe-path layers, the reply encoding, and the compute a Handle
  // call would do without waiting for the service mutex.
  SpanLog log;
  ProbeTally tally;
  ringdde::Encoder encoder;
  double encode_us = 0.0;
  for (size_t q : traced_queries) {
    std::optional<DensityEstimate> est;
    RINGDDE_RETURN_IF_ERROR(TraceProbeQuery(
        ring, queries[q], ProbeQueryOptions(spec, queries[q].seed),
        static_cast<uint32_t>(q), &log, &tally, &est));
    if (!est.has_value()) return Status::Internal("replayed query failed");
    encoder.Clear();
    const Clock::time_point t0 = Clock::now();
    ringdde::EncodeEstimateReply(*est, &encoder);
    const Clock::time_point t1 = Clock::now();
    log.Record("core.wire.encode", -1, static_cast<uint32_t>(q), t0, t1);
    encode_us += Micros(t0, t1);
  }
  const double n = static_cast<double>(traced_queries.size());
  std::map<std::string, double> layers;
  AddSetupLayers(MedianSetup(setup_steps), &layers);
  AddScoringLayers(scorer, &layers);
  AddProbeLayers(log.Aggregate(), tally, scorer, &layers);
  const double handle_us =
      handle_times.calls ? handle_times.total_us / handle_times.calls : 0.0;
  layers["core.wire.encode_us"] = encode_us / n;
  layers["core.wire.decode_us"] = decode_us / n;
  layers["core.wire.reply_bytes"] = reply_bytes / n;
  layers["sim.rpc.client_us"] = client_us / n;
  layers["sim.rpc.overhead_us"] = client_us / n - handle_us;
  layers["sim.rpc.frames_per_estimate"] =
      static_cast<double>(stack.server->frames_served() - frames0) / rpcs;
  layers["sim.rpc.allocs_per_estimate"] = static_cast<double>(allocs) / n;
  layers["sim.rpc.failed"] = static_cast<double>(wire1.failed - wire0.failed);
  layers["core.ring_service.handle_us"] = handle_us;
  layers["core.ring_service.wait_us"] =
      handle_us - (tally.untraced_us + encode_us) / n;
  layers["trace.overhead_frac"] = (traced_us / n) / (plain_us / plain_n);
  layers["estimates_per_s"] = static_cast<double>(plain_n) / plain_wall_s;
  AddTailLayers(plain_latencies, &layers);
  result.layers = std::move(layers);
  result.spans = std::move(log);
  return result;
}

}  // namespace ringbench
