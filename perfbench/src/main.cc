// ringbench: the repository benchmark program. Usage:
//
//   ringbench --workload <probe-sim|probe-wire|sketch-sim|churn-serve>
//             --seed <n> --seconds <n> --trace <0|1>
//             [--trace-out <spans.tsv>] [--source <id>]
//
// Prints a provenance line, an info line (estimate digest and exact
// counts), and last the result object. Exits non-zero, without a result,
// when a run fails or an output is wrong. perfbench/run.py builds and runs
// it; perfbench/README.md describes the workloads and metrics.

#include <malloc.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "workloads.h"

namespace ringbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// A latency percentile that falls on a failed estimate is infinite; JSON
/// has no infinity, so it prints as the largest double.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g",
                std::isfinite(v) ? v : std::numeric_limits<double>::max());
  return buf;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ringbench: %s\nusage: ringbench --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> [--trace-out <file>] "
               "[--source <id>]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

/// Pins the global ThreadPool before anything creates it. With no worker
/// threads, set-up allocates from one thread, so the heap, peak RSS and the
/// speed of allocation-heavy queries repeat from run to run; the workloads'
/// own threads (at most three) stay within four.
size_t PinPool() {
  setenv("RINGDDE_THREADS", "1", 1);
  return PoolSize();
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig config;
  std::string source = "unknown";
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing flag value");
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      config.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 600) {
      config.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("bad flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  ringdde::Result<RunResult> (*run)(const RunConfig&) = nullptr;
  if (config.workload == "probe-sim") run = RunProbeSim;
  if (config.workload == "probe-wire") run = RunProbeWire;
  if (config.workload == "sketch-sim") run = RunSketchSim;
  if (config.workload == "churn-serve") run = RunChurnServe;
  if (run == nullptr) return Usage("unknown workload");

  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const size_t pool = PinPool();
  std::printf(
      "{\"provenance\": {\"source\": %s, \"build_type\": %s, \"compiler\": "
      "%s, \"nproc\": %ld, \"pool_size\": %zu, \"workload\": %s, \"seed\": "
      "%" PRIu64 ", \"seconds\": %d, \"trace\": %d}}\n",
      JsonString(source).c_str(), JsonString(RINGBENCH_BUILD_TYPE).c_str(),
      JsonString("g++ " __VERSION__).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      pool, JsonString(config.workload).c_str(), config.seed, config.seconds,
      config.trace ? 1 : 0);
  std::fflush(stdout);

  const HostCpu host0 = ReadHostCpu();
  ringdde::Result<RunResult> result = run(config);
  const double steal = StealFraction(host0, ReadHostCpu());
  ringdde::Status status = result.status();
  if (status.ok() && config.trace) {
    result->layers["proc.threads_max"] = static_cast<double>(ThreadsMax());
    result->layers["host.steal_frac"] = steal;
    ringdde::Result<std::vector<Metric>> layers =
        PerLayerMetrics(result->layers);
    status = layers.status();
    if (status.ok()) result->metrics = std::move(*layers);
    if (status.ok() && !trace_out.empty()) {
      status = result->spans.WriteTsv(trace_out);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "ringbench: %s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  std::printf("{\"info\": {\"digest\": \"%016" PRIx64
              "\", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"steal_frac\": %s}}\n",
              result->digest, result->attempted, result->failed,
              JsonNumber(steal).c_str());
  std::string metrics;
  for (const Metric& m : result->metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              result->attempted, result->failed, metrics.c_str());
  return 0;
}

}  // namespace ringbench

int main(int argc, char** argv) { return ringbench::Main(argc, argv); }
