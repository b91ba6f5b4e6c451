//===- perfbench/main.cpp - The repository benchmark program --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <batch-cold|edit-rerun|serve-warm> --seed N
//           --seconds S --trace <0|1> [--workdir DIR] [--trace-out FILE]
//
// Runs one workload and prints, as the last line of stdout, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A plain run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. README.md lists them all.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <system_error>
#include <thread>

using namespace perfbench;

namespace {

struct MetricDecl {
  const char *Name;
  const char *Unit;
};

/// Must match BENCHMARK.json's end_to_end list.
const MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},           {"kloc_per_s", "kLoC/s"},
    {"peak_rss_mb", "MB"},      {"rerun_p50_ms", "ms"},
    {"rerun_p90_ms", "ms"},     {"requests_per_s", "1/s"},
    {"request_p50_ms", "ms"},
};

/// Must match BENCHMARK.json's per_layer list.
const MetricDecl kPerLayer[] = {
    {"cfront.parse_ms", "ms"},
    {"cfg.build_ms", "ms"},
    {"metal.compile_ms", "ms"},
    {"metal.fired_per_tried", "ratio"},
    {"metal.index.blocks_skipped_ratio", "ratio"},
    {"engine.run_ms", "ms"},
    {"engine.self_ms", "ms"},
    {"engine.checker.free.ms", "ms"},
    {"engine.checker.lock.ms", "ms"},
    {"engine.checker.null.ms", "ms"},
    {"engine.checker.intr.ms", "ms"},
    {"engine.checker.user_pointer.ms", "ms"},
    {"engine.checker.range.ms", "ms"},
    {"engine.checker.rlock.ms", "ms"},
    {"engine.checker.path_kill.ms", "ms"},
    {"engine.points_visited", "count"},
    {"engine.paths_explored", "count"},
    {"engine.roots_analyzed", "count"},
    {"engine.arena_bytes", "bytes"},
    {"engine.block_cache.hit_ratio", "ratio"},
    {"engine.fn_summary.hit_ratio", "ratio"},
    {"fpp.paths_pruned", "count"},
    {"fpp.kills_applied", "count"},
    {"fpp.synonyms_created", "count"},
    {"report.rank_ms", "ms"},
    {"report.count", "count"},
    {"store.ast.hit_ratio", "ratio"},
    {"store.summary.hit_ratio", "ratio"},
    {"store.finish_ms", "ms"},
    {"store.bytes", "bytes"},
    {"lifecycle.classify_ms", "ms"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.wire_ms.p50", "ms"},
    {"service.protocol_us", "us"},
    {"service.shed_frac", "ratio"},
    {"request_p99_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.gap_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch-cold|edit-rerun|serve-warm> --seed N --seconds S "
               "--trace <0|1> [--workdir DIR] [--trace-out FILE]\n",
               Why);
  return 2;
}

/// Wall time of \p Threads threads each running \p Iters rounds of an
/// integer hash, ms.
double burnMs(unsigned Threads, uint64_t Iters) {
  static std::atomic<uint64_t> Sink{0};
  auto Burn = [Iters](uint64_t Seed) {
    uint64_t X = Seed;
    for (uint64_t I = 0; I != Iters; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      X ^= X >> 29;
    }
    Sink.fetch_add(X, std::memory_order_relaxed);
  };
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Threads; ++I)
    Ts.emplace_back(Burn, I + 1);
  for (std::thread &T : Ts)
    T.join();
  return msBetween(T0, Clock::now());
}

/// The parallelism probe: how much longer nproc threads of equal CPU work
/// take than one. 1.0 means nproc real cores; nproc means one. Recorded
/// with the results, never gated on: every workload analyzes at one job,
/// but a later --jobs claim needs to know what the machine can give.
void probeParallelism() {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  uint64_t Iters = 1 << 20;
  while (burnMs(1, Iters) < 40 && Iters < (uint64_t(1) << 40))
    Iters *= 2;
  std::vector<double> One, Many;
  for (int I = 0; I != 3; ++I) {
    One.push_back(burnMs(1, Iters));
    Many.push_back(burnMs(N, Iters));
  }
  double Ratio = median(Many) / median(One);
  std::printf("parallelism: nproc=%u burn_ratio=%.2f effective_cores=%.2f "
              "(recorded only; all workloads analyze at one job)\n",
              N, Ratio, double(N) / Ratio);
}

double finiteOrZero(double V) { return std::isfinite(V) ? V : 0; }

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  int Trace = -1;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = unsigned(std::strtoul(V, nullptr, 10));
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      Trace = std::strcmp(V, "1") == 0 ? 1 : std::strcmp(V, "0") == 0 ? 0 : -1;
    } else if (A == "--workdir") {
      O.WorkDir = V;
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  Result (*Run)(const Options &) =
      O.Workload == "batch-cold"   ? runBatchCold
      : O.Workload == "edit-rerun" ? runEditRerun
      : O.Workload == "serve-warm" ? runServeWarm
                                   : nullptr;
  if (!Run || !HaveSeed || !HaveSeconds || Trace < 0)
    return usage("need a known --workload, --seed, --seconds > 0 and "
                 "--trace 0|1");
  O.Trace = Trace == 1;
  if (O.WorkDir.empty())
    O.WorkDir = ".bench_build/run-" + std::to_string(::getpid());
  if (O.TraceOut.empty())
    O.TraceOut = O.WorkDir + ".trace.json";

  namespace fs = std::filesystem;
  std::error_code EC;
  fs::remove_all(O.WorkDir, EC);
  fs::create_directories(O.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + O.WorkDir).c_str());
  fs::create_directories(fs::path(O.TraceOut).parent_path(), EC);
  flushFileSystem(O.WorkDir);

  probeParallelism();
  Result R = Run(O);
  fs::remove_all(O.WorkDir, EC);

  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "perfbench: %s: %s\n", O.Workload.c_str(), E.c_str());
  bool Correct = R.Failed == 0 && R.Errors.empty() && R.Attempted > 0;
  if (!R.Errors.empty() && R.Failed == 0)
    R.Failed = 1; // A set-up or drain failure fails the run.

  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<uint64_t>(R.Attempted, 1)) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  bool First = true;
  std::span<const MetricDecl> Decls =
      O.Trace ? std::span<const MetricDecl>(kPerLayer) : kEndToEnd;
  for (const MetricDecl &M : Decls) {
    auto It = R.Metrics.find(M.Name);
    double V = finiteOrZero(It == R.Metrics.end() ? 0 : It->second);
    std::printf("  %-34s %14.4f %s\n", M.Name, V, M.Unit);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.15g", V);
    Json += std::string(First ? "" : ", ") + "\"" + M.Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
