//===- perfbench/BatchCold.cpp - Uncached whole-program runs --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// batch-cold: the paper's headline use. One uncached run of the whole stock
// suite over a ~64 kLoC seeded corpus at one job; cfront, cfg and engine do
// nearly all the work and store, lifecycle and service do none, so this is
// the control for any cache or service change.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include <filesystem>
#include <system_error>

namespace perfbench {

namespace {

/// Traced-run pairs: each pair is one traced run and one plain run, so the
/// tracing overhead is measured on runs interleaved in time.
constexpr unsigned kTracedPairs = 3;

} // namespace

Result runBatchCold(const Options &O) {
  namespace fs = std::filesystem;
  Result R;
  const std::string Dir = O.WorkDir + "/batch";

  Tracer Off(false, Clock::now());
  // The traced run times each checker through runChecker; its plain runs
  // take the same path, so the overhead compares like with like.
  PipelineConfig Cfg;
  Cfg.PerChecker = O.Trace;
  Corpus C;
  std::vector<std::string> Paths;
  auto PlainRun = [&] {
    PipelineResult P = runPipeline(Paths, C.Expected, Cfg, Off, "batch.run", 0);
    R.op(P.Ok, P.Why);
    return P;
  };

  // Set-up, several times so setup_s is a median: generate the corpus,
  // write its files, and make one checked but untimed run, which pays for a
  // cold page cache and heap growth. Generating and writing alone take a
  // few milliseconds, too little to time steadily.
  std::vector<double> SetupS;
  for (unsigned I = 0; I != kSetupRepeats; ++I) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
    flushFileSystem(O.WorkDir);
    Clock::time_point T0 = Clock::now();
    fs::create_directories(Dir, EC);
    C = batchCorpus(O.Seed);
    Paths.clear();
    bool Written = true;
    for (const SourceFile &F : C.Files) {
      Paths.push_back(Dir + "/" + F.Name);
      Written &= writeFile(Paths.back(), F.Text);
    }
    if (!Written) {
      R.error("cannot write the corpus under " + Dir);
      return R;
    }
    PlainRun();
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.set("setup_s", median(SetupS));
  flushFileSystem(Dir);

  if (O.Trace) {
    Tracer T(true, Clock::now());
    std::vector<PipelineResult> Traced;
    std::vector<double> TracedMs, PlainMs;
    for (unsigned I = 0; I != kTracedPairs; ++I) {
      if (I % 2)
        PlainMs.push_back(PlainRun().Ms);
      Traced.push_back(
          runPipeline(Paths, C.Expected, Cfg, T, "batch.run", I + 1));
      R.op(Traced.back().Ok, Traced.back().Why);
      TracedMs.push_back(Traced.back().Ms);
      if (I % 2 == 0)
        PlainMs.push_back(PlainRun().Ms);
    }
    setEngineMetrics(R, Traced);
    setLayerTimes(R, T, "batch.run", TracedMs, PlainMs, kMinCoverage);
    if (!writeTrace(O.TraceOut, T.spans()))
      R.error("cannot write " + O.TraceOut);
    return R;
  }

  // kloc_per_s is the lines of every run over the runs' total time: the
  // machine's speed drifts over seconds, and a mean over the whole section
  // follows the drift less than a median of a few runs.
  std::vector<double> Ms;
  size_t Correct = 0;
  double RunMs = 0;
  Clock::time_point Start = Clock::now();
  do {
    PipelineResult P = PlainRun();
    Ms.push_back(P.Ms);
    RunMs += P.Ms;
    Correct += P.Ok;
  } while (msBetween(Start, Clock::now()) < O.Seconds * 1000.0);
  double ElapsedS = msBetween(Start, Clock::now()) / 1000.0;
  setOperationLatency(R, Ms, Correct, ElapsedS, OwnLatency::None);
  // Lines per ms = kLoC/s.
  R.set("kloc_per_s",
        RunMs > 0 ? double(C.Lines) * double(Ms.size()) / RunMs : 0);
  R.set("peak_rss_mb", selfPeakRssMb());
  return R;
}

} // namespace perfbench
