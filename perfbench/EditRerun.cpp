//===- perfbench/EditRerun.cpp - Cached re-runs after single edits --------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// edit-rerun: the CI loop. A 32-file corpus is primed cold into a cache and
// a baseline during set-up; then each cycle applies one seeded edit (one
// helper rewritten, the same pair's root bug toggled) and re-runs the whole
// pipeline against the cache and the baseline. store both reads and writes
// and lifecycle classifies every run; the engine re-analyzes only the
// edited file's roots and replays the rest.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include <filesystem>
#include <memory>
#include <system_error>

namespace perfbench {

namespace {

/// Traced-run pairs (one traced and one plain cycle each).
constexpr unsigned kTracedPairs = 50;
/// Cycles between restores of the primed corpus, store and baseline. Each
/// edit adds entries the store keeps, and finishCache() walks the whole
/// store, so without restores a cycle's latency would grow with the number
/// of cycles before it in the run (about 2x over 100 cycles).
constexpr unsigned kCyclesPerRestore = 10;

std::string deltaText(const mc::BaselineDelta &D) {
  return std::to_string(D.NewCount) + " new, " + std::to_string(D.KnownCount) +
         " known, " + std::to_string(D.FixedCount) + " fixed";
}

} // namespace

Result runEditRerun(const Options &O) {
  namespace fs = std::filesystem;
  Result R;
  const std::string Dir = O.WorkDir + "/edit";
  PipelineConfig Cfg;
  Cfg.CacheDir = Dir + "/cache";
  Cfg.BaselineDir = Dir + "/baseline";
  std::vector<std::string> Paths;
  for (unsigned F = 0; F != PairCorpus::kFiles; ++F)
    Paths.push_back(Dir + "/" + PairCorpus::fileName(F));

  // Set-up: write the corpus and prime the cache and the baseline cold.
  // Every run, and every repeat, starts from an empty directory, so each
  // run's edits meet the same primed store (a store carried across runs
  // grows, and re-run latency drifts with it).
  std::unique_ptr<PairCorpus> Corpus;
  std::vector<double> SetupS;
  Tracer Off(false, Clock::now());
  for (unsigned I = 0; I != kSetupRepeats; ++I) {
    std::error_code EC;
    fs::remove_all(Dir, EC);
    flushFileSystem(O.WorkDir);
    Clock::time_point T0 = Clock::now();
    fs::create_directories(Dir, EC);
    Corpus = std::make_unique<PairCorpus>(O.Seed);
    bool Written = true;
    for (unsigned F = 0; F != PairCorpus::kFiles; ++F)
      Written &= writeFile(Paths[F], Corpus->fileText(F));
    if (!Written) {
      R.error("cannot write the corpus under " + Dir);
      return R;
    }
    PipelineResult Prime =
        runPipeline(Paths, Corpus->expected(), Cfg, Off, "edit.cycle", 0);
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
    if (!Prime.Ok || Prime.Delta.NewCount != Corpus->bugCount() ||
        Prime.Delta.KnownCount || Prime.Delta.FixedCount) {
      R.error("cold prime: " + Prime.Why + " (baseline " +
              deltaText(Prime.Delta) + ")");
      return R;
    }
  }
  R.set("setup_s", median(SetupS));
  const unsigned Lines = Corpus->lines();

  // Keep the primed state, and put it back (untimed) every
  // kCyclesPerRestore cycles. The stores only ever replace a file through
  // a temporary file and a rename, never write one in place, so hard links
  // keep the snapshot intact and make a restore cheap.
  const PairCorpus Primed = *Corpus;
  const std::string PrimedCache = Dir + "/primed-cache";
  const std::string PrimedBaseline = Dir + "/primed-baseline";
  auto Copy = [](const std::string &From, const std::string &To) {
    std::error_code EC;
    fs::remove_all(To, EC);
    fs::copy(From, To,
             fs::copy_options::recursive | fs::copy_options::create_hard_links,
             EC);
    return !EC;
  };
  if (!Copy(Cfg.CacheDir, PrimedCache) ||
      !Copy(Cfg.BaselineDir, PrimedBaseline)) {
    R.error("cannot snapshot the primed store under " + Dir);
    return R;
  }
  auto Restore = [&] {
    *Corpus = Primed;
    bool Ok = Copy(PrimedCache, Cfg.CacheDir) &&
              Copy(PrimedBaseline, Cfg.BaselineDir);
    for (unsigned F = 0; F != PairCorpus::kFiles; ++F)
      Ok &= writeFile(Paths[F], Corpus->fileText(F));
    flushFileSystem(Dir);
    return Ok;
  };
  flushFileSystem(Dir);

  Rng Edits(O.Seed ^ 0xed17ed17ull);
  unsigned Cycles = 0;
  auto Cycle = [&](Tracer &T, uint64_t Op) {
    PipelineResult P;
    if (Cycles++ % kCyclesPerRestore == 0 && !Restore()) {
      P.Why = "cannot restore the primed store under " + Dir;
      R.op(false, P.Why);
      return P;
    }
    unsigned F = Corpus->edit(Edits);
    if (!writeFile(Paths[F], Corpus->fileText(F))) {
      P.Why = "cannot write " + Paths[F];
      R.op(false, P.Why);
      return P;
    }
    P = runPipeline(Paths, Corpus->expected(), Cfg, T, "edit.cycle", Op);
    // The edit either adds one bug (one new report) or removes one (one
    // fixed report); every other buggy root is known.
    const mc::BaselineDelta &D = P.Delta;
    unsigned Bugs = Corpus->bugCount();
    bool Added = Corpus->lastEditAddedBug();
    bool DeltaOk = D.NewCount == (Added ? 1u : 0u) &&
                   D.FixedCount == (Added ? 0u : 1u) &&
                   D.KnownCount == Bugs - D.NewCount;
    if (P.Ok && !DeltaOk) {
      P.Ok = false;
      P.Why = "baseline classified " + deltaText(D) + " after " +
              (Added ? "adding" : "removing") + " one bug";
    }
    R.op(P.Ok, P.Why);
    return P;
  };
  Cycle(Off, 0); // Warm-up: checked, not timed.

  if (O.Trace) {
    Tracer T(true, Clock::now());
    std::vector<PipelineResult> Traced;
    std::vector<double> TracedMs, PlainMs;
    for (unsigned I = 0; I != kTracedPairs; ++I) {
      if (I % 2)
        PlainMs.push_back(Cycle(Off, 0).Ms);
      Traced.push_back(Cycle(T, I + 1));
      TracedMs.push_back(Traced.back().Ms);
      if (I % 2 == 0)
        PlainMs.push_back(Cycle(Off, 0).Ms);
    }
    setEngineMetrics(R, Traced);
    setLayerTimes(R, T, "edit.cycle", TracedMs, PlainMs, kMinCoverage);
    R.set("store.bytes", double(dirBytes(Cfg.CacheDir)));
    if (!writeTrace(O.TraceOut, T.spans()))
      R.error("cannot write " + O.TraceOut);
    return R;
  }

  // Timed: the cycles alone (not the restores), for --seconds and at least
  // enough cycles for ten beyond the p90.
  std::vector<double> Ms;
  size_t Correct = 0;
  double TimedMs = 0;
  const unsigned MinCycles = samplesFor(90);
  while (TimedMs < O.Seconds * 1000.0 || Ms.size() < MinCycles) {
    PipelineResult P = Cycle(Off, 0);
    if (P.Ms <= 0)
      break; // No cycle ran; already counted as failed.
    Ms.push_back(P.Ms);
    TimedMs += P.Ms;
    Correct += P.Ok;
  }
  double ElapsedS = TimedMs / 1000.0;
  setOperationLatency(R, Ms, Correct, ElapsedS, OwnLatency::Rerun);
  // Lines of every cycle over the cycles' total time, as on batch-cold.
  R.set("kloc_per_s",
        TimedMs > 0 ? double(Lines) * double(Ms.size()) / TimedMs : 0);
  R.set("peak_rss_mb", selfPeakRssMb());
  return R;
}

} // namespace perfbench
