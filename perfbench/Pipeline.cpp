//===- perfbench/Pipeline.cpp - One in-process analysis operation ---------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "checkers/BuiltinCheckers.h"
#include "driver/Tool.h"
#include "support/RawOstream.h"

#include <algorithm>

namespace perfbench {

const std::vector<std::string> &stockCheckers() {
  static const std::vector<std::string> Names = mc::builtinCheckerNames();
  return Names;
}

PipelineResult runPipeline(const std::vector<std::string> &Paths,
                           const ExpectedReports &Expected,
                           const PipelineConfig &Cfg, Tracer &T,
                           const char *Name, uint64_t Op) {
  PipelineResult R;
  std::string Diags, Text;
  mc::raw_string_ostream DiagOS(Diags), TextOS(Text);
  mc::XgccTool Tool(&DiagOS);
  if (!Cfg.CacheDir.empty())
    Tool.setCacheDir(Cfg.CacheDir);
  mc::EngineOptions Opts;
  Opts.Jobs = 1;
  mc::BaselineStore Baseline;
  std::string BaselineErr;
  bool ParseOk = true, CheckersOk = true, BaselineOk = true;

  Clock::time_point T0 = Clock::now();
  {
    SpanScope OpSpan(T, Name, Op);
    const int P = OpSpan.id();
    {
      SpanScope S(T, "cfront.parse", Op, P);
      ParseOk = Tool.addSourceFiles(Paths, /*Jobs=*/1);
    }
    for (const std::string &C : stockCheckers()) {
      SpanScope S(T, "metal.compile", Op, P);
      CheckersOk &= Tool.addBuiltinChecker(C);
    }
    {
      SpanScope S(T, "cfg.build", Op, P);
      Tool.finalize();
    }
    {
      SpanScope S(T, "engine.run", Op, P);
      if (Cfg.PerChecker) {
        // Tool.checkers() holds the stock suite in stockCheckers() order.
        for (size_t I = 0; I != Tool.checkers().size(); ++I) {
          SpanScope C(T, "engine.checker." + stockCheckers()[I], Op, S.id());
          Tool.runChecker(*Tool.checkers()[I], Opts);
        }
      } else {
        Tool.run(Opts);
      }
    }
    if (!Cfg.CacheDir.empty()) {
      SpanScope S(T, "store.finish", Op, P);
      Tool.finishCache();
    }
    if (!Cfg.BaselineDir.empty()) {
      SpanScope S(T, "lifecycle.classify", Op, P);
      BaselineOk = Baseline.open(Cfg.BaselineDir, &BaselineErr);
      if (BaselineOk) {
        R.Delta = Baseline.recordRun(Tool.reports(), /*SuppressKnown=*/false);
        BaselineOk = Baseline.save(&BaselineErr);
      }
    }
    {
      SpanScope S(T, "report.rank", Op, P);
      Tool.reports().print(TextOS, mc::RankPolicy::Generic);
      TextOS.flush();
    }
  }
  R.Ms = msBetween(T0, Clock::now());

  R.Reports = Tool.reports().size();
  R.Metrics = Tool.metrics();
  if (!ParseOk || !CheckersOk)
    R.Why = "parse or checker compile failed: " + Diags.substr(0, 200);
  else if (!BaselineOk)
    R.Why = "baseline store: " + BaselineErr;
  else if (Text.empty() != (R.Reports == 0))
    R.Why = "ranked report text does not match the report list";
  else
    R.Why = checkReports(Tool.reports(), Expected);
  R.Ok = R.Why.empty();
  return R;
}

namespace {

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// The per-layer counts and ratios one operation's metrics give.
std::map<std::string, double> layerCounts(const mc::MetricsSnapshot &M,
                                          size_t Reports) {
  auto V = [&](const char *Name) { return double(M.value(Name)); };
  double Fired = 0, Tried = 0;
  for (const auto &[Name, Value] : M) {
    const std::string_view N = Name;
    if (N.rfind("checker.", 0) != 0)
      continue;
    if (N.ends_with(".transitions.fired"))
      Fired += double(Value);
    else if (N.ends_with(".transitions.tried"))
      Tried += double(Value);
  }
  double Blocks = V("engine.blocks.visited");
  double FnHits = V("engine.cache.function_hits");
  return {
      {"metal.fired_per_tried", ratio(Fired, Tried)},
      {"metal.index.blocks_skipped_ratio",
       ratio(V("index.blocks.skipped"), Blocks)},
      {"engine.points_visited", V("engine.points.visited")},
      {"engine.paths_explored", V("engine.paths.explored")},
      {"engine.roots_analyzed", V("engine.roots.analyzed")},
      {"engine.arena_bytes", V("arena.bytes")},
      {"engine.block_cache.hit_ratio", ratio(V("engine.cache.block_hits"), Blocks)},
      {"engine.fn_summary.hit_ratio",
       ratio(FnHits, FnHits + V("engine.functions.analyzed"))},
      {"fpp.paths_pruned", V("engine.paths.pruned")},
      {"fpp.kills_applied", V("engine.kills.applied")},
      {"fpp.synonyms_created", V("engine.synonyms.created")},
      {"report.count", double(Reports)},
      {"store.ast.hit_ratio",
       ratio(V(mc::kCacheAstHits), V(mc::kCacheAstHits) + V(mc::kCacheAstMisses))},
      {"store.summary.hit_ratio",
       ratio(V(mc::kCacheSummaryHits),
             V(mc::kCacheSummaryHits) + V(mc::kCacheSummaryMisses))},
  };
}

} // namespace

void setCountMetrics(Result &R, const std::vector<mc::MetricsSnapshot> &M,
                     const std::vector<size_t> &Reports) {
  std::map<std::string, std::vector<double>> PerName;
  for (size_t I = 0; I != M.size(); ++I)
    for (const auto &[Name, V] : layerCounts(M[I], Reports[I]))
      PerName[Name].push_back(V);
  for (const auto &[Name, Vs] : PerName)
    R.set(Name, median(Vs));
}

void setEngineMetrics(Result &R, const std::vector<PipelineResult> &Ops) {
  std::vector<mc::MetricsSnapshot> M;
  std::vector<size_t> Reports;
  for (const PipelineResult &P : Ops) {
    M.push_back(P.Metrics);
    Reports.push_back(P.Reports);
  }
  setCountMetrics(R, M, Reports);
}

void setLayerTimes(Result &R, const Tracer &T, const std::string &OpName,
                   const std::vector<double> &TracedMs,
                   const std::vector<double> &PlainMs, double MinCoverage) {
  LayerAccounting A = accountLayers(T.spans());
  for (const auto &[Name, Ms] : A.InclusiveMs) {
    if (Name == OpName)
      continue;
    // engine.checker.<name>.ms; every other layer span is <layer>_ms.
    R.set(Name.rfind("engine.checker.", 0) == 0 ? Name + ".ms" : Name + "_ms",
          median(Ms));
  }
  R.set("engine.self_ms", median(A.SelfMs["engine.run"]));
  R.set("trace.gap_ms", median(A.SelfMs[OpName]));
  double Coverage =
      A.Coverage.empty()
          ? 0
          : *std::min_element(A.Coverage.begin(), A.Coverage.end());
  R.set("trace.coverage", Coverage);
  if (Coverage < MinCoverage)
    R.error("layer spans cover only " + std::to_string(Coverage) +
            " of an operation's wall time; at least " +
            std::to_string(MinCoverage) + " is required");
  double Plain = median(PlainMs);
  R.set("trace.overhead_pct",
        Plain > 0 ? 100.0 * (median(TracedMs) - Plain) / Plain : 0);
}

} // namespace perfbench
