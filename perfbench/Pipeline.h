//===- perfbench/Pipeline.h - One in-process analysis operation -*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operation batch-cold and edit-rerun time: one XgccTool over a file
/// list, from addSourceFiles through the ranked report text, with a span
/// around every call into a layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Bench.h"

#include "lifecycle/BaselineStore.h"
#include "support/Metrics.h"

#include <string>
#include <vector>

namespace perfbench {

/// The stock checkers, in the order the CLI runs them.
const std::vector<std::string> &stockCheckers();

struct PipelineConfig {
  /// Cache and baseline directories; empty = an uncached run without a
  /// baseline (batch-cold).
  std::string CacheDir;
  std::string BaselineDir;
  /// Time each checker through XgccTool::runChecker instead of one
  /// XgccTool::run (uncached runs only; the traced batch-cold run).
  bool PerChecker = false;
};

struct PipelineResult {
  double Ms = 0; ///< addSourceFiles through the ranked report text.
  bool Ok = false;
  std::string Why; ///< Oracle failure, when !Ok.
  mc::MetricsSnapshot Metrics;
  mc::BaselineDelta Delta;
  size_t Reports = 0;
};

/// Runs one operation over \p Paths and checks its reports against
/// \p Expected. The operation's span is \p Name; its layer spans are its
/// children.
PipelineResult runPipeline(const std::vector<std::string> &Paths,
                           const ExpectedReports &Expected,
                           const PipelineConfig &Cfg, Tracer &T,
                           const char *Name, uint64_t Op);

/// Sets the per-layer count and ratio metrics of \p R: for each, the
/// median over operations of the value one operation's metrics snapshot
/// (\p M) and report count (\p Reports) give.
void setCountMetrics(Result &R, const std::vector<mc::MetricsSnapshot> &M,
                     const std::vector<size_t> &Reports);
void setEngineMetrics(Result &R, const std::vector<PipelineResult> &Ops);

/// The share of every traced operation's wall time its layer spans must
/// cover on batch-cold and edit-rerun.
constexpr double kMinCoverage = 0.95;

/// Sets the per-layer time metrics (and the accounting ones) from \p T's
/// spans, and trace.overhead_pct from the traced and plain operation times.
/// Records a failed check when an operation's layer spans cover less than
/// \p MinCoverage of its wall time.
void setLayerTimes(Result &R, const Tracer &T, const std::string &OpName,
                   const std::vector<double> &TracedMs,
                   const std::vector<double> &PlainMs, double MinCoverage);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
