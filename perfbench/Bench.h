//===- perfbench/Bench.h - Shared benchmark harness -------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: options, the result record perfbench
/// prints, statistics, the span tracer, and the report oracle.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Corpus.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mc {
class ReportManager;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Scratch directory for corpora, stores and sockets (relative to the
  /// working directory, so the socket path stays short).
  std::string WorkDir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string TraceOut;
};

/// What one run reports. Metrics a workload does not set read 0: that
/// layer did no work the benchmark can see on that workload.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Oracle failures outside counted operations (set-up, daemon drain).
  std::vector<std::string> Errors;
  std::map<std::string, double> Metrics;

  /// Records one operation's oracle verdict; \p Why explains a failure.
  void op(bool Ok, const std::string &Why = "");
  void error(const std::string &Why) { Errors.push_back(Why); }
  void set(const std::string &Name, double V) { Metrics[Name] = V; }
};

/// Set-up repeats per run; setup_s is their median.
constexpr unsigned kSetupRepeats = 3;

/// The end-to-end latency metrics a workload is named for.
enum class OwnLatency { None, Rerun, Request };

/// Sets the operation-latency metrics from one timed section: every
/// operation's wall time (\p Ms), the operations that passed their oracle,
/// and the section's length. The latency metrics named for the workload
/// (\p Own) read their percentiles; every other one reads the mean
/// operation time, as each end-to-end metric must read a measured value on
/// every workload, and a mean over the whole section repeats better from
/// run to run than a median of a few operations.
void setOperationLatency(Result &R, const std::vector<double> &Ms,
                         size_t Correct, double ElapsedS, OwnLatency Own);

/// Linearly interpolated percentile \p P (0..100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}
/// Smallest sample count for which percentile \p P has at least ten samples
/// beyond it.
unsigned samplesFor(double P);

/// Compares a run's reports with the generator's ground truth. Returns ""
/// when every expected (function, checker) report is present the expected
/// number of times and there is no other report; otherwise a description
/// of the first differences.
std::string checkReports(const mc::ReportManager &RM,
                         const ExpectedReports &Expected);

/// One recorded span: a layer call made from the benchmark's own code.
struct Span {
  std::string Name;
  uint64_t Op = 0;   ///< The operation (run, cycle, request) it belongs to.
  int Parent = -1;   ///< Index of the enclosing span, -1 for an operation.
  unsigned Lane = 0; ///< Client thread that recorded it.
  double StartUs = 0, EndUs = 0;
};

/// In-memory span recorder. When off, begin() and end() read no clock and
/// record nothing. One tracer per thread; merge with append().
class Tracer {
public:
  Tracer(bool On, Clock::time_point Epoch, unsigned Lane = 0)
      : On(On), Epoch(Epoch), Lane(Lane) {}
  int begin(std::string Name, uint64_t Op, int Parent);
  void end(int Id);
  void append(const Tracer &Other);
  const std::vector<Span> &spans() const { return Spans; }

private:
  bool On;
  Clock::time_point Epoch;
  unsigned Lane;
  std::vector<Span> Spans;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer &T, std::string Name, uint64_t Op, int Parent = -1)
      : T(T), Id(T.begin(std::move(Name), Op, Parent)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

/// Per-operation layer accounting derived from the spans: for each span
/// name, its inclusive and self time per operation (summed over the spans
/// of that name in the operation), and for each operation the share of its
/// wall time its child spans cover.
struct LayerAccounting {
  std::map<std::string, std::vector<double>> InclusiveMs;
  std::map<std::string, std::vector<double>> SelfMs;
  std::vector<double> Coverage;
};
LayerAccounting accountLayers(const std::vector<Span> &Spans);

/// Writes \p Spans as Chrome trace-event JSON. False on I/O failure.
bool writeTrace(const std::string &Path, const std::vector<Span> &Spans);

bool writeFile(const std::string &Path, const std::string &Text);
/// Writes back the dirty pages of the file system holding \p Dir. Called
/// before each set-up repeat and before the timed section, so that the
/// kernel's delayed writeback of files written earlier does not land inside
/// a timed section.
void flushFileSystem(const std::string &Dir);
/// Peak resident set of this process, MB.
double selfPeakRssMb();
/// Total bytes of the regular files under \p Dir.
uint64_t dirBytes(const std::string &Dir);

Result runBatchCold(const Options &O);
Result runEditRerun(const Options &O);
Result runServeWarm(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
