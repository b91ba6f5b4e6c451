//===- perfbench/Bench.cpp - Shared benchmark harness ---------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "report/ReportManager.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

void Result::op(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  // Keep the first few reasons; one is usually enough to debug.
  if (Errors.size() < 8)
    Errors.push_back(Why);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - double(Lo));
}

unsigned samplesFor(double P) {
  return unsigned(std::ceil(10.0 / (1.0 - P / 100.0) - 1e-9));
}

void setOperationLatency(Result &R, const std::vector<double> &Ms,
                         size_t Correct, double ElapsedS, OwnLatency Own) {
  double Mean = 0;
  for (double M : Ms)
    Mean += M / double(Ms.size());
  const bool Rerun = Own == OwnLatency::Rerun;
  const bool Request = Own == OwnLatency::Request;
  R.set("requests_per_s", ElapsedS > 0 ? double(Correct) / ElapsedS : 0);
  R.set("rerun_p50_ms", Rerun ? percentile(Ms, 50) : Mean);
  R.set("rerun_p90_ms", Rerun ? percentile(Ms, 90) : Mean);
  R.set("request_p50_ms", Request ? percentile(Ms, 50) : Mean);
}

std::string checkReports(const mc::ReportManager &RM,
                         const ExpectedReports &Expected) {
  ExpectedReports Got;
  for (const mc::ErrorReport &R : RM.reports())
    ++Got[{R.FunctionName, R.CheckerName}];
  if (Got == Expected)
    return "";
  std::string Why;
  unsigned Shown = 0;
  auto Note = [&](const std::pair<std::string, std::string> &K, unsigned Want,
                  unsigned Have) {
    if (Shown++ < 3)
      Why += " " + K.first + "/" + K.second + ": want " +
             std::to_string(Want) + " got " + std::to_string(Have) + ";";
  };
  for (const auto &[K, N] : Expected) {
    auto It = Got.find(K);
    unsigned Have = It == Got.end() ? 0 : It->second;
    if (Have != N)
      Note(K, N, Have);
  }
  for (const auto &[K, N] : Got)
    if (!Expected.count(K))
      Note(K, 0, N);
  return "reports differ from ground truth (" + std::to_string(Shown) +
         " mismatches):" + Why;
}

int Tracer::begin(std::string Name, uint64_t Op, int Parent) {
  if (!On)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Op = Op;
  S.Parent = Parent;
  S.Lane = Lane;
  S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                  .count();
  Spans.push_back(std::move(S));
  return int(Spans.size() - 1);
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  Spans[size_t(Id)].EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Epoch).count();
}

void Tracer::append(const Tracer &Other) {
  int Base = int(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

LayerAccounting accountLayers(const std::vector<Span> &Spans) {
  std::vector<double> ChildUs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[size_t(S.Parent)] += S.EndUs - S.StartUs;
  // Operation key -> span name -> (inclusive, self) in ms. The key is the
  // operation's own span index, so ops of different lanes never merge.
  std::map<int, std::map<std::string, std::pair<double, double>>> PerOp;
  std::vector<int> OpOf(Spans.size(), -1);
  LayerAccounting A;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OpOf[I] = S.Parent < 0 ? int(I) : OpOf[size_t(S.Parent)];
    double Dur = S.EndUs - S.StartUs;
    auto &Cell = PerOp[OpOf[I]][S.Name];
    Cell.first += Dur / 1000.0;
    Cell.second += std::max(0.0, Dur - ChildUs[I]) / 1000.0;
    if (S.Parent < 0)
      A.Coverage.push_back(Dur > 0 ? ChildUs[I] / Dur : 1.0);
  }
  for (const auto &[Op, Names] : PerOp)
    for (const auto &[Name, IS] : Names) {
      A.InclusiveMs[Name].push_back(IS.first);
      A.SelfMs[Name].push_back(IS.second);
    }
  return A;
}

bool writeTrace(const std::string &Path, const std::vector<Span> &Spans) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"op\":%llu}}\n",
                 I ? "," : "", S.Name.c_str(), S.Lane, S.StartUs,
                 S.EndUs - S.StartUs, I, S.Parent, (unsigned long long)S.Op);
  }
  std::fputs("]}\n", F);
  return std::fclose(F) == 0;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}

void flushFileSystem(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  ::syncfs(Fd);
  ::close(Fd);
}

double selfPeakRssMb() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return double(RU.ru_maxrss) / 1024.0; // Linux reports KB.
}

uint64_t dirBytes(const std::string &Dir) {
  namespace fs = std::filesystem;
  std::error_code EC;
  uint64_t Total = 0;
  for (fs::recursive_directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC)) {
    std::error_code SEC;
    if (It->is_regular_file(SEC))
      Total += It->file_size(SEC);
  }
  return Total;
}

} // namespace perfbench
