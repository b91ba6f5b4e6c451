//===- perfbench/ServeWarm.cpp - xgccd on a warm store --------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve-warm: the editor's path. The real xgccd serves single-file requests
// from a warm store to 4 closed-loop clients: each client waits for its
// reply before sending the next request, as an editor or a CI job does. This exercises the
// service layer (admission, queue, wire, protocol) and uses the store
// read-only, the opposite of edit-rerun.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "engine/RunManifest.h"
#include "service/Client.h"
#include "service/Protocol.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef MC_XGCC_BINARY
#define MC_XGCC_BINARY "xgcc"
#endif
#ifndef MC_XGCCD_BINARY
#define MC_XGCCD_BINARY "xgccd"
#endif

namespace perfbench {

namespace {

constexpr unsigned kClients = 4;
/// The daemon's peak RSS is read once this many timed requests have been
/// answered: its resident set grows with the requests it serves, so a
/// reading at a fixed request count compares runs, and a faster daemon
/// serving more requests in the same seconds is not charged for them.
constexpr unsigned kRssCheckpoint = 2000;
/// Timed requests per run, at least: requests_per_s and request_p50_ms
/// repeat better from run to run over more requests.
constexpr unsigned kMinTimedRequests = 6000;
/// Traced-run requests per client, alternating traced and plain: 2000 in
/// all, so each of the two halves has ten requests beyond its p99.
/// request_p99_ms is the p99 of the plain half.
constexpr unsigned kTraceRequestsPerClient = 500;

/// In a forked child: die with the benchmark, and send stderr (and stdout
/// unless \p KeepStdout) to /dev/null.
void childSetup(bool KeepStdout) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int Null = ::open("/dev/null", O_WRONLY);
  if (Null >= 0) {
    ::dup2(Null, 2);
    if (!KeepStdout)
      ::dup2(Null, 1);
    ::close(Null);
  }
}

bool socketUp(const std::string &Sock) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Sock.c_str(),
              std::min(Sock.size(), sizeof(Addr.sun_path) - 1));
  bool Up = ::connect(Fd, (const sockaddr *)&Addr, sizeof(Addr)) == 0;
  ::close(Fd);
  return Up;
}

/// A running xgccd, stopped (SIGTERM, then waited for) when destroyed.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::string &Sock, const std::string &CacheDir) {
    Pid = ::fork();
    if (Pid == 0) {
      childSetup(/*KeepStdout=*/false);
      ::execl(MC_XGCCD_BINARY, MC_XGCCD_BINARY, "--socket", Sock.c_str(),
              "--cache-dir", CacheDir.c_str(), "--jobs", "1", (char *)nullptr);
      ::_exit(127);
    }
    if (Pid < 0)
      return false;
    for (int I = 0; I != 500; ++I) {
      if (socketUp(Sock))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  /// Drains the daemon; true when it exited 0.
  bool stop() {
    if (Pid <= 0)
      return true;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  /// The daemon's high-water resident set (VmHWM), MB; 0 if unreadable.
  double peakRssMb() const {
    std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(In, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
  }

private:
  pid_t Pid = -1;
};

/// Runs the standalone `xgcc --jobs 1 <File>` and captures its stdout.
bool runXgcc(const std::string &File, std::string &Out) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return false;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::dup2(Pipe[1], 1);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    childSetup(/*KeepStdout=*/true);
    ::execl(MC_XGCC_BINARY, MC_XGCC_BINARY, "--jobs", "1", File.c_str(),
            (char *)nullptr);
    ::_exit(127);
  }
  ::close(Pipe[1]);
  if (Pid < 0) {
    ::close(Pipe[0]);
    return false;
  }
  Out.clear();
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, size_t(N));
  ::close(Pipe[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

/// The "N report(s)" count that ends an xgcc text output; -1 if absent.
long reportCountLine(const std::string &Out) {
  size_t End = Out.rfind(" report(s)");
  if (End == std::string::npos)
    return -1;
  size_t Begin = Out.rfind('\n', End);
  Begin = Begin == std::string::npos ? 0 : Begin + 1;
  return std::strtol(Out.c_str() + Begin, nullptr, 10);
}

/// Percentile of whole-millisecond values that the daemon truncated: each
/// value k stands for the interval [k, k+1), and the percentile is read by
/// interpolating the empirical distribution within its interval.
double truncatedMsPercentile(std::vector<uint64_t> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Target = P / 100.0 * double(V.size());
  size_t Lo = 0;
  while (Lo != V.size()) {
    size_t Hi = Lo;
    while (Hi != V.size() && V[Hi] == V[Lo])
      ++Hi;
    if (double(Hi) >= Target)
      return double(V[Lo]) + (Target - double(Lo)) / double(Hi - Lo);
    Lo = Hi;
  }
  return double(V.back()) + 1;
}

struct Sample {
  double Ms = 0;          ///< serialize + round trip + parse.
  double RoundTripMs = 0; ///< serviceRoundTrip alone.
  double ProtocolUs = 0;  ///< serialize + parse.
  uint64_t QueueMs = 0, RunMs = 0;
  bool Ok = false, Shed = false, Traced = false;
  unsigned File = 0;
  std::string Manifest; ///< Traced requests only.
};

} // namespace

Result runServeWarm(const Options &O) {
  namespace fs = std::filesystem;
  Result R;
  const std::string Dir = O.WorkDir + "/serve";
  const std::string Sock = Dir + "/d.sock";
  const std::string CacheDir = Dir + "/cache";
  std::vector<std::string> Paths;
  for (unsigned F = 0; F != PairCorpus::kFiles; ++F)
    Paths.push_back(Dir + "/" + PairCorpus::fileName(F));

  auto Request = [&](const std::string &Id, std::vector<std::string> Files,
                     mc::ServiceResponse &Resp) {
    mc::ServiceRequest Req;
    Req.Id = Id;
    Req.Files = std::move(Files);
    Req.Jobs = 1;
    std::string Reply;
    return mc::serviceRoundTrip(Sock, Req.serializeToString(), Reply) &&
           Resp.parse(Reply);
  };

  // Set-up: write the corpus, start the daemon on an empty store, prime it
  // with one whole-corpus request, capture each file's standalone xgcc
  // output, and warm each single-file request against it. The last repeat's
  // daemon serves the timed section.
  Daemon D;
  std::vector<std::string> Expected(Paths.size());
  std::vector<unsigned> FileLines(Paths.size());
  std::vector<double> SetupS;
  for (unsigned I = 0; I != kSetupRepeats; ++I) {
    if (!D.stop())
      R.error("xgccd did not drain to exit 0 after a set-up repeat");
    std::error_code EC;
    fs::remove_all(Dir, EC);
    flushFileSystem(O.WorkDir);
    Clock::time_point T0 = Clock::now();
    fs::create_directories(Dir, EC);
    PairCorpus Corpus(O.Seed);
    for (unsigned F = 0; F != Paths.size(); ++F) {
      std::string Text = Corpus.fileText(F);
      FileLines[F] = countLines(Text);
      if (!writeFile(Paths[F], Text)) {
        R.error("cannot write " + Paths[F]);
        return R;
      }
    }
    if (!D.start(Sock, CacheDir)) {
      R.error("xgccd did not start");
      return R;
    }
    mc::ServiceResponse Prime;
    if (!Request("prime", Paths, Prime) ||
        Prime.Status != mc::ServiceStatus::Ok ||
        reportCountLine(Prime.Output) != long(Corpus.bugCount())) {
      R.error("cold prime failed: " + Prime.Error);
      return R;
    }
    for (unsigned F = 0; F != Paths.size(); ++F) {
      mc::ServiceResponse Warm;
      if (!runXgcc(Paths[F], Expected[F]) ||
          reportCountLine(Expected[F]) != long(Corpus.fileBugs(F))) {
        R.error("standalone xgcc on " + Paths[F] + " disagrees with ground truth");
        return R;
      }
      if (!Request("warm-" + std::to_string(F), {Paths[F]}, Warm) ||
          Warm.Status != mc::ServiceStatus::Ok || Warm.Output != Expected[F]) {
        R.error("xgccd response for " + Paths[F] +
                " differs from standalone xgcc");
        return R;
      }
    }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  R.set("setup_s", median(SetupS));
  flushFileSystem(Dir);

  // Timed: closed-loop clients, each round-robin over the corpus from its
  // own starting file.
  const unsigned MinRequests = std::max(kMinTimedRequests, kRssCheckpoint);
  const Clock::time_point Epoch = Clock::now();
  std::atomic<unsigned> Sent{0}, Answered{0};
  std::atomic<double> RssAtCheckpoint{0};
  std::vector<std::vector<Sample>> PerClient(kClients);
  std::vector<Tracer> Tracers;
  for (unsigned C = 0; C != kClients; ++C)
    Tracers.emplace_back(O.Trace, Epoch, C);
  auto Client = [&](unsigned C) {
    Tracer Off(false, Epoch);
    for (unsigned K = 0;; ++K) {
      if (O.Trace ? K == kTraceRequestsPerClient
                  : Sent.load() >= MinRequests &&
                        msBetween(Epoch, Clock::now()) >= O.Seconds * 1000.0)
        break;
      Sent.fetch_add(1);
      Sample S;
      S.File = (C * (PairCorpus::kFiles / kClients) + K) % PairCorpus::kFiles;
      S.Traced = O.Trace && K % 2 == 0;
      Tracer &T = S.Traced ? Tracers[C] : Off;
      const uint64_t Op = uint64_t(C) << 32 | K;
      mc::ServiceRequest Req;
      Req.Id = "c" + std::to_string(C) + "-" + std::to_string(K);
      Req.Files = {Paths[S.File]};
      Req.Jobs = 1;
      mc::ServiceResponse Resp;
      std::string Line, Reply;
      bool Parsed = false;
      Clock::time_point T0 = Clock::now(), T1, T2;
      {
        SpanScope OpSpan(T, "serve.request", Op);
        {
          SpanScope P(T, "service.protocol", Op, OpSpan.id());
          Line = Req.serializeToString();
        }
        T1 = Clock::now();
        bool Delivered = false;
        {
          SpanScope W(T, "service.roundtrip", Op, OpSpan.id());
          Delivered = mc::serviceRoundTrip(Sock, Line, Reply);
        }
        T2 = Clock::now();
        {
          SpanScope P(T, "service.protocol", Op, OpSpan.id());
          Parsed = Delivered && Resp.parse(Reply);
        }
      }
      Clock::time_point T3 = Clock::now();
      S.Ms = msBetween(T0, T3);
      S.RoundTripMs = msBetween(T1, T2);
      S.ProtocolUs = (msBetween(T0, T1) + msBetween(T2, T3)) * 1000.0;
      S.QueueMs = Resp.QueueMs;
      S.RunMs = Resp.RunMs;
      S.Shed = Parsed && (Resp.Status == mc::ServiceStatus::Overloaded ||
                          Resp.Status == mc::ServiceStatus::Retriable);
      S.Ok = Parsed && Resp.Status == mc::ServiceStatus::Ok &&
             Resp.Output == Expected[S.File];
      if (S.Traced)
        S.Manifest = std::move(Resp.Manifest);
      PerClient[C].push_back(std::move(S));
      if (Answered.fetch_add(1) + 1 == kRssCheckpoint)
        RssAtCheckpoint.store(D.peakRssMb());
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != kClients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &Th : Threads)
    Th.join();
  double ElapsedS = msBetween(Epoch, Clock::now()) / 1000.0;
  double PeakRssMb = RssAtCheckpoint.load();
  if (!D.stop())
    R.error("xgccd did not drain to exit 0");

  std::vector<Sample> All;
  for (std::vector<Sample> &V : PerClient)
    for (Sample &S : V)
      All.push_back(std::move(S));
  size_t Correct = 0, Shed = 0;
  double Lines = 0;
  std::vector<double> Ms;
  for (const Sample &S : All) {
    R.op(S.Ok, S.Shed ? "request shed (overloaded or retriable)"
                      : "response not ok or differs from standalone xgcc");
    Ms.push_back(S.Ms);
    Correct += S.Ok;
    Shed += S.Shed;
    Lines += S.Ok ? FileLines[S.File] : 0;
  }

  if (!O.Trace) {
    setOperationLatency(R, Ms, Correct, ElapsedS, OwnLatency::Request);
    R.set("kloc_per_s", Lines / 1000.0 / ElapsedS);
    R.set("peak_rss_mb", PeakRssMb);
    return R;
  }

  Tracer T(true, Epoch);
  for (const Tracer &C : Tracers)
    T.append(C);
  std::vector<double> TracedMs, PlainMs, WireMs, ProtocolUs;
  std::vector<uint64_t> QueueMs, RunMs;
  std::vector<mc::MetricsSnapshot> Snapshots;
  std::vector<size_t> Reports;
  for (const Sample &S : All) {
    (S.Traced ? TracedMs : PlainMs).push_back(S.Ms);
    QueueMs.push_back(S.QueueMs);
    RunMs.push_back(S.RunMs);
    // The round trip is queue + run + the rest (wire, admission, the
    // client's connect); the rest is what this leaves.
    WireMs.push_back(S.RoundTripMs - double(S.QueueMs) - double(S.RunMs));
    ProtocolUs.push_back(S.ProtocolUs);
    mc::RunManifest M;
    if (S.Traced && mc::parseRunManifest(S.Manifest, M)) {
      Snapshots.push_back(M.Metrics);
      Reports.push_back(M.ReportCount);
    }
  }
  setCountMetrics(R, Snapshots, Reports);
  setLayerTimes(R, T, "serve.request", TracedMs, PlainMs,
                /*MinCoverage=*/0);
  R.set("service.queue_ms.p50", truncatedMsPercentile(QueueMs, 50));
  R.set("service.queue_ms.p99", truncatedMsPercentile(QueueMs, 99));
  R.set("service.run_ms.p50", truncatedMsPercentile(RunMs, 50));
  R.set("service.wire_ms.p50", median(WireMs));
  R.set("service.protocol_us", median(ProtocolUs));
  R.set("service.shed_frac", All.empty() ? 0 : double(Shed) / All.size());
  R.set("request_p99_ms", percentile(PlainMs, 99));
  R.set("store.bytes", double(dirBytes(CacheDir)));
  if (!writeTrace(O.TraceOut, T.spans()))
    R.error("cannot write " + O.TraceOut);
  return R;
}

} // namespace perfbench
