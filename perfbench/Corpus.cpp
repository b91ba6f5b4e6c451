//===- perfbench/Corpus.cpp - Seeded corpora with ground truth ------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include <algorithm>

namespace perfbench {

namespace {

const char kExterns[] = "void kfree(void *p);\n"
                        "void *kmalloc(int n);\n"
                        "void lock(int *l);\n"
                        "void unlock(int *l);\n";

std::string str(unsigned N) { return std::to_string(N); }

void expect(Corpus &C, const std::string &Fn, const char *Checker) {
  ++C.Expected[{Fn, Checker}];
}

/// Part 1, the mini-kernel: 9600 small functions in 16 files, a third each
/// of free, lock and allocation discipline, a fifth of each kind seeded
/// with its bug. Why: this is the paper's target, many small checkers over
/// a large body of plain systems code; it puts the bulk of the run into
/// parsing, CFG building and per-root traversal, with little
/// interprocedural work.
void miniKernel(Corpus &C, Rng &R) {
  constexpr unsigned Files = 16, PerFile = 600;
  constexpr unsigned PerKind = Files * PerFile / 3, BuggyPerKind = PerKind / 5;
  std::vector<std::pair<unsigned, bool>> Slots; // (kind, buggy)
  for (unsigned K = 0; K != 3; ++K)
    for (unsigned I = 0; I != PerKind; ++I)
      Slots.push_back({K, I < BuggyPerKind});
  R.shuffle(Slots);
  for (unsigned F = 0; F != Files; ++F) {
    std::string S = kExterns;
    for (unsigned I = 0; I != PerFile; ++I) {
      auto [Kind, Buggy] = Slots[F * PerFile + I];
      std::string Fn = "mk" + str(F) + "_fn" + str(I);
      switch (Kind) {
      case 0:
        S += "int " + Fn + "(int *p, int c) {\n  if (c > " + str(R.below(100)) +
             ")\n    return 0;\n  kfree(p);\n";
        S += Buggy ? "  return *p;\n}\n" : "  return 0;\n}\n";
        if (Buggy)
          expect(C, Fn, "free_checker");
        break;
      case 1:
        S += "int " + Fn + "(int *l, int c) {\n  lock(l);\n";
        if (Buggy) {
          S += "  if (c == " + str(R.below(16)) + ")\n    return -1;\n";
          expect(C, Fn, "lock_checker");
        }
        S += "  unlock(l);\n  return 0;\n}\n";
        break;
      default:
        S += "int " + Fn + "(int n) {\n  int *buf;\n  buf = kmalloc(n);\n";
        if (Buggy) {
          S += "  *buf = n;\n  return n;\n}\n";
          expect(C, Fn, "null_checker");
        } else {
          S += "  if (!buf)\n    return -1;\n  *buf = n;\n  return 0;\n}\n";
        }
        break;
      }
    }
    C.Files.push_back({"mk" + str(F) + ".c", std::move(S)});
  }
}

/// A function of \p Diamonds sequential if/else diamonds over int
/// parameters; never a bug.
std::string diamondWorker(const std::string &Fn, unsigned Diamonds) {
  std::string S = "int " + Fn + "(int *p, int c) {\n  int acc = 0;\n";
  for (unsigned D = 0; D != Diamonds; ++D)
    S += "  if (c > " + str(D) + ") { acc += " + str(D) +
         "; } else { acc -= 1; }\n";
  return S + "  return acc;\n}\n";
}

/// Part 2, private-cone roots: 96 roots in 2 files, each with its own call
/// chain ending in a free and its own diamond worker; half of them
/// dereference after the chain frees. Why: top-down interprocedural descent
/// where no summary can be reused across roots, so function-summary hits
/// here would signal a keying bug, and the cost scales with roots.
void privateCones(Corpus &C, Rng &R) {
  constexpr unsigned Files = 2, PerFile = 48, Depth = 4, Diamonds = 6;
  std::vector<bool> Buggy(Files * PerFile, false);
  std::fill(Buggy.begin(), Buggy.begin() + Buggy.size() / 2, true);
  R.shuffle(Buggy);
  for (unsigned F = 0; F != Files; ++F) {
    std::string P = "pc" + str(F) + "_";
    std::string S = kExterns;
    for (unsigned I = 0; I != PerFile; ++I) {
      std::string Tag = P + "r" + str(I) + "_";
      S += "int " + Tag + "level0(int *x) { kfree(x); return 0; }\n";
      for (unsigned L = 1; L <= Depth; ++L)
        S += "int " + Tag + "level" + str(L) + "(int *x) { return " + Tag +
             "level" + str(L - 1) + "(x); }\n";
      S += diamondWorker(Tag + "worker", Diamonds);
      std::string Root = P + "root" + str(I);
      S += "int " + Root + "(int *p, int c) {\n  int acc = " + Tag +
           "worker(p, c);\n  " + Tag + "level" + str(Depth) + "(p);\n";
      if (Buggy[F * PerFile + I]) {
        S += "  acc += *p;\n";
        expect(C, Root, "free_checker");
      }
      S += "  return acc;\n}\n";
    }
    C.Files.push_back({"pc" + str(F) + ".c", std::move(S)});
  }
}

/// Part 3, shared callees: 64 roots over one call chain of depth 8 and 16
/// diamond workers; each root calls 4 seeded workers, then the chain, and
/// half dereference afterwards. Why: callees shared by many roots are where
/// function summaries and the block cache pay off, so their hit ratios move
/// here and nowhere else in the batch corpus.
void sharedCallees(Corpus &C, Rng &R) {
  constexpr unsigned Roots = 64, Workers = 16, Depth = 8, Diamonds = 8,
                     Calls = 4;
  const std::string P = "sc0_";
  std::string S = kExterns;
  S += "int " + P + "level0(int *x) { kfree(x); return 0; }\n";
  for (unsigned L = 1; L <= Depth; ++L)
    S += "int " + P + "level" + str(L) + "(int *x) { return " + P + "level" +
         str(L - 1) + "(x); }\n";
  for (unsigned W = 0; W != Workers; ++W)
    S += diamondWorker(P + "worker" + str(W), Diamonds);
  std::vector<bool> Buggy(Roots, false);
  std::fill(Buggy.begin(), Buggy.begin() + Roots / 2, true);
  R.shuffle(Buggy);
  std::vector<unsigned> Order(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Order[W] = W;
  for (unsigned I = 0; I != Roots; ++I) {
    std::string Root = P + "root" + str(I);
    R.shuffle(Order);
    S += "int " + Root + "(int *p, int c) {\n  int acc = 0;\n";
    for (unsigned K = 0; K != Calls; ++K)
      S += "  acc += " + P + "worker" + str(Order[K]) + "(p, c);\n";
    S += "  " + P + "level" + str(Depth) + "(p);\n";
    if (Buggy[I]) {
      S += "  acc += *p;\n";
      expect(C, Root, "free_checker");
    }
    S += "  return acc;\n}\n";
  }
  C.Files.push_back({"sc0.c", std::move(S)});
}

/// Part 4, the Section 8 slice: 25 groups of four cases in seeded order.
/// kill: the freed pointer is reassigned before use (needs killing); fpp:
/// free and use under contradictory conditions (needs false-path pruning);
/// real: a plain use-after-free; syn: a use-after-free reachable only
/// through a synonym. Why: the fpp layer (kills, pruned paths, synonyms)
/// does no work anywhere else, and this is where a suppression regression
/// would show as a false positive or a missed bug.
void section8(Corpus &C, Rng &R) {
  constexpr unsigned Groups = 25;
  const std::string P = "s8_";
  std::vector<std::pair<unsigned, unsigned>> Cases; // (shape, group)
  for (unsigned G = 0; G != Groups; ++G)
    for (unsigned K = 0; K != 4; ++K)
      Cases.push_back({K, G});
  R.shuffle(Cases);
  std::string S = kExterns;
  for (auto [Shape, G] : Cases) {
    std::string N = str(G);
    switch (Shape) {
    case 0:
      S += "int " + P + "kill" + N +
           "(int *p, int *q) {\n  kfree(p);\n  p = q;\n  return *p;\n}\n";
      break;
    case 1:
      S += "int " + P + "fpp" + N +
           "(int *p, int x) {\n  if (x) kfree(p);\n  if (!x) return *p;\n"
           "  return 0;\n}\n";
      break;
    case 2:
      S += "int " + P + "real" + N + "(int *p) {\n  kfree(p);\n  return *p;\n}\n";
      expect(C, P + "real" + N, "free_checker");
      break;
    default:
      S += "int " + P + "syn" + N +
           "(int *p) {\n  int *alias;\n  kfree(p);\n  alias = p;\n  p = 0;\n"
           "  return *alias;\n}\n";
      expect(C, P + "syn" + N, "free_checker");
      break;
    }
  }
  C.Files.push_back({"s8_0.c", std::move(S)});
}

} // namespace

unsigned countLines(const std::string &S) {
  return unsigned(std::count(S.begin(), S.end(), '\n'));
}

Corpus batchCorpus(uint64_t Seed) {
  Corpus C;
  Rng R(Seed);
  miniKernel(C, R);
  privateCones(C, R);
  sharedCallees(C, R);
  section8(C, R);
  for (const SourceFile &F : C.Files)
    C.Lines += countLines(F.Text);
  return C;
}

PairCorpus::PairCorpus(uint64_t Seed) : Pairs(kFiles * kPairsPerFile) {
  // A third of the roots start buggy, at seeded places.
  std::vector<bool> Buggy(Pairs.size(), false);
  std::fill(Buggy.begin(), Buggy.begin() + Buggy.size() / 3, true);
  Rng R(Seed ^ 0x5eed0f9a17ull);
  R.shuffle(Buggy);
  for (size_t I = 0; I != Pairs.size(); ++I)
    Pairs[I].Bug = Buggy[I];
  Bugs = unsigned(Pairs.size() / 3);
}

unsigned PairCorpus::edit(Rng &R) {
  unsigned Idx = R.below(unsigned(Pairs.size()));
  Pair &P = Pairs[Idx];
  ++P.Generation;
  P.Bug = !P.Bug;
  LastAdded = P.Bug;
  Bugs += P.Bug ? 1 : -1;
  return Idx / kPairsPerFile;
}

std::string PairCorpus::fileName(unsigned File) {
  return "e" + str(File) + ".c";
}

std::string PairCorpus::fileText(unsigned File) const {
  std::string S = kExterns;
  for (unsigned I = 0; I != kPairsPerFile; ++I) {
    const Pair &P = Pairs[File * kPairsPerFile + I];
    std::string N = "e" + str(File) + "_" + str(I);
    // The helper's constants follow its edit generation, so an edit changes
    // the file's token stream without changing how much work it is.
    S += "static int " + N + "_helper(int *p, int a, int b) {\n  int acc = a;\n";
    for (unsigned D = 0; D != 10; ++D)
      S += "  if (a > " + str(D + 3 * P.Generation) + ") { acc += " + str(D) +
           "; } else { acc -= b; }\n";
    S += "  return acc + *p;\n}\n";
    S += "int " + N + "_root(int v) {\n  int x = v;\n  int *p = &x;\n";
    if (P.Bug)
      S += "  kfree(p);\n  if (v > 1) { x = *p; }\n";
    else
      S += "  x = " + N + "_helper(p, v, 2);\n  kfree(p);\n";
    S += "  return " + N + "_helper(&x, x, v);\n}\n";
  }
  return S;
}

unsigned PairCorpus::fileBugs(unsigned File) const {
  unsigned N = 0;
  for (unsigned I = 0; I != kPairsPerFile; ++I)
    N += Pairs[File * kPairsPerFile + I].Bug;
  return N;
}

unsigned PairCorpus::lines() const {
  unsigned L = 0;
  for (unsigned F = 0; F != kFiles; ++F)
    L += countLines(fileText(F));
  return L;
}

ExpectedReports PairCorpus::expected() const {
  ExpectedReports E;
  for (size_t I = 0; I != Pairs.size(); ++I)
    if (Pairs[I].Bug)
      E[{"e" + str(unsigned(I / kPairsPerFile)) + "_" +
             str(unsigned(I % kPairsPerFile)) + "_root",
         "free_checker"}] = 1;
  return E;
}

} // namespace perfbench
