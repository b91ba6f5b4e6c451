//===- perfbench/Corpus.h - Seeded corpora with ground truth -----*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own corpus generators. Every generated function name
/// carries its part's prefix (and file index), so parts compose into one
/// program without "redefinition of function" clashes. Every generator takes
/// the workload seed; the seed moves *where* bugs and shapes sit, never how
/// many there are, so the work per run is the same for every seed and a
/// change in a count is a change in the analyzer.
///
/// Ground truth is the set of (function, checker) pairs the stock suite
/// must report, derived from the generator alone, never from a run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); 0 when N is 0.
  unsigned below(unsigned N) { return N ? unsigned(next() % N) : 0; }
  /// A seeded permutation of \p V (Fisher-Yates).
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::iter_swap(V.begin() + (I - 1), V.begin() + below(unsigned(I)));
  }

private:
  uint64_t State;
};

/// Reports the stock suite must produce: (function name, checker name) ->
/// count. Functions absent from the map must produce no report.
using ExpectedReports = std::map<std::pair<std::string, std::string>, unsigned>;

struct SourceFile {
  std::string Name; ///< File name, relative to the corpus directory.
  std::string Text;
};

struct Corpus {
  std::vector<SourceFile> Files;
  /// Exact: on the Section 8 slice it lists every real and synonym case
  /// and no kill or fpp case, so matching it means no false positive there
  /// and no missed bug.
  ExpectedReports Expected;
  unsigned Lines = 0;
};

/// The batch-cold corpus, about 64 kLoC in 20 files (see Corpus.cpp for
/// why each part is there).
Corpus batchCorpus(uint64_t Seed);

/// The edit-rerun / serve-warm corpus: 32 files of 18 helper/root pairs.
/// Every pair's helper text depends on its edit generation; its root
/// carries a use-after-free or not.
class PairCorpus {
public:
  static constexpr unsigned kFiles = 32;
  static constexpr unsigned kPairsPerFile = 18;

  explicit PairCorpus(uint64_t Seed);

  /// One edit: rewrites the helper of a seeded pair and toggles the same
  /// pair's root bug. Returns the edited file's index.
  unsigned edit(Rng &R);

  static std::string fileName(unsigned File);
  std::string fileText(unsigned File) const;
  unsigned lines() const;
  unsigned bugCount() const { return Bugs; }
  unsigned fileBugs(unsigned File) const;
  /// Index of the pair the latest edit toggled, and whether its bug is now
  /// present.
  bool lastEditAddedBug() const { return LastAdded; }
  ExpectedReports expected() const;

private:
  struct Pair {
    unsigned Generation = 0;
    bool Bug = false;
  };
  std::vector<Pair> Pairs; ///< kFiles * kPairsPerFile, file-major.
  unsigned Bugs = 0;
  bool LastAdded = false;
};

/// Newlines in \p S.
unsigned countLines(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
