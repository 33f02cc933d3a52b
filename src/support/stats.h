//===- support/stats.h - Analysis statistics registry ----------*- C++ -*-===//
///
/// \file
/// Counters and cycle accumulators for the octagon operators. The paper's
/// evaluation reports per-benchmark closure counts, DBM sizes (Table 2),
/// aggregate closure time (Fig. 6), octagon-analysis time (Fig. 8), and
/// per-closure traces (Fig. 7); OctStats collects all of that.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_STATS_H
#define OPTOCT_SUPPORT_STATS_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace optoct {

/// One recorded closure event, for the Fig. 7 trace.
struct ClosureEvent {
  std::uint64_t Cycles; ///< Duration of this closure call.
  unsigned NumVars;     ///< Number of variables in the DBM.
  int KindTag;          ///< Which closure ran (library-specific tag).
};

/// Statistics gathered while a program analysis runs against one octagon
/// library. Attached to the domain adapters in src/analysis.
class OctStats {
public:
  /// Kind tags below this bound are also counted per kind.
  static constexpr int MaxKindTags = 8;

  void recordClosure(std::uint64_t Cycles, unsigned NumVars, int KindTag) {
    ++NumClosures;
    ClosureCycles += Cycles;
    if (KindTag >= 0 && KindTag < MaxKindTags) {
      ++ClosuresByKind[KindTag];
      CyclesByKind[KindTag] += Cycles;
    }
    if (NumVars < MinVars)
      MinVars = NumVars;
    if (NumVars > MaxVars)
      MaxVars = NumVars;
    if (TraceEnabled)
      Trace.push_back({Cycles, NumVars, KindTag});
  }

  void addOctagonCycles(std::uint64_t Cycles) { OctagonCycles += Cycles; }

  void reset() {
    NumClosures = 0;
    ClosureCycles = 0;
    OctagonCycles = 0;
    ClosuresByKind.fill(0);
    CyclesByKind.fill(0);
    MinVars = std::numeric_limits<unsigned>::max();
    MaxVars = 0;
    Trace.clear();
  }

  void enableTrace(bool On) { TraceEnabled = On; }

  std::uint64_t numClosures() const { return NumClosures; }
  std::uint64_t closureCycles() const { return ClosureCycles; }
  std::uint64_t octagonCycles() const { return OctagonCycles; }
  /// Closures and their cycles recorded with kind tag \p Tag (0 for a
  /// tag outside [0, MaxKindTags)).
  std::uint64_t closuresOfKind(int Tag) const {
    return Tag >= 0 && Tag < MaxKindTags ? ClosuresByKind[Tag] : 0;
  }
  std::uint64_t closureCyclesOfKind(int Tag) const {
    return Tag >= 0 && Tag < MaxKindTags ? CyclesByKind[Tag] : 0;
  }
  unsigned minVars() const { return NumClosures == 0 ? 0 : MinVars; }
  unsigned maxVars() const { return MaxVars; }
  const std::vector<ClosureEvent> &trace() const { return Trace; }

private:
  std::uint64_t NumClosures = 0;
  std::uint64_t ClosureCycles = 0;
  std::uint64_t OctagonCycles = 0;
  std::array<std::uint64_t, MaxKindTags> ClosuresByKind{};
  std::array<std::uint64_t, MaxKindTags> CyclesByKind{};
  unsigned MinVars = std::numeric_limits<unsigned>::max();
  unsigned MaxVars = 0;
  bool TraceEnabled = false;
  std::vector<ClosureEvent> Trace;
};

} // namespace optoct

#endif // OPTOCT_SUPPORT_STATS_H
