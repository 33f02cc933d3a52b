//===- bench/bench_fig7_trace.cpp - Fig. 7 reproduction -------------------===//
///
/// \file
/// Reproduces Fig. 7: the per-closure runtime trace (cycles, log scale
/// in the paper) over the analysis of the jwgqbjzs benchmark, for four
/// closure engines:
///
///   * APRON      — Algorithm 2, scalar (baseline library),
///   * FW         — vectorized full-DBM Floyd-Warshall (baseline),
///   * Dense      — OptOctagon restricted to the dense Algorithm 3
///                  (decomposition and sparse algorithms disabled),
///   * OptOctagon — the full library, which switches to the Decomposed
///                  type when widening makes the DBMs sparse midway
///                  through the analysis.
///
/// The printed series shows the transition: OptOctagon tracks Dense at
/// the start and drops by orders of magnitude once decomposition kicks
/// in. A summary compares the phases.
///
//===----------------------------------------------------------------------===//

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/table.h"
#include "workloads/harness.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace optoct;
using namespace optoct::workloads;

namespace {

std::vector<ClosureEvent> traceOf(const WorkloadSpec &Spec, Library Lib) {
  RunResult R = runWorkload(Spec, Lib, /*TraceClosures=*/true);
  return R.Trace;
}

} // namespace

int main() {
  const WorkloadSpec *Spec = findBenchmark("jwgqbjzs");
  if (!Spec) {
    std::fprintf(stderr, "jwgqbjzs benchmark missing\n");
    return 1;
  }

  std::printf("=== Fig. 7: per-closure runtime trace on jwgqbjzs ===\n\n");

  std::vector<ClosureEvent> Apron = traceOf(*Spec, Library::Apron);
  std::vector<ClosureEvent> FW = traceOf(*Spec, Library::ApronFW);

  OctConfig Saved = octConfig();
  // "Dense" series: Algorithm 3 only, no decomposition/sparsity.
  octConfig().EnableDecomposition = false;
  octConfig().EnableSparse = false;
  std::vector<ClosureEvent> Dense = traceOf(*Spec, Library::OptOctagon);
  octConfig() = Saved;
  std::vector<ClosureEvent> Opt = traceOf(*Spec, Library::OptOctagon);

  std::size_t Len = std::max(
      {Apron.size(), FW.size(), Dense.size(), Opt.size()});
  std::printf("closure#  APRON_cyc  FW_cyc  Dense_cyc  OptOct_cyc  "
              "OptOct_kind  OptOct_n\n");
  // Print a decimated trace (every Step-th closure) so the series stays
  // readable; the summary below uses all points.
  std::size_t Step = Len > 120 ? Len / 120 : 1;
  for (std::size_t I = 0; I < Len; I += Step) {
    auto Cell = [&](const std::vector<ClosureEvent> &T) -> std::string {
      if (I >= T.size())
        return "-";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    static_cast<unsigned long long>(T[I].Cycles));
      return Buf;
    };
    std::printf("%-9zu %-10s %-7s %-10s %-11s %-12s %u\n", I,
                Cell(Apron).c_str(), Cell(FW).c_str(), Cell(Dense).c_str(),
                Cell(Opt).c_str(),
                I < Opt.size() ? closureKindName(Opt[I].KindTag) : "-",
                I < Opt.size() ? Opt[I].NumVars : 0);
  }

  // Summary: mean cycles of each series, and of OptOctagon's closures
  // split by the kind its dispatch selected. The dense->decomposed
  // transition is the drop between the CK_Dense mean and the
  // CK_Decomposed mean; CK_Incremental closures follow guards
  // (Section 5.6).
  auto meanAll = [](const std::vector<ClosureEvent> &T) -> double {
    if (T.empty())
      return 0;
    double Sum = 0;
    for (const ClosureEvent &E : T)
      Sum += static_cast<double>(E.Cycles);
    return Sum / static_cast<double>(T.size());
  };
  double MeanApron = meanAll(Apron), MeanFW = meanAll(FW),
         MeanDense = meanAll(Dense);
  std::printf("\nmean cycles per closure: APRON %.0f | FW %.0f (%.1fx) | "
              "Dense-only %.0f (%.1fx)\n",
              MeanApron, MeanFW, MeanApron / MeanFW, MeanDense,
              MeanApron / MeanDense);
  for (int Tag : {CK_Dense, CK_Sparse, CK_Decomposed, CK_Incremental}) {
    double Sum = 0;
    unsigned Count = 0;
    for (const ClosureEvent &E : Opt)
      if (E.KindTag == Tag) {
        Sum += static_cast<double>(E.Cycles);
        ++Count;
      }
    if (!Count)
      continue;
    double Mean = Sum / Count;
    std::printf("OptOctagon %-7s closures: %4u, mean %.0f cycles "
                "(%.1fx over APRON, %.1fx over FW)\n",
                closureKindName(Tag), Count, Mean, MeanApron / Mean,
                MeanFW / Mean);
  }
  std::printf("(paper: FW 7-8x over APRON on dense DBMs, OptOctagon a "
              "further ~3x,\n and >1000x over FW once the DBMs become "
              "sparse after widening)\n\n");
  return 0;
}
