//===- oct/blocked_layout.h - Contiguous per-component sub-DBMs -*- C++ -*-===//
///
/// \file
/// The blocked component layout that closes the decomposed-vectorization
/// gap: a live component with m variables owns exactly the sub-half-DBM
/// a standalone m-variable octagon would (2m(m+1) packed doubles, the
/// component's variables renumbered 0..m-1), and pack() gathers it into
/// a contiguous scratch block with one pass through the coherence index.
/// Meet and narrowing (oct/octagon_ops.cpp) then run one flat span
/// kernel of oct/simd_kernels.h over all components' blocks laid end to
/// end, so k components pay one kernel dispatch instead of k, and
/// scatter() writes the results back to the same slots pack() read.
///
/// Slot-set equivalence (what keeps nni exact): a block holds exactly
/// the stored lower-triangle slots whose variable pair lies inside the
/// component, so a counting kernel's finite count over the block equals
/// the number of finite entries of the component, entry for entry.
///
/// Two pack flavors mirror the two partition semantics of Section 4:
///   * packComponent — pure span copies. Valid when every pair of the
///     component is materialized in the source buffer: FullyInit
///     matrices, and components that sit inside one source block.
///   * packComponentEntry — reads through the partition like
///     Octagon::entry(), substituting implicit trivia (+inf, 0 on the
///     diagonal) for unrelated pairs. Needed for union-merged
///     partitions (meet, narrowing on partial inputs) and for
///     Decomposed receivers of inclusion/equality, whose merged
///     components can relate pairs neither input materialized. Falls
///     back to the pure-copy pack when the whole component sits inside
///     one source block (the common case when both inputs agree on the
///     partition).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_BLOCKED_LAYOUT_H
#define OPTOCT_OCT_BLOCKED_LAYOUT_H

#include "oct/dbm.h"
#include "oct/partition.h"
#include "support/aligned.h"

#include <cstddef>
#include <vector>

namespace optoct {

/// Packed size of one m-variable component block: the sub-half-DBM of
/// an m-variable octagon, 2m(m+1) doubles.
inline std::size_t blockSize(std::size_t NumCompVars) {
  return 2 * NumCompVars * (NumCompVars + 1);
}

/// A maximal run of consecutive variables in a sorted component. The
/// run [First, First+Count) owns the contiguous packed columns
/// [2*First, 2*(First+Count)) of every stored row at or above it.
struct VarRun {
  unsigned First;
  unsigned Count;
};

/// Splits the sorted component \p Vars into its maximal runs.
void componentRuns(const std::vector<unsigned> &Vars,
                   std::vector<VarRun> &Runs);

/// Streams the stored spans of one component in place: for each
/// variable Hi of \p Vars (ascending) and each of its extended rows I in
/// {2Hi, 2Hi+1}, calls \p Fn(I, J0, Len) for every contiguous packed
/// column span relating Hi to the component's variables <= Hi — the
/// complete runs below Hi, then the partial run ending in Hi's own
/// diagonal block. The spans cover exactly the slots packComponent
/// gathers. \p Runs must be componentRuns(Vars).
template <typename FnT>
void walkComponentSpans(const std::vector<unsigned> &Vars,
                        const std::vector<VarRun> &Runs, FnT Fn) {
  std::size_t RunIdx = 0;
  unsigned InRun = 0; // variables of Runs[RunIdx] already walked
  for (unsigned Hi : Vars) {
    if (InRun == Runs[RunIdx].Count) {
      ++RunIdx;
      InRun = 0;
    }
    for (unsigned R = 0; R != 2; ++R) {
      unsigned I = 2 * Hi + R;
      for (std::size_t Q = 0; Q != RunIdx; ++Q)
        Fn(I, 2 * Runs[Q].First, 2 * Runs[Q].Count);
      // Partial current run, including Hi's 2-wide diagonal block.
      Fn(I, 2 * Runs[RunIdx].First, 2 * InRun + 2);
    }
    ++InRun;
  }
}

/// Number of finite stored entries of \p M inside the component \p Vars
/// (the component's share of nni), counted over its spans.
std::size_t countComponentFinite(const HalfDbm &M,
                                 const std::vector<unsigned> &Vars,
                                 std::vector<VarRun> &Runs);

/// Per-thread pack/scatter scratch: two operand areas and one result
/// area, each large enough for every component block of one operator
/// call laid end to end (bounded by matSize(n), since components are
/// disjoint). Grown geometrically like the closure scratch and wired
/// into reserveClosureScratch() so the batch runtime's worker arenas
/// pre-size it. Runs is the span walkers' run list.
struct BlockScratch {
  AlignedBuffer<double> A;
  AlignedBuffer<double> B;
  AlignedBuffer<double> R;
  std::vector<VarRun> Runs;

  void ensure(std::size_t Len) {
    if (A.size() >= Len)
      return;
    std::size_t Cap = A.size() ? A.size() : 64;
    while (Cap < Len)
      Cap *= 2;
    A.resizeDiscard(Cap);
    B.resizeDiscard(Cap);
    R.resizeDiscard(Cap);
  }
};

/// The calling thread's pack/scatter scratch.
BlockScratch &blockScratch();

/// Pre-sizes the calling thread's scratch for octagons of \p NumVars.
void reserveBlockScratch(unsigned NumVars);

/// Gathers the component \p Vars (sorted ascending) of \p M into the
/// contiguous block \p Dst (blockSize(Vars.size()) doubles). Pure span
/// copies: every pair of \p Vars must be materialized in \p M.
void packComponent(double *Dst, const HalfDbm &M,
                   const std::vector<unsigned> &Vars);

/// Like packComponent, but reads through partition \p P with
/// Octagon::entry() semantics: pairs not related by \p P read as +inf
/// (0 on the true diagonal), so union-merged components pack correctly
/// from inputs that never materialized them. \p FullyInit short-cuts to
/// the pure-copy pack (every slot of a fully initialized buffer is
/// meaningful).
void packComponentEntry(double *Dst, const HalfDbm &M, const Partition &P,
                        bool FullyInit, const std::vector<unsigned> &Vars);

/// Scatters the block \p Src (as produced by packComponent) back to the
/// component's slots of \p M — the exact inverse copy of packComponent.
void scatterComponent(const double *Src, HalfDbm &M,
                      const std::vector<unsigned> &Vars);

/// Packs just the two stored rows of block-variable \p A (position in
/// \p Vars): Dst[0 .. 2A+1] = the component row of 2A, Dst[2A+2 ..
/// 4A+3] = the row of 2A+1. Returns the packed length 4(A+1). The
/// early-exit predicates (leq/equals) pack one row pair at a time so a
/// violation in the first rows costs one tiny pack + one kernel call.
std::size_t packRowPair(double *Dst, const HalfDbm &M,
                        const std::vector<unsigned> &Vars, std::size_t A);

/// Row-pair flavor of packComponentEntry: same trivia substitution,
/// two rows only. Returns the packed length 4(A+1).
std::size_t packRowPairEntry(double *Dst, const HalfDbm &M,
                             const Partition &P, bool FullyInit,
                             const std::vector<unsigned> &Vars, std::size_t A);

} // namespace optoct

#endif // OPTOCT_OCT_BLOCKED_LAYOUT_H
