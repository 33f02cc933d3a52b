//===- oct/octagon_ops.cpp - Lattice operators of the Octagon domain -----===//
///
/// \file
/// meet / join / widening / narrowing / inclusion / equality (Section 4).
/// Each operator works on the submatrices induced by the independent
/// components: meet merges components (union of the connectivity
/// relations), join and widening intersect them (common refinement), so
/// only the relevant parts of the matrices are accessed (Fig. 4).
///
/// All operators stream over contiguous packed half-DBM spans instead
/// of per-element coherence-indexed at() calls: row i stores columns
/// j = 0..(i|1) consecutively, so the Dense case is one flat pass over
/// the 2n(n+1) buffer. In the Decomposed case join and widening stream
/// each refined component's row runs directly (walkComponentSpans).
/// Union-merged partitions (meet, narrowing on partial inputs) can relate
/// pairs neither input materialized, so their components are packed
/// through entry()'s implicit-trivia semantics into the blocked layout
/// (oct/blocked_layout.h) and one span-kernel dispatch covers them all;
/// inclusion and equality against Decomposed receivers pack one row pair
/// at a time the same way.
///
/// Every kernel call goes through the runtime-selected SIMD tier
/// (oct/simd_dispatch.h). The pinned scalar tier runs exactly this code
/// with scalar kernels: it is the Section 5.2 "no vectorization"
/// ablation.
///
//===----------------------------------------------------------------------===//

#include "oct/blocked_layout.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"

#include <algorithm>
#include <cassert>

using namespace optoct;

namespace {

/// Like walkComponentSpans, but reports the 2-wide diagonal-block span
/// (columns 2Hi, 2Hi+1 — Hi's unary bounds) through \p UnaryFn instead
/// of merging it into the last cross span. Widening needs the split:
/// unary entries encode 2x the variable bound and widen against the
/// doubled threshold set.
template <typename CrossFnT, typename UnaryFnT>
void walkComponentSpansSplit(const std::vector<unsigned> &Vars,
                             const std::vector<VarRun> &Runs, CrossFnT CrossFn,
                             UnaryFnT UnaryFn) {
  std::size_t RunIdx = 0;
  unsigned InRun = 0;
  for (unsigned Hi : Vars) {
    if (InRun == Runs[RunIdx].Count) {
      ++RunIdx;
      InRun = 0;
    }
    for (unsigned R = 0; R != 2; ++R) {
      unsigned I = 2 * Hi + R;
      for (std::size_t Q = 0; Q != RunIdx; ++Q)
        CrossFn(I, 2 * Runs[Q].First, 2 * Runs[Q].Count);
      if (InRun != 0)
        CrossFn(I, 2 * Runs[RunIdx].First, 2 * InRun);
      UnaryFn(I, 2 * Hi);
    }
    ++InRun;
  }
}

/// The components one operator call batches through the blocked layout:
/// their blocks are packed end to end in the per-thread scratch and a
/// single kernel dispatch covers Total doubles.
struct BlockBatch {
  std::vector<const std::vector<unsigned> *> Comps;
  std::size_t Total = 0;

  void add(const std::vector<unsigned> &Vars) {
    Comps.push_back(&Vars);
    Total += blockSize(Vars.size());
  }
  bool empty() const { return Comps.empty(); }
};

/// Scatters the batched result blocks in \p S.R back into \p RM.
void scatterBatch(const BlockBatch &Batch, const BlockScratch &S, HalfDbm &RM) {
  std::size_t Off = 0;
  for (const std::vector<unsigned> *Vars : Batch.Comps) {
    scatterComponent(S.R.data() + Off, RM, *Vars);
    Off += blockSize(Vars->size());
  }
}

} // namespace

Octagon Octagon::meet(const Octagon &A, const Octagon &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  unsigned N = A.numVars();
  if (A.Empty || B.Empty)
    return makeBottom(N);
  if (A.P.empty() && !A.FullyInit)
    return B; // meet with Top
  if (B.P.empty() && !B.FullyInit)
    return A;

  Octagon R(N, PrivateTag{});
  R.P = Partition::unionMerge(A.P, B.P);
  const SpanKernels &K = activeSpanKernels();

  if (A.FullyInit && B.FullyInit) {
    // Dense fast path (Table 1: meet with a Dense input yields Dense
    // with O(n^2) vectorized work over the packed buffer). Two-source
    // kernels write the result directly — no preparatory buffer copy.
    R.FullyInit = true;
    if (A.P.isWhole() || B.P.isWhole()) {
      K.MinSpan(R.M.data(), A.M.data(), B.M.data(), R.M.size());
      R.NniExplicit = R.M.size(); // Section 4.1 over-approximation
    } else {
      // The same pass also yields the exact count (no re-scan).
      R.NniExplicit =
          K.MinSpanCount(R.M.data(), A.M.data(), B.M.data(), R.M.size());
    }
  } else {
    // The union-merged partition can relate pairs that neither input
    // materialized, so the packs read through entry()'s implicit trivia
    // (pure span copies whenever a component sits inside one block of
    // an input — the common case of agreeing partitions). All
    // components batch into one kernel dispatch.
    BlockBatch Batch;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C)
      Batch.add(R.P.component(C));
    std::size_t Count = 0;
    if (!Batch.empty()) {
      BlockScratch &S = blockScratch();
      S.ensure(Batch.Total);
      std::size_t Off = 0;
      for (const std::vector<unsigned> *Vars : Batch.Comps) {
        packComponentEntry(S.A.data() + Off, A.M, A.P, A.FullyInit, *Vars);
        packComponentEntry(S.B.data() + Off, B.M, B.P, B.FullyInit, *Vars);
        Off += blockSize(Vars->size());
      }
      Count = K.MinSpanCount(S.R.data(), S.A.data(), S.B.data(), Batch.Total);
      scatterBatch(Batch, S, R.M);
    }
    R.FullyInit = R.P.isWhole();
    R.NniExplicit = Count;
  }

  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

Octagon Octagon::join(Octagon &A, Octagon &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  unsigned N = A.numVars();
  A.close();
  B.close();
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  if (A.P.empty() || B.P.empty())
    return makeTop(N); // join with Top is Top (Table 1)

  Octagon R(N, PrivateTag{});
  R.P = Partition::refine(A.P, B.P);
  const SpanKernels &K = activeSpanKernels();

  if (A.FullyInit && B.FullyInit && A.P.isWhole() && B.P.isWhole()) {
    // Dense/Dense fast path: one flat vectorized max over the packed
    // buffers, written straight into the result.
    K.MaxSpan(R.M.data(), A.M.data(), B.M.data(), R.M.size());
    R.FullyInit = true;
    R.NniExplicit = R.M.size(); // Section 4.1 over-approximation
  } else {
    // Only the submatrices of the *intersected* components are read and
    // written (Fig. 4); everything else is implicitly trivial. A pair
    // inside a refined component lies inside one component of *each*
    // input, so both buffers are initialized there and the row runs
    // stream directly. The kernels count finite lanes as they go,
    // keeping nni exact without a second pass.
    std::size_t Count = 0;
    std::vector<VarRun> &Runs = blockScratch().Runs;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C) {
      const std::vector<unsigned> &Vars = R.P.component(C);
      componentRuns(Vars, Runs);
      walkComponentSpans(Vars, Runs,
                         [&](unsigned I, unsigned J0, unsigned Len) {
                           Count += K.MaxSpanCount(R.M.row(I) + J0,
                                                   A.M.row(I) + J0,
                                                   B.M.row(I) + J0, Len);
                         });
    }
    R.FullyInit = R.P.isWhole();
    R.NniExplicit = Count;
  }

  // The pointwise max of two strongly closed DBMs is strongly closed.
  R.Closed = true;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  return R;
}

Octagon Octagon::widen(const Octagon &Old, Octagon &New) {
  static const std::vector<double> NoThresholds;
  return widenWithThresholds(Old, New, NoThresholds);
}

Octagon Octagon::widenWithThresholds(const Octagon &Old, Octagon &New,
                                     const std::vector<double> &Thresholds) {
  assert(Old.numVars() == New.numVars() && "dimension mismatch");
  assert(std::is_sorted(Thresholds.begin(), Thresholds.end()) &&
         "thresholds must be sorted ascending");
  unsigned N = Old.numVars();
  // Standard octagon widening: close the new argument for precision,
  // never the old one (termination).
  New.close();
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  if (Old.P.empty() && !Old.FullyInit)
    return makeTop(N); // widening away from Top stays Top

  Octagon R(N, PrivateTag{});
  R.P = Partition::refine(Old.P, New.P);
  const SpanKernels &K = activeSpanKernels();

  // Thresholds are variable-level bounds: unary DBM entries (which
  // encode 2x the variable bound) land on 2t, binary entries on t. Both
  // sets are prepared once per call — the kernels scan them only for
  // entries that actually grew.
  std::vector<double> Doubled;
  Doubled.reserve(Thresholds.size());
  for (double T : Thresholds)
    Doubled.push_back(2 * T);
  const double *BinThr = Thresholds.data();
  const std::size_t BinN = Thresholds.size();
  const double *UnThr = Doubled.data();
  const std::size_t UnN = Doubled.size();

  // A bound survives iff it did not grow; growing bounds jump to the
  // next threshold or +inf. nni is counted exactly — widening is where
  // sparsity reappears during analysis (Fig. 7), so the count must be
  // real, not the dense over-approximation; the kernels return it from
  // the same pass. As in join, refined pairs are covered by both
  // inputs' components, so the raw row spans are valid.
  std::size_t Count = 0;
  if (BinN == 0 && R.P.isWhole()) {
    // Dense fast path: with no thresholds the unary and binary rules
    // coincide, so the whole packed buffer is a single span (a whole
    // refined partition means both inputs' buffers are fully
    // meaningful).
    Count = K.WidenSpanCount(R.M.data(), Old.M.data(), New.M.data(),
                             R.M.size(), nullptr, 0);
  } else {
    std::vector<VarRun> &Runs = blockScratch().Runs;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C) {
      const std::vector<unsigned> &Vars = R.P.component(C);
      componentRuns(Vars, Runs);
      walkComponentSpansSplit(
          Vars, Runs,
          [&](unsigned I, unsigned J0, unsigned Len) {
            Count += K.WidenSpanCount(R.M.row(I) + J0, Old.M.row(I) + J0,
                                      New.M.row(I) + J0, Len, BinThr,
                                      BinN);
          },
          [&](unsigned I, unsigned J0) {
            Count += K.WidenSpanCount(R.M.row(I) + J0, Old.M.row(I) + J0,
                                      New.M.row(I) + J0, 2, UnThr, UnN);
          });
    }
  }
  R.FullyInit = R.P.isWhole();
  R.NniExplicit = Count;
  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

Octagon Octagon::narrow(Octagon &Old, const Octagon &New) {
  assert(Old.numVars() == New.numVars() && "dimension mismatch");
  unsigned N = Old.numVars();
  Old.close();
  if (Old.Empty || New.Empty)
    return makeBottom(N);

  Octagon R(N, PrivateTag{});
  R.P = Partition::unionMerge(Old.P, New.P);
  const SpanKernels &K = activeSpanKernels();

  // Standard narrowing: refine only the unbounded entries.
  if (Old.FullyInit && New.FullyInit && R.P.isWhole()) {
    // Both buffers fully meaningful and one component covering every
    // variable: one flat select over the packed storage materializes
    // the result and counts it in the same pass.
    R.NniExplicit = K.NarrowSpanCount(R.M.data(), Old.M.data(), New.M.data(),
                                      R.M.size());
    R.FullyInit = true;
  } else {
    // Fragmented or partial inputs: the union-merged components pack
    // through entry()'s implicit trivia (pure copies when fully
    // initialized or block-aligned) and one kernel dispatch covers the
    // whole batch, as in meet.
    BlockBatch Batch;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C)
      Batch.add(R.P.component(C));
    std::size_t Count = 0;
    if (!Batch.empty()) {
      BlockScratch &S = blockScratch();
      S.ensure(Batch.Total);
      std::size_t Off = 0;
      for (const std::vector<unsigned> *Vars : Batch.Comps) {
        packComponentEntry(S.A.data() + Off, Old.M, Old.P, Old.FullyInit,
                           *Vars);
        packComponentEntry(S.B.data() + Off, New.M, New.P, New.FullyInit,
                           *Vars);
        Off += blockSize(Vars->size());
      }
      Count =
          K.NarrowSpanCount(S.R.data(), S.A.data(), S.B.data(), Batch.Total);
      scatterBatch(Batch, S, R.M);
    }
    R.FullyInit = R.P.isWhole();
    R.NniExplicit = Count;
  }
  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

bool Octagon::leq(Octagon &Other) {
  assert(numVars() == Other.numVars() && "dimension mismatch");
  close();
  if (Empty)
    return true;
  if (Other.Empty)
    return false;
  // gamma(this) ⊆ gamma(Other) iff every bound of Other is implied:
  // this*(i,j) <= Other(i,j). Entries of Other outside its components
  // are +inf and need no check, so only Other's submatrices are read.
  // (Other is deliberately not closed here: the test is sound either
  // way, and closing a stored widening iterate would endanger
  // termination.)
  const SpanKernels &K = activeSpanKernels();
  if (FullyInit && Other.FullyInit) {
    // Both buffers fully meaningful: one flat early-exit predicate over
    // the packed storage. Other's slots outside its components hold
    // materialized trivial values, which cannot fabricate a violation
    // (anything <= +inf; both diagonals are 0).
    return K.SpanLeq(M.data(), Other.M.data(), M.size());
  }
  BlockScratch &S = blockScratch();
  for (std::size_t C = 0, E = Other.P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = Other.P.component(C);
    // Pack and compare one row pair at a time: this side through
    // entry()'s implicit trivia (the receiver's partition may split
    // Other's component), Other with pure copies (its own component
    // rows are materialized by definition). Flushing per row pair keeps
    // the early exit cheap — a violation in the first rows costs one
    // tiny pack and one kernel call, not a whole-component gather.
    S.ensure(4 * Vars.size());
    for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
      std::size_t Len = packRowPairEntry(S.A.data(), M, P, FullyInit, Vars, A);
      packRowPair(S.B.data(), Other.M, Vars, A);
      if (!K.SpanLeq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  // When Other is fully materialized but its partition lags behind (it
  // over-approximates), uncovered entries are still genuinely trivial,
  // so the component scan above remains complete.
  return true;
}

bool Octagon::equals(Octagon &Other) {
  assert(numVars() == Other.numVars() && "dimension mismatch");
  close();
  Other.close();
  if (Empty || Other.Empty)
    return Empty == Other.Empty;
  // The strongly closed form is canonical for non-empty octagons.
  const SpanKernels &K = activeSpanKernels();
  if (FullyInit && Other.FullyInit) {
    // Closure materialized both buffers (including the trivial slots
    // outside their exact partitions), so canonical equality is one
    // flat early-exit compare of the packed storage.
    return K.SpanEq(M.data(), Other.M.data(), M.size());
  }
  // Any non-trivial entry of either side lies inside a component of its
  // own partition, so two one-sided sweeps cover every pair that could
  // differ: first all pairs inside Other's components (the receiver read
  // through entry()'s implicit trivia), then pairs inside this side's
  // components — skipping blocks the first sweep already verified in
  // full because they exist identically in Other's partition (the
  // common fixpoint-iterate case). Pairs covered by neither partition
  // are trivial on both sides. No merged partition is materialized, so
  // equality stays allocation-free, and flushing one row pair per
  // kernel call keeps the early exit cheap on unequal inputs.
  BlockScratch &S = blockScratch();
  for (std::size_t C = 0, E = Other.P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = Other.P.component(C);
    S.ensure(4 * Vars.size());
    for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
      std::size_t Len = packRowPairEntry(S.A.data(), M, P, FullyInit, Vars, A);
      packRowPair(S.B.data(), Other.M, Vars, A);
      if (!K.SpanEq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = P.component(C);
    int CB = Other.P.componentOf(Vars[0]);
    if (CB >= 0 && Other.P.component(static_cast<std::size_t>(CB)) == Vars)
      continue;
    S.ensure(4 * Vars.size());
    for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
      std::size_t Len = packRowPair(S.A.data(), M, Vars, A);
      packRowPairEntry(S.B.data(), Other.M, Other.P, Other.FullyInit, Vars,
                       A);
      if (!K.SpanEq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  return true;
}
