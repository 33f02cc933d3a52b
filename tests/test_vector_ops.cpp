//===- tests/test_vector_ops.cpp - Lattice-operator span kernel tests -----===//
///
/// \file
/// Two layers of checks for the span kernels of oct/simd_kernels.h:
///
///   1. Kernel-level: each kernel run under every SIMD tier this
///      machine supports (scalar / AVX2 / AVX-512, forced through
///      simdForceTier) on random spans (with infinities) must produce
///      bitwise identical outputs, identical early-exit verdicts, and
///      identical returned finite-entry counts — which must also match
///      a manual recount against the pinned-scalar table.
///
///   2. Operator-level: random octagon pairs of every shape (dense,
///      block-decomposed, sparse, unary-heavy, top, bottom) run through
///      every lattice operator under every tier must match the
///      entry-level oracle of tests/lattice_oracle.h — DBM entries, nni,
///      kind, partition, closedness, and the inclusion/equality
///      verdicts — and the scalar tier's result bitwise. The tier may
///      only change speed, never a result. (tests/test_blocked.cpp
///      repeats this sweep on adversarial partitions;
///      tests/test_simd_dispatch.cpp covers the tier-selection policy
///      itself.)
///
//===----------------------------------------------------------------------===//

#include "lattice_oracle.h"

#include "oct/constraint.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"
#include "oct/value.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace optoct;
using namespace optoct::test;

namespace {

std::vector<double> randomSpan(Rng &R, std::size_t Len, double InfProb) {
  std::vector<double> S(Len);
  for (double &V : S)
    V = R.chance(InfProb) ? Infinity : R.intIn(-20, 20);
  return S;
}

class SpanKernelTest : public ::testing::TestWithParam<std::size_t> {
protected:
  TierGuard Guard;
};

TEST_P(SpanKernelTest, MaxMinSpanMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 1);
  std::vector<double> A = randomSpan(R, Len, 0.3);
  std::vector<double> B = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarMax(Len), ScalarMin(Len);
  SpanKernelsScalar.MaxSpan(ScalarMax.data(), A.data(), B.data(), Len);
  SpanKernelsScalar.MinSpan(ScalarMin.data(), A.data(), B.data(), Len);
  for (std::size_t I = 0; I != Len; ++I) {
    EXPECT_EQ(ScalarMax[I], std::max(A[I], B[I]));
    EXPECT_EQ(ScalarMin[I], std::min(A[I], B[I]));
  }

  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> VecMax(Len), VecMin(Len);
    K.MaxSpan(VecMax.data(), A.data(), B.data(), Len);
    K.MinSpan(VecMin.data(), A.data(), B.data(), Len);
    EXPECT_EQ(VecMax, ScalarMax) << simdTierName(Tier);
    EXPECT_EQ(VecMin, ScalarMin) << simdTierName(Tier);
  }
}

TEST_P(SpanKernelTest, MaxMinSpanCountMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 2);
  std::vector<double> A = randomSpan(R, Len, 0.4);
  std::vector<double> B = randomSpan(R, Len, 0.4);

  std::vector<double> ScalarOut(Len);
  std::size_t ScalarMaxN =
      SpanKernelsScalar.MaxSpanCount(ScalarOut.data(), A.data(), B.data(), Len);
  std::size_t Manual = 0;
  for (double V : ScalarOut)
    Manual += isFinite(V);
  EXPECT_EQ(ScalarMaxN, Manual);
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> VecOut(Len);
    std::size_t VecMaxN =
        K.MaxSpanCount(VecOut.data(), A.data(), B.data(), Len);
    EXPECT_EQ(VecOut, ScalarOut) << simdTierName(Tier);
    EXPECT_EQ(VecMaxN, ScalarMaxN) << simdTierName(Tier);
  }

  std::size_t ScalarMinN =
      SpanKernelsScalar.MinSpanCount(ScalarOut.data(), A.data(), B.data(), Len);
  Manual = 0;
  for (double V : ScalarOut)
    Manual += isFinite(V);
  EXPECT_EQ(ScalarMinN, Manual);
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> VecOut(Len);
    std::size_t VecMinN =
        K.MinSpanCount(VecOut.data(), A.data(), B.data(), Len);
    EXPECT_EQ(VecOut, ScalarOut) << simdTierName(Tier);
    EXPECT_EQ(VecMinN, ScalarMinN) << simdTierName(Tier);
  }
}

TEST_P(SpanKernelTest, NarrowSpanCountMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 3);
  // High infinity probability in Old so the select actually picks from
  // New on many lanes.
  std::vector<double> Old = randomSpan(R, Len, 0.6);
  std::vector<double> New = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarOut(Len);
  std::size_t ScalarN = SpanKernelsScalar.NarrowSpanCount(
      ScalarOut.data(), Old.data(), New.data(), Len);
  std::size_t Manual = 0;
  for (std::size_t I = 0; I != Len; ++I) {
    EXPECT_EQ(ScalarOut[I], isFinite(Old[I]) ? Old[I] : New[I]);
    Manual += isFinite(ScalarOut[I]);
  }
  EXPECT_EQ(ScalarN, Manual);

  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> VecOut(Len);
    std::size_t VecN =
        K.NarrowSpanCount(VecOut.data(), Old.data(), New.data(), Len);
    EXPECT_EQ(VecOut, ScalarOut) << simdTierName(Tier);
    EXPECT_EQ(VecN, ScalarN) << simdTierName(Tier);
  }
}

TEST_P(SpanKernelTest, WidenSpanCountMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 4);
  // Bounds in [-20, 20]; thresholds interleaved so lower_bound exercises
  // hits, in-between values, and past-the-end (-> +inf).
  const std::vector<double> Thresholds = {-8.0, -2.0, 0.0, 3.0, 7.0, 15.0};
  for (std::size_t ThrN : {std::size_t{0}, Thresholds.size()}) {
    std::vector<double> Old = randomSpan(R, Len, 0.3);
    std::vector<double> New = randomSpan(R, Len, 0.3);

    std::vector<double> ScalarOut(Len);
    std::size_t ScalarN =
        SpanKernelsScalar.WidenSpanCount(ScalarOut.data(), Old.data(),
                                         New.data(), Len, Thresholds.data(),
                                         ThrN);
    std::size_t Manual = 0;
    for (std::size_t I = 0; I != Len; ++I) {
      double Expect;
      if (New[I] <= Old[I]) {
        Expect = Old[I];
      } else {
        auto It = std::lower_bound(Thresholds.begin(),
                                   Thresholds.begin() + ThrN, New[I]);
        Expect = It == Thresholds.begin() + ThrN ? Infinity : *It;
      }
      EXPECT_EQ(ScalarOut[I], Expect) << "ThrN=" << ThrN << " at " << I;
      Manual += isFinite(ScalarOut[I]);
    }
    EXPECT_EQ(ScalarN, Manual);

    for (SimdTier Tier : supportedTiers()) {
      simdForceTier(Tier);
      const SpanKernels &K = activeSpanKernels();
      std::vector<double> VecOut(Len);
      std::size_t VecN = K.WidenSpanCount(VecOut.data(), Old.data(),
                                          New.data(), Len, Thresholds.data(),
                                          ThrN);
      EXPECT_EQ(VecOut, ScalarOut) << simdTierName(Tier) << " ThrN=" << ThrN;
      EXPECT_EQ(VecN, ScalarN) << simdTierName(Tier) << " ThrN=" << ThrN;
    }
  }
}

/// Wide threshold tables (> BranchlessThrMax = 32 entries) push the
/// vector tiers off the branchless blend scan onto their per-lane
/// lower_bound fallback; both flavors must agree with scalar bitwise.
TEST_P(SpanKernelTest, WidenSpanCountWideThresholdTable) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 6);
  std::vector<double> Thresholds;
  for (int T = -40; T <= 40; T += 2) // 41 sorted entries > 32.
    Thresholds.push_back(T);
  std::vector<double> Old = randomSpan(R, Len, 0.3);
  std::vector<double> New = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarOut(Len);
  std::size_t ScalarN = SpanKernelsScalar.WidenSpanCount(
      ScalarOut.data(), Old.data(), New.data(), Len, Thresholds.data(),
      Thresholds.size());
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> VecOut(Len);
    std::size_t VecN =
        K.WidenSpanCount(VecOut.data(), Old.data(), New.data(), Len,
                         Thresholds.data(), Thresholds.size());
    EXPECT_EQ(VecOut, ScalarOut) << simdTierName(Tier);
    EXPECT_EQ(VecN, ScalarN) << simdTierName(Tier);
  }
}

TEST_P(SpanKernelTest, LeqEqPredicatesMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 5);
  std::vector<double> A = randomSpan(R, Len, 0.3);

  // Candidate comparands: equal; pointwise >= (leq holds); a violation
  // planted at the front, the middle, and the back of the span.
  std::vector<std::vector<double>> Others;
  Others.push_back(A);
  std::vector<double> Dominating = A;
  for (double &V : Dominating)
    if (isFinite(V) && R.chance(0.5))
      V += R.intIn(0, 5);
  Others.push_back(Dominating);
  for (std::size_t Pos : {std::size_t{0}, Len / 2, Len - 1}) {
    if (Len == 0)
      break;
    std::vector<double> Violating = Dominating;
    Violating[Pos] = isFinite(A[Pos]) ? A[Pos] - 1 : 100;
    if (isFinite(A[Pos]) || Violating[Pos] < Infinity)
      Others.push_back(Violating);
  }

  for (const std::vector<double> &B : Others) {
    bool ScalarLeq = SpanKernelsScalar.SpanLeq(A.data(), B.data(), Len);
    bool ScalarEq = SpanKernelsScalar.SpanEq(A.data(), B.data(), Len);
    // Semantic cross-check against the direct definition.
    bool RefLeq = true, RefEq = true;
    for (std::size_t I = 0; I != Len; ++I) {
      RefLeq &= !(A[I] > B[I]);
      RefEq &= A[I] == B[I];
    }
    EXPECT_EQ(ScalarLeq, RefLeq);
    EXPECT_EQ(ScalarEq, RefEq);

    for (SimdTier Tier : supportedTiers()) {
      simdForceTier(Tier);
      const SpanKernels &K = activeSpanKernels();
      EXPECT_EQ(K.SpanLeq(A.data(), B.data(), Len), ScalarLeq)
          << simdTierName(Tier);
      EXPECT_EQ(K.SpanEq(A.data(), B.data(), Len), ScalarEq)
          << simdTierName(Tier);
    }
  }
}

// Lengths straddling both the 4-wide (AVX2) and 8-wide (AVX-512) vector
// bodies: empty, sub-vector, exact multiples, and multiples plus
// remainders.
INSTANTIATE_TEST_SUITE_P(Lengths, SpanKernelTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u,
                                           15u, 16u, 31u, 33u, 64u, 130u));

//===----------------------------------------------------------------------===//
// Operator-level: every tier against the entry-level oracle.
//===----------------------------------------------------------------------===//

/// The shapes of random octagons the differential sweep draws from.
enum class Shape {
  Dense,      ///< constraints over all variable pairs
  Blocks,     ///< constraints only within disjoint variable blocks
  Sparse,     ///< a handful of constraints
  UnaryHeavy, ///< mostly interval bounds
  Top,        ///< no constraints
  Bottom,     ///< contradictory constraints
};

Octagon randomOct(unsigned N, Shape S, Rng &R) {
  Octagon O(N);
  std::vector<OctCons> Cs;
  auto addBinary = [&](unsigned I, unsigned J) {
    switch (R.intIn(0, 2)) {
    case 0:
      Cs.push_back(OctCons::diff(I, J, R.intIn(-4, 24)));
      break;
    case 1:
      Cs.push_back(OctCons::sum(I, J, R.intIn(-4, 24)));
      break;
    default:
      Cs.push_back(OctCons::negSum(I, J, R.intIn(-4, 24)));
      break;
    }
  };
  auto addUnary = [&](unsigned I) {
    if (R.chance(0.5))
      Cs.push_back(OctCons::upper(I, R.intIn(-2, 24)));
    else
      Cs.push_back(OctCons::lower(I, R.intIn(-2, 24)));
  };
  switch (S) {
  case Shape::Dense:
    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = 0; J != I; ++J)
        if (R.chance(0.8))
          addBinary(I, J);
    for (unsigned I = 0; I != N; ++I)
      if (R.chance(0.5))
        addUnary(I);
    break;
  case Shape::Blocks: {
    // Disjoint blocks of 2-3 variables; some consecutive, some not, so
    // the component-run walker sees both full and fragmented runs.
    unsigned V = 0;
    while (V + 1 < N) {
      unsigned Size = std::min<unsigned>(R.chance(0.5) ? 2 : 3, N - V);
      for (unsigned A = 1; A != Size; ++A)
        for (unsigned B = 0; B != A; ++B)
          if (R.chance(0.8))
            addBinary(V + A, V + B);
      if (R.chance(0.4))
        addUnary(V);
      V += Size + (R.chance(0.5) ? 1 : 0); // sometimes skip a variable
    }
    break;
  }
  case Shape::Sparse:
    for (unsigned K = 0, E = std::max(1u, N / 4); K != E; ++K) {
      unsigned I = static_cast<unsigned>(R.indexBelow(N));
      unsigned J = static_cast<unsigned>(R.indexBelow(N));
      if (I == J)
        addUnary(I);
      else
        addBinary(std::max(I, J), std::min(I, J));
    }
    break;
  case Shape::UnaryHeavy:
    for (unsigned I = 0; I != N; ++I)
      if (R.chance(0.8)) {
        Cs.push_back(OctCons::upper(I, R.intIn(0, 24)));
        Cs.push_back(OctCons::lower(I, R.intIn(0, 24)));
      }
    if (N >= 2)
      addBinary(1, 0);
    break;
  case Shape::Top:
    break;
  case Shape::Bottom:
    // v0 <= -1 and v0 >= 0: unsatisfiable.
    Cs.push_back(OctCons::upper(0, -1));
    Cs.push_back(OctCons::lower(0, 0));
    break;
  }
  O.addConstraints(Cs);
  return O;
}

class VectorOpsDifferentialTest : public ::testing::Test {
protected:
  TierGuard Guard;
  ScribbleGuard Scribble;
};

TEST_F(VectorOpsDifferentialTest, RandomPairsAllShapes) {
  const Shape Shapes[] = {Shape::Dense,      Shape::Blocks, Shape::Sparse,
                          Shape::UnaryHeavy, Shape::Top,    Shape::Bottom};
  for (unsigned N : {3u, 6u, 9u, 17u}) {
    for (Shape SA : Shapes)
      for (Shape SB : Shapes) {
        Rng R(N * 1000 + static_cast<unsigned>(SA) * 10 +
              static_cast<unsigned>(SB));
        Octagon A = randomOct(N, SA, R);
        Octagon B = randomOct(N, SB, R);
        checkAllOps(A, B);
      }
  }
}

TEST_F(VectorOpsDifferentialTest, CloselyRelatedPairs) {
  // Pairs with A derived from B exercise the leq/equals fast paths on
  // their true branches (identical and dominating inputs), not just
  // random early-exit misses.
  for (unsigned Seed = 0; Seed != 5; ++Seed) {
    Rng R(7000 + Seed);
    unsigned N = 8;
    Octagon A = randomOct(N, Shape::Dense, R);
    Octagon B = A; // identical
    checkAllOps(A, B);
    // Tighten one bound of B: A now strictly includes B.
    Octagon C = A;
    C.addConstraint(OctCons::upper(Seed % N, -1));
    checkAllOps(A, C);
    checkAllOps(C, A);
  }

  // Equal octagons with differing partitions. Both join arguments link
  // the blocks {0,1} and {2,3} (through x1 - x2 and x2 - x1), so the
  // closed join keeps the block {0,1,2,3} while every bound across the
  // two halves is +inf again: it equals Split, whose closure finds
  // {0,1} and {2,3}. equals and leq must read Split's unmaterialized
  // cross slots as +inf.
  {
    unsigned N = 6;
    Octagon Split(N);
    Split.addConstraints({OctCons::diff(0, 1, 2), OctCons::diff(2, 3, 1)});
    Octagon Left = Split, Right = Split;
    Left.addConstraint(OctCons::diff(1, 2, 0));
    Right.addConstraint(OctCons::diff(2, 1, 0));
    Octagon Merged = Octagon::join(Left, Right);
    Octagon SplitClosed = closedCopy(Split);
    ASSERT_EQ(SplitClosed.partition().numComponents(), 2u);
    ASSERT_EQ(Merged.partition().numComponents(), 1u);
    ASSERT_TRUE(closedCopy(Merged).equals(SplitClosed));
    checkAllOps(Split, Merged);
    checkAllOps(Merged, Split);
  }

  // Two fully initialized octagons whose partitions are not whole:
  // havoc on a dense octagon drops the variable from the partition but
  // keeps the buffer materialized. meet then counts nni exactly over
  // the packed buffer instead of over-approximating it. Every bound is
  // nonnegative, so the origin satisfies both and havoc has an
  // octagon to project.
  auto DenseAroundOrigin = [](unsigned N, Rng &R) {
    Octagon O(N);
    std::vector<OctCons> Cs;
    for (unsigned I = 0; I != N; ++I) {
      Cs.push_back(OctCons::upper(I, R.intIn(0, 24)));
      for (unsigned J = 0; J != I; ++J) {
        Cs.push_back(OctCons::diff(I, J, R.intIn(0, 24)));
        Cs.push_back(OctCons::sum(I, J, R.intIn(0, 24)));
      }
    }
    O.addConstraints(Cs);
    return O;
  };
  for (unsigned Seed = 0; Seed != 3; ++Seed) {
    Rng R(7100 + Seed);
    unsigned N = 8;
    Octagon A = DenseAroundOrigin(N, R);
    Octagon B = DenseAroundOrigin(N, R);
    A.havoc(Seed);
    B.havoc(Seed == 0 ? 0 : N - 1); // same variable, then different ones
    for (const Octagon *X : {&A, &B}) {
      ASSERT_TRUE(X->fullyInit());
      ASSERT_FALSE(X->partition().isWhole());
    }
    checkAllOps(A, B);
    checkAllOps(B, A);
  }
}

TEST_F(VectorOpsDifferentialTest, WideningSequenceConverges) {
  // A realistic widening sequence: iterate x <= k for growing k,
  // widening at each step, every tier in lockstep.
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    unsigned N = 6;
    Octagon Acc(N);
    Acc.addConstraint(OctCons::upper(0, 0));
    for (int K = 1; K <= 4; ++K) {
      Octagon Step(N);
      Step.addConstraint(OctCons::upper(0, K));
      Step.addConstraint(OctCons::diff(1, 0, K));
      Acc = Octagon::widenWithThresholds(Acc, Step, {2.0, 8.0});
    }
    // x0 grew 0 -> 1 on the first step and jumped to threshold 2; the
    // step to 3 outgrew it and jumped to 8, which the step to 4 stays
    // under. The unary entry holds 2x the bound.
    EXPECT_EQ(Acc.boundOf(OctCons::upper(0, 0)), 16.0) << simdTierName(Tier);
  }
}

//===----------------------------------------------------------------------===//
// Semantic reference for widening with thresholds.
//===----------------------------------------------------------------------===//

TEST(WidenThresholdsSemantics, UnaryBoundsUseDoubledThresholds) {
  TierGuard Guard;
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    unsigned N = 2;
    Octagon Old(N), New(N);
    Old.addConstraint(OctCons::upper(0, 5));
    New.addConstraint(OctCons::upper(0, 7));
    // Variable-level thresholds {6, 10}: x0's bound grew 5 -> 7, so it
    // jumps to the smallest dominating threshold 10. The DBM entry
    // encodes 2x the bound, so the kernel must search the *doubled* set
    // {12, 20} with the raw entry 14 — searching the undoubled set
    // would wrongly return 6 at entry level (bound 3, unsound).
    Octagon W = Octagon::widenWithThresholds(Old, New, {6.0, 10.0});
    EXPECT_EQ(W.boundOf(OctCons::upper(0, 0)), 20.0) << simdTierName(Tier);
  }
}

TEST(WidenThresholdsSemantics, BinaryBoundsUseRawThresholds) {
  TierGuard Guard;
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    unsigned N = 2;
    Octagon Old(N), New(N);
    Old.addConstraint(OctCons::diff(0, 1, 3));
    New.addConstraint(OctCons::diff(0, 1, 4));
    // x0 - x1 grew 3 -> 4: jumps to threshold 6 (raw, not doubled).
    Octagon W = Octagon::widenWithThresholds(Old, New, {6.0, 10.0});
    EXPECT_EQ(W.boundOf(OctCons::diff(0, 1, 0)), 6.0) << simdTierName(Tier);

    // Stable bounds survive unchanged even with thresholds present.
    Octagon Old2(N), New2(N);
    Old2.addConstraint(OctCons::diff(0, 1, 4));
    New2.addConstraint(OctCons::diff(0, 1, 3));
    Octagon W2 = Octagon::widenWithThresholds(Old2, New2, {6.0, 10.0});
    EXPECT_EQ(W2.boundOf(OctCons::diff(0, 1, 0)), 4.0) << simdTierName(Tier);
  }
}

} // namespace
