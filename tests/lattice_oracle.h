//===- tests/lattice_oracle.h - Entry-level operator oracle -----*- C++ -*-===//
///
/// \file
/// The reference the operator tests (tests/test_vector_ops.cpp,
/// tests/test_blocked.cpp) check every lattice operator against. It
/// knows nothing of spans, packs or kernels: the expected result is
/// computed per element from the inputs' public entry(), on copies of
/// the inputs closed wherever the operator closes them.
///
///   * meet: min; narrowing: Old if finite, else New. Partition:
///     Partition::unionMerge.
///   * join: max; widening: keep a bound that did not grow, else jump to
///     the smallest dominating threshold (doubled thresholds for unary
///     entries, which encode 2x the variable bound), else +inf.
///     Partition: Partition::refine.
///   * leq / equals: element-wise <= / == over the whole DBM.
///   * nni: the finite count over every stored slot, except where the
///     Section 4.1 over-approximation 2n^2+2n applies: meet of two fully
///     initialized inputs one of which has a whole partition, and join
///     of two fully initialized inputs that both have one. There the
///     count must be exactly 2n^2+2n.
///   * The documented early returns (meet with Top, join/widening with
///     an empty input, bottom absorbing meet/narrowing) return the
///     other input unchanged.
///
/// checkAllOps() runs every operator under every SIMD tier this machine
/// supports and asserts each result against the oracle and against the
/// scalar tier's result, so a tier may only ever change speed. Build the
/// inputs under a ScribbleGuard so reads of unmaterialized slots show.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_TESTS_LATTICE_ORACLE_H
#define OPTOCT_TESTS_LATTICE_ORACLE_H

#include "oct/dbm.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"
#include "oct/value.h"
#include "oct_test_util.h"

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace optoct::test {

/// Every SIMD tier this machine can execute, scalar first.
inline std::vector<SimdTier> supportedTiers() {
  std::vector<SimdTier> Tiers{SimdTier::Scalar};
  if (simdTierSupported(SimdTier::Avx2))
    Tiers.push_back(SimdTier::Avx2);
  if (simdTierSupported(SimdTier::Avx512))
    Tiers.push_back(SimdTier::Avx512);
  return Tiers;
}

/// While alive, glibc fills every heap block it hands out with the byte
/// 0xAA, so DBM slots outside an octagon's partition hold the tiny
/// negative bound 0xAAAA...AA instead of whatever the allocator left
/// there. An operator that reads such a slot as a bound instead of the
/// implicit +inf then disagrees with the oracle on every run, not only
/// when stale heap contents happen to be small. A no-op elsewhere.
struct ScribbleGuard {
#if defined(__GLIBC__)
  ScribbleGuard() { mallopt(M_PERTURB, 0x55); } // blocks get 0x55 ^ 0xff
  ~ScribbleGuard() { mallopt(M_PERTURB, 0); }
#endif
};

/// Asserts the two octagons are indistinguishable: identical conceptual
/// full DBMs (bitwise, including implicit trivia), nni, kind, partition,
/// emptiness, and closedness. Works on copies, because the emptiness
/// test closes.
inline void expectSameAs(const Octagon &X, const Octagon &Y,
                         const std::string &What) {
  Octagon XC = X, YC = Y;
  ASSERT_EQ(XC.numVars(), YC.numVars()) << What;
  EXPECT_EQ(XC.kind(), YC.kind()) << What;
  EXPECT_EQ(XC.isClosed(), YC.isClosed()) << What;
  EXPECT_TRUE(XC.partition() == YC.partition()) << What;
  bool XBottom = XC.isBottom();
  ASSERT_EQ(XBottom, YC.isBottom()) << What;
  if (XBottom)
    return; // entry()/nni() are meaningless on the empty octagon
  EXPECT_EQ(XC.nni(), YC.nni()) << What;
  unsigned D = 2 * XC.numVars();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J != D; ++J)
      ASSERT_EQ(XC.entry(I, J), YC.entry(I, J))
          << What << ": entry (" << I << "," << J << ")";
}

/// True iff \p O is already known to be empty. The empty flag implies
/// closedness, so closing a closed copy only reads it; an unclosed
/// octagon is never known empty.
inline bool knownEmpty(const Octagon &O) {
  if (!O.isClosed())
    return false;
  Octagon C = O;
  return C.isBottom();
}

/// A strongly closed copy of \p O.
inline Octagon closedCopy(const Octagon &O) {
  Octagon C = O;
  C.close();
  return C;
}

/// The per-element rule of a binary operator: result entry (I, J) from
/// the inputs' entries VA and VB.
using ElemRule = std::function<double(unsigned I, unsigned J, double VA,
                                      double VB)>;

/// Asserts \p R (not yet closed by the caller) is \p Rule applied to
/// every entry of (\p A, \p B): partition \p P, kind from \p P,
/// closedness \p Closed (Top is always closed), and nni equal to the
/// finite count of the stored slots — or to 2n^2+2n when \p OverApprox.
inline void expectEntrywise(const Octagon &R, const Octagon &A,
                            const Octagon &B, const Partition &P,
                            const ElemRule &Rule, bool Closed,
                            bool OverApprox, const std::string &What) {
  EXPECT_TRUE(R.partition() == P) << What;
  DbmKind Kind = P.empty()     ? DbmKind::Top
                 : P.isWhole() ? DbmKind::Dense
                               : DbmKind::Decomposed;
  EXPECT_EQ(R.kind(), Kind) << What;
  EXPECT_EQ(R.isClosed(), Closed || P.empty()) << What;
  unsigned D = 2 * R.numVars();
  std::size_t Finite = 0;
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J != D; ++J) {
      double V = Rule(I, J, A.entry(I, J), B.entry(I, J));
      ASSERT_EQ(R.entry(I, J), V)
          << What << ": entry (" << I << "," << J << ")";
      if (J <= (I | 1u))
        Finite += isFinite(V);
    }
  std::size_t Nni = OverApprox ? HalfDbm::matSize(R.numVars()) : Finite;
  EXPECT_EQ(R.nni(), Nni) << What;
}

/// The widening rule for one entry against the sorted variable-level
/// \p Thresholds.
inline double widenEntry(unsigned I, unsigned J, double VO, double VN,
                         const std::vector<double> &Thresholds) {
  if (VN <= VO)
    return VO;
  double Scale = I / 2 == J / 2 ? 2.0 : 1.0; // unary entries are 2x
  for (double T : Thresholds)
    if (Scale * T >= VN)
      return Scale * T;
  return Infinity;
}

inline void checkMeet(const Octagon &A, const Octagon &B, const Octagon &R,
                      const std::string &What) {
  if (knownEmpty(A) || knownEmpty(B)) {
    Octagon RC = R;
    EXPECT_TRUE(RC.isBottom()) << What;
  } else if (A.isTop()) {
    expectSameAs(R, B, What + " (meet with Top)");
  } else if (B.isTop()) {
    expectSameAs(R, A, What + " (meet with Top)");
  } else {
    Partition P = Partition::unionMerge(A.partition(), B.partition());
    expectEntrywise(
        R, A, B, P,
        [](unsigned, unsigned, double VA, double VB) {
          return std::min(VA, VB);
        },
        /*Closed=*/false,
        A.fullyInit() && B.fullyInit() &&
            (A.partition().isWhole() || B.partition().isWhole()),
        What);
  }
}

inline void checkJoin(const Octagon &A, const Octagon &B, const Octagon &R,
                      const std::string &What) {
  Octagon CA = closedCopy(A), CB = closedCopy(B);
  if (knownEmpty(CA)) {
    expectSameAs(R, CB, What + " (join with bottom)");
  } else if (knownEmpty(CB)) {
    expectSameAs(R, CA, What + " (join with bottom)");
  } else {
    const Partition &PA = CA.partition(), &PB = CB.partition();
    expectEntrywise(
        R, CA, CB, Partition::refine(PA, PB),
        [](unsigned, unsigned, double VA, double VB) {
          return std::max(VA, VB);
        },
        /*Closed=*/true,
        CA.fullyInit() && CB.fullyInit() && PA.isWhole() && PB.isWhole(),
        What);
  }
}

inline void checkWiden(const Octagon &Old, const Octagon &New,
                       const std::vector<double> &Thresholds, const Octagon &R,
                       const std::string &What) {
  Octagon CN = closedCopy(New);
  if (knownEmpty(Old)) {
    expectSameAs(R, CN, What + " (widening from bottom)");
  } else if (knownEmpty(CN)) {
    expectSameAs(R, Old, What + " (widening to bottom)");
  } else {
    expectEntrywise(
        R, Old, CN, Partition::refine(Old.partition(), CN.partition()),
        [&](unsigned I, unsigned J, double VO, double VN) {
          return widenEntry(I, J, VO, VN, Thresholds);
        },
        /*Closed=*/false, /*OverApprox=*/false, What);
  }
}

inline void checkNarrow(const Octagon &Old, const Octagon &New,
                        const Octagon &R, const std::string &What) {
  Octagon CO = closedCopy(Old);
  if (knownEmpty(CO) || knownEmpty(New)) {
    Octagon RC = R;
    EXPECT_TRUE(RC.isBottom()) << What;
  } else {
    expectEntrywise(
        R, CO, New, Partition::unionMerge(CO.partition(), New.partition()),
        [](unsigned, unsigned, double VO, double VN) {
          return isFinite(VO) ? VO : VN;
        },
        /*Closed=*/false, /*OverApprox=*/false, What);
  }
}

/// Expected verdict of A.leq(B) (\p Leq) or A.equals(B).
inline bool expectedPredicate(const Octagon &A, const Octagon &B, bool Leq) {
  Octagon CA = closedCopy(A);
  Octagon CB = Leq ? B : closedCopy(B);
  bool AEmpty = knownEmpty(CA), BEmpty = knownEmpty(CB);
  if (Leq && (AEmpty || BEmpty))
    return AEmpty;
  if (!Leq && (AEmpty || BEmpty))
    return AEmpty == BEmpty;
  unsigned D = 2 * A.numVars();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J != D; ++J) {
      double VA = CA.entry(I, J), VB = CB.entry(I, J);
      if (Leq ? VA > VB : VA != VB)
        return false;
    }
  return true;
}

/// Runs every lattice operator on copies of (\p A, \p B) under every
/// supported tier. Each result must match the oracle and the scalar
/// tier's result; the operator's in-place closures of its arguments
/// must match closed copies of the inputs.
inline void checkAllOps(const Octagon &A, const Octagon &B) {
  static const std::vector<double> Thresholds = {-2.0, 0.0, 1.0,
                                                 5.0,  10.0, 20.0};
  static const std::vector<double> NoThresholds;
  Octagon CA = closedCopy(A), CB = closedCopy(B);
  TierGuard Guard;

  struct BinaryOp {
    const char *Name;
    std::function<Octagon(Octagon &, Octagon &)> Run;
    std::function<void(const Octagon &, const std::string &)> Check;
    bool ClosesA, ClosesB;
  };
  const BinaryOp Ops[] = {
      {"meet", [](Octagon &X, Octagon &Y) { return Octagon::meet(X, Y); },
       [&](const Octagon &R, const std::string &W) { checkMeet(A, B, R, W); },
       false, false},
      {"join", [](Octagon &X, Octagon &Y) { return Octagon::join(X, Y); },
       [&](const Octagon &R, const std::string &W) { checkJoin(A, B, R, W); },
       true, true},
      {"widen", [](Octagon &X, Octagon &Y) { return Octagon::widen(X, Y); },
       [&](const Octagon &R, const std::string &W) {
         checkWiden(A, B, NoThresholds, R, W);
       },
       false, true},
      {"widenWithThresholds",
       [](Octagon &X, Octagon &Y) {
         return Octagon::widenWithThresholds(X, Y, Thresholds);
       },
       [&](const Octagon &R, const std::string &W) {
         checkWiden(A, B, Thresholds, R, W);
       },
       false, true},
      {"narrow", [](Octagon &X, Octagon &Y) { return Octagon::narrow(X, Y); },
       [&](const Octagon &R, const std::string &W) {
         checkNarrow(A, B, R, W);
       },
       true, false},
  };
  for (const BinaryOp &Op : Ops) {
    std::optional<Octagon> ScalarResult;
    for (SimdTier Tier : supportedTiers()) {
      simdForceTier(Tier);
      std::string What = std::string(Op.Name) + " @" + simdTierName(Tier);
      Octagon XA = A, XB = B;
      Octagon R = Op.Run(XA, XB);
      Op.Check(R, What);
      expectSameAs(XA, Op.ClosesA ? CA : A, What + " first argument");
      expectSameAs(XB, Op.ClosesB ? CB : B, What + " second argument");
      if (ScalarResult)
        expectSameAs(R, *ScalarResult, What + " vs scalar");
      else
        ScalarResult = R;
    }
  }

  const bool ExpectLeq = expectedPredicate(A, B, /*Leq=*/true);
  const bool ExpectEq = expectedPredicate(A, B, /*Leq=*/false);
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    std::string Name = simdTierName(Tier);
    Octagon XA = A, XB = B;
    EXPECT_EQ(XA.leq(XB), ExpectLeq) << "leq @" << Name;
    expectSameAs(XA, CA, "leq receiver @" + Name);
    expectSameAs(XB, B, "leq argument @" + Name);
    Octagon YA = A, YB = B;
    EXPECT_EQ(YA.equals(YB), ExpectEq) << "equals @" << Name;
    expectSameAs(YA, CA, "equals receiver @" + Name);
    expectSameAs(YB, CB, "equals argument @" + Name);
  }
}

} // namespace optoct::test

#endif // OPTOCT_TESTS_LATTICE_ORACLE_H
