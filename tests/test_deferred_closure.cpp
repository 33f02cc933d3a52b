//===- tests/test_deferred_closure.cpp - Guards close incrementally -------===//
///
/// \file
/// Guards (addConstraints) on a closed octagon leave it unclosed and
/// record the touched variables; the next close() pivots on those only
/// (Section 5.6). Every test here checks the deferred closure two ways:
///
///   * against the executable specification: closureFullReference on
///     the raw entries the octagon holds just before close(), read
///     through entry();
///   * against a twin holding the same raw entries without pending
///     variables (built by meet, which never records any), closed by
///     the full closure: kind, partition, nni, emptiness and every
///     entry must agree.
///
/// Both checks run under every SIMD tier this machine supports. Inputs
/// are built under a ScribbleGuard, so a read of an unmaterialized slot
/// shows. The same file checks that partition-sized copies equal their
/// sources and that widening still reads the raw, unclosed operand.
///
//===----------------------------------------------------------------------===//

#include "lattice_oracle.h"

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/random.h"
#include "support/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace optoct;
using namespace optoct::test;

namespace {

class DeferredClosure : public ::testing::Test {
protected:
  // Pin the default configuration, so the OPTOCT_* environment (the
  // decomposition ablation, for one) cannot change what is tested.
  void SetUp() override {
    Saved = octConfig();
    octConfig() = OctConfig();
  }
  void TearDown() override { octConfig() = Saved; }
  OctConfig Saved;
};

/// Installs a closure statistics sink for the scope.
struct SinkScope {
  OctStats Stats;
  SinkScope() { setOctStatsSink(&Stats); }
  ~SinkScope() { setOctStatsSink(nullptr); }
};

/// A closed octagon over \p N variables of the requested kind, with
/// random integer bounds.
Octagon makeBase(DbmKind Kind, unsigned N, Rng &R) {
  Octagon O(N);
  std::vector<OctCons> Cs;
  switch (Kind) {
  case DbmKind::Top:
    break;
  case DbmKind::Decomposed:
    // Two relational blocks, {0,1,2} and {N-3,N-2}, one of them bounded.
    for (unsigned V : {0u, 1u, 2u})
      Cs.push_back(OctCons::upper(V, R.intIn(5, 20)));
    Cs.push_back(OctCons::diff(1, 0, R.intIn(0, 6)));
    Cs.push_back(OctCons::sum(2, 1, R.intIn(4, 30)));
    Cs.push_back(OctCons::diff(N - 2, N - 3, R.intIn(-2, 6)));
    Cs.push_back(OctCons::diff(N - 3, N - 2, R.intIn(2, 9)));
    break;
  case DbmKind::Sparse:
    // A star around variable 0: one component covering every variable,
    // few finite entries.
    for (unsigned V = 1; V != N; ++V)
      Cs.push_back(OctCons::diff(0, V, R.intIn(0, 12)));
    break;
  case DbmKind::Dense:
    for (unsigned I = 0; I != N; ++I) {
      Cs.push_back(OctCons::upper(I, R.intIn(10, 40)));
      Cs.push_back(OctCons::lower(I, 0));
      for (unsigned J = 0; J != I; ++J)
        if (R.chance(0.6)) {
          Cs.push_back(OctCons::diff(I, J, R.intIn(0, 30)));
          Cs.push_back(OctCons::diff(J, I, R.intIn(0, 30)));
        }
    }
    break;
  }
  O.addConstraints(Cs);
  O.close();
  EXPECT_EQ(O.kind(), Kind);
  return O;
}

/// The raw matrix \p O holds, read through entry().
HalfDbm rawEntries(const Octagon &O) {
  HalfDbm Raw(O.numVars());
  for (unsigned I = 0, D = Raw.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      Raw.at(I, J) = I == J ? 0.0 : O.entry(I, J);
  return Raw;
}

/// The same raw entries as \p Base after the guard batches \p Batches,
/// with no pending variables: meet never records any.
Octagon fullTwin(const Octagon &Base,
                 const std::vector<std::vector<OctCons>> &Batches) {
  Octagon Guards(Base.numVars());
  for (const std::vector<OctCons> &Cs : Batches)
    Guards.addConstraints(Cs);
  // meet with a Top base returns the guard octagon itself; the second
  // meet builds a fresh result with the same raw entries either way.
  Octagon Once = Octagon::meet(Base, Guards);
  return Octagon::meet(Once, Guards);
}

/// Closes copies of \p Deferred under every tier and checks them
/// against the reference closure of its raw entries and against the
/// closed \p Full twin. \p ExpectIncremental says whether close() must
/// take the incremental path (one CK_Incremental closure) or the full
/// one.
void expectDeferredExact(const Octagon &Deferred, const Octagon &Full,
                         bool ExpectIncremental, const std::string &What) {
  ASSERT_FALSE(Deferred.isClosed()) << What;
  HalfDbm Ref = rawEntries(Deferred);
  bool RefNonEmpty = referenceClose(Ref);
  TierGuard Guard;
  for (SimdTier Tier : supportedTiers()) {
    simdForceTier(Tier);
    std::string W = What + " @" + simdTierName(Tier);
    Octagon D = Deferred;
    {
      SinkScope Sink;
      D.close();
      EXPECT_EQ(Sink.Stats.numClosures(), 1u) << W;
      EXPECT_EQ(Sink.Stats.closuresOfKind(CK_Incremental),
                ExpectIncremental ? 1u : 0u)
          << W;
    }
    ASSERT_EQ(D.isBottom(), !RefNonEmpty) << W;
    if (!RefNonEmpty) {
      // The kind label of an empty octagon carries no meaning.
      EXPECT_TRUE(closedCopy(Full).isBottom()) << W;
      continue;
    }
    for (unsigned I = 0, Dim = Ref.dim(); I != Dim; ++I)
      for (unsigned J = 0; J != Dim; ++J)
        ASSERT_EQ(D.entry(I, J), Ref.get(I, J))
            << W << ": entry (" << I << "," << J << ")";
    expectSameAs(D, closedCopy(Full), W + " vs full closure");
  }
}

/// Applies \p Batches to a copy of \p Base and checks the deferred
/// closure.
void checkGuards(const Octagon &Base,
                 const std::vector<std::vector<OctCons>> &Batches,
                 bool ExpectIncremental, const std::string &What) {
  Octagon Deferred = Base;
  for (const std::vector<OctCons> &Cs : Batches)
    Deferred.addConstraints(Cs);
  expectDeferredExact(Deferred, fullTwin(Base, Batches), ExpectIncremental,
                      What);
}

const DbmKind AllKinds[] = {DbmKind::Top, DbmKind::Decomposed,
                            DbmKind::Sparse, DbmKind::Dense};

std::string kindName(DbmKind K) {
  switch (K) {
  case DbmKind::Top:
    return "top";
  case DbmKind::Decomposed:
    return "decomposed";
  case DbmKind::Sparse:
    return "sparse";
  case DbmKind::Dense:
    return "dense";
  }
  return "?";
}

TEST_F(DeferredClosure, UnaryBinaryAndMergingGuardsOnEveryKind) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(11 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    std::string K = kindName(Kind);
    checkGuards(Base, {{OctCons::upper(1, 3)}}, true, K + " unary");
    checkGuards(Base, {{OctCons::lower(4, -2)}}, true, K + " unary lower");
    checkGuards(Base, {{OctCons::diff(1, 2, -1)}}, true, K + " binary");
    checkGuards(Base, {{OctCons::sum(0, 1, 2), OctCons::negSum(0, 1, 4)}},
                true, K + " sum pair");
    // Variables of different blocks (or uncovered ones): the guard
    // merges their components.
    checkGuards(Base, {{OctCons::diff(2, N - 2, 1)}}, true, K + " merging");
    checkGuards(Base, {{OctCons::diff(5, 6, 0), OctCons::upper(6, 1)}}, true,
                K + " merging uncovered");
  }
}

TEST_F(DeferredClosure, GuardsThatEmptyTheOctagon) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(23 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    std::string K = kindName(Kind);
    checkGuards(Base, {{OctCons::upper(1, 2), OctCons::lower(1, -3)}}, true,
                K + " unary contradiction");
    checkGuards(Base,
                {{OctCons::diff(0, 1, -2), OctCons::diff(1, 2, -2),
                  OctCons::diff(2, 0, -2)}},
                true, K + " negative cycle");
  }
  // A unary guard below the lower bound the base implies.
  ScribbleGuard Scribble;
  Rng R(29);
  Octagon Dense = makeBase(DbmKind::Dense, N, R);
  double Lo = -Dense.boundOf(OctCons::lower(3, 0)) / 2; // entries are 2x
  checkGuards(Dense, {{OctCons::upper(3, Lo - 1)}}, true, "below the bound");
}

TEST_F(DeferredClosure, OverflowingThePendingSetRunsTheFullClosure) {
  const unsigned N = 12;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(31 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    std::string K = kindName(Kind);
    // Nine distinct tightened variables in one batch.
    std::vector<OctCons> Nine;
    for (unsigned V = 0; V != 9; ++V)
      Nine.push_back(OctCons::upper(V, -1.0 - V));
    checkGuards(Base, {Nine}, false, K + " one batch");
    // Eight fit; a second batch adds more.
    std::vector<OctCons> Four, Five;
    for (unsigned V = 0; V != 4; ++V)
      Four.push_back(OctCons::diff(2 * V, 2 * V + 1, -1));
    for (unsigned V = 0; V != 5; ++V)
      Five.push_back(OctCons::upper(7 + V, 1));
    checkGuards(Base, {Four}, true, K + " eight fit");
    checkGuards(Base, {Four, Five}, false, K + " two batches overflow");
  }
}

TEST_F(DeferredClosure, GuardOnAnUnclosedOctagonRunsTheFullClosure) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(37 + static_cast<unsigned>(Kind));
    // An operator result: unclosed, with no pending variables.
    Octagon Unclosed =
        fullTwin(makeBase(Kind, N, R), {{OctCons::diff(3, 4, -1)}});
    checkGuards(Unclosed, {{OctCons::upper(1, 2)}}, false,
                kindName(Kind) + " after meet");
  }
}

TEST_F(DeferredClosure, GuardAfterAddVarsReextractsThePartition) {
  // A Dense octagon grown by addVars keeps its whole partition, but its
  // nni makes it sparse: the closure after a guard takes the sparse
  // branch and must split the partition exactly as the full one does.
  ScribbleGuard Scribble;
  Rng R(43);
  Octagon Grown = makeBase(DbmKind::Dense, 3, R);
  Grown.addVars(9);
  ASSERT_TRUE(Grown.isClosed());
  ASSERT_TRUE(Grown.partition().isWhole());
  checkGuards(Grown, {{OctCons::diff(1, 2, -1)}}, true, "binary");
  checkGuards(Grown, {{OctCons::upper(10, 4)}}, true, "fresh variable");
}

TEST_F(DeferredClosure, TwoBatchesBeforeOneClose) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(41 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    checkGuards(Base,
                {{OctCons::diff(0, 1, 1)},
                 {OctCons::upper(7, 2), OctCons::sum(7, 1, 3)}},
                true, kindName(Kind) + " two batches");
  }
}

TEST_F(DeferredClosure, ShiftBetweenGuardAndClose) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(53 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    const std::vector<std::vector<OctCons>> Batches = {
        {OctCons::diff(1, 2, 0), OctCons::upper(2, 4)}};
    for (int Sign : {+1, -1}) {
      // x1 := x1 + 3 and x1 := -x1 + 3 keep the closed form, so the
      // pending variables still describe every entry that changed.
      LinExpr Shift;
      Shift.Terms = {{Sign, 1u}};
      Shift.Const = 3;
      Octagon Deferred = Base;
      Deferred.addConstraints(Batches[0]);
      Deferred.assign(1, Shift);
      Octagon Full = fullTwin(Base, Batches);
      Full.assign(1, Shift);
      expectDeferredExact(Deferred, Full, true,
                          kindName(Kind) + (Sign > 0 ? " shift" : " negate"));
    }
  }
}

TEST_F(DeferredClosure, RandomGuardSequences) {
  const unsigned N = 9;
  for (unsigned Seed = 0; Seed != 40; ++Seed) {
    for (DbmKind Kind : AllKinds) {
      ScribbleGuard Scribble;
      Rng R(1000 + Seed * 7 + static_cast<unsigned>(Kind));
      Octagon Base = makeBase(Kind, N, R);
      std::vector<std::vector<OctCons>> Batches(1 + R.indexBelow(2));
      std::vector<unsigned> Vars;
      for (std::vector<OctCons> &Cs : Batches)
        for (std::size_t K = 0, E = 1 + R.indexBelow(4); K != E; ++K) {
          unsigned I = static_cast<unsigned>(R.indexBelow(N));
          unsigned J = static_cast<unsigned>(R.indexBelow(N));
          double C = R.intIn(-6, 12);
          switch (R.indexBelow(5)) {
          case 0:
            Cs.push_back(OctCons::upper(I, C));
            J = I;
            break;
          case 1:
            Cs.push_back(OctCons::lower(I, C));
            J = I;
            break;
          default:
            if (I == J)
              J = (I + 1) % N;
            Cs.push_back(R.chance(0.5) ? OctCons::diff(I, J, C)
                                       : OctCons::sum(I, J, C));
          }
          Vars.push_back(I);
          Vars.push_back(J);
        }
      Octagon Deferred = Base;
      for (const std::vector<OctCons> &Cs : Batches)
        Deferred.addConstraints(Cs);
      if (Deferred.isClosed())
        continue; // no guard tightened anything
      std::sort(Vars.begin(), Vars.end());
      Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
      std::string What =
          kindName(Kind) + " seed " + std::to_string(Seed);
      if (Vars.size() <= 8) {
        expectDeferredExact(Deferred, fullTwin(Base, Batches), true, What);
        continue;
      }
      // More variables than the pending set holds: either path may run,
      // and both must be exact.
      HalfDbm Ref = rawEntries(Deferred);
      bool RefNonEmpty = referenceClose(Ref);
      Octagon D = Deferred, Full = fullTwin(Base, Batches);
      ASSERT_EQ(D.isBottom(), !RefNonEmpty) << What;
      EXPECT_EQ(Full.isBottom(), !RefNonEmpty) << What;
      if (RefNonEmpty)
        expectSameAs(D, Full, What);
    }
  }
}

TEST_F(DeferredClosure, WideningReadsTheRawGuardedOperand) {
  const unsigned N = 10;
  for (DbmKind Kind : AllKinds) {
    ScribbleGuard Scribble;
    Rng R(61 + static_cast<unsigned>(Kind));
    Octagon Base = makeBase(Kind, N, R);
    const std::vector<std::vector<OctCons>> Batches = {
        {OctCons::upper(1, 2), OctCons::diff(1, 2, -1)}};
    Octagon Old = Base;
    Old.addConstraints(Batches[0]);
    Octagon Twin = fullTwin(Base, Batches);
    Octagon New = makeBase(DbmKind::Dense, N, R);
    HalfDbm RawBefore = rawEntries(Old);
    TierGuard Guard;
    for (SimdTier Tier : supportedTiers()) {
      simdForceTier(Tier);
      std::string W = kindName(Kind) + " @" + simdTierName(Tier);
      Octagon XOld = Old, XNew = New, TNew = New;
      Octagon Widened = Octagon::widen(XOld, XNew);
      // The guarded operand stays raw: widening never closes it.
      EXPECT_FALSE(XOld.isClosed()) << W;
      expectDbmEq(rawEntries(XOld), RawBefore, W.c_str());
      checkWiden(Old, New, {}, Widened, W);
      expectSameAs(Widened, Octagon::widen(Twin, TNew), W + " vs twin");
    }
  }
}

/// Partition-sized copies, under the same pinned configuration.
class PartitionCopy : public DeferredClosure {};

TEST_F(PartitionCopy, CopiesEqualTheirSources) {
  ScribbleGuard Scribble;
  Rng R(71);
  Octagon Decomposed = makeBase(DbmKind::Decomposed, 10, R);
  // A partial octagon: unclosed, two blocks merged by a guard.
  Octagon Partial = Decomposed;
  Partial.addConstraint(OctCons::diff(2, 8, 3));
  // Interleaved blocks: every component spans several runs.
  Octagon Interleaved(12);
  for (unsigned V = 0; V + 2 < 12; V += 2) {
    Interleaved.addConstraint(OctCons::diff(V, V + 2, R.intIn(0, 9)));
    Interleaved.addConstraint(OctCons::sum(V + 1, V + 3, R.intIn(0, 9)));
  }
  Octagon Top(6), Bottom = Octagon::makeBottom(6);
  Octagon Dense = makeBase(DbmKind::Dense, 6, R);
  for (const Octagon *Src :
       {&Decomposed, &Partial, &Interleaved, &Top, &Bottom, &Dense}) {
    const unsigned N = Src->numVars();
    {
      // The copy most likely receives this just-freed buffer of the
      // same size (glibc's per-thread cache is LIFO, and it bypasses
      // M_PERTURB), so a slot the copy fails to write holds the
      // filler's bounds instead of the source's.
      std::vector<OctCons> Cs;
      for (unsigned V = 0; V != N; ++V)
        Cs.push_back(OctCons::upper(V, 777 + V));
      Octagon Filler(N);
      Filler.addConstraints(Cs);
      Filler.close();
    }
    Octagon Copy = *Src;
    EXPECT_EQ(Copy.kind(), Src->kind());
    EXPECT_EQ(Copy.isClosed(), Src->isClosed());
    EXPECT_TRUE(Copy.partition() == Src->partition());
    if (Octagon(*Src).isBottom()) {
      EXPECT_TRUE(Octagon(Copy).isBottom());
      continue;
    }
    EXPECT_EQ(Copy.nni(), Src->nni());
    // Entry for entry, without closing either side.
    for (unsigned I = 0; I != 2 * N; ++I)
      for (unsigned J = 0; J != 2 * N; ++J)
        ASSERT_EQ(Copy.entry(I, J), Src->entry(I, J))
            << "entry (" << I << "," << J << ")";
  }
  // Every operator on copies behaves as on the originals.
  checkAllOps(Octagon(Decomposed), Octagon(Partial));
  checkAllOps(Decomposed, Partial);
  Octagon InterleavedGuarded = Interleaved;
  InterleavedGuarded.addConstraint(OctCons::diff(0, 1, 2));
  checkAllOps(Octagon(Interleaved), Octagon(InterleavedGuarded));
  checkAllOps(Interleaved, InterleavedGuarded);
}

} // namespace
