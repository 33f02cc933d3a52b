//===- tests/test_differential.cpp - OptOctagon vs baseline fuzzing -------===//
///
/// \file
/// The paper's central precision claim (Section 3.3): online
/// decomposition never changes analysis results, it only reduces work.
/// This suite drives the OptOctagon domain and the dense APRON-style
/// baseline through identical random operation sequences — constraints,
/// assignments, havoc, meet, join, widening, closure — and requires the
/// strongly closed results to be identical after every step, across
/// configurations (startup/scalar SIMD tier, sparse on/off, several
/// sparsity thresholds). It also checks the structural invariant that the
/// maintained partition always coarsens the exact one.
///
//===----------------------------------------------------------------------===//

#include "baseline/apron_octagon.h"
#include "oct/config.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"
#include "oct_test_util.h"
#include "support/random.h"

#include <gtest/gtest.h>

using namespace optoct;
using optoct::test::TierGuard;

namespace {

/// One evolving (optimized, reference) pair.
struct DomainPair {
  Octagon Opt;
  baseline::ApronOctagon Ref;

  explicit DomainPair(unsigned N) : Opt(N), Ref(N) {}
};

void expectEquivalent(DomainPair &P, const char *What) {
  P.Opt.close();
  P.Ref.close();
  ASSERT_EQ(P.Opt.isBottom(), P.Ref.isBottom()) << What;
  if (P.Opt.isBottom())
    return;
  unsigned D = 2 * P.Opt.numVars();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      ASSERT_EQ(P.Opt.entry(I, J), P.Ref.entry(I, J))
          << What << ": entry (" << I << "," << J << ")";
}

/// The maintained partition must coarsen the exact partition of the
/// materialized matrix.
void expectPartitionSound(Octagon &O) {
  if (!octConfig().EnableDecomposition)
    return;
  O.close();
  if (O.isBottom())
    return;
  unsigned N = O.numVars();
  HalfDbm Mat(N);
  for (unsigned I = 0; I != 2 * N; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      Mat.at(I, J) = O.entry(I, J);
  Partition Exact = extractPartition(Mat);
  Partition Maintained = O.partition();
  if (Maintained.empty() && O.kind() == DbmKind::Top) {
    EXPECT_TRUE(Exact.empty());
    return;
  }
  if (O.kind() == DbmKind::Dense)
    return; // whole partition trivially coarsens everything
  EXPECT_TRUE(Maintained.coarsens(Exact));
  // Every covered variable of the exact partition must be covered.
  for (unsigned V = 0; V != N; ++V)
    if (Exact.contains(V)) {
      EXPECT_TRUE(Maintained.contains(V)) << "variable " << V;
    }
}

OctCons randomCons(Rng &R, unsigned N) {
  double Bound = R.intIn(-4, 16);
  unsigned I = static_cast<unsigned>(R.indexBelow(N));
  switch (R.intIn(0, 4)) {
  case 0:
    return OctCons::upper(I, Bound);
  case 1:
    return OctCons::lower(I, Bound);
  default: {
    unsigned J = static_cast<unsigned>(R.indexBelow(N));
    if (J == I)
      J = (J + 1) % N;
    switch (R.intIn(0, 2)) {
    case 0:
      return OctCons::diff(I, J, Bound);
    case 1:
      return OctCons::sum(I, J, Bound);
    default:
      return OctCons::negSum(I, J, Bound);
    }
  }
  }
}

LinExpr randomExpr(Rng &R, unsigned N) {
  LinExpr E;
  switch (R.intIn(0, 4)) {
  case 0: // constant
    E.Const = R.intIn(-8, 8);
    break;
  case 1: // +- x + c
  case 2: {
    E.Terms = {{R.chance(0.5) ? 1 : -1,
                static_cast<unsigned>(R.indexBelow(N))}};
    E.Const = R.intIn(-4, 4);
    break;
  }
  default: { // general linear
    int Count = R.intIn(1, 3);
    for (int T = 0; T != Count; ++T)
      E.addTerm(R.intIn(-2, 2), static_cast<unsigned>(R.indexBelow(N)));
    E.Const = R.intIn(-4, 4);
    break;
  }
  }
  return E;
}

/// Applies the same random operation to both domains.
void step(DomainPair &P, DomainPair &Other, Rng &R) {
  unsigned N = P.Opt.numVars();
  switch (R.intIn(0, 9)) {
  case 0:
  case 1:
  case 2: { // guard: meet with 1-3 constraints
    std::vector<OctCons> Cs;
    for (int K = 0, E = R.intIn(1, 3); K != E; ++K)
      Cs.push_back(randomCons(R, N));
    P.Opt.addConstraints(Cs);
    P.Ref.addConstraints(Cs);
    break;
  }
  case 3:
  case 4:
  case 5: { // assignment
    unsigned X = static_cast<unsigned>(R.indexBelow(N));
    LinExpr E = randomExpr(R, N);
    P.Opt.assign(X, E);
    P.Ref.assign(X, E);
    break;
  }
  case 6: { // havoc
    unsigned X = static_cast<unsigned>(R.indexBelow(N));
    P.Opt.havoc(X);
    P.Ref.havoc(X);
    break;
  }
  case 7: { // join with the other chain
    P.Opt = Octagon::join(P.Opt, Other.Opt);
    P.Ref = baseline::ApronOctagon::join(P.Ref, Other.Ref);
    break;
  }
  case 8: { // meet with the other chain
    P.Opt = Octagon::meet(P.Opt, Other.Opt);
    P.Ref = baseline::ApronOctagon::meet(P.Ref, Other.Ref);
    break;
  }
  default: { // widening by the other chain
    P.Opt = Octagon::widen(P.Opt, Other.Opt);
    P.Ref = baseline::ApronOctagon::widen(P.Ref, Other.Ref);
    break;
  }
  }
}

struct FuzzCase {
  unsigned NumVars;
  unsigned Steps;
  std::uint64_t Seed;
  bool Vectorize; ///< false pins the scalar kernel tier
  bool Sparse;
  double Threshold;
};

void PrintTo(const FuzzCase &C, std::ostream *OS) {
  *OS << "n=" << C.NumVars << " steps=" << C.Steps << " seed=" << C.Seed
      << " vec=" << C.Vectorize << " sparse=" << C.Sparse
      << " t=" << C.Threshold;
}

class OctagonDifferential : public ::testing::TestWithParam<FuzzCase> {
protected:
  void SetUp() override {
    Saved = octConfig();
    const FuzzCase &C = GetParam();
    if (!C.Vectorize)
      simdForceTier(SimdTier::Scalar);
    octConfig().EnableSparse = C.Sparse;
    octConfig().SparsityThreshold = C.Threshold;
  }
  void TearDown() override { octConfig() = Saved; }
  OctConfig Saved;
  TierGuard Tier;
};

TEST_P(OctagonDifferential, RandomSequencesMatchBaseline) {
  const FuzzCase &C = GetParam();
  Rng R(C.Seed);
  DomainPair P1(C.NumVars), P2(C.NumVars);
  for (unsigned S = 0; S != C.Steps; ++S) {
    step(P1, P2, R);
    step(P2, P1, R);
    if (S % 4 == 3) {
      // Comparing closes both; evolution continues from closed state,
      // which is legal for every operator but keeps widening chains
      // short — the dedicated analyzer tests cover long widening runs.
      DomainPair Check1 = P1, Check2 = P2;
      expectEquivalent(Check1, "chain 1");
      expectEquivalent(Check2, "chain 2");
      expectPartitionSound(Check1.Opt);
      expectPartitionSound(Check2.Opt);
    }
    // Restart chains that hit bottom so the fuzz keeps exploring.
    if (Octagon(P1.Opt).isBottom())
      P1 = DomainPair(C.NumVars);
    if (Octagon(P2.Opt).isBottom())
      P2 = DomainPair(C.NumVars);
  }
}

std::vector<FuzzCase> fuzzCases() {
  std::vector<FuzzCase> Cases;
  std::uint64_t Seed = 42;
  for (unsigned N : {2u, 4u, 7u, 12u, 20u})
    for (bool Vec : {true, false})
      for (bool Sparse : {true, false})
        for (double T : {0.75, 0.25})
          Cases.push_back({N, 60, Seed++, Vec, Sparse, T});
  // A couple of long runs at the default configuration.
  Cases.push_back({10, 400, 777, true, true, 0.75});
  Cases.push_back({16, 300, 778, true, true, 0.75});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, OctagonDifferential,
                         ::testing::ValuesIn(fuzzCases()));

/// Decomposition off must agree with decomposition on.
TEST(OctagonAblation, DecompositionOnOffAgree) {
  OctConfig Saved = octConfig();
  Rng R(123);
  for (int It = 0; It != 30; ++It) {
    unsigned N = 8;
    std::vector<OctCons> Cs;
    for (int K = 0; K != 10; ++K)
      Cs.push_back(randomCons(R, N));

    octConfig().EnableDecomposition = true;
    Octagon On(N);
    On.addConstraints(Cs);
    On.close();

    octConfig().EnableDecomposition = false;
    Octagon Off(N);
    Off.addConstraints(Cs);
    Off.close();

    ASSERT_EQ(On.isBottom(), Off.isBottom());
    if (!On.isBottom()) {
      for (unsigned I = 0; I != 2 * N; ++I)
        for (unsigned J = 0; J <= (I | 1u); ++J)
          ASSERT_EQ(On.entry(I, J), Off.entry(I, J));
    }
    octConfig() = Saved;
  }
}

} // namespace
