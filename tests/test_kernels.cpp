//===- tests/test_kernels.cpp - Vector kernel tests ------------------------===//
///
/// \file
/// Direct tests of the closure/strengthening min-plus kernels of the
/// startup-selected SIMD tier against the pinned scalar tier on random
/// data with infinities, across lengths that exercise the vector body
/// and the scalar remainder.
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"
#include "oct/value.h"
#include "oct_test_util.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace optoct;
using optoct::test::TierGuard;

namespace {

std::vector<double> randomRow(Rng &R, std::size_t Len, double InfProb) {
  std::vector<double> Row(Len);
  for (double &V : Row)
    V = R.chance(InfProb) ? Infinity : R.intIn(-20, 20);
  return Row;
}

/// Each test runs its kernel once under the startup-selected tier and
/// once with the scalar tier forced, then restores the startup tier.
class KernelTest : public ::testing::TestWithParam<std::size_t> {
protected:
  TierGuard Guard;
};

TEST_P(KernelTest, MinPlusRow2MatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 1);
  std::vector<double> Dst = randomRow(R, Len, 0.3);
  std::vector<double> RowA = randomRow(R, Len, 0.3);
  std::vector<double> RowB = randomRow(R, Len, 0.3);
  double A = R.chance(0.2) ? Infinity : R.intIn(-10, 10);
  double B = R.chance(0.2) ? Infinity : R.intIn(-10, 10);

  std::vector<double> VecOut = Dst, ScalarOut = Dst;
  activeSpanKernels().MinPlusRow2(VecOut.data(), RowA.data(), A, RowB.data(),
                                  B, Len);
  simdForceTier(SimdTier::Scalar);
  activeSpanKernels().MinPlusRow2(ScalarOut.data(), RowA.data(), A,
                                  RowB.data(), B, Len);
  EXPECT_EQ(VecOut, ScalarOut);
  for (std::size_t I = 0; I != Len; ++I)
    EXPECT_LE(VecOut[I], Dst[I]); // minimization only lowers
}

TEST_P(KernelTest, MinPlusRow1MatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 2);
  std::vector<double> Dst = randomRow(R, Len, 0.3);
  std::vector<double> RowA = randomRow(R, Len, 0.3);
  double A = R.intIn(-10, 10);
  std::vector<double> VecOut = Dst, ScalarOut = Dst;
  activeSpanKernels().MinPlusRow1(VecOut.data(), RowA.data(), A, Len);
  simdForceTier(SimdTier::Scalar);
  activeSpanKernels().MinPlusRow1(ScalarOut.data(), RowA.data(), A, Len);
  EXPECT_EQ(VecOut, ScalarOut);
}

TEST_P(KernelTest, StrengthenRowMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 3);
  std::vector<double> Dst = randomRow(R, Len, 0.3);
  std::vector<double> T = randomRow(R, Len, 0.4);
  double Di = R.chance(0.3) ? Infinity : R.intIn(-10, 10);
  std::vector<double> VecOut = Dst, ScalarOut = Dst;
  activeSpanKernels().StrengthenRow(VecOut.data(), T.data(), Di, Len);
  simdForceTier(SimdTier::Scalar);
  activeSpanKernels().StrengthenRow(ScalarOut.data(), T.data(), Di, Len);
  EXPECT_EQ(VecOut, ScalarOut);
}

// Lengths straddling the 4-wide vector body: empty, sub-vector,
// exact multiples, and multiples plus remainders.
INSTANTIATE_TEST_SUITE_P(Lengths, KernelTest,
                         ::testing::Values(0u, 1u, 3u, 4u, 5u, 8u, 15u, 16u,
                                           17u, 64u, 127u));

} // namespace
