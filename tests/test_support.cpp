//===- tests/test_support.cpp - Support library tests ----------------------===//

#include "support/aligned.h"
#include "support/random.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/timing.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace optoct;

namespace {

TEST(AlignedBuffer, AllocationIsAligned) {
  AlignedBuffer<double> B(37);
  EXPECT_EQ(B.size(), 37u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) % 32, 0u);
}

TEST(AlignedBuffer, CopyAndMoveSemantics) {
  AlignedBuffer<double> A(8);
  for (std::size_t I = 0; I != 8; ++I)
    A[I] = static_cast<double>(I);
  AlignedBuffer<double> Copy = A;
  EXPECT_EQ(Copy[5], 5.0);
  Copy[5] = -1.0;
  EXPECT_EQ(A[5], 5.0); // deep copy

  AlignedBuffer<double> Moved = std::move(Copy);
  EXPECT_EQ(Moved[5], -1.0);
  EXPECT_EQ(Copy.size(), 0u); // NOLINT: moved-from is empty by contract

  AlignedBuffer<double> Assigned(3);
  Assigned = A;
  EXPECT_EQ(Assigned.size(), 8u);
  EXPECT_EQ(Assigned[7], 7.0);
  Assigned = std::move(Moved);
  EXPECT_EQ(Assigned[5], -1.0);
}

TEST(AlignedBuffer, FillAndResizeDiscard) {
  AlignedBuffer<double> B(4);
  B.fill(2.5);
  for (std::size_t I = 0; I != 4; ++I)
    EXPECT_EQ(B[I], 2.5);
  B.resizeDiscard(16);
  EXPECT_EQ(B.size(), 16u);
  B.resizeDiscard(0);
  EXPECT_TRUE(B.empty());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I) {
    EXPECT_EQ(A.intIn(-50, 50), B.intIn(-50, 50));
    EXPECT_EQ(A.indexBelow(17), B.indexBelow(17));
    EXPECT_EQ(A.chance(0.3), B.chance(0.3));
  }
}

TEST(Rng, RespectsRanges) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    int V = R.intIn(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
    EXPECT_LT(R.indexBelow(5), 5u);
    double D = R.doubleIn(1.0, 2.0);
    EXPECT_GE(D, 1.0);
    EXPECT_LT(D, 2.0);
  }
}

TEST(OctStats, AccumulatesAndTraces) {
  OctStats S;
  S.enableTrace(true);
  S.recordClosure(100, 8, 1);
  S.recordClosure(300, 4, 3);
  EXPECT_EQ(S.numClosures(), 2u);
  EXPECT_EQ(S.closureCycles(), 400u);
  EXPECT_EQ(S.minVars(), 4u);
  EXPECT_EQ(S.maxVars(), 8u);
  ASSERT_EQ(S.trace().size(), 2u);
  EXPECT_EQ(S.trace()[1].KindTag, 3);
  EXPECT_EQ(S.closuresOfKind(1), 1u);
  EXPECT_EQ(S.closureCyclesOfKind(3), 300u);
  EXPECT_EQ(S.closuresOfKind(2), 0u);
  S.reset();
  EXPECT_EQ(S.numClosures(), 0u);
  EXPECT_EQ(S.closuresOfKind(3), 0u);
  EXPECT_EQ(S.minVars(), 0u);
  EXPECT_TRUE(S.trace().empty());
}

TEST(TextTable, AlignsColumns) {
  TextTable T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "22"});
  std::string Out = T.render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
  // Columns align: both value entries start at the same offset.
  std::size_t Line3 = Out.find("x ");
  std::size_t Line4 = Out.find("longer-name");
  ASSERT_NE(Line3, std::string::npos);
  ASSERT_NE(Line4, std::string::npos);
  std::size_t Col1 = Out.find('1', Line3) - Line3;
  std::size_t Col2 = Out.find("22", Line4) - Line4;
  EXPECT_EQ(Col1, Col2);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(Timing, CyclesAreMonotonic) {
  std::uint64_t A = readCycles();
  volatile double Sink = 0;
  for (int I = 0; I != 10000; ++I)
    Sink = Sink + I;
  (void)Sink;
  std::uint64_t B = readCycles();
  EXPECT_GT(B, A);
}

TEST(Timing, WallTimerAccumulates) {
  WallTimer T;
  EXPECT_EQ(T.seconds(), 0.0);
  T.start();
  volatile double Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + I;
  (void)Sink;
  T.stop();
  double First = T.seconds();
  EXPECT_GT(First, 0.0);
  T.start();
  T.stop();
  EXPECT_GE(T.seconds(), First);
  T.reset();
  EXPECT_EQ(T.seconds(), 0.0);
}

TEST(Timing, ScopedCycleTimerAddsToSink) {
  std::uint64_t Sink = 0;
  {
    ScopedCycleTimer Timer(Sink);
    volatile int X = 0;
    for (int I = 0; I != 1000; ++I)
      X = X + I;
    (void)X;
  }
  EXPECT_GT(Sink, 0u);
}

} // namespace
