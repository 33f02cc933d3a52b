//===- bench/bench_incremental.cpp - A4: incremental closure --------------===//
///
/// \file
/// Experiment A4 (Section 5.6): on an almost-closed DBM — a strongly
/// closed matrix with one variable's band tightened, the situation after
/// every assignment — the incremental closure restores strong closure in
/// quadratic time versus the cubic full closure.
///
/// The guard rows measure the same effect through the Octagon API: a
/// closed Dense octagon meets one binary guard, and close() either
/// pivots on the two guarded variables (the deferred incremental
/// closure addConstraints sets up) or runs the full closure (the same
/// raw matrix built by meet, which leaves no pending variables).
///
//===----------------------------------------------------------------------===//

#include "baseline/closure_apron.h"
#include "oct/closure_dense.h"
#include "oct/closure_incremental.h"
#include "oct/dbm.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <benchmark/benchmark.h>

using namespace optoct;

namespace {

/// A closed matrix plus one tightened band around variable 0.
HalfDbm makeAlmostClosed(unsigned NumVars) {
  Rng R(4321 + NumVars);
  HalfDbm M(NumVars);
  M.initTop();
  for (unsigned I = 0, D = M.dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      if (I != J && R.chance(0.6))
        M.at(I, J) = R.intIn(0, 40);
  ClosureScratch Scratch;
  closureDense(M, Scratch);
  // Tighten a few entries in variable 0's band.
  for (unsigned I = 2; I != std::min(M.dim(), 10u); ++I)
    M.set(I, 0, 1.0);
  return M;
}

void BM_IncrementalClosure(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  std::vector<unsigned> Touched;
  // The tightened arcs touch variable 0 and variables 1..4.
  for (unsigned V = 0; V != std::min(N, 5u); ++V)
    Touched.push_back(V);
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(incrementalClosureDense(Work, Touched, Scratch));
  }
}
BENCHMARK(BM_IncrementalClosure)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_FullClosureAfterUpdate(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  ClosureScratch Scratch;
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(closureDense(Work, Scratch));
  }
}
BENCHMARK(BM_FullClosureAfterUpdate)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

void BM_ApronIncrementalClosure(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  HalfDbm Input = makeAlmostClosed(N);
  HalfDbm Work(N);
  std::vector<unsigned> Touched;
  for (unsigned V = 0; V != std::min(N, 5u); ++V)
    Touched.push_back(V);
  for (auto _ : State) {
    Work = Input;
    benchmark::DoNotOptimize(baseline::incrementalClosureApron(Work, Touched));
  }
}
BENCHMARK(BM_ApronIncrementalClosure)->Arg(16)->Arg(32)->Arg(64)->Arg(96);

/// A closed Dense octagon over \p NumVars variables with random unary
/// bounds and random bounds on both directions of their differences.
Octagon makeClosedDense(unsigned NumVars) {
  Rng R(8765 + NumVars);
  Octagon O(NumVars);
  std::vector<OctCons> Cs;
  for (unsigned I = 0; I != NumVars; ++I) {
    Cs.push_back(OctCons::upper(I, R.intIn(10, 40)));
    Cs.push_back(OctCons::lower(I, 0));
    for (unsigned J = 0; J != I; ++J)
      if (R.chance(0.6)) {
        Cs.push_back(OctCons::diff(I, J, R.intIn(0, 40)));
        Cs.push_back(OctCons::diff(J, I, R.intIn(0, 40)));
      }
  }
  O.addConstraints(Cs);
  O.close();
  return O;
}

/// A guard x0 - xj <= c with c halfway between the closed octagon's
/// bounds on x0 - xj, for the first j where that strictly tightens
/// without making the octagon empty.
OctCons halfwayGuard(const Octagon &O) {
  for (unsigned J = 1; J != O.numVars(); ++J) {
    double Hi = O.boundOf(OctCons::diff(0, J, 0));
    double Lo = -O.boundOf(OctCons::diff(J, 0, 0));
    if (Hi - Lo >= 2)
      return OctCons::diff(0, J, (Hi + Lo) / 2);
  }
  return OctCons::diff(0, 1, 0);
}

void BM_GuardDeferredIncremental(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Octagon Guarded = makeClosedDense(N);
  Guarded.addConstraint(halfwayGuard(Guarded));
  for (auto _ : State) {
    Octagon Work = Guarded;
    Work.close();
    benchmark::DoNotOptimize(Work.isClosed());
  }
}
BENCHMARK(BM_GuardDeferredIncremental)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_GuardFullClose(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Octagon Closed = makeClosedDense(N);
  Octagon GuardOnly(N);
  GuardOnly.addConstraint(halfwayGuard(Closed));
  Octagon Guarded = Octagon::meet(Closed, GuardOnly);
  for (auto _ : State) {
    Octagon Work = Guarded;
    Work.close();
    benchmark::DoNotOptimize(Work.isClosed());
  }
}
BENCHMARK(BM_GuardFullClose)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

} // namespace

BENCHMARK_MAIN();
