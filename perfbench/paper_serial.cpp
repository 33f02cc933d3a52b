//===- perfbench/paper_serial.cpp - The paper's 17 rows, one at a time ----===//
///
/// \file
/// paper-serial: every row of workloads::paperBenchmarks() through
/// runtime::runJob on one thread. The seed shuffles the row order of
/// each pass. Small rows repeat inside one timed sample so that every
/// sample lasts tens of milliseconds; the APRON reference runs right
/// after each sample, and a row's relative time is the median over
/// passes of (sample time per call) / (that reference).
///
/// Oracle: every call's verdict (proven count, total, unproven lines)
/// must equal expected/paper_serial.txt, which the APRON baseline
/// produced (perfbench --write-expected).
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "cfg/cfg.h"
#include "lang/parser.h"
#include "workloads/workload.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace optoct;

namespace perfbench {
namespace {

constexpr const char *ExpectedPath = "perfbench/expected/paper_serial.txt";
/// A sample shorter than this repeats its row (doubling) until it is not.
constexpr double MinSampleMs = 25;

/// A verdict as the oracle file stores it: "proven total lines".
std::string verdictOf(unsigned Proven, unsigned Total,
                      const std::vector<int> &Unproven) {
  std::string S = std::to_string(Proven) + " " + std::to_string(Total) + " ";
  if (Unproven.empty())
    return S + "-";
  for (std::size_t I = 0; I != Unproven.size(); ++I) {
    if (I)
      S += ',';
    S += std::to_string(Unproven[I]);
  }
  return S;
}

std::vector<runtime::BatchJob> paperJobs() {
  std::vector<runtime::BatchJob> Jobs;
  for (const workloads::WorkloadSpec &S : workloads::paperBenchmarks())
    Jobs.push_back({S.Name, workloads::generateProgram(S)});
  return Jobs;
}

class PaperSerial : public Workload {
public:
  explicit PaperSerial(const Options &O) : Opts(O) {}

  unsigned threads() const override { return 1; }
  const char *headline() const override { return "verdict_rel_geomean"; }
  std::vector<runtime::BatchJob> programs() const override { return Jobs; }

  void setup() override {
    Jobs = paperJobs();
    Expected.clear();
    std::ifstream In(ExpectedPath);
    if (!In)
      throw std::runtime_error(std::string("cannot read ") + ExpectedPath);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::size_t Sp = Line.find(' ');
      Expected[Line.substr(0, Sp)] = Line.substr(Sp + 1);
    }
    for (const runtime::BatchJob &J : Jobs)
      if (!Expected.count(J.Name))
        throw std::runtime_error("no expected verdict for row " + J.Name);
    Ref = std::make_unique<Reference>();
  }

  void measure(double Seconds, WorkloadResult &Out) override {
    const std::size_t N = Jobs.size();
    std::mt19937_64 Rng(mixSeed(Opts.Seed, 1));
    std::vector<std::size_t> Order(N);
    for (std::size_t I = 0; I != N; ++I)
      Order[I] = I;

    Clock::time_point Start = Clock::now();
    // Warm-up pass, not recorded: pages everything in and sizes each
    // row's repeat count.
    std::vector<unsigned> Reps(N, 1);
    for (std::size_t I = 0; I != N; ++I) {
      Clock::time_point T0 = Clock::now();
      check(I, runtime::runJob(Jobs[I]), Out);
      double Ms = msSince(T0);
      while (Ms * Reps[I] < MinSampleMs && Reps[I] < 256)
        Reps[I] *= 2;
    }

    std::vector<std::vector<double>> Rel(N), CallMs(N);
    std::vector<double> PassRel, PassMs, SampleMs, SampleRawMs;
    // Each sample is bracketed by the reference runs before and after
    // it; their mean is the sample's yardstick.
    double PrevRef = Ref->sampleMs();
    double LastPass = msSince(Start);
    for (;;) {
      double Elapsed = msSince(Start);
      if (!PassRel.empty() && Elapsed + LastPass > Seconds * 1e3)
        break;
      std::shuffle(Order.begin(), Order.end(), Rng);
      Clock::time_point PassStart = Clock::now();
      double PassWork = 0, PassWorkRel = 0;
      for (std::size_t I : Order) {
        Clock::time_point T0 = Clock::now();
        {
          Span S("paper.sample");
          for (unsigned K = 0; K != Reps[I]; ++K) {
            Span C("runtime.runJob");
            check(I, runtime::runJob(Jobs[I]), Out);
          }
        }
        double Ms = msSince(T0) / Reps[I];
        double NextRef = Ref->sampleMs();
        double RefMs = (PrevRef + NextRef) / 2;
        PrevRef = NextRef;
        Rel[I].push_back(Ms / RefMs);
        CallMs[I].push_back(Ms);
        SampleMs.push_back(Ms * NominalRefMs / RefMs);
        SampleRawMs.push_back(Ms);
        PassWork += Ms;
        PassWorkRel += Ms / RefMs;
      }
      PassMs.push_back(PassWork);
      PassRel.push_back(PassWorkRel);
      LastPass = msSince(PassStart);
    }

    std::vector<double> RowRel, RowMs;
    for (std::size_t I = 0; I != N; ++I) {
      RowRel.push_back(median(Rel[I]));
      RowMs.push_back(median(CallMs[I]));
    }
    unsigned SloMet = 0;
    for (double Ms : SampleMs)
      SloMet += Ms <= SloAnalysisMs;
    double Served =
        Out.Attempted ? double(Out.Attempted - Out.Failed) / Out.Attempted : 0;

    Out.add("verdict_rel_geomean", geomean(RowRel), "ratio");
    Out.add("suite_rel", sum(RowRel), "ratio");
    Out.add("makespan_rel", median(PassRel), "ratio");
    Out.add("req_p50_ms", median(SampleMs), "ms");
    Out.add("req_p99_ms", quantile(SampleMs, 0.99), "ms");
    Out.add("slo_met_share", double(SloMet) / SampleMs.size(), "share");
    Out.add("throughput_rps", N / (sum(RowRel) * NominalRefMs / 1e3), "1/s");
    Out.add("served_share", Served, "share");
    Out.addAbsolute("verdict_geomean_ms", geomean(RowMs), "ms");
    Out.addAbsolute("suite_ms", sum(RowMs), "ms");
    Out.addAbsolute("makespan_ms", median(PassMs), "ms");
    Out.addAbsolute("req_p50_raw_ms", median(SampleRawMs), "ms");
    Out.addAbsolute("req_p99_raw_ms", quantile(SampleRawMs, 0.99), "ms");
    Out.addAbsolute("throughput_raw_rps", N / (sum(RowMs) / 1e3), "1/s");
    Out.addAbsolute("samples", SampleMs.size(), "count");
    Out.addAbsolute("passes", PassMs.size(), "count");
    Out.addAbsolute("apron_ref_ms", median(Ref->serialSamples()), "ms");
  }

private:
  /// Counts one call and checks its verdict against the oracle.
  void check(std::size_t I, const runtime::JobResult &R, WorkloadResult &Out) {
    ++Out.Attempted;
    std::string Got =
        verdictOf(R.AssertsProven, R.AssertsTotal, R.UnprovenAssertLines);
    if (R.Status != runtime::JobStatus::Ok) {
      ++Out.Failed;
      Out.mismatch(Jobs[I].Name + ": status " + jobStatusName(R.Status) +
                   " " + R.Error);
    } else if (Got != Expected[Jobs[I].Name]) {
      ++Out.Failed;
      Out.mismatch(Jobs[I].Name + ": verdict '" + Got + "', expected '" +
                   Expected[Jobs[I].Name] + "'");
    }
  }

  Options Opts;
  std::vector<runtime::BatchJob> Jobs;
  std::map<std::string, std::string> Expected;
  std::unique_ptr<Reference> Ref;
};

} // namespace

std::unique_ptr<Workload> makePaperSerial(const Options &O) {
  return std::make_unique<PaperSerial>(O);
}

bool writePaperExpected(const std::string &Path) {
  std::ostringstream S;
  S << "# Verdicts of the paper rows under the APRON baseline\n"
       "# (analysis::analyze<baseline::ApronOctagon>): row proven total "
       "unproven-lines\n";
  for (const runtime::BatchJob &J : paperJobs()) {
    std::string Error;
    auto Prog = lang::parseProgram(J.Source, Error);
    if (!Prog)
      return false;
    cfg::Cfg G = cfg::Cfg::build(*Prog);
    auto R = analysis::analyze<baseline::ApronOctagon>(G);
    std::vector<int> Unproven;
    for (const analysis::AssertOutcome &A : R.Asserts)
      if (!A.Proven)
        Unproven.push_back(A.Line);
    S << J.Name << " "
      << verdictOf(R.assertsProven(), R.Asserts.size(), Unproven) << "\n";
  }
  std::ofstream Out(Path);
  Out << S.str();
  return static_cast<bool>(Out);
}

} // namespace perfbench
