//===- perfbench/batch_mixed.cpp - A mixed corpus on a 2-worker batch -----===//
///
/// \file
/// batch-mixed: runtime::runBatch in thread mode on 2 workers over a
/// corpus of re-seeded, down-scaled Table-2 programs (CopiesPerRow per
/// row, shuffled), capturing invariants and rendering reportToJson.
/// Each timed batch is bracketed by runs of the 2-thread APRON
/// reference; the makespan and each job's time are taken relative to
/// their mean.
///
/// Oracle: every batch's canonical report must equal the canonical
/// report of one serial (1-worker) batch of the same corpus.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "workloads/workload.h"

#include <algorithm>
#include <cmath>

using namespace optoct;

namespace perfbench {
namespace {

constexpr unsigned Workers = 2;
constexpr unsigned CopiesPerRow = 10;
/// Down-scaling target: no job should cost much more than this.
constexpr double TargetJobMs = 12;

/// Full-size runJob time of each row (ms, measured on a 4-core x86 host
/// with AVX-512). Only the ratio to TargetJobMs matters: it sets how far
/// a row's loop phases (and, for the largest rows, its variable groups)
/// are cut so that no job dominates the makespan.
double fullRowMs(const std::string &Name) {
  static const std::pair<const char *, double> Table[] = {
      {"Prob6_00_f", 90},  {"Prob6_30_t", 330}, {"s3_clnt_2_f", 46},
      {"s3_clnt_3_t", 45}, {"gwsfmlau", 85},    {"blwd", 320},
      {"eeorzcap", 173},   {"jwgqbjzs", 1200},  {"crypt", 60},
      {"moldyn", 72},      {"lufact", 3},       {"sor", 3},
      {"series", 1},       {"matmult", 1},      {"linux_full", 75},
      {"seq", 33},         {"firefox", 7}};
  for (const auto &[Row, Ms] : Table)
    if (Name == Row)
      return Ms;
  return TargetJobMs;
}

workloads::WorkloadSpec scaledSpec(const workloads::WorkloadSpec &Row,
                                   std::uint64_t Seed) {
  workloads::WorkloadSpec S = Row;
  S.Seed = static_cast<unsigned>(Seed & 0x7fffffff);
  double Shrink = fullRowMs(Row.Name) / TargetJobMs;
  if (Shrink <= 1)
    return S;
  // Closure cost grows ~cubically in the variable count: rows that
  // phases alone cannot bring down lose half their groups, which cut
  // jwgqbjzs's cost ~6x.
  double PhaseShrink = std::min<double>(Shrink, S.Phases);
  if (Shrink > S.Phases * 1.5 && S.Groups > 2) {
    S.Groups = (S.Groups + 1) / 2;
    Shrink /= 6;
    PhaseShrink = std::min<double>(Shrink, S.Phases);
  }
  S.Phases = std::max(1u, static_cast<unsigned>(std::lround(S.Phases /
                                                            PhaseShrink)));
  return S;
}

std::vector<runtime::BatchJob> makeCorpus(std::uint64_t Seed) {
  std::vector<runtime::BatchJob> Jobs;
  const auto &Rows = workloads::paperBenchmarks();
  for (std::size_t R = 0; R != Rows.size(); ++R)
    for (unsigned C = 0; C != CopiesPerRow; ++C) {
      workloads::WorkloadSpec S =
          scaledSpec(Rows[R], mixSeed(Seed, 100 + R * CopiesPerRow + C));
      Jobs.push_back({Rows[R].Name + "#" + std::to_string(C),
                      workloads::generateProgram(S)});
    }
  std::mt19937_64 Rng(mixSeed(Seed, 2));
  std::shuffle(Jobs.begin(), Jobs.end(), Rng);
  return Jobs;
}

runtime::BatchOptions batchOptions(unsigned Jobs) {
  runtime::BatchOptions O;
  O.Jobs = Jobs;
  O.CaptureInvariants = true;
  return O;
}

/// Sum of per-job busy time over the worker-seconds the batch held.
double parallelEfficiency(const runtime::BatchReport &R, double MakespanMs) {
  double Busy = 0;
  for (const runtime::JobResult &J : R.Results)
    Busy += J.WallSeconds;
  return Busy * 1e3 / (Workers * MakespanMs);
}

class BatchMixed : public Workload {
public:
  explicit BatchMixed(const Options &O) : Opts(O) {}

  unsigned threads() const override { return Workers; }
  const char *headline() const override { return "makespan_rel"; }
  std::vector<runtime::BatchJob> programs() const override { return Jobs; }

  void setup() override {
    Jobs = makeCorpus(Opts.Seed);
    Ref = std::make_unique<Reference>();
  }

  void measure(double Seconds, WorkloadResult &Out) override {
    const std::size_t N = Jobs.size();
    Clock::time_point Start = Clock::now();
    // Oracle, and the untimed warm-up: one serial batch of the same
    // corpus, rendered canonically.
    const std::string Serial =
        runtime::reportToJson(runtime::runBatch(Jobs, batchOptions(1)), true);
    // Each batch is bracketed by reference runs; their mean is its
    // yardstick.
    double PrevRef = Ref->sampleParMs();

    std::vector<double> Rel, Makespan, Throughput, RawThroughput, JobMs,
        RawJobMs, Eff, RenderMs;
    std::vector<std::vector<double>> JobRel(N), JobAbs(N);
    unsigned SloMet = 0;
    double LastBatch = msSince(Start);
    while (Rel.empty() || msSince(Start) + LastBatch <= Seconds * 1e3) {
      Clock::time_point T0 = Clock::now();
      runtime::BatchReport Report;
      double RenderStart;
      {
        Span S("runtime.runBatch");
        Report = runtime::runBatch(Jobs, batchOptions(Workers));
        RenderStart = msSince(T0);
        Span R("runtime.reportToJson");
        runtime::reportToJson(Report);
      }
      double Ms = msSince(T0);
      double NextRef = Ref->sampleParMs();
      double RefMs = (PrevRef + NextRef) / 2;
      PrevRef = NextRef;
      LastBatch = msSince(T0);
      double Scale = NominalParRefMs / RefMs;
      Rel.push_back(Ms / RefMs);
      Makespan.push_back(Ms);
      Throughput.push_back(N / (Ms * Scale / 1e3));
      RawThroughput.push_back(N / (Ms / 1e3));
      Eff.push_back(parallelEfficiency(Report, RenderStart));
      RenderMs.push_back(Ms - RenderStart);
      for (std::size_t I = 0; I != N; ++I) {
        const runtime::JobResult &J = Report.Results[I];
        ++Out.Attempted;
        if (J.Status != runtime::JobStatus::Ok) {
          ++Out.Failed;
          Out.mismatch(J.Name + ": status " + jobStatusName(J.Status));
          continue;
        }
        double JMs = J.WallSeconds * 1e3;
        JobMs.push_back(JMs * Scale);
        RawJobMs.push_back(JMs);
        JobRel[I].push_back(JMs / RefMs);
        JobAbs[I].push_back(JMs);
        SloMet += JMs * Scale <= SloAnalysisMs;
      }
      if (runtime::reportToJson(Report, true) != Serial) {
        Out.Failed += N;
        Out.mismatch("batch " + std::to_string(Rel.size()) +
                     ": canonical report differs from the serial rendering");
      }
    }

    std::vector<double> PerJobRel, PerJobMs;
    for (std::size_t I = 0; I != N; ++I)
      if (!JobRel[I].empty()) {
        PerJobRel.push_back(median(JobRel[I]));
        PerJobMs.push_back(median(JobAbs[I]));
      }
    double Served =
        Out.Attempted
            ? double(Out.Attempted - std::min(Out.Failed, Out.Attempted)) /
                  Out.Attempted
            : 0;
    Out.add("verdict_rel_geomean", geomean(PerJobRel), "ratio");
    Out.add("suite_rel", sum(PerJobRel), "ratio");
    Out.add("makespan_rel", median(Rel), "ratio");
    Out.add("req_p50_ms", median(JobMs), "ms");
    Out.add("req_p99_ms", quantile(JobMs, 0.99), "ms");
    Out.add("slo_met_share", double(SloMet) / Out.Attempted, "share");
    Out.add("throughput_rps", median(Throughput), "1/s");
    Out.add("served_share", Served, "share");
    Out.addAbsolute("verdict_geomean_ms", geomean(PerJobMs), "ms");
    Out.addAbsolute("suite_ms", sum(PerJobMs), "ms");
    Out.addAbsolute("makespan_ms", median(Makespan), "ms");
    Out.addAbsolute("req_p50_raw_ms", median(RawJobMs), "ms");
    Out.addAbsolute("req_p99_raw_ms", quantile(RawJobMs, 0.99), "ms");
    Out.addAbsolute("throughput_raw_rps", median(RawThroughput), "1/s");
    Out.addAbsolute("batches", Makespan.size(), "count");
    Out.addAbsolute("job_samples", JobMs.size(), "count");
    Out.addAbsolute("apron_ref_par_ms", median(Ref->parallelSamples()), "ms");
    Out.addLayer("runtime.batch_makespan_s", median(Makespan) / 1e3, "s");
    Out.addLayer("runtime.parallel_eff", median(Eff), "share");
    Out.addLayer("runtime.report_json_ms", median(RenderMs), "ms");
  }

private:
  Options Opts;
  std::vector<runtime::BatchJob> Jobs;
  std::unique_ptr<Reference> Ref;
};

} // namespace

std::unique_ptr<Workload> makeBatchMixed(const Options &O) {
  return std::make_unique<BatchMixed>(O);
}

void addBatchLayerMetrics(const std::vector<runtime::BatchJob> &Jobs,
                          unsigned Runs, WorkloadResult &Out) {
  std::vector<double> Makespan, Eff, RenderMs;
  for (unsigned I = 0; I != Runs; ++I) {
    Clock::time_point T0 = Clock::now();
    runtime::BatchReport Report;
    {
      Span S("runtime.runBatch");
      Report = runtime::runBatch(Jobs, batchOptions(Workers));
    }
    double Ms = msSince(T0);
    {
      Span S("runtime.reportToJson");
      runtime::reportToJson(Report);
    }
    Makespan.push_back(Ms);
    Eff.push_back(parallelEfficiency(Report, Ms));
    RenderMs.push_back(msSince(T0) - Ms);
  }
  Out.addLayer("runtime.batch_makespan_s", median(Makespan) / 1e3, "s");
  Out.addLayer("runtime.parallel_eff", median(Eff), "share");
  Out.addLayer("runtime.report_json_ms", median(RenderMs), "ms");
}

} // namespace perfbench
