//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   Runs one workload and prints, as its last stdout line, one JSON
///   object: {"correct", "attempted", "failed", "metrics"}. With
///   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
///   per-layer ones. Exit 0 = every oracle agreed, 1 = an oracle
///   mismatch (the result line is still printed), 2 = usage error,
///   3 = the run could not be made (host too small, daemon failure).
/// perfbench --write-expected <path>
///   Regenerates the paper-serial oracle file from the APRON baseline.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

const char *const EndToEnd[] = {
    "setup_s",      "peak_rss_mb",  "served_share",  "verdict_rel_geomean",
    "suite_rel",    "makespan_rel", "req_p50_ms",    "req_p99_ms",
    "slo_met_share", "throughput_rps"};

const char *const PerLayer[] = {
    "lang.parse_ms",           "lang.parse_mb_s",
    "cfg.build_ms",            "cfg.blocks",
    "analysis.fixpoint_ms",    "analysis.block_visits",
    "oct.op_share",            "oct.closures",
    "oct.closure_cycle_share", "oct.nmax",
    "oct.render_ms",           "oct.render_bytes",
    "runtime.runjob_geomean_ms", "runtime.job_overhead_share",
    "runtime.batch_makespan_s", "runtime.parallel_eff",
    "runtime.report_json_ms",  "baseline.apron_ref_ms",
    "baseline.apron_ref_par_ms", "server.hit_p50_ms",
    "server.miss_p50_ms",      "server.cache_hit_ratio",
    "server.coalesced_replies", "server.shed",
    "server.queue_peak",       "server.codec_us",
    "server.gen_late_ms",      "trace.overhead_share"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<paper-serial|batch-mixed|daemon-edit> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench --write-expected <path>\n",
               Why);
  return 2;
}

std::unique_ptr<Workload> makeWorkload(const Options &O) {
  if (O.Workload == "paper-serial")
    return makePaperSerial(O);
  if (O.Workload == "batch-mixed")
    return makeBatchMixed(O);
  if (O.Workload == "daemon-edit")
    return makeDaemonEdit(O);
  return nullptr;
}

std::string jsonMetrics(const std::vector<Metric> &Ms) {
  std::string S = "{";
  char Buf[64];
  for (std::size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.10g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  return S + "}";
}

void printTable(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

/// Picks \p Names out of \p Pool in order; a missing one is a bug here.
std::vector<Metric> select(const std::vector<Metric> &Pool,
                           const char *const *Names, std::size_t N) {
  std::vector<Metric> Out;
  for (std::size_t I = 0; I != N; ++I) {
    const Metric *Found = nullptr;
    for (const Metric &M : Pool)
      if (M.Name == Names[I])
        Found = &M;
    if (!Found)
      throw std::logic_error(std::string("metric not measured: ") + Names[I]);
    Out.push_back(*Found);
  }
  return Out;
}

void merge(WorkloadResult &Into, const WorkloadResult &From) {
  Into.Correct = Into.Correct && From.Correct;
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  for (const std::string &M : From.Mismatches)
    Into.Mismatches.push_back(M);
}

bool hasLayer(const std::vector<Metric> &Ms, const char *Prefix) {
  for (const Metric &M : Ms)
    if (M.Name.rfind(Prefix, 0) == 0)
      return true;
  return false;
}

/// The traced run: the workload untraced and then traced (their
/// headline metrics give the tracing overhead), the layer breakdown of
/// its programs, and short probes of the layers its own loop does not
/// reach (a 2-worker batch of its programs; a daemon-edit stream).
WorkloadResult tracedRun(Workload &W, const Options &O) {
  WorkloadResult Untraced, Traced, Out;
  W.measure(O.Seconds * 0.25, Untraced);
  Tracer::get().setEnabled(true);
  W.measure(O.Seconds * 0.25, Traced);
  merge(Out, Untraced);
  merge(Out, Traced);
  Out.Layer = Traced.Layer;

  addLayerMetrics(W.programs(), 3, Out);
  if (!hasLayer(Out.Layer, "runtime.batch_"))
    addBatchLayerMetrics(W.programs(), 3, Out);
  if (!hasLayer(Out.Layer, "server.")) {
    Options Probe = O;
    Probe.Workload = "daemon-edit";
    std::unique_ptr<Workload> D = makeDaemonEdit(Probe);
    D->setup();
    WorkloadResult R;
    D->measure(2.5, R);
    merge(Out, R);
    for (const Metric &M : R.Layer)
      Out.Layer.push_back(M);
  }
  Reference Ref;
  std::vector<double> Serial, Parallel;
  for (int I = 0; I != 7; ++I) {
    Serial.push_back(Ref.sampleMs());
    Parallel.push_back(Ref.sampleParMs());
  }
  Out.addLayer("baseline.apron_ref_ms", median(Serial), "ms");
  Out.addLayer("baseline.apron_ref_par_ms", median(Parallel), "ms");
  double Before = Untraced.find(W.headline())->Value;
  double After = Traced.find(W.headline())->Value;
  Out.addLayer("trace.overhead_share", Before > 0 ? After / Before - 1 : 0,
               "share");
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool SawWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--write-expected")
      return writePaperExpected(V) ? 0 : 3;
    if (A == "--workload") {
      O.Workload = V;
      SawWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace") {
      O.Trace = V == "1";
    } else {
      return usage(("unknown flag " + A).c_str());
    }
  }
  if (!SawWorkload || O.Seconds <= 0)
    return usage("--workload and a positive --seconds are required");
  std::unique_ptr<Workload> W = makeWorkload(O);
  if (!W)
    return usage(("unknown workload " + O.Workload).c_str());

  std::string Host = hostContextJson();
  std::printf("host: %s\n", Host.c_str());
  if (hostCores() < W->threads()) {
    std::fprintf(stderr,
                 "error: %s runs %u busy threads but this host has %u cores; "
                 "its numbers would not be comparable, refusing to run\n",
                 O.Workload.c_str(), W->threads(), hostCores());
    return 3;
  }

  try {
    std::filesystem::create_directories(O.OutDir);
    // Set up several times and keep the last; setup_s is the median,
    // normalised like the other times by reference runs bracketing it.
    Reference SetupRef;
    double RefBefore = SetupRef.sampleMs();
    std::vector<double> Setups;
    for (int I = 0; I != 5; ++I) {
      if (I)
        W->teardown();
      Clock::time_point T0 = Clock::now();
      W->setup();
      Setups.push_back(msSince(T0) / 1e3);
    }
    double SetupS = median(Setups) * NominalRefMs /
                    ((RefBefore + SetupRef.sampleMs()) / 2);
    WorkloadResult R;
    if (O.Trace) {
      R = tracedRun(*W, O);
    } else {
      W->measure(O.Seconds, R);
      R.add("setup_s", SetupS, "s");
      R.addAbsolute("setup_raw_s", median(Setups), "s");
    }
    W.reset(); // stops a daemon and reaps its workers
    if (!O.Trace)
      R.add("peak_rss_mb", peakRssMb(), "MB");

    for (const std::string &M : R.Mismatches)
      std::fprintf(stderr, "oracle mismatch: %s\n", M.c_str());
    std::vector<Metric> Shown;
    if (O.Trace) {
      Shown = select(R.Layer, PerLayer, std::size(PerLayer));
      std::printf("layer self time (ms):\n");
      for (const auto &[Name, Ms] : Tracer::get().selfTimesMs())
        std::printf("  %-28s %12.3f\n", Name.c_str(), Ms);
      std::string Path = O.OutDir + "/spans-" + O.Workload + "-" +
                         std::to_string(O.Seed) + ".jsonl";
      if (Tracer::get().writeJsonLines(Path))
        std::printf("spans: %zu written to %s\n", Tracer::get().size(),
                    Path.c_str());
      printTable("per-layer metrics:", Shown);
    } else {
      Shown = select(R.Metrics, EndToEnd, std::size(EndToEnd));
      printTable("end-to-end metrics:", Shown);
      printTable("absolute counterparts and counts:", R.Absolute);
      std::printf("absolute: %s\n", jsonMetrics(R.Absolute).c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                R.Correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    R.Attempted, 1)),
                static_cast<unsigned long long>(R.Failed),
                jsonMetrics(Shown).c_str());
    std::fflush(stdout);
    return R.Correct ? 0 : 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 3;
  }
}
