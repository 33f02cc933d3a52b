//===- perfbench/common.h - Shared benchmark machinery ----------*- C++ -*-===//
///
/// \file
/// Pieces every perfbench workload shares: the command line, the
/// interleaved APRON reference that time-to-verdict ratios are taken
/// against, an in-memory span recorder for the traced run, the
/// decomposed runJob that times each layer's public entry point, small
/// order statistics, and the result line the benchmark ends with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "runtime/batch.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) { return msBetween(A, Clock::now()); }

/// Parsed command line (see run.py for the user-facing description).
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Span dumps and the daemon's socket, under the checkout root.
  std::string OutDir = ".bench_out";
};

/// One reported number.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main().
struct WorkloadResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Absolute counterparts of the *_rel metrics (printed on their own
  /// line so the steadiness mode can compare spreads).
  std::vector<Metric> Absolute;
  /// Metrics of single layers the workload's own loop observes; the
  /// traced run reports them.
  std::vector<Metric> Layer;
  std::vector<std::string> Mismatches; ///< Oracle failures, for stderr.

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void addAbsolute(const std::string &Name, double Value,
                   const std::string &Unit) {
    Absolute.push_back({Name, Value, Unit});
  }
  void addLayer(const std::string &Name, double Value,
                const std::string &Unit) {
    Layer.push_back({Name, Value, Unit});
  }
  const Metric *find(const std::string &Name) const;
  void mismatch(const std::string &What) {
    Correct = false;
    if (Mismatches.size() < 20)
      Mismatches.push_back(What);
  }
};

// --- Order statistics --------------------------------------------------------

double median(std::vector<double> V);
/// Linear-interpolated quantile, 0 <= Q <= 1.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
double sum(const std::vector<double> &V);

// --- APRON reference -----------------------------------------------------------

/// The drift-cancelling yardstick: the APRON-style baseline analysis of
/// one fixed Table-2 row (firefox), timed in the same process right
/// after each timed sample. Serial samples run it on the calling
/// thread; parallel samples run one copy on each of two threads at once,
/// matching a 2-worker batch.
class Reference {
public:
  Reference();
  ~Reference();
  Reference(const Reference &) = delete;
  Reference &operator=(const Reference &) = delete;

  double sampleMs();
  double sampleParMs();

  const std::vector<double> &serialSamples() const { return Serial; }
  const std::vector<double> &parallelSamples() const { return Parallel; }

private:
  struct Impl;
  Impl *P;
  std::vector<double> Serial, Parallel;
};

// --- Spans ------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest per thread;
/// a span may also be recorded whole (start and end taken on different
/// threads, as for a pipelined daemon request).
class Tracer {
public:
  struct SpanRec {
    std::string Name;
    std::int64_t StartNs = 0, EndNs = 0;
    std::int64_t Parent = -1; ///< Index into spans(), -1 = root.
    std::uint64_t ReqId = 0;
  };

  static Tracer &get();

  bool enabled() const { return On.load(std::memory_order_relaxed); }
  void setEnabled(bool E) { On.store(E, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index (-1 if off).
  std::int64_t open(const char *Name, std::uint64_t ReqId = 0);
  void close(std::int64_t Index);
  /// Records a finished span; returns its index (-1 if off).
  std::int64_t record(const char *Name, Clock::time_point Start,
                      Clock::time_point End, std::uint64_t ReqId,
                      std::int64_t Parent = -1);

  /// Self time per span name in ms: each span's duration minus the part
  /// of it its children cover.
  std::map<std::string, double> selfTimesMs() const;
  /// Writes every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path) const;
  std::size_t size() const;

private:
  std::int64_t nowNs() const;
  std::atomic<bool> On{false};
  mutable std::mutex M;
  std::vector<SpanRec> Spans;
  Clock::time_point Epoch = Clock::now();
};

/// RAII span on the global tracer.
class Span {
public:
  explicit Span(const char *Name, std::uint64_t ReqId = 0)
      : Index(Tracer::get().open(Name, ReqId)) {}
  ~Span() { Tracer::get().close(Index); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::int64_t Index;
};

// --- Layer breakdown ----------------------------------------------------------

/// One program run through runJob's steps one public entry point at a
/// time: lang::parseProgram, cfg::Cfg::build, analysis::analyze under a
/// worker arena's stats sink, Octagon::str at every loop head.
struct LayerSample {
  double ParseMs = 0, CfgMs = 0, FixpointMs = 0, RenderMs = 0;
  std::uint64_t SourceBytes = 0, Blocks = 0, BlockVisits = 0;
  std::uint64_t Closures = 0, ClosureCycles = 0, OctagonCycles = 0;
  std::uint64_t AnalyzeCycles = 0, RenderBytes = 0;
  unsigned NMax = 0;
  double layersMs() const { return ParseMs + CfgMs + FixpointMs + RenderMs; }
};
LayerSample runLayers(const optoct::runtime::BatchJob &Job);

/// Per-layer metrics from a set of programs, each measured by
/// alternating runJob with the decomposed run \p Reps times (medians
/// per program, then summed over programs).
void addLayerMetrics(const std::vector<optoct::runtime::BatchJob> &Jobs,
                     unsigned Reps, WorkloadResult &Out);

// --- Host -------------------------------------------------------------------

unsigned hostCores();
/// Peak resident set of this process plus its largest reaped child, MB.
double peakRssMb();
/// One-line JSON of the host context every result is stamped with.
std::string hostContextJson();

/// splitmix64: derives independent sub-seeds from the run's --seed.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt);

/// Canonical daemon record for \p Job computed in process: runJob,
/// canonicalizeResult, serializeJobResult.
std::string expectedRecord(const optoct::runtime::BatchJob &Job);

// --- Workloads ----------------------------------------------------------------

/// One benchmark workload. main() calls setup() several times (the
/// median is setup_s; the last call's state is kept), then measure().
class Workload {
public:
  virtual ~Workload() = default;
  /// Busy threads the workload runs at once; main() refuses to run on a
  /// host with fewer cores.
  virtual unsigned threads() const = 0;
  virtual void setup() = 0;
  /// Releases what setup() acquired (untimed; setup() may follow).
  virtual void teardown() {}
  /// Runs the workload for about \p Seconds and fills the end-to-end
  /// metrics, the oracle verdict and the workload's own layer metrics.
  virtual void measure(double Seconds, WorkloadResult &Out) = 0;
  /// The programs the workload analyzes, for the traced layer breakdown.
  virtual std::vector<optoct::runtime::BatchJob> programs() const = 0;
  /// End-to-end metric the traced run compares against an untraced run.
  virtual const char *headline() const = 0;
};

std::unique_ptr<Workload> makePaperSerial(const Options &O);
std::unique_ptr<Workload> makeBatchMixed(const Options &O);
std::unique_ptr<Workload> makeDaemonEdit(const Options &O);

/// The reference run's time in the fast state of the 4-core x86 host
/// the benchmark was built on. Latency and throughput metrics are
/// reported for a host on which one reference run takes this long:
/// measured ms * NominalRefMs / adjacent reference ms. The raw values
/// are on the "absolute:" line.
constexpr double NominalRefMs = 40;
/// The same for the 2-thread reference (batch-mixed).
constexpr double NominalParRefMs = 45;

/// Interactive limit on one analysis verdict (slo_met_share of
/// paper-serial and batch-mixed), in normalised ms.
constexpr double SloAnalysisMs = 500;

/// runtime.batch_* layer metrics from \p Runs 2-worker thread-mode
/// batches of \p Jobs.
void addBatchLayerMetrics(const std::vector<optoct::runtime::BatchJob> &Jobs,
                          unsigned Runs, WorkloadResult &Out);

/// Writes the APRON-baseline verdicts of the paper rows (the oracle
/// file paper-serial checks against).
bool writePaperExpected(const std::string &Path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
