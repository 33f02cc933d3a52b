//===- perfbench/common.cpp - Shared benchmark machinery ------------------===//

#include "common.h"

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "cfg/cfg.h"
#include "lang/parser.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"
#include "runtime/arena.h"
#include "runtime/journal.h"
#include "server/protocol.h"
#include "support/cpuinfo.h"
#include "support/timing.h"
#include "workloads/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace optoct;

namespace perfbench {

const Metric *WorkloadResult::find(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - Lo) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / V.size());
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

// --- Reference -----------------------------------------------------------------

struct Reference::Impl {
  lang::Program Prog;
  cfg::Cfg Graph;
};

Reference::Reference() {
  const workloads::WorkloadSpec *Spec = workloads::findBenchmark("firefox");
  if (!Spec)
    throw std::runtime_error("reference row 'firefox' not found");
  std::string Error;
  auto Prog = lang::parseProgram(workloads::generateProgram(*Spec), Error);
  if (!Prog)
    throw std::runtime_error("reference row does not parse: " + Error);
  P = new Impl{std::move(*Prog), cfg::Cfg()};
  P->Graph = cfg::Cfg::build(P->Prog);
  // One untimed run pages in the code and the baseline's scratch.
  analysis::analyze<baseline::ApronOctagon>(P->Graph);
}

Reference::~Reference() { delete P; }

double Reference::sampleMs() {
  Span S("baseline.apron_ref");
  Clock::time_point T0 = Clock::now();
  auto R = analysis::analyze<baseline::ApronOctagon>(P->Graph);
  double Ms = msSince(T0);
  if (R.BlockVisits == 0)
    throw std::runtime_error("reference analysis visited no block");
  Serial.push_back(Ms);
  return Ms;
}

double Reference::sampleParMs() {
  Span S("baseline.apron_ref_par");
  Clock::time_point T0 = Clock::now();
  std::thread Other([this] { analysis::analyze<baseline::ApronOctagon>(P->Graph); });
  analysis::analyze<baseline::ApronOctagon>(P->Graph);
  Other.join();
  double Ms = msSince(T0);
  Parallel.push_back(Ms);
  return Ms;
}

// --- Tracer -------------------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> OpenStack;
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

std::int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

std::int64_t Tracer::open(const char *Name, std::uint64_t ReqId) {
  if (!enabled())
    return -1;
  SpanRec R;
  R.Name = Name;
  R.ReqId = ReqId;
  R.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  R.StartNs = nowNs();
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(R));
  std::int64_t I = static_cast<std::int64_t>(Spans.size()) - 1;
  OpenStack.push_back(I);
  return I;
}

void Tracer::close(std::int64_t Index) {
  if (Index < 0)
    return;
  std::int64_t End = nowNs();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> L(M);
  Spans[Index].EndNs = End;
}

std::int64_t Tracer::record(const char *Name, Clock::time_point Start,
                            Clock::time_point End, std::uint64_t ReqId,
                            std::int64_t Parent) {
  if (!enabled())
    return -1;
  SpanRec R;
  R.Name = Name;
  R.ReqId = ReqId;
  R.Parent = Parent;
  auto Ns = [this](Clock::time_point T) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  };
  R.StartNs = Ns(Start);
  R.EndNs = Ns(End);
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(R));
  return static_cast<std::int64_t>(Spans.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> L(M);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfTimesMs() const {
  std::lock_guard<std::mutex> L(M);
  // Children of one parent never overlap (they nest on one thread), so
  // the covered part of a parent is the sum of its children.
  std::vector<std::int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] +=
        (Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) / 1e6;
  return Self;
}

bool Tracer::writeJsonLines(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    Out << "{\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << ", \"parent\": " << S.Parent << ", \"req\": " << S.ReqId << "}\n";
  }
  return static_cast<bool>(Out);
}

// --- Layer breakdown ----------------------------------------------------------

LayerSample runLayers(const runtime::BatchJob &Job) {
  LayerSample L;
  L.SourceBytes = Job.Source.size();
  Span Whole("runtime.job_layers");
  std::string Error;
  Clock::time_point T0 = Clock::now();
  std::optional<lang::Program> Prog;
  {
    Span S("lang.parse");
    Prog = lang::parseProgram(Job.Source, Error);
  }
  Clock::time_point T1 = Clock::now();
  if (!Prog)
    throw std::runtime_error(Job.Name + ": " + Error);
  cfg::Cfg Graph;
  {
    Span S("cfg.build");
    Graph = cfg::Cfg::build(*Prog);
  }
  Clock::time_point T2 = Clock::now();
  runtime::WorkerArena &Arena = runtime::thisThreadArena();
  Arena.reserve(runtime::BatchOptions().ReserveVars);
  runtime::JobScope Scope(Arena);
  std::uint64_t C0 = readCycles();
  Clock::time_point T3 = Clock::now();
  analysis::AnalysisResult<Octagon> R;
  {
    Span S("analysis.fixpoint");
    R = analysis::analyze<Octagon>(Graph);
  }
  Clock::time_point T4 = Clock::now();
  L.AnalyzeCycles = readCycles() - C0;
  {
    Span S("oct.render");
    for (unsigned B : Graph.rpo()) {
      const cfg::BasicBlock &Block = Graph.block(B);
      if (Block.IsLoopHead && R.BlockInvariant[B])
        L.RenderBytes += R.BlockInvariant[B]->str(&Block.SlotNames).size();
    }
  }
  Clock::time_point T5 = Clock::now();
  L.ParseMs = msBetween(T0, T1);
  L.CfgMs = msBetween(T1, T2);
  L.FixpointMs = msBetween(T3, T4);
  L.RenderMs = msBetween(T4, T5);
  L.Blocks = Graph.size();
  L.BlockVisits = R.BlockVisits;
  L.OctagonCycles = R.OctagonCycles;
  L.Closures = Scope.stats().numClosures();
  L.ClosureCycles = Scope.stats().closureCycles();
  L.NMax = Scope.stats().maxVars();
  return L;
}

void addLayerMetrics(const std::vector<runtime::BatchJob> &Jobs, unsigned Reps,
                     WorkloadResult &Out) {
  double Parse = 0, Cfg = 0, Fix = 0, Render = 0, Layers = 0, RunJob = 0;
  double Bytes = 0, Blocks = 0, Visits = 0, Closures = 0, RenderBytes = 0;
  double OctCyc = 0, CloCyc = 0, AnCyc = 0;
  unsigned NMax = 0;
  std::vector<double> RunJobMs;
  for (const runtime::BatchJob &Job : Jobs) {
    std::vector<double> P, C, F, R, L, J;
    LayerSample Last;
    for (unsigned I = 0; I != Reps; ++I) {
      {
        Span S("runtime.runJob");
        Clock::time_point T0 = Clock::now();
        runtime::runJob(Job);
        J.push_back(msSince(T0));
      }
      Last = runLayers(Job);
      P.push_back(Last.ParseMs);
      C.push_back(Last.CfgMs);
      F.push_back(Last.FixpointMs);
      R.push_back(Last.RenderMs);
      L.push_back(Last.layersMs());
    }
    Parse += median(P);
    Cfg += median(C);
    Fix += median(F);
    Render += median(R);
    Layers += median(L);
    RunJob += median(J);
    RunJobMs.push_back(median(J));
    Bytes += Last.SourceBytes;
    Blocks += Last.Blocks;
    Visits += Last.BlockVisits;
    Closures += Last.Closures;
    RenderBytes += Last.RenderBytes;
    OctCyc += Last.OctagonCycles;
    CloCyc += Last.ClosureCycles;
    AnCyc += Last.AnalyzeCycles;
    NMax = std::max(NMax, Last.NMax);
  }
  Out.addLayer("lang.parse_ms", Parse, "ms");
  Out.addLayer("lang.parse_mb_s", Parse > 0 ? Bytes / 1e6 / (Parse / 1e3) : 0,
          "MB/s");
  Out.addLayer("cfg.build_ms", Cfg, "ms");
  Out.addLayer("cfg.blocks", Blocks, "count");
  Out.addLayer("analysis.fixpoint_ms", Fix, "ms");
  Out.addLayer("analysis.block_visits", Visits, "count");
  Out.addLayer("oct.op_share", AnCyc > 0 ? OctCyc / AnCyc : 0, "share");
  Out.addLayer("oct.closures", Closures, "count");
  Out.addLayer("oct.closure_cycle_share", AnCyc > 0 ? CloCyc / AnCyc : 0, "share");
  Out.addLayer("oct.nmax", NMax, "count");
  Out.addLayer("oct.render_ms", Render, "ms");
  Out.addLayer("oct.render_bytes", RenderBytes, "bytes");
  Out.addLayer("runtime.runjob_geomean_ms", geomean(RunJobMs), "ms");
  Out.addLayer("runtime.job_overhead_share", RunJob > 0 ? 1 - Layers / RunJob : 0,
          "share");
}

// --- Host -------------------------------------------------------------------

unsigned hostCores() {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

double peakRssMb() {
  struct rusage Self {}, Children {};
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Children);
  return (Self.ru_maxrss + Children.ru_maxrss) / 1024.0;
}

std::string hostContextJson() {
  std::string Ctx = support::benchContextJson(simdTierName(activeSimdTier()));
  std::size_t Break = Ctx.find(",\n  ");
  if (Break != std::string::npos)
    Ctx.replace(Break, 4, ", ");
  return "{\"nproc\": " + std::to_string(hostCores()) + ", " + Ctx + "}";
}

std::string expectedRecord(const runtime::BatchJob &Job) {
  runtime::JobResult R = runtime::runJob(Job);
  server::canonicalizeResult(R);
  return runtime::serializeJobResult(R);
}

} // namespace perfbench
