//===- perfbench/daemon_edit.cpp - An edit stream against the daemon ------===//
///
/// \file
/// daemon-edit: an in-process server::Server on a Unix socket with two
/// forked workers and an in-memory cache, driven over two pipelined
/// connections of raw runtime/ipc frames from one client thread that
/// sends on schedule and reads replies as they arrive (ppoll).
///
/// The run is a series of segments, each bracketed by APRON reference
/// runs taken while the daemon is idle. A segment is a capacity burst
/// (BurstRequests requests, at most Window in flight per connection),
/// then SegmentSeconds of open-loop traffic at a fixed Rate. The seeded
/// stream mixes ~70% repeats of a working set that fits the cache
/// (hits), ~25% fresh small programs (misses: parse, fixpoint, render
/// in a worker) and ~5% same-key bursts of four (coalescing). Open-loop
/// requests are timed from their due time, so a stall also delays the
/// requests queued behind it.
///
/// Oracle: every reply's ResultRecord must be byte-identical to
/// runJob + canonicalizeResult + serializeJobResult of its program, run
/// in this process after the timed window.
///
//===----------------------------------------------------------------------===//

#include "common.h"

#include "runtime/ipc.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads/workload.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace optoct;

namespace perfbench {
namespace {

constexpr unsigned Workers = 2;
constexpr unsigned Connections = 2;
constexpr unsigned WorkingSet = 48;
constexpr unsigned BurstCopies = 4;
/// Open-loop arrival rate: about a fifth of the capacity the burst
/// measures on a 4-core x86 host. At half, the segments a host
/// disturbance hit overloaded the daemon and requests were shed.
constexpr double Rate = 2000;
constexpr double SegmentSeconds = 1.0;
constexpr unsigned BurstRequests = 1000;
constexpr unsigned Window = 16;
/// Interactive limit on one reply (slo_met_share), in raw ms like the
/// tail it bounds.
constexpr double SloReplyMs = 10;
/// A phase that makes no progress for this long counts as stalled.
constexpr double DrainMs = 10'000;

/// A small program of the shape an editor buffer has: two variable
/// groups, three loop phases. Different seeds are different edits.
runtime::BatchJob editProgram(const std::string &Name, std::uint64_t Seed) {
  workloads::WorkloadSpec S;
  S.Name = Name;
  S.Groups = 2;
  S.GroupSize = 3;
  S.ScopeVars = 2;
  S.Phases = 3;
  S.StmtsPerLoop = 3;
  S.Seed = static_cast<unsigned>(Seed & 0x7fffffff);
  return {Name, workloads::generateProgram(S)};
}

struct Request {
  std::uint32_t Program = 0;
  std::uint32_t Segment = 0;
  bool OpenLoop = false;
  Clock::duration Offset{}; ///< Open loop: due time from segment start.
  Clock::time_point Due, Sent, Done;
  double EncodeUs = 0, DecodeUs = 0;
  bool Answered = false, Ok = false, Cached = false;
};

/// One pipelined client connection (nonblocking after the handshake).
struct Conn {
  int Fd = -1;
  runtime::ipc::FrameReader Reader;
  std::string Out;        ///< Frames not yet written.
  std::size_t OutPos = 0; ///< Written prefix of Out.
  std::size_t InFlight = 0;
};

int connectRaw(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    throw std::runtime_error("socket() failed");
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    throw std::runtime_error("cannot connect to " + Path);
  }
  runtime::ipc::MsgType Type;
  std::string Body;
  std::uint32_t Version = 0;
  if (!runtime::ipc::writeFrame(Fd, runtime::ipc::MsgType::Hello,
                                server::encodeHello(server::ProtocolVersion)) ||
      runtime::ipc::readFrame(Fd, Type, Body) != runtime::ipc::ReadStatus::Ok ||
      Type != runtime::ipc::MsgType::Hello ||
      !server::decodeHello(Body, Version) ||
      Version != server::ProtocolVersion) {
    ::close(Fd);
    throw std::runtime_error("daemon handshake failed");
  }
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

class DaemonEdit : public Workload {
public:
  explicit DaemonEdit(const Options &O) : Opts(O) {}
  ~DaemonEdit() override { teardown(); }

  // The event loop, two workers and the client are busy at once.
  unsigned threads() const override { return Workers + 2; }
  const char *headline() const override { return "req_p50_ms"; }

  std::vector<runtime::BatchJob> programs() const override {
    // The working set plus the first fresh edits: what workers analyze.
    std::size_t N = std::min<std::size_t>(Programs.size(), 2 * WorkingSet);
    return {Programs.begin(), Programs.begin() + N};
  }

  void teardown() override {
    closeConnections();
    Stats.close();
    if (Daemon) {
      Daemon->requestStop();
      if (ServerThread.joinable())
        ServerThread.join();
      std::string Path = Daemon->options().SocketPath;
      Daemon.reset();
      ::unlink(Path.c_str());
    }
  }

  void setup() override {
    teardown();
    Programs.clear();
    Fresh = 0;
    for (unsigned I = 0; I != WorkingSet; ++I)
      Programs.push_back(
          editProgram("ws" + std::to_string(I), mixSeed(Opts.Seed, 1000 + I)));
    Ref = std::make_unique<Reference>();

    server::ServerOptions SO;
    SO.SocketPath = Opts.OutDir + "/daemon-" + std::to_string(::getpid()) +
                    ".sock";
    SO.Workers = Workers;
    Daemon = std::make_unique<server::Server>(SO);
    std::string Error;
    if (!Daemon->start(Error))
      throw std::runtime_error("daemon start: " + Error);
    ServerThread = std::thread([this] { Daemon->serve(); });
    for (Conn &C : Conns)
      C.Fd = connectRaw(SO.SocketPath);
    if (!Stats.connect(SO.SocketPath, Error))
      throw std::runtime_error("stats connection: " + Error);
    // Fill the cache with the working set, as an editor session would.
    for (unsigned I = 0; I != WorkingSet; ++I) {
      server::AnalyzeResponse R;
      if (!Stats.analyze(Programs[I].Name, Programs[I].Source, R, Error) ||
          !R.Ok)
        throw std::runtime_error("warming the cache: " + Error + R.Error);
    }
  }

  void measure(double Seconds, WorkloadResult &Out) override {
    unsigned Segments =
        std::max(1u, static_cast<unsigned>(Seconds / (SegmentSeconds + 0.15)));
    std::vector<std::vector<std::size_t>> Bursts, Streams;
    std::vector<Request> Reqs = schedule(Segments, Bursts, Streams);

    server::DaemonStats Before, After;
    std::string Error;
    if (!Stats.queryStats(Before, Error))
      throw std::runtime_error("stats: " + Error);

    std::vector<std::string> FirstRecord(Programs.size());
    std::vector<std::string> Mismatch;
    std::size_t Sent = 0, Answered = 0;
    bool Broken = false;

    auto flush = [&](Conn &C) {
      while (C.OutPos < C.Out.size()) {
        ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos,
                           C.Out.size() - C.OutPos, MSG_NOSIGNAL);
        if (N > 0) {
          C.OutPos += N;
        } else if (N < 0 && errno == EINTR) {
          continue;
        } else {
          Broken = Broken || !(N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
          return;
        }
      }
      C.Out.clear();
      C.OutPos = 0;
    };
    auto send = [&](std::size_t I, Conn &C) {
      Request &R = Reqs[I];
      server::AnalyzeRequest AR;
      AR.Id = I + 1;
      AR.Job = Programs[R.Program];
      Clock::time_point T0 = Clock::now();
      std::string Body = server::encodeAnalyzeRequest(AR);
      R.Sent = Clock::now();
      R.EncodeUs = msBetween(T0, R.Sent) * 1e3;
      if (!R.OpenLoop)
        R.Due = R.Sent;
      C.Out += runtime::ipc::frameBytes(runtime::ipc::MsgType::Request, Body);
      ++C.InFlight;
      ++Sent;
      flush(C);
    };
    auto onReply = [&](Conn &C, const std::string &Body, Clock::time_point At) {
      Clock::time_point T0 = Clock::now();
      server::AnalyzeResponse Resp;
      std::string Err;
      if (!server::decodeAnalyzeResponse(Body, Resp, Err) || Resp.Id == 0 ||
          Resp.Id > Reqs.size() || Reqs[Resp.Id - 1].Answered) {
        Broken = true;
        return;
      }
      Request &R = Reqs[Resp.Id - 1];
      R.DecodeUs = msSince(T0) * 1e3;
      R.Done = At;
      R.Answered = true;
      R.Ok = Resp.Ok;
      R.Cached = Resp.Cached;
      --C.InFlight;
      ++Answered;
      if (!Resp.Ok)
        return;
      std::string &First = FirstRecord[R.Program];
      if (First.empty()) {
        First = std::move(Resp.ResultRecord);
      } else if (First != Resp.ResultRecord) {
        R.Ok = false;
        Mismatch.push_back(Programs[R.Program].Name +
                           ": replies differ between requests");
      }
    };
    auto receive = [&](Conn &C) {
      char Buf[1 << 16];
      for (;;) {
        ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0) {
          Broken = Broken || N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        Clock::time_point At = Clock::now();
        C.Reader.feed(Buf, static_cast<std::size_t>(N));
        runtime::ipc::MsgType Type;
        std::string Body;
        while (C.Reader.next(Type, Body))
          if (Type == runtime::ipc::MsgType::Response)
            onReply(C, Body, At);
        Broken = Broken || C.Reader.corrupt();
      }
    };
    // Waits for socket activity until \p Until at the latest.
    auto pump = [&](Clock::time_point Until) {
      pollfd P[Connections];
      for (unsigned C = 0; C != Connections; ++C)
        P[C] = {Conns[C].Fd,
                static_cast<short>(POLLIN | (Conns[C].Out.empty() ? 0 : POLLOUT)),
                0};
      auto Ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Until - Clock::now())
                 .count());
      timespec Ts{static_cast<time_t>(Ns / 1'000'000'000),
                  static_cast<long>(Ns % 1'000'000'000)};
      if (::ppoll(P, Connections, &Ts, nullptr) <= 0)
        return;
      for (unsigned C = 0; C != Connections; ++C) {
        if (P[C].revents & POLLOUT)
          flush(Conns[C]);
        if (P[C].revents & (POLLIN | POLLHUP | POLLERR))
          receive(Conns[C]);
      }
    };
    auto stalled = [&](Clock::time_point Since) {
      Broken = Broken || msSince(Since) > DrainMs;
      return Broken;
    };
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    // Reference runs bracket every segment; a segment's yardstick is the
    // mean of the runs before and after it.
    std::vector<double> BurstMs, RefRuns{Ref->sampleMs()};
    for (unsigned S = 0; S != Segments && !Broken; ++S) {
      // Capacity burst: closed loop, Window requests per connection.
      Clock::time_point B0 = Clock::now();
      for (std::size_t K = 0;
           (K != Bursts[S].size() || Answered != Sent) && !stalled(B0);) {
        Conn &C = Conns[K % Connections];
        if (K != Bursts[S].size() && C.InFlight < Window)
          send(Bursts[S][K++], C);
        else
          pump(Clock::now() + std::chrono::milliseconds(100));
      }
      BurstMs.push_back(msSince(B0));
      // Open loop: every request has a fixed due time.
      Clock::time_point Base = Clock::now() + std::chrono::milliseconds(1);
      for (std::size_t K : Streams[S])
        Reqs[K].Due = Base + Reqs[K].Offset;
      for (std::size_t K = 0;
           (K != Streams[S].size() || Answered != Sent) && !stalled(Base);) {
        Clock::time_point Now = Clock::now();
        while (K != Streams[S].size() && Reqs[Streams[S][K]].Due <= Now) {
          send(Streams[S][K], Conns[K % Connections]);
          ++K;
        }
        pump(K != Streams[S].size() ? Reqs[Streams[S][K]].Due
                                    : Now + std::chrono::milliseconds(100));
      }
      RefRuns.push_back(Ref->sampleMs());
    }
    std::vector<double> SegmentRefs, BurstRel;
    for (std::size_t S = 0; S + 1 < RefRuns.size(); ++S) {
      SegmentRefs.push_back((RefRuns[S] + RefRuns[S + 1]) / 2);
      BurstRel.push_back(BurstMs[S] / SegmentRefs[S]);
    }
    if (!Stats.queryStats(After, Error))
      throw std::runtime_error("stats: " + Error);
    if (Broken)
      Out.mismatch("daemon stream stalled or its connection broke");

    // Oracle: byte-identical to the in-process pipeline, computed on
    // every core once the stream has ended.
    std::vector<char> Differs(Programs.size(), 0);
    std::vector<std::thread> Checkers;
    const unsigned NumCheckers = hostCores();
    for (unsigned T = 0; T != NumCheckers; ++T)
      Checkers.emplace_back([&, T] {
        for (std::size_t P = T; P < Programs.size(); P += NumCheckers)
          Differs[P] = !FirstRecord[P].empty() &&
                       FirstRecord[P] != expectedRecord(Programs[P]);
      });
    for (std::thread &T : Checkers)
      T.join();
    for (std::size_t P = 0; P != Programs.size(); ++P)
      if (Differs[P])
        Mismatch.push_back(Programs[P].Name +
                           ": reply differs from in-process runJob");
    for (const std::string &What : Mismatch)
      Out.mismatch(What);

    report(Reqs, SegmentRefs, BurstMs, BurstRel, Before, After, Out);
  }

private:
  void closeConnections() {
    for (Conn &C : Conns)
      if (C.Fd >= 0) {
        ::close(C.Fd);
        C = Conn();
      }
  }

  /// Builds every request of the run and the programs it names.
  std::vector<Request> schedule(unsigned Segments,
                                std::vector<std::vector<std::size_t>> &Bursts,
                                std::vector<std::vector<std::size_t>> &Streams) {
    std::mt19937_64 Rng(mixSeed(Opts.Seed, 3));
    std::uniform_real_distribution<double> U(0, 1);
    std::vector<Request> Reqs;
    auto freshProgram = [&](const char *Prefix) {
      Programs.push_back(editProgram(Prefix + std::to_string(Fresh),
                                     mixSeed(Opts.Seed, 1'000'000 + Fresh)));
      ++Fresh;
      return static_cast<std::uint32_t>(Programs.size() - 1);
    };
    // One event: a repeat (70), a fresh edit (25) or a same-key burst of
    // four (5 requests' worth, so 1.25 events).
    auto event = [&](unsigned Seg, bool Open, Clock::duration Offset,
                     std::vector<std::size_t> &Into) {
      double X = U(Rng) * 96.25;
      Request R;
      R.Segment = Seg;
      R.OpenLoop = Open;
      R.Offset = Offset;
      if (X < 70) {
        R.Program = static_cast<std::uint32_t>(Rng() % WorkingSet);
      } else if (X < 95) {
        R.Program = freshProgram("edit");
      } else {
        R.Program = freshProgram("burst");
        for (unsigned I = 1; I != BurstCopies; ++I) {
          Into.push_back(Reqs.size());
          Reqs.push_back(R);
        }
      }
      Into.push_back(Reqs.size());
      Reqs.push_back(R);
    };
    Bursts.assign(Segments, {});
    Streams.assign(Segments, {});
    const std::size_t PerSegment =
        static_cast<std::size_t>(Rate * SegmentSeconds);
    for (unsigned S = 0; S != Segments; ++S) {
      while (Bursts[S].size() < BurstRequests)
        event(S, false, Clock::duration::zero(), Bursts[S]);
      for (std::size_t K = 0; K != PerSegment; ++K)
        event(S, true,
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(K / Rate)),
              Streams[S]);
    }
    return Reqs;
  }

  /// Latency statistics are taken per segment and their median over
  /// segments is reported, so that a host disturbance confined to a few
  /// segments does not decide the run's tail.
  void report(const std::vector<Request> &Reqs,
              const std::vector<double> &SegmentRefs,
              const std::vector<double> &BurstMs,
              const std::vector<double> &BurstRel,
              const server::DaemonStats &Before,
              const server::DaemonStats &After, WorkloadResult &Out) {
    const std::size_t Segments = SegmentRefs.size();
    std::vector<std::vector<double>> Norm(Segments), Raw(Segments),
        Rel(Segments);
    std::vector<double> Hit, Miss, Codec, Late;
    std::size_t Open = 0, SloMet = 0, Failed = 0;
    for (const Request &R : Reqs) {
      bool Good = R.Answered && R.Ok;
      Failed += !Good;
      if (R.Answered)
        Codec.push_back(R.EncodeUs + R.DecodeUs);
      if (!R.OpenLoop)
        continue;
      ++Open;
      if (!Good || R.Segment >= Segments)
        continue;
      Late.push_back(msBetween(R.Due, R.Sent));
      double Ms = msBetween(R.Due, R.Done);
      double X = Ms / SegmentRefs[R.Segment];
      Norm[R.Segment].push_back(X * NominalRefMs);
      Raw[R.Segment].push_back(Ms);
      Rel[R.Segment].push_back(X);
      SloMet += Ms <= SloReplyMs;
      (R.Cached ? Hit : Miss).push_back(Ms);
    }
    // Per-segment statistic, then the median over segments.
    auto perSegment = [&](const std::vector<std::vector<double>> &V,
                          auto Stat) {
      std::vector<double> PerSeg;
      for (const std::vector<double> &Seg : V)
        if (!Seg.empty())
          PerSeg.push_back(Stat(Seg));
      return median(PerSeg);
    };
    auto P50 = [](const std::vector<double> &V) { return median(V); };
    auto P99 = [](const std::vector<double> &V) { return quantile(V, 0.99); };
    auto Geo = [](const std::vector<double> &V) { return geomean(V); };
    auto Sum = [](const std::vector<double> &V) { return sum(V); };
    std::size_t Answered = 0;
    for (const std::vector<double> &Seg : Norm)
      Answered += Seg.size();

    Out.Attempted += Reqs.size();
    Out.Failed += Failed;
    double Served =
        Reqs.empty() ? 0 : double(Reqs.size() - Failed) / Reqs.size();
    Out.add("verdict_rel_geomean", perSegment(Rel, Geo), "ratio");
    Out.add("suite_rel", perSegment(Rel, Sum), "ratio");
    Out.add("makespan_rel", median(BurstRel), "ratio");
    Out.add("req_p50_ms", perSegment(Norm, P50), "ms");
    // The tail is wake-up and scheduling delay more than CPU work; the
    // CPU-bound reference does not track it (normalising widened its
    // run-to-run spread from 15% to 18%), so it is reported raw.
    Out.add("req_p99_ms", perSegment(Raw, P99), "ms");
    Out.add("slo_met_share", Open ? double(SloMet) / Open : 0, "share");
    Out.add("throughput_rps",
            BurstRequests / (median(BurstRel) * NominalRefMs / 1e3), "1/s");
    Out.add("served_share", Served, "share");
    Out.addAbsolute("verdict_geomean_ms", perSegment(Raw, Geo), "ms");
    Out.addAbsolute("suite_ms", perSegment(Raw, Sum), "ms");
    Out.addAbsolute("makespan_ms", median(BurstMs), "ms");
    Out.addAbsolute("req_p50_raw_ms", perSegment(Raw, P50), "ms");
    Out.addAbsolute("req_p99_norm_ms", perSegment(Norm, P99), "ms");
    Out.addAbsolute("throughput_raw_rps",
                    BurstRequests / (median(BurstMs) / 1e3), "1/s");
    Out.addAbsolute("open_loop_samples", Answered, "count");
    Out.addAbsolute("samples_per_segment", double(Answered) / Segments,
                    "count");
    Out.addAbsolute("apron_ref_ms", median(SegmentRefs), "ms");
    std::uint64_t Hits = After.CacheHits - Before.CacheHits;
    std::uint64_t Misses = After.CacheMisses - Before.CacheMisses;
    Out.addLayer("server.hit_p50_ms", median(Hit), "ms");
    Out.addLayer("server.miss_p50_ms", median(Miss), "ms");
    Out.addLayer("server.cache_hit_ratio",
                 Hits + Misses ? double(Hits) / (Hits + Misses) : 0, "share");
    Out.addLayer("server.coalesced_replies",
                 After.CoalescedReplies - Before.CoalescedReplies, "count");
    Out.addLayer("server.shed",
                 (After.ShedQueueFull - Before.ShedQueueFull) +
                     (After.ShedClientCap - Before.ShedClientCap),
                 "count");
    Out.addLayer("server.queue_peak", After.QueuePeak, "count");
    Out.addLayer("server.codec_us", median(Codec), "us");
    Out.addLayer("server.gen_late_ms", quantile(Late, 0.99), "ms");

    Tracer &T = Tracer::get();
    if (T.enabled())
      for (std::size_t I = 0; I != Reqs.size(); ++I) {
        const Request &R = Reqs[I];
        if (!R.Answered)
          continue;
        std::int64_t P = T.record("server.request", R.Due, R.Done, I + 1);
        auto Us = [](double X) {
          return std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::micro>(X));
        };
        T.record("server.client_encode", R.Sent - Us(R.EncodeUs), R.Sent, I + 1,
                 P);
        T.record("server.client_decode", R.Done, R.Done + Us(R.DecodeUs), I + 1,
                 -1);
      }
  }

  Options Opts;
  std::vector<runtime::BatchJob> Programs;
  unsigned Fresh = 0; ///< Fresh programs generated since setup().
  std::unique_ptr<Reference> Ref;
  std::unique_ptr<server::Server> Daemon;
  std::thread ServerThread;
  Conn Conns[Connections];
  server::DaemonClient Stats; ///< Warm-up and counters, never timed.
};

} // namespace

std::unique_ptr<Workload> makeDaemonEdit(const Options &O) {
  return std::make_unique<DaemonEdit>(O);
}

} // namespace perfbench
