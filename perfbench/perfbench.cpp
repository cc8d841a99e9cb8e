//===- perfbench/perfbench.cpp - region-checkpoint pipeline benchmark -----===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the paper's pipeline (SimPoint selection -> pinball capture ->
/// ELFie emission -> native run / replay / simulation) through the public
/// entry points of each module and measures it from the outside.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --work <dir> [--trace-out <file>]
///
/// The parent process stays small: it forks one child per set-up and one
/// per repetition of the flow, times each child and reads its resource
/// usage from wait4 (CPU time includes the native ELFies the child runs;
/// peak RSS is the child's). Children write their check outcomes, values
/// and (when traced) spans to <rep>/result.txt. With --trace 1 the
/// repetitions alternate untraced/traced and the spans of the traced ones
/// are written once, at the end, as a Chrome trace-event file. The last
/// line of stdout is a JSON summary that perfbench/run.py turns into the
/// benchmark's metrics.
///
/// Workloads (see perfbench/README.md for why each was chosen):
///   checkpoint-mcf  producer flow on mcf_like train
///   evaluate-gcc    consumer flow over gcc_like train's regions
///   pipeline-mt     producer + consumer on 8-thread nab_s_like train
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"

#include "analyze/Analysis.h"
#include "analyze/Passes.h"
#include "core/Pinball2Elf.h"
#include "elf/ELFReader.h"
#include "pinball/Logger.h"
#include "pinball/Pinball.h"
#include "replay/Replayer.h"
#include "sim/Config.h"
#include "sim/Frontend.h"
#include "simpoint/BBV.h"
#include "simpoint/PinPoints.h"
#include "store/Artifact.h"
#include "store/ChunkStore.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/MappedFile.h"
#include "support/RNG.h"
#include "support/Sha256.h"
#include "sysstate/SysState.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace elfie;

namespace {

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of this process (children excluded), in seconds.
double cpuSec() {
  struct timespec TS;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + static_cast<double>(TS.tv_nsec) / 1e9;
}

//===----------------------------------------------------------------------===//
// Tracing: spans around every call into a layer, kept in memory.
//===----------------------------------------------------------------------===//

struct SpanRecord {
  std::string Name; ///< "<module>.<op>"
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< enclosing span (0 = none)
  int64_t Region = -1; ///< shared id of the region being processed
  double Start = 0, Dur = 0;
  std::vector<std::pair<std::string, double>> Args;
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On), Base(nowSec()) {}
  bool on() const { return On; }

  uint32_t begin(const char *Name, int64_t Region, double Now) {
    if (!On)
      return 0;
    SpanRecord S;
    S.Name = Name;
    S.Id = static_cast<uint32_t>(Spans.size() + 1);
    S.Parent = Stack.empty() ? 0 : Stack.back();
    S.Region = Region;
    S.Start = Now - Base;
    Spans.push_back(std::move(S));
    Stack.push_back(Spans.back().Id);
    return Spans.back().Id;
  }
  void end(uint32_t Id, double Now) {
    if (!On || !Id)
      return;
    Spans[Id - 1].Dur = Now - Base - Spans[Id - 1].Start;
    if (!Stack.empty() && Stack.back() == Id)
      Stack.pop_back();
  }
  void arg(uint32_t Id, const char *Key, double V) {
    if (On && Id)
      Spans[Id - 1].Args.emplace_back(Key, V);
  }
  const std::vector<SpanRecord> &spans() const { return Spans; }

private:
  bool On;
  double Base;
  std::vector<SpanRecord> Spans;
  std::vector<uint32_t> Stack;
};

/// Times one call into a layer. The clock is read even with tracing off
/// (the flow needs a few durations for its own values); only the record
/// is skipped. Traced spans also carry the process CPU time they used
/// ("cpu_s"), so time spent waiting (fsync, child processes) shows as
/// the difference.
class Span {
public:
  Span(Tracer &T, const char *Name, int64_t Region = -1)
      : T(T), Start(nowSec()), Cpu(T.on() ? cpuSec() : 0),
        Id(T.begin(Name, Region, Start)) {}
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void arg(const char *Key, double V) { T.arg(Id, Key, V); }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double close() {
    if (!Closed) {
      End = nowSec();
      if (T.on())
        T.arg(Id, "cpu_s", cpuSec() - Cpu);
      T.end(Id, End);
      Closed = true;
    }
    return End - Start;
  }

private:
  Tracer &T;
  double Start;
  double Cpu;
  double End = 0;
  uint32_t Id;
  bool Closed = false;
};

//===----------------------------------------------------------------------===//
// Per-child results: checks, values, spans.
//===----------------------------------------------------------------------===//

struct Results {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  std::vector<std::string> Failures;
  std::map<std::string, double> Values;

  void check(bool OK, const std::string &What) {
    ++Attempted;
    if (!OK) {
      ++Failed;
      Failures.push_back(What);
    }
  }
  void add(const std::string &Key, double V) { Values[Key] += V; }
};

void writeResults(const std::string &Path, const Results &R,
                  const Tracer &T) {
  std::string Out;
  Out += formatString("attempted %u\nfailed %u\n", R.Attempted, R.Failed);
  for (const std::string &F : R.Failures) {
    std::string Line = F;
    std::replace(Line.begin(), Line.end(), '\n', ' ');
    Out += "failure " + Line + "\n";
  }
  for (const auto &[K, V] : R.Values)
    Out += formatString("value %s %.17g\n", K.c_str(), V);
  for (const SpanRecord &S : T.spans()) {
    Out += formatString("span %u %u %" PRId64 " %.9f %.9f %s", S.Id,
                        S.Parent, S.Region, S.Start, S.Dur, S.Name.c_str());
    for (const auto &[K, V] : S.Args)
      Out += formatString(" %s=%.17g", K.c_str(), V);
    Out += "\n";
  }
  if (Error E = writeFile(Path, Out.data(), Out.size())) {
    std::fprintf(stderr, "perfbench: %s\n", E.message().c_str());
    _exit(3);
  }
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  const char *Name;
  const char *Program;
  bool ProduceInSetup; ///< set-up runs the producer; the flow consumes
  bool ProduceInFlow;
  bool ConsumeInFlow;
};

const WorkloadSpec Specs[] = {
    {"checkpoint-mcf", "mcf_like", false, true, false},
    {"evaluate-gcc", "gcc_like", true, false, true},
    {"pipeline-mt", "nab_s_like", false, true, true},
};

bool multiThreaded(const WorkloadSpec &W) {
  const workloads::WorkloadInfo *I = workloads::find(W.Program);
  return I && I->MultiThreaded;
}

sim::MachineConfig machineFor(const WorkloadSpec &W) {
  return multiThreaded(W) ? sim::makeGainestown8()
                          : bench::validationMachine();
}

/// One region's artifacts, as the consumer needs them.
struct RegionArtifact {
  unsigned Id = 0;
  double Weight = 0;
  uint64_t WarmupLength = 0;
  std::string PinballDir;
  std::string StoreName;
  Sha256Digest Digest; ///< of the emitted ELFie bytes
  /// Recorded per-thread region budgets (tid -> retired).
  std::map<uint32_t, uint64_t> Budgets;
  /// Multi-threaded region that either starts before all of its threads
  /// exist or ends with the program's exit. The consumer skips these
  /// (README.md, "Known failures"); the producer handles them.
  bool Skip = false;
};

/// Seeded processing order of \p N regions.
std::vector<size_t> regionOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  RNG R(Seed ^ 0x5eedULL);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

vm::VMConfig quietConfig() {
  vm::VMConfig C;
  C.StdoutSink = [](const char *, size_t) {};
  C.StderrSink = [](const char *, size_t) {};
  return C;
}

void addVMArgs(Span &S, const vm::DecodeCacheStats &DC,
               const vm::JitStats &J, uint64_t Retired) {
  S.arg("decode_hits", static_cast<double>(DC.Hits));
  S.arg("decode_misses", static_cast<double>(DC.Misses));
  S.arg("jit_blocks", static_cast<double>(J.Blocks));
  S.arg("jit_hits", static_cast<double>(J.Hits));
  S.arg("jit_bailouts", static_cast<double>(J.Bailouts));
  S.arg("jit_dispatches", static_cast<double>(J.Dispatches));
  S.arg("jit_invalidations", static_cast<double>(J.Invalidations));
  S.arg("jit_flushes", static_cast<double>(J.Flushes));
  S.arg("retired", static_cast<double>(Retired));
}

//===----------------------------------------------------------------------===//
// Producer: profile -> select -> capture -> save -> sysstate -> emit ->
// verify -> put.
//===----------------------------------------------------------------------===//

Expected<std::vector<RegionArtifact>>
produce(Tracer &T, Results &Res, const std::string &Program,
        uint64_t Seed, store::ChunkStore &Pool, const std::string &Out,
        bool KeepDigests) {
  simpoint::PinPointsOptions PO;
  PO.Seed = Seed;

  // BBV profile.
  std::vector<simpoint::SliceVector> Slices;
  {
    Span S(T, "simpoint.profile");
    vm::VM M(quietConfig());
    if (Error E = M.loadELFFile(Program))
      return E;
    if (Error E = M.setupMainThread())
      return E;
    simpoint::BBVCollector Collector(PO.SliceSize, PO.Dims, PO.Seed);
    M.setObserver(&Collector);
    vm::RunResult R = M.run();
    M.setObserver(nullptr);
    if (R.Reason == vm::StopReason::Faulted)
      return makeError("profiling run faulted: %s",
                       R.FaultInfo.Message.c_str());
    Collector.finish();
    Slices = Collector.slices();
    S.arg("slices", static_cast<double>(Slices.size()));
    addVMArgs(S, R.CacheStats, R.Jit, M.globalRetired());
  }
  simpoint::PinPointsResult Sel;
  {
    Span S(T, "simpoint.select");
    Sel = simpoint::selectRegions(Slices, PO);
    S.arg("regions", static_cast<double>(Sel.Regions.size()));
    S.arg("k", Sel.K);
  }

  // One pass captures every region with its warm-up prefix.
  std::vector<pinball::Pinball> Pinballs;
  std::vector<uint64_t> WarmupLens;
  std::vector<bool> Truncated; ///< the program exited inside the region
  {
    Span Capture(T, "pinball.capture");
    vm::VM M(quietConfig());
    if (Error E = M.loadELFFile(Program))
      return E;
    if (Error E = M.setupMainThread())
      return E;
    uint64_t PrevEnd = 0;
    vm::RunResult Last;
    for (size_t I = 0; I < Sel.Regions.size(); ++I) {
      const simpoint::Region &R = Sel.Regions[I];
      uint64_t W = std::max(R.WarmupStart, PrevEnd);
      uint64_t E = R.StartIcount + R.Length;
      if (W >= E)
        W = R.StartIcount;
      PrevEnd = E;
      if (W > M.globalRetired()) {
        Span F(T, "vm.ffwd", static_cast<int64_t>(I));
        uint64_t N = W - M.globalRetired();
        Last = M.run(N);
        F.arg("insts", static_cast<double>(N));
        if (Last.Reason != vm::StopReason::BudgetReached)
          return makeError("program ended before region %zu", I);
      }
      Span L(T, "pinball.log", static_cast<int64_t>(I));
      pinball::RegionLogger Logger(M, pinball::LoggerOptions::fat());
      Logger.beginRegion();
      M.setObserver(&Logger);
      Last = M.run(E - W);
      M.setObserver(nullptr);
      if (Last.Reason == vm::StopReason::Faulted)
        return makeError("fault inside region %zu: %s", I,
                         Last.FaultInfo.Message.c_str());
      Pinballs.push_back(Logger.endRegion());
      const pinball::Pinball &PB = Pinballs.back();
      Truncated.push_back(PB.Meta.RegionLength < E - W);
      WarmupLens.push_back(PB.Meta.RegionLength > R.Length
                               ? PB.Meta.RegionLength - R.Length
                               : 0);
      L.arg("insts", static_cast<double>(PB.Meta.RegionLength));
      L.arg("pages", static_cast<double>(PB.allPages().size()));
      L.arg("image_bytes", static_cast<double>(PB.imageBytes()));
      if (Last.Reason != vm::StopReason::BudgetReached)
        break; // the program ended inside this (final) region
    }
    addVMArgs(Capture, Last.CacheStats, Last.Jit, M.globalRetired());
  }
  Res.check(Pinballs.size() == Sel.Regions.size(),
            formatString("captured %zu of %zu regions", Pinballs.size(),
                         Sel.Regions.size()));

  core::Pinball2ElfOptions EmitOpts;
  EmitOpts.Perfle = true;
  std::set<Sha256Digest> Stored;
  std::vector<RegionArtifact> Out_(Pinballs.size());
  for (size_t I : regionOrder(Pinballs.size(), Seed)) {
    const pinball::Pinball &PB = Pinballs[I];
    int64_t Id = static_cast<int64_t>(I);
    RegionArtifact &A = Out_[I];
    A.Id = static_cast<unsigned>(I);
    A.Weight = Sel.Regions[I].Weight;
    A.WarmupLength = WarmupLens[I];
    A.PinballDir = formatString("%s/pb%u", Out.c_str(), A.Id);
    A.StoreName = formatString("r%u.elfie", A.Id);
    for (const pinball::ThreadRegs &TR : PB.Threads)
      A.Budgets[TR.Tid] = TR.RegionIcount;
    bool Spawns = false, MultiThreaded = PB.Threads.size() > 1;
    for (const pinball::ScheduleSlice &SL : PB.Schedule) {
      Spawns |= !A.Budgets.count(SL.Tid);
      MultiThreaded |= SL.Tid != PB.Threads.front().Tid;
    }
    A.Skip = MultiThreaded && (Spawns || Truncated[I]);

    Span Stage(T, "pipeline.produce", Id);
    {
      Span S(T, "pinball.save", Id);
      if (Error E = PB.save(A.PinballDir))
        return E;
    }
    {
      Span S(T, "sysstate.analyze", Id);
      sysstate::SysState SS = sysstate::analyze(PB);
      if (Error E = writeSysstateDir(
              SS, formatString("%s/ss%u", Out.c_str(), A.Id)))
        return E;
      S.arg("files", static_cast<double>(SS.Files.size()));
    }
    std::vector<uint8_t> Image;
    {
      Span S(T, "core.emit", Id);
      auto Img = core::pinballToElf(PB, EmitOpts);
      if (!Img)
        return Img.takeError();
      Image = Img.takeValue();
      S.arg("bytes", static_cast<double>(Image.size()));
    }
    {
      Span S(T, "analyze.verify", Id);
      auto Reader = elf::ELFReader::parse(Image);
      if (!Reader)
        return Reader.takeError();
      analyze::AnalysisInput In;
      In.Elf = &*Reader;
      In.PB = &PB;
      In.Kind = analyze::AnalysisInput::classify(*Reader);
      In.ExpectMarkers = EmitOpts.EmitMarkers ? 1 : 0;
      analyze::PassManager PM;
      analyze::addStandardPasses(PM);
      analyze::Report Report;
      PM.runAll(In, Report);
      S.arg("errors", Report.errorCount());
      Res.check(Report.errorCount() == 0,
                formatString("everify region %u: %u errors\n%s", A.Id,
                             Report.errorCount(),
                             Report.renderText().c_str()));
    }
    {
      Span S(T, "store.put", Id);
      auto M = store::putArtifact(Pool, A.StoreName, Image);
      if (!M)
        return M.takeError();
      S.close();
      unsigned New = 0;
      for (const store::ChunkRef &C : M->Chunks)
        New += Stored.insert(C.Digest).second;
      S.arg("chunks_put", static_cast<double>(M->Chunks.size()));
      S.arg("chunks_new", New);
      S.arg("bytes", static_cast<double>(Image.size()));
    }
    Stage.close();
    if (KeepDigests)
      A.Digest = Sha256::digest(std::span<const uint8_t>(Image));
  }
  auto Stats = Pool.stats();
  if (!Stats)
    return Stats.takeError();
  Res.add("store_mb", static_cast<double>(Stats->ChunkBytes) / (1 << 20));
  return Out_;
}

//===----------------------------------------------------------------------===//
// Consumer: materialize -> native run -> load -> replay -jit -> simulate
// (saving an .esimstate) -> resume.
//===----------------------------------------------------------------------===//

struct NativeRun {
  int Status = -1;
  std::map<uint32_t, uint64_t> Retired;
  uint64_t MaxCycles = 0; ///< slowest thread's perfle rdtsc cycles
  std::string Stderr;
};

NativeRun runElfie(const std::string &Path, const std::string &Cwd) {
  NativeRun Out;
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return Out;
  pid_t Pid = fork();
  if (Pid == 0) {
    dup2(Pipe[1], 2);
    close(Pipe[0]);
    close(Pipe[1]);
    int Null = open("/dev/null", O_WRONLY);
    if (Null >= 0)
      dup2(Null, 1);
    if (chdir(Cwd.c_str()) != 0)
      _exit(126);
    char *const Argv[] = {const_cast<char *>(Path.c_str()), nullptr};
    execv(Path.c_str(), Argv);
    _exit(125);
  }
  close(Pipe[1]);
  char Buf[4096];
  ssize_t N;
  while ((N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.Stderr.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  if (Pid < 0 || waitpid(Pid, &Status, 0) != Pid)
    return Out;
  Out.Status = Status;
  for (const std::string &Line : splitString(Out.Stderr, '\n')) {
    unsigned long long Tid, Insts, Cycles;
    if (sscanf(Line.c_str(), "elfie-perf: thread %llu retired %llu cycles %llu",
               &Tid, &Insts, &Cycles) == 3)
    {
      Out.Retired[static_cast<uint32_t>(Tid)] = Insts;
      Out.MaxCycles = std::max<uint64_t>(Out.MaxCycles, Cycles);
    }
  }
  return Out;
}

/// True when every recorded thread retired exactly its budget.
bool budgetsMatch(const std::map<uint32_t, uint64_t> &Recorded,
                  const std::map<uint32_t, uint64_t> &Observed) {
  for (const auto &[Tid, N] : Recorded) {
    auto It = Observed.find(Tid);
    if (It == Observed.end() || It->second != N)
      return false;
  }
  return true;
}

std::string describeCounts(const std::map<uint32_t, uint64_t> &C) {
  std::string S;
  for (const auto &[Tid, N] : C)
    S += formatString(" t%u=%llu", Tid, static_cast<unsigned long long>(N));
  return S;
}

double fileBytes(const std::string &Path) {
  struct stat St;
  return stat(Path.c_str(), &St) == 0 ? static_cast<double>(St.st_size) : 0;
}

bool bitEqual(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

bool statsIdentical(const sim::SimStats &A, const sim::SimStats &B) {
  if (A.Cores.size() != B.Cores.size() ||
      A.UserDataPages != B.UserDataPages ||
      A.KernelDataPages != B.KernelDataPages ||
      !bitEqual(A.FreqGHz, B.FreqGHz))
    return false;
  for (size_t I = 0; I < A.Cores.size(); ++I) {
    const sim::CoreStats &X = A.Cores[I], &Y = B.Cores[I];
    if (X.Instructions != Y.Instructions ||
        X.Ring0Instructions != Y.Ring0Instructions ||
        !bitEqual(X.Cycles, Y.Cycles) ||
        !bitEqual(X.Ring0Cycles, Y.Ring0Cycles) ||
        X.Branches != Y.Branches ||
        X.BranchMispredicts != Y.BranchMispredicts ||
        X.L1DAccesses != Y.L1DAccesses || X.L1DMisses != Y.L1DMisses ||
        X.L2Misses != Y.L2Misses || X.L3Misses != Y.L3Misses ||
        X.DTLBMisses != Y.DTLBMisses || X.ITLBMisses != Y.ITLBMisses ||
        X.Prefetches != Y.Prefetches ||
        X.CoherenceInvalidations != Y.CoherenceInvalidations ||
        X.Syscalls != Y.Syscalls)
      return false;
  }
  return true;
}

void addSimArgs(Span &S, const sim::SimResult &R) {
  uint64_t L1D = 0, L2 = 0, L3 = 0, BP = 0;
  for (const sim::CoreStats &C : R.Stats.Cores) {
    L1D += C.L1DMisses;
    L2 += C.L2Misses;
    L3 += C.L3Misses;
    BP += C.BranchMispredicts;
  }
  S.arg("insts", static_cast<double>(R.Stats.totalInstructions()));
  S.arg("cycles", R.Stats.totalCycles());
  S.arg("l1d_misses", static_cast<double>(L1D));
  S.arg("l2_misses", static_cast<double>(L2));
  S.arg("l3_misses", static_cast<double>(L3));
  S.arg("bp_mispredicts", static_cast<double>(BP));
  S.arg("warmup_retired", static_cast<double>(R.WarmupRetired));
  S.arg("roi_retired", static_cast<double>(R.RoiRetired));
}

Error consume(Tracer &T, Results &Res,
              const std::vector<RegionArtifact> &Regions, uint64_t Seed,
              const store::ChunkStore &Pool, const std::string &Out,
              const sim::MachineConfig &Machine, double ReferenceCPI) {
  double Weighted = 0, Covered = 0, SimSeconds = 0, SimInsts = 0;
  for (size_t I : regionOrder(Regions.size(), Seed)) {
    const RegionArtifact &A = Regions[I];
    int64_t Id = A.Id;
    if (A.Skip) {
      Res.add("skipped_regions", 1);
      continue;
    }
    std::string Elfie = formatString("%s/r%u.elfie", Out.c_str(), A.Id);
    std::string State = formatString("%s/r%u.esimstate", Out.c_str(), A.Id);
    Span Stage(T, "pipeline.consume", Id);
    {
      Span S(T, "store.get", Id);
      if (Error E = store::materializeArtifact(Pool, A.StoreName, Elfie))
        return E;
      S.close();
      S.arg("bytes", fileBytes(Elfie));
    }
    {
      auto F = MappedFile::open(Elfie);
      Res.check(F && Sha256::digest(F->span()) == A.Digest,
                formatString("region %u: materialized bytes differ from "
                             "the emitted ELFie",
                             A.Id));
    }
    NativeRun NR;
    {
      Span S(T, "core.native_run", Id);
      NR = runElfie(Elfie, Out);
      S.close();
      S.arg("region_cycles", static_cast<double>(NR.MaxCycles));
    }
    Res.check(WIFEXITED(NR.Status) && WEXITSTATUS(NR.Status) == 0 &&
                  budgetsMatch(A.Budgets, NR.Retired),
              formatString("region %u: native ELFie status %d, retired%s, "
                           "recorded%s: %s",
                           A.Id, NR.Status, describeCounts(NR.Retired).c_str(),
                           describeCounts(A.Budgets).c_str(),
                           NR.Stderr.c_str()));
    std::optional<pinball::Pinball> PB;
    {
      Span S(T, "pinball.load", Id);
      auto L = pinball::Pinball::load(A.PinballDir);
      if (!L)
        return L.takeError();
      PB = L.takeValue();
    }
    {
      Span S(T, "replay.replay", Id);
      replay::ReplayOptions RO;
      RO.Config = quietConfig();
      RO.Config.EnableJit = true;
      auto R = replay::replayPinball(*PB, RO);
      if (!R)
        return R.takeError();
      S.close();
      addVMArgs(S, R->VMStats, R->JitStats, R->Retired);
      S.arg("cow_faults", static_cast<double>(R->MemStats.CowFaults));
      S.arg("dirty_bytes", static_cast<double>(R->MemStats.DirtyBytes));
      Res.check(R->Divergence.empty() &&
                    budgetsMatch(A.Budgets, R->RetiredPerThread),
                formatString("region %u: replay diverged (%s), retired%s, "
                             "recorded%s",
                             A.Id, R->Divergence.c_str(),
                             describeCounts(R->RetiredPerThread).c_str(),
                             describeCounts(A.Budgets).c_str()));
    }
    sim::SimResult Cold;
    {
      Span S(T, "sim.cold", Id);
      sim::RunControls C;
      C.WarmupInstructions = A.WarmupLength;
      C.SaveStatePath = State;
      auto R = sim::simulatePinball(*PB, Machine, /*Constrained=*/true, C,
                                    quietConfig());
      if (!R)
        return R.takeError();
      Cold = R.takeValue();
      SimSeconds += S.close();
      SimInsts += static_cast<double>(Cold.WarmupRetired + Cold.RoiRetired);
      addSimArgs(S, Cold);
      S.arg("state_bytes", fileBytes(State));
    }
    {
      Span S(T, "sim.resume", Id);
      sim::RunControls C;
      C.LoadStatePath = State;
      auto R = sim::simulatePinball(*PB, Machine, /*Constrained=*/true, C,
                                    quietConfig());
      if (!R)
        return R.takeError();
      SimSeconds += S.close();
      SimInsts += static_cast<double>(R->RoiRetired);
      Res.check(statsIdentical(Cold.Stats, R->Stats),
                formatString("region %u: resumed SimStats differ from the "
                             "cold run",
                             A.Id));
    }
    double Insts = static_cast<double>(Cold.Stats.totalInstructions());
    if (Insts > 0 && Cold.Stats.totalCycles() > 0) {
      Weighted += A.Weight * Cold.Stats.totalCycles() / Insts;
      Covered += A.Weight;
    }
  }
  Res.check(Covered > 0 && ReferenceCPI > 0,
            "no region produced a simulated CPI");
  Res.add("coverage_pct", 100.0 * Covered);
  if (Covered > 0 && ReferenceCPI > 0) {
    double Predicted = Weighted / Covered;
    Res.add("cpi_err_pct",
            100.0 * std::fabs(Predicted - ReferenceCPI) / ReferenceCPI);
    Res.add("predicted_cpi", Predicted);
    Res.add("reference_cpi", ReferenceCPI);
  }
  if (SimSeconds > 0)
    Res.add("sim_minst_per_s", SimInsts / SimSeconds / 1e6);
  return Error::success();
}

//===----------------------------------------------------------------------===//
// Set-up and flow children.
//===----------------------------------------------------------------------===//

std::string programPath(const std::string &SetupDir, const WorkloadSpec &W) {
  return SetupDir + "/" + W.Program + ".train.elf";
}

/// regions.txt carries the set-up's artifacts to the flow children.
Error saveRegions(const std::string &Path,
                  const std::vector<RegionArtifact> &Regions,
                  double ReferenceCPI) {
  std::string S = formatString("reference_cpi %.17g\n", ReferenceCPI);
  for (const RegionArtifact &A : Regions) {
    S += formatString("region %u %.17g %llu %d %s %s %s %zu", A.Id, A.Weight,
                      static_cast<unsigned long long>(A.WarmupLength),
                      A.Skip ? 1 : 0,
                      A.PinballDir.c_str(), A.StoreName.c_str(),
                      A.Digest.hex().c_str(), A.Budgets.size());
    for (const auto &[Tid, N] : A.Budgets)
      S += formatString(" %u %llu", Tid, static_cast<unsigned long long>(N));
    S += "\n";
  }
  return writeFile(Path, S.data(), S.size());
}

Error loadRegions(const std::string &Path,
                  std::vector<RegionArtifact> &Regions,
                  double &ReferenceCPI) {
  auto Text = readFileText(Path);
  if (!Text)
    return Text.takeError();
  for (const std::string &Line : splitString(*Text, '\n')) {
    std::vector<std::string> F = splitString(Line, ' ');
    if (F.size() == 2 && F[0] == "reference_cpi") {
      ReferenceCPI = std::strtod(F[1].c_str(), nullptr);
    } else if (F.size() >= 9 && F[0] == "region") {
      RegionArtifact A;
      A.Id = static_cast<unsigned>(std::strtoul(F[1].c_str(), nullptr, 10));
      A.Weight = std::strtod(F[2].c_str(), nullptr);
      A.WarmupLength = std::strtoull(F[3].c_str(), nullptr, 10);
      A.Skip = F[4] == "1";
      A.PinballDir = F[5];
      A.StoreName = F[6];
      auto D = Sha256Digest::fromHex(F[7]);
      if (!D)
        return D.takeError();
      A.Digest = *D;
      size_t N = std::strtoul(F[8].c_str(), nullptr, 10);
      if (F.size() != 9 + 2 * N)
        return makeError("%s: malformed region line", Path.c_str());
      for (size_t K = 0; K < N; ++K)
        A.Budgets[static_cast<uint32_t>(
            std::strtoul(F[9 + 2 * K].c_str(), nullptr, 10))] =
            std::strtoull(F[10 + 2 * K].c_str(), nullptr, 10);
      Regions.push_back(std::move(A));
    }
  }
  return Error::success();
}

/// Builds the program and whatever the flow reads but does not make: the
/// reference whole-program CPI when the flow simulates, and the pinballs
/// and pool when the flow only consumes.
Error runSetup(const WorkloadSpec &W, uint64_t Seed, const std::string &Dir) {
  if (Error E = createDirectories(Dir))
    return E;
  std::string Prog = programPath(Dir, W);
  if (Error E = workloads::buildWorkloadFile(
          W.Program, workloads::InputSet::Train, Prog))
    return E;
  {
    // Warm-up: one functional run of the program, so the first timed
    // repetition does not pay for cold page and instruction caches.
    vm::VM M(quietConfig());
    if (Error E = M.loadELFFile(Prog))
      return E;
    if (Error E = M.setupMainThread())
      return E;
    vm::RunResult R = M.run();
    if (R.Reason != vm::StopReason::AllExited)
      return makeError("warm-up run of %s did not exit cleanly", W.Program);
  }
  double ReferenceCPI = 0;
  if (W.ConsumeInFlow) {
    double Start = nowSec();
    auto R = sim::simulateBinaryFile(Prog, machineFor(W), {}, quietConfig());
    if (!R)
      return R.takeError();
    ReferenceCPI = R->Stats.cpi();
    std::string S = formatString("%.9f\n", nowSec() - Start);
    if (Error E = writeFile(Dir + "/reference_s.txt", S.data(), S.size()))
      return E;
  }
  std::vector<RegionArtifact> Regions;
  if (W.ProduceInSetup) {
    Tracer Off(false);
    Results Res;
    auto Pool = store::ChunkStore::open(Dir + "/pool");
    if (!Pool)
      return Pool.takeError();
    auto R = produce(Off, Res, Prog, Seed, *Pool, Dir, /*KeepDigests=*/true);
    if (!R)
      return R.takeError();
    if (Res.Failed)
      return makeError("set-up checks failed: %s", Res.Failures[0].c_str());
    Regions = R.takeValue();
    std::string S = formatString("%.17g\n", Res.Values["store_mb"]);
    if (Error E = writeFile(Dir + "/store_mb.txt", S.data(), S.size()))
      return E;
  }
  return saveRegions(Dir + "/regions.txt", Regions, ReferenceCPI);
}

Error runFlow(const WorkloadSpec &W, uint64_t Seed, const std::string &Setup,
              const std::string &Dir, Tracer &T, Results &Res) {
  std::vector<RegionArtifact> Regions;
  double ReferenceCPI = 0;
  std::string PoolDir = Dir + "/pool";
  if (W.ProduceInFlow) {
    auto Pool = store::ChunkStore::open(PoolDir);
    if (!Pool)
      return Pool.takeError();
    auto R = produce(T, Res, programPath(Setup, W), Seed, *Pool, Dir,
                     W.ConsumeInFlow);
    if (!R)
      return R.takeError();
    Regions = R.takeValue();
  }
  if (!W.ConsumeInFlow)
    return Error::success();
  std::vector<RegionArtifact> SetupRegions;
  if (Error E = loadRegions(Setup + "/regions.txt", SetupRegions,
                            ReferenceCPI))
    return E;
  if (W.ProduceInSetup) {
    if (SetupRegions.empty())
      return makeError("set-up produced no regions");
    Regions = std::move(SetupRegions);
    PoolDir = Setup + "/pool";
    auto S = readFileText(Setup + "/store_mb.txt");
    if (!S)
      return S.takeError();
    Res.add("store_mb", std::strtod(S->c_str(), nullptr));
  }
  auto Pool = store::ChunkStore::open(PoolDir, /*Create=*/false);
  if (!Pool)
    return Pool.takeError();
  return consume(T, Res, Regions, Seed, *Pool, Dir, machineFor(W),
                 ReferenceCPI);
}

//===----------------------------------------------------------------------===//
// Parent: fork children, time them, aggregate.
//===----------------------------------------------------------------------===//

struct ChildOutcome {
  bool OK = false;
  double Wall = 0;
  double Cpu = 0;
  double MaxRssMB = 0;
  std::string Error;
};

template <typename Fn> ChildOutcome runChild(Fn Body) {
  ChildOutcome Out;
  std::fflush(stdout);
  std::fflush(stderr);
  double Start = nowSec();
  pid_t Pid = fork();
  if (Pid < 0) {
    Out.Error = "fork failed";
    return Out;
  }
  if (Pid == 0) {
    Error E = Body();
    if (E.isError()) {
      std::fprintf(stderr, "perfbench: %s\n", E.message().c_str());
      std::fflush(stderr);
      _exit(1);
    }
    _exit(0);
  }
  int Status = 0;
  struct rusage RU;
  std::memset(&RU, 0, sizeof RU);
  while (wait4(Pid, &Status, 0, &RU) < 0) {
    if (errno != EINTR) {
      Out.Error = "wait4 failed";
      return Out;
    }
  }
  Out.Wall = nowSec() - Start;
  Out.Cpu = static_cast<double>(RU.ru_utime.tv_sec + RU.ru_stime.tv_sec) +
            static_cast<double>(RU.ru_utime.tv_usec + RU.ru_stime.tv_usec) /
                1e6;
  Out.MaxRssMB = static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB -> MiB
  Out.OK = WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (!Out.OK)
    Out.Error = formatString("child exited with status %d", Status);
  return Out;
}

struct RepRecord {
  bool Traced = false;
  double Offset = 0; ///< start relative to the first repetition
  ChildOutcome Child;
  unsigned Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  std::map<std::string, double> Values;
  std::vector<std::string> SpanLines;
};

void readRepResults(const std::string &Path, RepRecord &R) {
  auto Text = readFileText(Path);
  if (!Text) {
    R.Failures.push_back("no results: " + Text.message());
    ++R.Failed;
    return;
  }
  for (const std::string &Line : splitString(*Text, '\n')) {
    size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      continue;
    std::string Key = Line.substr(0, Sp), Rest = Line.substr(Sp + 1);
    unsigned N = static_cast<unsigned>(std::strtoul(Rest.c_str(), nullptr, 10));
    if (Key == "attempted")
      R.Attempted += N;
    else if (Key == "failed")
      R.Failed += N;
    else if (Key == "failure")
      R.Failures.push_back(Rest);
    else if (Key == "value") {
      size_t Sp2 = Rest.find(' ');
      if (Sp2 != std::string::npos)
        R.Values[Rest.substr(0, Sp2)] =
            std::strtod(Rest.c_str() + Sp2 + 1, nullptr);
    } else if (Key == "span")
      R.SpanLines.push_back(Rest);
  }
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (static_cast<unsigned char>(C) < 0x20)
      Out += formatString("\\u%04x", C);
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonList(const std::vector<double> &V) {
  std::string S = "[";
  for (size_t I = 0; I < V.size(); ++I)
    S += formatString("%s%.9g", I ? ", " : "", V[I]);
  return S + "]";
}

/// Writes the traced repetitions' spans as Chrome trace-event JSON: one
/// complete ("X") event per span, one track (tid) per repetition.
Error writeTrace(const std::string &Path, const std::vector<RepRecord> &Reps,
                 const std::string &Workload, uint64_t Seed) {
  std::string S = "{\"displayTimeUnit\": \"ms\",\n \"otherData\": {"
                  "\"workload\": " +
                  jsonString(Workload) +
                  formatString(", \"seed\": %llu},\n \"traceEvents\": [",
                               static_cast<unsigned long long>(Seed));
  bool First = true;
  for (size_t Rep = 0; Rep < Reps.size(); ++Rep) {
    if (!Reps[Rep].Traced)
      continue;
    for (const std::string &Line : Reps[Rep].SpanLines) {
      std::vector<std::string> F = splitString(Line, ' ');
      if (F.size() < 6)
        continue;
      double Start = std::strtod(F[3].c_str(), nullptr);
      double Dur = std::strtod(F[4].c_str(), nullptr);
      const std::string &Name = F[5];
      std::string Cat = Name.substr(0, Name.find('.'));
      std::string Args = formatString(
          "\"span\": %s, \"parent\": %s, \"region\": %s, \"rep\": %zu",
          F[0].c_str(), F[1].c_str(), F[2].c_str(), Rep);
      for (size_t K = 6; K < F.size(); ++K) {
        size_t Eq = F[K].find('=');
        if (Eq != std::string::npos)
          Args += ", " + jsonString(F[K].substr(0, Eq)) + ": " +
                  F[K].substr(Eq + 1);
      }
      S += formatString(
          "%s\n  {\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}",
          First ? "" : ",", jsonString(Name).c_str(), jsonString(Cat).c_str(),
          Rep, (Reps[Rep].Offset + Start) * 1e6, Dur * 1e6, Args.c_str());
      First = false;
    }
  }
  S += "\n]}\n";
  return writeFile(Path, S.data(), S.size());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <checkpoint-mcf|evaluate-gcc|"
               "pipeline-mt> --seed <n> --seconds <s> --trace <0|1> "
               "--work <dir> [--trace-out <file>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      return usage();
    Args[Argv[I] + 2] = Argv[I + 1];
  }
  if (Argc % 2 != 1 || !Args.count("workload") || !Args.count("work"))
    return usage();
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : Specs)
    if (Args["workload"] == S.Name)
      W = &S;
  if (!W)
    return usage();
  uint64_t Seed = std::strtoull(Args["seed"].c_str(), nullptr, 10);
  double Seconds =
      Args.count("seconds") ? std::strtod(Args["seconds"].c_str(), nullptr)
                            : 10;
  bool Trace = Args["trace"] == "1";
  std::string Work = Args["work"];
  exitOnError(createDirectories(Work));

  // Set-up, several times so its median is steady: three copies, or two
  // when those already took SetupBudgetSecs (evaluate-gcc's set-up ingests
  // 26 ELFies into a pool and would dominate the run). The first copy is
  // kept for the flow.
  constexpr double SetupBudgetSecs = 20;
  std::vector<double> SetupSecs, ReferenceSecs;
  std::string SetupDir = Work + "/setup0";
  for (unsigned K = 0; K < 3; ++K) {
    if (K == 2 && SetupSecs[0] + SetupSecs[1] > SetupBudgetSecs)
      break;
    std::string Dir = formatString("%s/setup%u", Work.c_str(), K);
    ChildOutcome C = runChild([&] { return runSetup(*W, Seed, Dir); });
    if (!C.OK) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", C.Error.c_str());
      return 1;
    }
    SetupSecs.push_back(C.Wall);
    if (auto S = readFileText(Dir + "/reference_s.txt"))
      ReferenceSecs.push_back(std::strtod(S->c_str(), nullptr));
    if (K > 0)
      removeTree(Dir);
    sync();
  }

  // Rounds of one repetition (two with --trace 1: untraced then traced, so
  // both see the same conditions) while another round still fits in the
  // time; at least MinRounds, so the medians rest on five repetitions even
  // when one takes 5 s.
  const unsigned MinRounds = Trace ? 2 : 5;
  std::vector<RepRecord> Reps;
  auto RunRep = [&](bool Traced, double RunStart) {
    RepRecord R;
    R.Traced = Traced;
    R.Offset = nowSec() - RunStart;
    std::string Dir = formatString("%s/rep%zu", Work.c_str(), Reps.size());
    R.Child = runChild([&]() -> Error {
      if (Error E = createDirectories(Dir))
        return E;
      Tracer T(Traced);
      Results Res;
      Error E = runFlow(*W, Seed, SetupDir, Dir, T, Res);
      if (E.isError())
        Res.check(false, "flow: " + E.message());
      writeResults(Dir + "/result.txt", Res, T);
      return Error::success();
    });
    readRepResults(Dir + "/result.txt", R);
    if (!R.Child.OK) {
      ++R.Failed;
      R.Failures.push_back(R.Child.Error);
    }
    removeTree(Dir);
    // Flush the removed repetition's file-system work (journal commits,
    // writeback) so it does not bleed into the next repetition's timing.
    sync();
    Reps.push_back(std::move(R));
  };
  double RunStart = nowSec();
  for (unsigned Rounds = 1;; ++Rounds) {
    RunRep(false, RunStart);
    if (Trace)
      RunRep(true, RunStart);
    double Elapsed = nowSec() - RunStart;
    if (Rounds >= MinRounds && Elapsed + Elapsed / Rounds > Seconds)
      break;
  }
  removeTree(SetupDir);

  if (Trace && Args.count("trace-out"))
    exitOnError(writeTrace(Args["trace-out"], Reps, W->Name, Seed));

  // Summary.
  unsigned Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  std::vector<double> Wall, Cpu, Rss, TracedWall;
  std::map<std::string, std::vector<double>> Values;
  for (const RepRecord &R : Reps) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Failures.insert(Failures.end(), R.Failures.begin(), R.Failures.end());
    if (R.Traced) {
      TracedWall.push_back(R.Child.Wall);
      continue;
    }
    Wall.push_back(R.Child.Wall);
    Cpu.push_back(R.Child.Cpu);
    Rss.push_back(R.Child.MaxRssMB);
    for (const auto &[K, V] : R.Values)
      Values[K].push_back(V);
  }
  std::string S = "{\"workload\": " + jsonString(W->Name) +
                  formatString(", \"seed\": %llu, \"reps\": %zu",
                               static_cast<unsigned long long>(Seed),
                               Reps.size()) +
                  formatString(", \"attempted\": %u, \"failed\": %u",
                               Attempted, Failed) +
                  ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                  ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
                  ", \"failures\": [";
  for (size_t I = 0; I < Failures.size() && I < 20; ++I)
    S += (I ? ", " : "") + jsonString(Failures[I]);
  S += "], \"wall_s\": " + jsonList(Wall) + ", \"cpu_s\": " + jsonList(Cpu) +
       ", \"peak_rss_mb\": " + jsonList(Rss) +
       ", \"setup_s\": " + jsonList(SetupSecs) +
       ", \"reference_s\": " + jsonList(ReferenceSecs) +
       ", \"traced_wall_s\": " + jsonList(TracedWall) + ", \"values\": {";
  bool First = true;
  for (const auto &[K, V] : Values) {
    S += (First ? "" : ", ") + jsonString(K) + ": " + jsonList(V);
    First = false;
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  return Failed ? 1 : 0;
}
