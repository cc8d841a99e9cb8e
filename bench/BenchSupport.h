//===- bench/BenchSupport.h - shared harness machinery ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the per-table/per-figure benchmark harnesses:
/// building workloads, one-pass multi-region pinball capture, native ELFie
/// measurement (perfle parsing), and the validation methodology
/// (weighted region CPI vs whole-program CPI) used by Fig. 9 / Fig. 10 /
/// Table II. See EXPERIMENTS.md for the methodology notes.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_BENCH_BENCHSUPPORT_H
#define ELFIE_BENCH_BENCHSUPPORT_H

#include "core/Pinball2Elf.h"
#include "pinball/Logger.h"
#include "sim/Frontend.h"
#include "simpoint/PinPoints.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/Subprocess.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <memory>

namespace elfie {
namespace bench {

inline std::string workDir(const std::string &Name) {
  std::string D = "/tmp/elfie_bench_" + Name;
  removeTree(D);
  exitOnError(createDirectories(D));
  return D;
}

/// Builds a workload ELF into \p Dir, returning the path.
inline std::string buildWorkload(const std::string &Dir,
                                 const std::string &Name,
                                 workloads::InputSet Input) {
  std::string Path =
      Dir + "/" + Name + "." + workloads::inputSetName(Input) + ".elf";
  exitOnError(workloads::buildWorkloadFile(Name, Input, Path));
  return Path;
}

/// One-pass capture of multiple disjoint regions [Start, End) from a
/// single program execution (regions must be sorted and non-overlapping).
struct SegmentRequest {
  uint64_t Start;
  uint64_t End;
};

inline Expected<std::vector<pinball::Pinball>>
captureSegments(const std::string &ProgramPath,
                std::vector<SegmentRequest> Segments,
                const vm::VMConfig &Config = vm::VMConfig()) {
  vm::VMConfig Quiet = Config;
  if (!Quiet.StdoutSink)
    Quiet.StdoutSink = [](const char *, size_t) {};
  vm::VM M(Quiet);
  if (Error E = M.loadELFFile(ProgramPath))
    return E;
  if (Error E = M.setupMainThread())
    return E;

  std::vector<pinball::Pinball> Out;
  for (const SegmentRequest &S : Segments) {
    assert(S.Start >= M.globalRetired() && "segments must be sorted");
    if (S.Start > M.globalRetired()) {
      vm::RunResult R = M.run(S.Start - M.globalRetired());
      if (R.Reason != vm::StopReason::BudgetReached)
        return makeError("program ended before segment start %llu",
                         static_cast<unsigned long long>(S.Start));
    }
    pinball::RegionLogger Logger(M, pinball::LoggerOptions::fat());
    Logger.beginRegion();
    M.setObserver(&Logger);
    vm::RunResult R = M.run(S.End - S.Start);
    M.setObserver(nullptr);
    if (R.Reason == vm::StopReason::Faulted)
      return makeError("fault inside segment: %s",
                       R.FaultInfo.Message.c_str());
    Out.push_back(Logger.endRegion());
    if (R.Reason != vm::StopReason::BudgetReached)
      break; // program ended inside this (final) segment
  }
  return Out;
}

/// A native ELFie measurement: retired instructions and rdtsc cycles
/// summed over threads, parsed from the perfle report.
struct NativeMeasurement {
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  bool OK = false;
  std::string Error;
};

/// Runs \p ElfiePath as a subprocess (killed after 60 s) and parses the
/// perfle lines it writes to stderr.
inline NativeMeasurement runNativeElfie(const std::string &ElfiePath,
                                        const std::string &Cwd = "") {
  NativeMeasurement M;
  SpawnSpec Spec;
  Spec.Argv = {ElfiePath};
  Spec.StdoutPath = "/dev/null";
  Spec.StderrPath = ElfiePath + ".perfle";
  Spec.WorkDir = Cwd;
  bool TimedOut = false;
  Expected<pid_t> Pid = spawnProcess(Spec);
  Expected<WaitResult> W = Pid ? waitProcessFor(*Pid, 60000, TimedOut)
                               : Expected<WaitResult>(Pid.takeError());
  Expected<std::string> ErrText = readFileText(Spec.StderrPath);
  std::string Err = ErrText ? *ErrText : "";
  if (!W || !W->Exited || W->ExitCode != 0) {
    std::string Why = !W          ? W.message()
                      : TimedOut  ? std::string("timed out")
                      : W->Exited ? formatString("exit %d", W->ExitCode)
                                  : formatString("signal %d", W->Signal);
    M.Error = "elfie run failed (" + Why + "): " + Err;
    return M;
  }
  for (const std::string &Line : splitString(Err, '\n')) {
    unsigned long long T, I, C;
    if (sscanf(Line.c_str(),
               "elfie-perf: thread %llu retired %llu cycles %llu", &T, &I,
               &C) == 3) {
      M.Instructions += I;
      M.Cycles += C;
    }
  }
  M.OK = M.Instructions > 0;
  if (!M.OK)
    M.Error = "no perfle output: " + Err;
  return M;
}

/// Emits a native perfle ELFie from \p PB with per-thread budgets scaled to
/// \p BudgetOverride (0 = keep the recorded budgets) and measures it,
/// averaging \p Trials runs.
inline NativeMeasurement
measureElfie(const pinball::Pinball &PB, const std::string &Path,
             uint64_t BudgetOverride = 0, unsigned Trials = 7) {
  pinball::Pinball Copy = PB;
  if (BudgetOverride) {
    // Scale each thread's budget proportionally (exact for 1 thread).
    uint64_t Total = 0;
    for (const auto &T : PB.Threads)
      Total += T.RegionIcount;
    for (auto &T : Copy.Threads)
      T.RegionIcount = Total
                           ? static_cast<uint64_t>(
                                 static_cast<double>(T.RegionIcount) *
                                 BudgetOverride / Total)
                           : 0;
  }
  core::Pinball2ElfOptions Opts;
  Opts.Perfle = true;
  Error E = core::pinballToElfFile(Copy, Opts, Path);
  if (E) {
    NativeMeasurement M;
    M.Error = E.message();
    return M;
  }
  // Take the minimum-cycles trial: retired counts are identical across
  // runs (software counters), so the least-disturbed run is the best
  // estimate of the region's cost.
  NativeMeasurement Best;
  for (unsigned T = 0; T < Trials; ++T) {
    NativeMeasurement M = runNativeElfie(Path);
    if (!M.OK) {
      if (!Best.OK)
        Best.Error = M.Error;
      continue;
    }
    if (!Best.OK || M.Cycles < Best.Cycles)
      Best = M;
  }
  return Best;
}

/// Native region CPI with warm-up subtraction: CPI over [S,E) of a pinball
/// covering [W,E), measured as (full - warm) deltas. Returns false on
/// failure (e.g. the ELFie diverged: the paper's "failed ELFie" case).
inline bool nativeRegionCPI(const pinball::Pinball &PB, uint64_t WarmupLen,
                            const std::string &Dir, const std::string &Tag,
                            double &CPIOut) {
  NativeMeasurement Full =
      measureElfie(PB, Dir + "/" + Tag + ".full.elfie", 0);
  if (!Full.OK)
    return false;
  if (WarmupLen == 0) {
    CPIOut = static_cast<double>(Full.Cycles) / Full.Instructions;
    return true;
  }
  NativeMeasurement Warm =
      measureElfie(PB, Dir + "/" + Tag + ".warm.elfie", WarmupLen);
  if (!Warm.OK || Full.Instructions <= Warm.Instructions ||
      Full.Cycles <= Warm.Cycles)
    return false;
  CPIOut = static_cast<double>(Full.Cycles - Warm.Cycles) /
           static_cast<double>(Full.Instructions - Warm.Instructions);
  return true;
}

// ---------------------------------------------------------------------------
// Validation methodology (paper §IV-A): compare a benchmark's whole-program
// CPI ("true") against the weighted combination of its selected regions'
// CPIs ("predicted"). The true/region values come either from simulation
// (traditional approach) or from native ELFie runs (the paper's
// contribution).
// ---------------------------------------------------------------------------

struct ValidationResult {
  bool OK = false;
  double TrueCPI = 0;
  double PredictedCPI = 0;
  /// (true - predicted) / true, in percent (paper's error definition).
  double ErrorPct = 0;
  /// Sum of weights of regions whose ELFie executed correctly (possibly
  /// via an alternate representative), in percent.
  double CoveragePct = 0;
  std::string Error;
};

/// Capture one pinball per region covering [warmupStart, start+len),
/// clamping warm-up prefixes that would overlap the previous region.
inline Expected<std::vector<pinball::Pinball>>
captureRegionPinballs(const std::string &ProgramPath,
                      const simpoint::PinPointsResult &Sel) {
  std::vector<SegmentRequest> Segs;
  uint64_t PrevEnd = 0;
  for (const simpoint::Region &R : Sel.Regions) {
    uint64_t W = std::max(R.WarmupStart, PrevEnd);
    uint64_t E = R.StartIcount + R.Length;
    if (W >= E)
      W = R.StartIcount; // fully clamped: no warm-up
    Segs.push_back({W, E});
    PrevEnd = E;
  }
  return captureSegments(ProgramPath, Segs);
}

/// Region CPI from one pinball simulation: the first \p WarmupLen
/// instructions run in the functional-warming phase (training the model,
/// counting nothing), so the stats cover exactly the post-warmup slice.
/// This replaces the old two-run subtraction scheme, which re-simulated
/// the warm-up in detail and diffed the counters — twice the work, and
/// the subtrahend's cold-start cycles polluted the difference.
inline bool simRegionCPI(const pinball::Pinball &PB, uint64_t WarmupLen,
                         const sim::MachineConfig &Machine, double &Out) {
  sim::RunControls Controls;
  Controls.WarmupInstructions =
      (WarmupLen > 0 && WarmupLen < PB.Meta.RegionLength) ? WarmupLen : 0;
  auto R = sim::simulatePinball(PB, Machine, /*Constrained=*/true, Controls);
  if (!R)
    return false;
  double Cycles = R->Stats.totalCycles();
  double Insts = static_cast<double>(R->Stats.totalInstructions());
  if (Insts <= 0 || Cycles <= 0)
    return false;
  Out = Cycles / Insts;
  return true;
}

/// Traditional simulation-based validation: whole-program detailed
/// simulation for the true CPI, pinball simulation per region.
inline ValidationResult
simBasedValidation(const std::string &ProgramPath,
                   const simpoint::PinPointsResult &Sel,
                   const sim::MachineConfig &Machine) {
  ValidationResult Out;
  auto Whole = sim::simulateBinaryFile(ProgramPath, Machine);
  if (!Whole) {
    Out.Error = Whole.message();
    return Out;
  }
  Out.TrueCPI = Whole->Stats.cpi();

  auto Pinballs = captureRegionPinballs(ProgramPath, Sel);
  if (!Pinballs) {
    Out.Error = Pinballs.message();
    return Out;
  }
  double WeightedCPI = 0, Covered = 0;
  for (size_t I = 0; I < Sel.Regions.size() && I < Pinballs->size(); ++I) {
    const simpoint::Region &R = Sel.Regions[I];
    uint64_t WarmupLen = (*Pinballs)[I].Meta.RegionLength > R.Length
                             ? (*Pinballs)[I].Meta.RegionLength - R.Length
                             : 0;
    double CPI;
    if (simRegionCPI((*Pinballs)[I], WarmupLen, Machine, CPI)) {
      WeightedCPI += R.Weight * CPI;
      Covered += R.Weight;
    }
  }
  if (Covered <= 0) {
    Out.Error = "no region simulated successfully";
    return Out;
  }
  Out.PredictedCPI = WeightedCPI / Covered;
  Out.ErrorPct = 100.0 * (Out.TrueCPI - Out.PredictedCPI) / Out.TrueCPI;
  Out.CoveragePct = 100.0 * Covered;
  Out.OK = true;
  return Out;
}

/// ELFie-based validation (the paper's approach): the whole program and
/// each region run as native ELFies on real hardware; rdtsc cycles over
/// software-counted retired instructions give the CPIs. Failed region
/// ELFies fall back to alternate representatives, raising coverage
/// (paper §I-B).
inline ValidationResult
elfieBasedValidation(const std::string &ProgramPath,
                     const simpoint::PinPointsResult &Sel,
                     const std::string &Dir) {
  ValidationResult Out;
  // True value: whole-program ELFie (captured from instruction 0).
  auto WholeSeg = captureSegments(ProgramPath, {{0, UINT64_MAX / 2}});
  if (!WholeSeg || WholeSeg->empty()) {
    Out.Error = WholeSeg ? "empty capture" : WholeSeg.message();
    return Out;
  }
  double TrueCPI;
  if (!nativeRegionCPI((*WholeSeg)[0], 0, Dir, "whole", TrueCPI)) {
    Out.Error = "whole-program ELFie failed";
    return Out;
  }
  Out.TrueCPI = TrueCPI;

  auto Pinballs = captureRegionPinballs(ProgramPath, Sel);
  if (!Pinballs) {
    Out.Error = Pinballs.message();
    return Out;
  }
  double WeightedCPI = 0, Covered = 0;
  for (size_t I = 0; I < Sel.Regions.size() && I < Pinballs->size(); ++I) {
    const simpoint::Region &R = Sel.Regions[I];
    uint64_t WarmupLen = (*Pinballs)[I].Meta.RegionLength > R.Length
                             ? (*Pinballs)[I].Meta.RegionLength - R.Length
                             : 0;
    double CPI;
    bool Done = nativeRegionCPI((*Pinballs)[I], WarmupLen, Dir,
                                formatString("r%zu", I), CPI);
    if (!Done && !R.AlternateSlices.empty()) {
      // Alternate representative: capture and measure the next-closest
      // slice of the same cluster.
      uint64_t AltStart = R.AlternateSlices[0] * Sel.SliceSize;
      auto AltSeg = captureSegments(ProgramPath,
                                    {{AltStart, AltStart + R.Length}});
      if (AltSeg && !AltSeg->empty())
        Done = nativeRegionCPI((*AltSeg)[0], 0, Dir,
                               formatString("r%zu_alt", I), CPI);
    }
    if (Done) {
      WeightedCPI += R.Weight * CPI;
      Covered += R.Weight;
    }
  }
  if (Covered <= 0) {
    Out.Error = "no region ELFie ran successfully";
    return Out;
  }
  Out.PredictedCPI = WeightedCPI / Covered;
  Out.ErrorPct = 100.0 * (Out.TrueCPI - Out.PredictedCPI) / Out.TrueCPI;
  Out.CoveragePct = 100.0 * Covered;
  Out.OK = true;
  return Out;
}


/// Machine config for the validation studies: a Nehalem-like core with the
/// cache hierarchy scaled down to match the 1/1000 instruction-count
/// scaling of regions and warm-ups (DESIGN.md §2) — otherwise a 200 K
/// warm-up cannot warm a full-size L3 the way the paper's 800 M warm-up
/// warms a real one, and every region simulates unrealistically cold.
inline sim::MachineConfig validationMachine() {
  sim::MachineConfig M = sim::makeNehalemLike();
  M.Core.L2.SizeBytes = 64 * 1024;
  M.L3.SizeBytes = 1024 * 1024;
  M.MemLatencyCycles = 150;
  return M;
}

/// Table printing helpers.
inline void printHeader(const std::string &Title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              Title.c_str());
}

inline void printPaperNote(const std::string &Note) {
  std::printf("paper: %s\n\n", Note.c_str());
}

} // namespace bench
} // namespace elfie

#endif // ELFIE_BENCH_BENCHSUPPORT_H
