//===- sim/Frontend.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Frontend.h"

#include "elf/ELFReader.h"
#include "replay/Replayer.h"
#include "sim/SimState.h"
#include "support/FileIO.h"
#include "support/MappedFile.h"
#include "support/Sha256.h"

#include <climits>
#include <functional>
#include <optional>

using namespace elfie;
using namespace elfie::sim;

namespace {

/// esim's phase machine. Every simulation walks left to right:
///
///   FastForward --marker--> Warming/Skipping --W insts--> Detailed
///                                             [boundary]
///
/// FastForward (pre-marker) trains nothing, exactly like the pre-existing
/// marker gating. Warming feeds the model's warm entry points: structures
/// get hot, no cycles/stats/footprint accrue. Skipping replaces Warming
/// when resuming from a sidecar: events are ignored because the state
/// comes from disk. The boundary sits at the start of the first
/// post-warming instruction — before any of its events reach the model —
/// and is where -warmup-save serializes and -warmup-load restores. With
/// W == 0 and no sidecar the Warming phase collapses away and behaviour
/// is bit-identical to the pre-checkpoint front-end.
enum class Phase { FastForward, Warming, Skipping, Detailed };

/// One simulation: the set-up, phase machine and result path both
/// front-ends share. A front-end constructs it, calls setUp() once its
/// input is known, start()s it on whatever drives execution — the VM in
/// binary mode, the replayer in pinball mode — and returns finish(). Only
/// how execution is driven differs between the front-ends.
class Simulation : public vm::Observer {
public:
  Simulation(const MachineConfig &Machine, RunControls RC)
      : Controls(std::move(RC)), Model(Machine), Machine(Machine) {}

  RunControls Controls;
  TimingModel Model;
  /// The warming length; a single-core binary resume zeroes it (and
  /// LoadMode) once it has skipped the warming stretch itself.
  uint64_t Warmup = 0;
  bool LoadMode = !Controls.LoadStatePath.empty();
  /// The result under construction; the phase machine counts into it.
  SimResult Out;

  /// Resolves the warming length (\p DefaultWarmup when the controls leave
  /// it on auto), applies a -warmup-load sidecar now — the model is
  /// untouched until the boundary in load mode, so the recorded length is
  /// authoritative and validated before anything executes — and checks
  /// the length against the input's \p Region length, when it has one.
  /// \p Digest identifies the input to a sidecar; it runs only when one is
  /// saved or loaded.
  Error setUp(uint64_t DefaultWarmup, std::optional<uint64_t> Region,
              const std::function<Sha256Digest()> &Digest) {
    if (SaveMode && LoadMode)
      return makeError("RunControls: SaveStatePath and LoadStatePath are "
                       "mutually exclusive");
    Warmup = Controls.WarmupInstructions == UINT64_MAX
                 ? DefaultWarmup
                 : Controls.WarmupInstructions;
    if (SaveMode || LoadMode)
      InputDigest = Digest();
    if (LoadMode) {
      auto Meta =
          loadSimState(Controls.LoadStatePath, Machine, InputDigest, Model);
      if (!Meta)
        return Meta.takeError();
      // An explicit -warmup that disagrees with the checkpoint fails
      // closed — silently preferring either value would resume at the
      // wrong boundary.
      if (Controls.WarmupInstructions != UINT64_MAX &&
          Controls.WarmupInstructions != Meta->WarmupInstructions)
        return makeCodedError(
            "EFAULT.SIMSTATE.BUDGET",
            "explicit warmup length %llu disagrees with the checkpoint's "
            "%llu",
            static_cast<unsigned long long>(Controls.WarmupInstructions),
            static_cast<unsigned long long>(Meta->WarmupInstructions));
      Warmup = Meta->WarmupInstructions;
      Out.StateLoaded = true;
    }
    if (Region && Warmup >= *Region)
      return makeCodedError(
          "EFAULT.SIMSTATE.BUDGET",
          "warmup length %llu must be smaller than the region length %llu",
          static_cast<unsigned long long>(Warmup),
          static_cast<unsigned long long>(*Region));
    return Error::success();
  }

  /// Picks the starting phase and attaches to \p Engine, the VM whose
  /// retired count and stop request the phase machine uses; null when the
  /// replayer owns the budget (the caller attaches the observer then).
  void start(vm::VM *Engine) {
    this->Engine = Engine;
    PostMarker = (Warmup > 0 || SaveMode || LoadMode)
                     ? (LoadMode ? Phase::Skipping : Phase::Warming)
                     : Phase::Detailed;
    Ph = Controls.WaitForMarker ? Phase::FastForward : PostMarker;
    if (Engine)
      Engine->setObserver(this);
  }

  /// The shared result path. A replay that left its log (the numbers
  /// would describe some other execution) and a faulted guest fail the
  /// simulation; only a run that succeeds publishes the sidecar encoded at
  /// the boundary, so a failed run leaves none behind.
  Expected<SimResult> finish(vm::StopReason Reason, const vm::Fault &Fault,
                             const std::string &Divergence,
                             const vm::DecodeCacheStats &VMStats,
                             const vm::MemStats &MemStats,
                             const vm::JitStats &JitStats) {
    if (!Divergence.empty())
      return makeCodedError("EFAULT.REPLAY.DIVERGENCE", "%s",
                            Divergence.c_str());
    if (Reason == vm::StopReason::Faulted)
      return makeError("simulated program faulted: %s",
                       Fault.Message.c_str());
    if (!PendingState.empty()) {
      if (Error E = writeSimState(Controls.SaveStatePath, PendingState))
        return E;
      Out.StateSaved = true;
    }
    Out.Stats = Model.stats();
    Out.Reason = Reason;
    Out.VMStats = VMStats;
    Out.MemStats = MemStats;
    Out.JitStats = JitStats;
    return std::move(Out);
  }

  /// The core thread \p Tid runs on. The VM numbers threads densely in
  /// creation order and they map round-robin onto the cores; the mapping
  /// is tabulated as tids appear, so no event pays a division for it.
  unsigned coreOf(uint32_t Tid) {
    while (Tid >= TidCore.size())
      TidCore.push_back(static_cast<unsigned>(TidCore.size() % NumCores));
    return TidCore[Tid];
  }

  void onInstruction(const vm::ThreadState &T, uint64_t PC,
                     const isa::Inst &I) override {
    unsigned Core = coreOf(T.Tid);
    LastOp[Core] = I.Op;
    ++TotalSeen;
    if (Ph == Phase::FastForward)
      return;
    if (Ph == Phase::Warming || Ph == Phase::Skipping) {
      if (Out.WarmupRetired < Warmup) {
        ++Out.WarmupRetired;
        if (Ph == Phase::Warming)
          Model.warmInstruction(Core, PC);
        return;
      }
      // The boundary sits at the start of the first post-warming
      // instruction: none of this instruction's events have reached the
      // model yet, so the save and the resume land on the same state.
      crossBoundary();
    }
    Model.instruction(Core, PC, I);
    ++Out.RoiRetired;
    if (Controls.StopPC && PC == Controls.StopPC &&
        ++StopPCHits >= Controls.StopPCCount) {
      requestStop();
      return;
    }
    if (Out.RoiRetired >= Controls.MaxInstructions)
      requestStop();
  }

  void onMemoryAccess(uint32_t Tid, uint64_t Addr, uint32_t Size,
                      bool IsWrite) override {
    if (Ph == Phase::Detailed)
      Model.memoryAccess(coreOf(Tid), Addr, Size, IsWrite);
    else if (Ph == Phase::Warming)
      Model.warmMemoryAccess(coreOf(Tid), Addr, Size, IsWrite);
  }

  void onControlTransfer(uint32_t Tid, uint64_t FromPC, uint64_t ToPC,
                         bool Taken) override {
    if (Ph != Phase::Detailed && Ph != Phase::Warming)
      return;
    unsigned Core = coreOf(Tid);
    isa::Opcode Op = LastOp[Core];
    // Unconditional direct transfers are perfectly predictable; only
    // conditional branches train the direction predictor and only
    // register-indirect jumps consult the BTB.
    bool Indirect = Op == isa::Opcode::Jalr;
    if (!isa::isBranch(Op) && !Indirect)
      return;
    if (Ph == Phase::Detailed)
      Model.controlTransfer(Core, FromPC, ToPC, Taken, Indirect);
    else
      Model.warmControlTransfer(Core, FromPC, ToPC, Taken, Indirect);
  }

  void onSyscall(uint32_t Tid, uint64_t Nr, const uint64_t *,
                 int64_t) override {
    // Warming deliberately skips the synthetic kernel: handlers charge
    // stats, and the checkpoint must hold exactly the state a cold
    // warming phase produces.
    if (Ph != Phase::Detailed)
      return;
    Model.syscall(coreOf(Tid), Nr);
  }

  void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
    Out.MarkerSeen = true;
    if (Ph == Phase::FastForward && Controls.WaitForMarker)
      Ph = PostMarker;
  }

private:
  void requestStop() {
    if (Engine)
      Engine->requestStop();
  }

  /// Records the checkpoint index and, in save mode, encodes the sidecar
  /// for finish() to publish. Loads are not boundary work: setUp() already
  /// applied it.
  void crossBoundary() {
    Ph = Phase::Detailed;
    // onInstruction fires before its instruction retires, so the global
    // count here excludes the boundary instruction itself — the same
    // index a resume lands on after fast-forwarding marker + W. Replay
    // mode counts the observer's own events.
    Out.CheckpointRetired = Engine ? Engine->globalRetired() : TotalSeen - 1;
    if (!SaveMode)
      return;
    SimStateMeta Meta;
    Meta.ConfigName = Machine.Name;
    Meta.ConfigFP = configFingerprint(Machine);
    Meta.InputDigest = InputDigest;
    Meta.WarmupInstructions = Warmup;
    Meta.CheckpointRetired = Out.CheckpointRetired;
    Meta.DetailedBudget =
        Controls.MaxInstructions == UINT64_MAX ? 0 : Controls.MaxInstructions;
    PendingState = encodeSimState(Meta, Model);
  }

  const MachineConfig &Machine;
  bool SaveMode = !Controls.SaveStatePath.empty();
  Sha256Digest InputDigest;
  vm::VM *Engine = nullptr;
  Phase Ph = Phase::Detailed;
  Phase PostMarker = Phase::Detailed;
  uint64_t TotalSeen = 0;
  uint64_t StopPCHits = 0;
  /// The sidecar encoded at the boundary, awaiting a successful finish().
  std::vector<uint8_t> PendingState;
  unsigned NumCores = Machine.NumCores;
  /// The opcode each core retired last, for classifying its next control
  /// transfer.
  std::vector<isa::Opcode> LastOp =
      std::vector<isa::Opcode>(NumCores, isa::Opcode::Jmp);
  /// coreOf()'s table, indexed by tid.
  std::vector<unsigned> TidCore;
};

/// Cheap canonical identity for a checkpointed pinball: the region meta
/// plus per-thread entry state (hashing every image page would defeat the
/// point of a fast resume).
Sha256Digest pinballInputDigest(const pinball::Pinball &PB) {
  BinaryWriter W;
  const pinball::PinballMeta &M = PB.Meta;
  W.writeString(M.ProgramName);
  W.writeU64(M.RegionStart);
  W.writeU64(M.RegionLength);
  W.writeU64(M.StackBase);
  W.writeU64(M.StackTop);
  W.writeU64(M.BrkAtStart);
  W.writeU64(M.BrkAtEnd);
  W.writeU64(PB.Image.size());
  W.writeU64(PB.Injects.size());
  W.writeU64(PB.Syscalls.size());
  W.writeU64(PB.Schedule.size());
  W.writeU32(static_cast<uint32_t>(PB.Threads.size()));
  for (const auto &T : PB.Threads) {
    W.writeU64(T.PC);
    W.writeU64(T.RegionIcount);
  }
  return Sha256::digest(W.bytes().data(), W.size());
}

} // namespace

Expected<SimResult>
sim::simulateBinaryImage(std::span<const uint8_t> Image,
                         const MachineConfig &Machine, RunControls Controls,
                         vm::VMConfig VMConfig,
                         std::vector<std::string> Args) {
  // Zero-copy parse: the reader's views (and the VM's attached image
  // extents) borrow from the caller's bytes, which outlive this call.
  auto Reader = elf::ELFReader::parseView(Image);
  if (!Reader)
    return Reader.takeError();

  Simulation S(Machine, std::move(Controls));
  // ELFie auto-detection: no argv/stack setup, detailed model starts at
  // the ROI marker, budget and warming length from the embedded symbols.
  bool IsElfie = Reader->findSymbol("elfie_on_start") != nullptr;
  uint64_t Region = 0, DefaultWarmup = 0;
  if (IsElfie) {
    S.Controls.WaitForMarker = true;
    if (const auto *Len = Reader->findSymbol("elfie_region_length"))
      Region = Len->Value;
    if (const auto *WL = Reader->findSymbol("elfie_warmup_length"))
      DefaultWarmup = WL->Value;
  }
  S.Out.WasElfie = IsElfie;
  if (Error E = S.setUp(DefaultWarmup,
                        Region ? std::optional<uint64_t>(Region)
                               : std::nullopt,
                        [&] { return Sha256::digest(Image); }))
    return E;
  // The embedded region length covers warming + ROI; the detailed budget
  // is the remainder.
  if (Region && S.Controls.MaxInstructions == UINT64_MAX)
    S.Controls.MaxInstructions = Region - S.Warmup;

  if (!VMConfig.StdoutSink)
    VMConfig.StdoutSink = [](const char *, size_t) {};
  vm::VM M(VMConfig);
  if (Error E = M.loadELF(*Reader))
    return E;
  if (IsElfie) {
    vm::ThreadState T;
    T.PC = M.entry();
    M.spawnThread(T);
  } else if (Error E = M.setupMainThread(Args)) {
    return E;
  }

  // Pre-ROI fast-forward: until the first marker retires, nothing is
  // measured, so a JIT-enabled VM may run that stretch natively under a
  // marker watcher (wantsPerInstruction() == false keeps the JIT active).
  // A -warmup-load resume fast-forwards the same way even without the
  // JIT: its warming stretch needs no callbacks either.
  // Single-core only — the multicore path is timing-driven from the start.
  bool Finished = false;
  vm::RunResult R;
  if (S.Controls.WaitForMarker && (VMConfig.EnableJit || S.LoadMode) &&
      Machine.NumCores <= 1) {
    class MarkerWatch : public vm::Observer {
    public:
      explicit MarkerWatch(vm::VM &M) : M(M) {}
      bool wantsPerInstruction() const override { return false; }
      void onMarker(uint32_t, isa::MarkerKind, int32_t) override {
        Seen = true;
        M.requestStop();
      }
      vm::VM &M;
      bool Seen = false;
    } FF(M);
    M.setObserver(&FF);
    R = M.run(UINT64_MAX);
    M.setObserver(nullptr);
    S.Out.MarkerSeen = FF.Seen;
    if (R.Reason == vm::StopReason::Stopped && FF.Seen) {
      // The marker retired; start the detailed phase already active. The
      // per-core LastOp tracking the fast-forward skipped is harmless:
      // every ROI control transfer is preceded by its own onInstruction.
      S.Controls.WaitForMarker = false;
    } else {
      Finished = true; // exited / halted / faulted before any ROI marker
    }
  }

  // Single-core resume fast path: re-execute the warming stretch
  // functionally — observer-free, so the JIT stays active — with the model
  // already restored from the sidecar. The detailed phase below starts
  // exactly at the boundary a cold -warmup-save run checkpoints.
  if (S.LoadMode && !Finished && Machine.NumCores <= 1 &&
      !S.Controls.WaitForMarker) {
    if (S.Warmup > 0) {
      R = M.run(S.Warmup);
      if (R.Reason != vm::StopReason::BudgetReached)
        Finished = true; // the program ended inside the warming stretch
      else
        S.Out.WarmupRetired = S.Warmup;
    }
    if (!Finished) {
      S.Out.CheckpointRetired = M.globalRetired();
      S.LoadMode = false; // consumed: the observer starts detailed
      S.Warmup = 0;
    }
  }

  S.start(&M);
  if (Finished) {
    // Nothing left to simulate; R already holds the outcome.
  } else if (Machine.NumCores <= 1) {
    // The functional budget is unbounded; the observer stops the run when
    // the ROI budget is consumed.
    R = M.run(UINT64_MAX);
  } else {
    // Timing-driven multicore scheduling (Sniper-style execution-driven
    // simulation): always advance the thread whose core has the fewest
    // accumulated cycles, so slow (miss-heavy) threads fall behind and
    // spin-waiting peers really spin. This is what makes unconstrained
    // ELFie simulation diverge from constrained pinball replay (Fig. 11).
    // Ties go to the earliest-created live thread.
    //
    // The live threads, in creation order, with their cores' cycle counts.
    // One instruction creates or ends at most one thread, so the list is
    // rebuilt exactly when the live count changes.
    struct LiveThread {
      uint32_t Tid;
      const double *Cycles;
    };
    std::vector<LiveThread> Live;
    unsigned LiveBuiltFor = UINT_MAX; // no list yet
    const std::vector<CoreStats> &Cores = S.Model.stats().Cores;
    while (true) {
      if (M.liveThreadCount() != LiveBuiltFor) {
        LiveBuiltFor = M.liveThreadCount();
        Live.clear();
        for (uint32_t Tid : M.liveThreadIds())
          Live.push_back({Tid, &Cores[S.coreOf(Tid)].Cycles});
      }
      if (Live.empty()) {
        R.Reason = vm::StopReason::AllExited;
        R.ExitCode = M.exitCode();
        break;
      }
      uint32_t Pick = Live[0].Tid;
      double Best = *Live[0].Cycles;
      for (const LiveThread &T : Live) {
        if (*T.Cycles < Best) {
          Best = *T.Cycles;
          Pick = T.Tid;
        }
      }
      vm::StopReason SR = M.stepThread(Pick);
      if (SR == vm::StopReason::BudgetReached)
        continue;
      R.Reason = SR;
      if (SR == vm::StopReason::Faulted)
        R.FaultInfo = M.lastFault();
      if (SR == vm::StopReason::AllExited)
        R.ExitCode = M.exitCode();
      break;
    }
  }
  return S.finish(R.Reason, R.FaultInfo, /*Divergence=*/"",
                  M.decodeCacheStats(), M.mem().memStats(), M.jitStats());
}

Expected<SimResult> sim::simulateBinaryFile(const std::string &Path,
                                            const MachineConfig &Machine,
                                            RunControls Controls,
                                            vm::VMConfig VMConfig,
                                            std::vector<std::string> Args) {
  // mmap the binary; the mapping stays alive across the whole simulation,
  // so the VM executes code straight from the page cache.
  auto File = MappedFile::open(Path);
  if (!File)
    return File.takeError();
  return simulateBinaryImage(File->span(), Machine, Controls,
                             std::move(VMConfig), std::move(Args));
}

Expected<SimResult> sim::simulatePinball(const pinball::Pinball &PB,
                                         const MachineConfig &Machine,
                                         bool Constrained,
                                         RunControls Controls,
                                         vm::VMConfig VMConfig) {
  // Replay starts at the region entry; there is no marker to wait for.
  Controls.WaitForMarker = false;
  Simulation S(Machine, std::move(Controls));
  if (Error E = S.setUp(/*DefaultWarmup=*/0, PB.Meta.RegionLength,
                        [&] { return pinballInputDigest(PB); }))
    return E;
  S.start(/*Engine=*/nullptr);

  replay::ReplayOptions Opts;
  Opts.Injection = Constrained;
  Opts.Config = std::move(VMConfig);
  Opts.Obs = &S;
  // The replayer's budget covers warming + ROI; the observer partitions
  // the stream at the boundary.
  if (S.Controls.MaxInstructions != UINT64_MAX)
    Opts.MaxInstructions = S.Warmup + S.Controls.MaxInstructions;
  auto R = replay::replayPinball(PB, Opts);
  if (!R)
    return R.takeError();
  return S.finish(R->Reason, R->FaultInfo, R->Divergence, R->VMStats,
                  R->MemStats, R->JitStats);
}
