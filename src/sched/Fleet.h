//===- sched/Fleet.h - Crash-recoverable campaign engine -------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine behind efleet and efleetd: executes a CampaignPlan
/// through a bounded pool of subprocess workers, classifying every attempt
/// via sched/Classify, retrying transient failures with seeded backoff,
/// quarantining deterministic ones, and journaling every transition so a
/// SIGKILL mid-campaign resumes exactly where it left off.
///
/// The engine is embeddable: FleetEngine exposes a non-blocking step()
/// (one launch + reap pass) so a host — efleet's runFleet() loop or the
/// efleetd service multiplexing many campaigns — owns the clock and the
/// sleeping. Worker-subprocess crashes never propagate: a child dying on
/// any signal is an attempt outcome (classified transient), not an engine
/// error. A journal append failure (ENOSPC and friends) parks the affected
/// job instead of corrupting state; the engine stays steppable so in-flight
/// work can drain, and the parked job re-runs on the next resume.
///
/// SIGINT/SIGTERM (delivered as requestDrain()) trigger a graceful drain:
/// no new jobs start, running jobs get a grace period before SIGKILL, the
/// journal is sealed, and the summary is still emitted. Repeated drain
/// requests are idempotent.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SCHED_FLEET_H
#define ELFIE_SCHED_FLEET_H

#include "sched/Campaign.h"
#include "sched/Journal.h"
#include "support/Error.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace elfie {
class CommandLine;

namespace sched {

/// Campaign-wide knobs (per-job manifest attributes override some).
struct FleetOptions {
  /// Directory holding the driven tools (ereplay, everify, ...).
  std::string BinDir;
  /// Campaign state root: journal.jsonl, logs/, quarantine/, artifacts/.
  std::string OutDir;
  uint32_t Workers = 4;
  /// Max attempts per job (first run + retries). Manifest !retries=
  /// overrides per job.
  uint32_t Retries = 5;
  uint64_t BackoffBaseMs = 200;
  uint64_t BackoffCapMs = 5000;
  /// Seed for the deterministic backoff jitter.
  uint64_t Seed = 0;
  /// Per-job timeout override in seconds; 0 = budget-scaled from the
  /// target pinball's region length (watchdog scaling), falling back to
  /// DefaultTimeoutSecs for non-pinball targets.
  uint64_t TimeoutSecs = 0;
  uint64_t DefaultTimeoutSecs = 120;
  /// Drain grace period before running jobs are SIGKILLed.
  uint64_t GraceSecs = 5;
  /// Poll cadence of the worker loop (used by runFleet; the daemon owns
  /// its own cadence).
  uint64_t PollMs = 20;
  /// Diagnostic prefix on stderr lines ("efleet", "efleetd[ns/id]").
  std::string Tag = "efleet";
  bool Verbose = false;
  /// estore pool root backing `estore://<artifact>` job targets. start()
  /// materializes each such artifact into OutDir/artifacts/ digest-
  /// verified before any job runs; pool corruption surfaces as a typed
  /// EFAULT.STORE.* start error, pool disk pressure as EFAULT.IO.ENOSPC
  /// (which the daemon's admission control answers with `busy DISK`).
  std::string StoreRoot;
};

/// Registers the campaign flags efleet and efleetd share: -bindir
/// -workers -retries -backoff-ms -backoff-max-ms -seed -timeout -grace
/// -store -verbose. \p Tool names the binary in the -bindir help.
void addFleetFlags(CommandLine &CL, const std::string &Tool);

/// Reads the flags addFleetFlags() registered into \p Out; an empty
/// -bindir means the directory of \p Argv0. Fails when -workers or
/// -retries is 0.
Error readFleetFlags(const CommandLine &CL, const char *Argv0,
                     FleetOptions &Out);

/// End-of-run accounting (also derivable from the journal).
struct FleetSummary {
  uint64_t Total = 0;       ///< jobs in the manifest
  uint64_t Succeeded = 0;   ///< terminal success (this run or journaled)
  uint64_t Quarantined = 0; ///< terminal deterministic failure
  uint64_t Incomplete = 0;  ///< not terminal (drained campaigns)
  uint64_t Attempts = 0;    ///< attempts launched this run
  uint64_t Retries = 0;     ///< transient retries scheduled this run
  uint64_t SkippedComplete = 0; ///< skipped: already terminal in journal
  bool Drained = false;
  bool Resumed = false;
  uint64_t WallMs = 0;

  /// Human summary (multi-line, "efleet: " prefixed).
  std::string renderText() const;
  /// One-line JSON summary.
  std::string renderJSON() const;
  /// Campaign succeeded iff every job reached terminal success.
  bool allSucceeded() const {
    return Quarantined == 0 && Incomplete == 0 && Succeeded == Total;
  }
};

/// Requests a graceful drain (async-signal-safe; called from the SIGINT/
/// SIGTERM handlers in efleet_main). Process-wide: every runFleet() loop
/// observes it. The daemon drains per-engine instead.
void requestDrain();

/// True once a drain has been requested.
bool drainRequested();

/// Clears the drain flag (tests).
void resetDrain();

/// The embeddable campaign engine. Lifecycle:
///
///   FleetEngine E(Plan, Opts);
///   E.start();                       // dirs, resume scan, journal open
///   while (!E.finished()) {
///     E.step(monotonicMillis());     // launch + reap, never blocks
///     <sleep or serve other work>
///   }
///   E.seal();                        // seal record, summary final
///
/// step() errors are journal/quarantine write failures — the host decides
/// whether they are fatal (efleet) or a degrade-to-drain condition
/// (efleetd under ENOSPC, see isDiskPressureError). Job failures are
/// accounting, never step() errors.
class FleetEngine {
public:
  /// The engine owns its plan: daemon campaigns outlive the request that
  /// carried the manifest.
  FleetEngine(CampaignPlan Plan, FleetOptions Opts);
  ~FleetEngine();

  FleetEngine(const FleetEngine &) = delete;
  FleetEngine &operator=(const FleetEngine &) = delete;

  /// Creates the state root, scans any prior journal (resume), opens the
  /// journal, and writes the plan/resume record.
  Error start();

  /// One scheduler pass at time \p NowMs: observe a pending drain, launch
  /// eligible jobs (at most \p LaunchBudget this pass, on top of the
  /// Workers cap), reap finished children, enforce per-job timeouts.
  /// Non-blocking.
  Error step(uint64_t NowMs, uint32_t LaunchBudget = UINT32_MAX);

  /// True when no further step() can make progress: all jobs terminal, or
  /// a drain finished (nothing left running).
  bool finished() const;

  /// Asks for a graceful drain: no new launches; running jobs get
  /// GraceSecs before their process groups are SIGKILLed. Idempotent.
  void requestDrain() { DrainWanted = true; }
  bool draining() const { return Draining || DrainWanted; }

  /// Appends the seal record, finalizes the summary, and closes the
  /// journal. Call once, after finished().
  Error seal();
  bool sealed() const { return Sealed; }

  const FleetSummary &summary() const { return Sum; }
  const CampaignPlan &plan() const { return Plan; }

  /// Live occupancy for hosts multiplexing engines.
  struct Counts {
    uint64_t Pending = 0; ///< waiting to launch (including backoff waits)
    uint64_t Running = 0;
    uint64_t Done = 0;
    uint64_t Quarantined = 0;
    uint64_t Total = 0;
  };
  Counts counts() const;
  uint32_t runningCount() const;

  /// Invoked (when set) with every journal record after its durable
  /// append succeeds — the daemon's event-streaming tap. Must not throw.
  std::function<void(const JournalRecord &)> EventSink;

private:
  struct JobState;

  Error journalAppend(JournalRecord Rec);
  Error materializeStoreTargets();
  std::vector<std::string> buildArgv(const JobState &JS) const;
  uint64_t jobTimeoutSecs(const Job &J) const;
  uint32_t jobRetries(const Job &J) const;
  Error launch(JobState &JS);
  Error finishAttempt(JobState &JS, const struct AttemptOutcome &O);
  Error quarantine(JobState &JS, const std::string &Reason,
                   const struct AttemptOutcome &O);
  void park(JobState &JS);
  void verbose(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  CampaignPlan Plan;
  FleetOptions Opts;
  JournalWriter Writer;
  std::vector<std::unique_ptr<JobState>> Jobs;
  FleetSummary Sum;

  uint64_t StartWallMs = 0;
  bool Started = false;
  bool DrainWanted = false; ///< requested, observed at the next step()
  bool Draining = false;    ///< drain in effect
  uint64_t DrainStartMs = 0;
  bool GraceKilled = false;
  bool Sealed = false;
  bool AnyRunning = false;
  bool AnyPending = true; ///< until start() proves otherwise
};

/// Runs \p Plan to completion (or drain) under \p Opts, owning the loop
/// and the process-wide drain flag. Hard failures — unwritable out dir,
/// unreadable journal, failed journal appends — error out; job failures
/// are accounting, not errors.
Expected<FleetSummary> runFleet(const CampaignPlan &Plan,
                                const FleetOptions &Opts);

} // namespace sched
} // namespace elfie

#endif // ELFIE_SCHED_FLEET_H
