//===- sched/Campaign.h - Campaign manifests and jobs ----------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign manifest: the unit of work efleet executes. A manifest is a
/// line-oriented text file, one job per line (documented in DESIGN.md §9):
///
///   # comment / blank lines ignored
///   <id> <action> <target> [!timeout=<secs>] [!retries=<n>]
///                          [!warmup=<insns>] [!env:<K>=<V>]...
///                          [extra tool args...]
///
///   id      unique per manifest, charset [A-Za-z0-9._-]
///   action  replay | emit | native | verify | sim
///   target  pinball directory or ELFie path, action-dependent
///
/// `!`-prefixed tokens are per-job attributes; every other token after the
/// target is passed to the tool verbatim. The placeholder `{attempt}`
/// inside env values and extra args expands to the 1-based attempt number
/// at spawn time, which lets a manifest inject attempt-dependent faults
/// (e.g. !env:ELFIE_FAULT_SPEC=write:{attempt}:enospc fails the first
/// attempt and misses once the attempt number exceeds the tool's write
/// count — a deterministic "transient" failure).
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_SCHED_CAMPAIGN_H
#define ELFIE_SCHED_CAMPAIGN_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace elfie {
namespace sched {

/// What a job does with its target (DESIGN.md §9 maps each to a command).
enum class Action {
  Replay, ///< ereplay <target pinball>
  Emit,   ///< pinball2elf -verify -o <out>/artifacts/<id>.elfie <pinball>
  Native, ///< run <target> directly (an emitted native ELFie)
  Verify, ///< everify <target ELFie>
  Sim,    ///< esim -config nehalem <target> (a directory is a pinball)
};

/// Parses an action name; errors carry EFAULT.FLEET.ACTION.
Expected<Action> parseAction(const std::string &Name);

/// The stable manifest spelling of \p A.
const char *actionName(Action A);

/// One campaign job.
struct Job {
  std::string Id;
  Action A = Action::Replay;
  std::string Target;
  std::vector<std::string> ExtraArgs;
  /// Extra child environment (on top of the inherited one).
  std::vector<std::pair<std::string, std::string>> Env;
  /// Per-job timeout override in seconds; 0 = campaign default
  /// (budget-scaled for pinball targets).
  uint64_t TimeoutSecs = 0;
  /// Per-job retry-budget override; 0 = campaign default.
  uint32_t Retries = 0;
  /// `sim` only: warm the first N post-marker instructions and checkpoint
  /// the boundary. The first attempt writes the job's `.esimstate`
  /// sidecar (`esim -warmup-save`); any later attempt finds it and
  /// resumes (`-warmup-load`), so a retried simulation skips re-warming.
  /// A corrupt sidecar fails closed (EFAULT.SIMSTATE.*), which classifies
  /// as deterministic: the job is quarantined, never blindly retried.
  uint64_t WarmupInstructions = 0;
};

/// A parsed, validated manifest.
struct CampaignPlan {
  std::vector<Job> Jobs;

  /// Parses manifest text. Errors carry EFAULT.FLEET.MANIFEST with the
  /// offending line number.
  static Expected<CampaignPlan> parse(const std::string &Text);

  /// Reads and parses \p Path.
  static Expected<CampaignPlan> loadFile(const std::string &Path);

  /// Finds a job by id; null when absent.
  const Job *find(const std::string &Id) const;
};

/// Renders \p J as one manifest line (inverse of parse for the fields the
/// grammar covers).
std::string manifestLine(const Job &J);

/// Appends \p J as one line to the manifest at \p Path (created when
/// missing). Used by the -manifest emitters in ereplay/everify to grow a
/// campaign from ad-hoc invocations.
Error appendManifestLine(const std::string &Path, const Job &J);

/// Derives a manifest-legal job id from a target path ("pb/foo" ->
/// "replay.pb_foo" for action prefix "replay").
std::string jobIdForTarget(const std::string &Prefix,
                           const std::string &Target);

/// Expands `{attempt}` occurrences in \p Text.
std::string expandPlaceholders(const std::string &Text, uint32_t Attempt);

} // namespace sched
} // namespace elfie

#endif // ELFIE_SCHED_CAMPAIGN_H
