//===- tools/estore_main.cpp - the estore pool driver ---------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// estore <cmd> <pool-root> [...]: operate the content-addressed artifact
// pool. Commands:
//
//   put <root> <file>        ingest a file (chunk + dedup + manifest)
//   get <root> <name> -o F   reassemble an artifact, digest-verified
//   ls <root>                list artifacts
//   scrub <root>             re-hash every chunk; quarantine corruption
//   repair <root> -from R    re-fetch bad/missing chunks from replicas
//   gc <root>                journaled mark-and-sweep of unreferenced chunks
//   stats <root>             pool accounting incl. the dedup ratio
//
// Exit codes follow the repo convention: 0 ok, 1 findings/errors, 2 usage.
// scrub exits 1 when it found corruption, repair exits 1 when a chunk
// stayed unrepairable -- so CI can gate on a clean pool.
//
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"
#include "store/Artifact.h"
#include "support/CommandLine.h"
#include "support/FileIO.h"
#include "support/Format.h"
#include "support/MappedFile.h"

#include <cstdio>

using namespace elfie;
using namespace elfie::store;

static int cmdPut(ChunkStore &Pool, const CommandLine &CL) {
  const std::string &File = CL.positional()[2];
  std::string Name = CL.getString("name");
  if (Name.empty()) {
    size_t Slash = File.rfind('/');
    Name = Slash == std::string::npos ? File : File.substr(Slash + 1);
  }
  MappedFile In = exitOnError(MappedFile::open(File));
  auto Before = exitOnError(Pool.stats());
  Manifest M = exitOnError(putArtifact(Pool, Name, In.span(), File));
  auto After = exitOnError(Pool.stats());
  uint64_t NewBytes = After.ChunkBytes - Before.ChunkBytes;
  if (CL.getFlag("json")) {
    std::printf("{\"artifact\":\"%s\",\"kind\":\"%s\",\"size\":%llu,"
                "\"sha256\":\"%s\",\"chunks\":%zu,\"new_bytes\":%llu}\n",
                Name.c_str(), M.Kind.c_str(),
                static_cast<unsigned long long>(M.Size),
                M.Total.hex().c_str(), M.Chunks.size(),
                static_cast<unsigned long long>(NewBytes));
  } else {
    std::printf("estore: put '%s' (%s, %llu bytes, %zu chunks, %llu new "
                "pool bytes, sha256 %s)\n",
                Name.c_str(), M.Kind.c_str(),
                static_cast<unsigned long long>(M.Size), M.Chunks.size(),
                static_cast<unsigned long long>(NewBytes),
                M.Total.hex().c_str());
  }
  return ExitSuccess;
}

static int cmdGet(ChunkStore &Pool, const CommandLine &CL) {
  const std::string &Name = CL.positional()[2];
  std::string Out = CL.getString("o");
  if (Out.empty())
    Out = Name;
  Manifest M;
  exitOnError(materializeArtifact(Pool, Name, Out, &M));
  std::fprintf(stderr, "estore: get '%s' -> %s (%llu bytes, verified %s)\n",
               Name.c_str(), Out.c_str(),
               static_cast<unsigned long long>(M.Size),
               M.Total.hex().c_str());
  return ExitSuccess;
}

static int cmdLs(ChunkStore &Pool, const CommandLine &CL) {
  auto Names = exitOnError(Pool.listManifests());
  if (CL.getFlag("json"))
    std::printf("[");
  bool First = true;
  for (const std::string &Name : Names) {
    auto M = Pool.getManifest(Name);
    if (CL.getFlag("json")) {
      if (!M) {
        std::printf("%s{\"artifact\":\"%s\",\"error\":\"unreadable\"}",
                    First ? "" : ",", Name.c_str());
      } else {
        std::printf("%s{\"artifact\":\"%s\",\"kind\":\"%s\",\"size\":%llu,"
                    "\"chunks\":%zu,\"sha256\":\"%s\"}",
                    First ? "" : ",", Name.c_str(), M->Kind.c_str(),
                    static_cast<unsigned long long>(M->Size),
                    M->Chunks.size(), M->Total.hex().c_str());
      }
      First = false;
      continue;
    }
    if (!M)
      std::printf("%-32s  <unreadable: %s>\n", Name.c_str(),
                  M.message().c_str());
    else
      std::printf("%-32s  %-4s %10llu bytes  %4zu chunks  %s\n",
                  Name.c_str(), M->Kind.c_str(),
                  static_cast<unsigned long long>(M->Size),
                  M->Chunks.size(), M->Total.hex().c_str());
  }
  if (CL.getFlag("json"))
    std::printf("]\n");
  return ExitSuccess;
}

static int cmdScrub(ChunkStore &Pool, const CommandLine &CL) {
  bool Quarantine = !CL.getFlag("no-quarantine");
  ScrubResult R = exitOnError(Pool.scrub(Quarantine));
  if (CL.getFlag("json")) {
    std::printf("{\"chunks_scanned\":%llu,\"bytes_scanned\":%llu,"
                "\"corrupt\":[",
                static_cast<unsigned long long>(R.ChunksScanned),
                static_cast<unsigned long long>(R.BytesScanned));
    for (size_t I = 0; I < R.Corrupt.size(); ++I) {
      const ScrubFinding &F = R.Corrupt[I];
      std::printf("%s{\"expected\":\"%s\",\"actual\":\"%s\","
                  "\"quarantined\":%s,\"manifests\":[",
                  I ? "," : "", F.Expected.hex().c_str(), F.Actual.c_str(),
                  F.Quarantined ? "true" : "false");
      for (size_t J = 0; J < F.ReferencingManifests.size(); ++J)
        std::printf("%s\"%s\"", J ? "," : "",
                    F.ReferencingManifests[J].c_str());
      std::printf("]}");
    }
    std::printf("],\"missing_refs\":[");
    for (size_t I = 0; I < R.MissingRefs.size(); ++I)
      std::printf("%s\"%s\"", I ? "," : "", R.MissingRefs[I].c_str());
    std::printf("]}\n");
  } else {
    std::printf("estore: scrubbed %llu chunks (%llu bytes): %zu corrupt, "
                "%zu missing references\n",
                static_cast<unsigned long long>(R.ChunksScanned),
                static_cast<unsigned long long>(R.BytesScanned),
                R.Corrupt.size(), R.MissingRefs.size());
    for (const ScrubFinding &F : R.Corrupt)
      std::printf("  EFAULT.STORE.DIGEST %s: %s%s\n",
                  F.Expected.hex().c_str(), F.Detail.c_str(),
                  F.Quarantined ? " [quarantined]" : "");
    for (const std::string &Hex : R.MissingRefs)
      std::printf("  EFAULT.STORE.MISSING %s (referenced by a manifest)\n",
                  Hex.c_str());
  }
  return (R.Corrupt.empty() && R.MissingRefs.empty()) ? ExitSuccess
                                                      : ExitFailure;
}

static int cmdRepair(ChunkStore &Pool, const CommandLine &CL) {
  std::vector<std::string> Replicas;
  for (const std::string &R : splitString(CL.getString("from"), ','))
    if (!R.empty())
      Replicas.push_back(R);
  if (Replicas.empty()) {
    std::fprintf(stderr, "estore repair: -from <replica-root[,...]> is "
                         "required\n");
    return ExitUsage;
  }
  RepairResult R = exitOnError(Pool.repair(Replicas));
  if (CL.getFlag("json")) {
    std::printf("{\"restored\":%llu,\"unrepairable\":%llu,"
                "\"unrepairable_digests\":[",
                static_cast<unsigned long long>(R.Restored),
                static_cast<unsigned long long>(R.Unrepairable));
    for (size_t I = 0; I < R.UnrepairableDigests.size(); ++I)
      std::printf("%s\"%s\"", I ? "," : "",
                  R.UnrepairableDigests[I].c_str());
    std::printf("]}\n");
  } else {
    std::printf("estore: repair restored %llu chunks, %llu unrepairable\n",
                static_cast<unsigned long long>(R.Restored),
                static_cast<unsigned long long>(R.Unrepairable));
    for (const std::string &Hex : R.UnrepairableDigests)
      std::printf("  unrepairable %s (no replica had a good copy)\n",
                  Hex.c_str());
  }
  return R.Unrepairable == 0 ? ExitSuccess : ExitFailure;
}

static int cmdGc(ChunkStore &Pool, const CommandLine &CL) {
  GcResult R = exitOnError(Pool.gc());
  if (CL.getFlag("json"))
    std::printf("{\"live\":%llu,\"swept\":%llu,\"swept_bytes\":%llu,"
                "\"restored\":%llu,\"recovered_torn_gc\":%s}\n",
                static_cast<unsigned long long>(R.Live),
                static_cast<unsigned long long>(R.Swept),
                static_cast<unsigned long long>(R.SweptBytes),
                static_cast<unsigned long long>(R.Restored),
                R.RecoveredTornGc ? "true" : "false");
  else
    std::printf("estore: gc kept %llu live chunks, swept %llu (%llu "
                "bytes)%s\n",
                static_cast<unsigned long long>(R.Live),
                static_cast<unsigned long long>(R.Swept),
                static_cast<unsigned long long>(R.SweptBytes),
                R.RecoveredTornGc
                    ? formatString(" [recovered torn gc: %llu restored]",
                                   static_cast<unsigned long long>(
                                       R.Restored))
                          .c_str()
                    : "");
  return ExitSuccess;
}

static int cmdStats(ChunkStore &Pool, const CommandLine &CL) {
  StoreStats S = exitOnError(Pool.stats());
  double Ratio = S.ChunkBytes
                     ? static_cast<double>(S.ArtifactBytes) /
                           static_cast<double>(S.ChunkBytes)
                     : 0.0;
  if (CL.getFlag("json"))
    std::printf("{\"chunks\":%llu,\"chunk_bytes\":%llu,\"manifests\":%llu,"
                "\"artifact_bytes\":%llu,\"dedup_ratio\":%.3f,"
                "\"quarantined\":%llu,\"active_pins\":%llu}\n",
                static_cast<unsigned long long>(S.Chunks),
                static_cast<unsigned long long>(S.ChunkBytes),
                static_cast<unsigned long long>(S.Manifests),
                static_cast<unsigned long long>(S.ArtifactBytes), Ratio,
                static_cast<unsigned long long>(S.Quarantined),
                static_cast<unsigned long long>(S.ActivePins));
  else
    std::printf("estore: %llu chunks / %llu bytes serving %llu artifacts "
                "/ %llu bytes (dedup ratio %.2fx), %llu quarantined, "
                "%llu active pins\n",
                static_cast<unsigned long long>(S.Chunks),
                static_cast<unsigned long long>(S.ChunkBytes),
                static_cast<unsigned long long>(S.Manifests),
                static_cast<unsigned long long>(S.ArtifactBytes), Ratio,
                static_cast<unsigned long long>(S.Quarantined),
                static_cast<unsigned long long>(S.ActivePins));
  return ExitSuccess;
}

int main(int Argc, char **Argv) {
  fault::installFaultHookFromEnv();
  CommandLine CL("estore",
                 "operate the integrity-verified content-addressed "
                 "artifact pool (put/get/ls/scrub/repair/gc/stats)");
  CL.addString("o", "", "get: output path (default: artifact name)");
  CL.addString("name", "", "put: artifact name (default: file basename)");
  CL.addString("from", "",
               "repair: comma-separated replica pool roots, tried in "
               "order");
  CL.addFlag("no-quarantine", false,
             "scrub: report corruption but leave chunks in place");
  CL.addFlag("json", false, "machine-readable output");
  exitOnError(CL.parse(Argc, Argv));

  const auto &Pos = CL.positional();
  auto Usage = [] {
    std::fprintf(stderr,
                 "usage: estore <put|get|ls|scrub|repair|gc|stats> "
                 "<pool-root> [args] [options]\n");
    return ExitUsage;
  };
  if (Pos.size() < 2)
    return Usage();
  const std::string &Cmd = Pos[0];
  const std::string &Root = Pos[1];

  // `put` creates the pool on first use; everything else requires one.
  bool Create = Cmd == "put";
  ChunkStore Pool = exitOnError(ChunkStore::open(Root, Create));

  if (Cmd == "put" && Pos.size() == 3)
    return cmdPut(Pool, CL);
  if (Cmd == "get" && Pos.size() == 3)
    return cmdGet(Pool, CL);
  if (Cmd == "ls" && Pos.size() == 2)
    return cmdLs(Pool, CL);
  if (Cmd == "scrub" && Pos.size() == 2)
    return cmdScrub(Pool, CL);
  if (Cmd == "repair" && Pos.size() == 2)
    return cmdRepair(Pool, CL);
  if (Cmd == "gc" && Pos.size() == 2)
    return cmdGc(Pool, CL);
  if (Cmd == "stats" && Pos.size() == 2)
    return cmdStats(Pool, CL);
  return Usage();
}
