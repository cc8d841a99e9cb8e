//===- bench/store_dedup.cpp - cross-region dedup + verify cost -----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// The artifact-store report (DESIGN.md §15): captures several regions of
/// one workload, emits each as an ELFie, ingests them into one estore
/// pool, and prints
///
///   * pool bytes vs the artifacts stored naively (one full copy each) —
///     the cross-region dedup win the ELF-aware chunking is built for,
///   * the cost of integrity: verified reassembly (every distinct chunk
///     read once and re-hashed, plus the whole-artifact digest check) vs a
///     plain file read,
///   * the store layer's per-artifact latencies: median putArtifact into
///     an empty pool and into a pool that already holds every chunk, and
///     median materializeArtifact (reported, not gated),
///   * median materializeArtifact of a gcc_like-shaped artifact: a 10 MB
///     ELFie whose chunks are mostly distinct (reported, not gated).
///
/// Runs as a labelled ctest (`ctest -L "bench|store"`) and fails if dedup
/// or byte-identity regress, so the storage claim stays a tested claim.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchSupport.h"
#include "core/Pinball2Elf.h"
#include "store/Artifact.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>

using namespace elfie;
using namespace elfie::bench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
  if (!Ok)
    ++Failures;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

double medianMs(std::vector<double> Secs) {
  std::sort(Secs.begin(), Secs.end());
  return Secs.empty() ? 0.0 : 1e3 * Secs[Secs.size() / 2];
}

} // namespace

int main() {
  std::string Dir = workDir("store_dedup");
  std::string Prog =
      buildWorkload(Dir, "xz_like", workloads::InputSet::Test);

  // Several disjoint regions of one execution: the deployment shape the
  // store targets (N checkpoints of one workload sharing code/data pages).
  std::printf("store_dedup: capture + emit 4 regions\n");
  auto Segs = exitOnError(captureSegments(Prog, {{100000, 200000},
                                                 {300000, 400000},
                                                 {500000, 600000},
                                                 {700000, 800000}}));

  auto Pool = exitOnError(store::ChunkStore::open(Dir + "/pool"));
  uint64_t NaiveBytes = 0;
  std::vector<std::vector<uint8_t>> Images;
  for (size_t I = 0; I < Segs.size(); ++I) {
    core::Pinball2ElfOptions Opts;
    auto Image = exitOnError(core::pinballToElf(Segs[I], Opts));
    NaiveBytes += Image.size();
    std::string Name = formatString("region%zu.elfie", I);
    exitOnError(store::putArtifact(Pool, Name, Image));
    Images.push_back(std::move(Image));
  }

  auto Stats = exitOnError(Pool.stats());
  double Ratio = Stats.ChunkBytes
                     ? static_cast<double>(Stats.ArtifactBytes) /
                           static_cast<double>(Stats.ChunkBytes)
                 : 0.0;
  std::printf("store_dedup: %zu artifacts, naive %llu bytes, pool %llu "
              "bytes (dedup %.2fx, saved %.1f%%)\n",
              Images.size(),
              static_cast<unsigned long long>(NaiveBytes),
              static_cast<unsigned long long>(Stats.ChunkBytes), Ratio,
              NaiveBytes
                  ? 100.0 * (1.0 - static_cast<double>(Stats.ChunkBytes) /
                                       static_cast<double>(NaiveBytes))
                  : 0.0);
  check(Stats.ArtifactBytes == NaiveBytes, "pool accounts every byte");
  check(Stats.ChunkBytes < NaiveBytes,
        "cross-region dedup: pool smaller than naive storage");

  // Verified-load cost: reassemble each artifact (per-chunk digests + the
  // whole-artifact hash) vs a plain read of the materialized file.
  for (size_t I = 0; I < Images.size(); ++I)
    exitOnError(store::materializeArtifact(
        Pool, formatString("region%zu.elfie", I),
        Dir + formatString("/region%zu.out", I)));

  constexpr int Reps = 20;
  auto T0 = std::chrono::steady_clock::now();
  uint64_t VerifiedBytes = 0;
  for (int R = 0; R < Reps; ++R)
    for (size_t I = 0; I < Images.size(); ++I) {
      auto L = exitOnError(store::loadArtifact(
          Pool, formatString("region%zu.elfie", I)));
      VerifiedBytes += L.size();
      if (R == 0)
        check(L == Images[I],
              formatString("region%zu verified load is byte-identical", I)
                  .c_str());
    }
  double VerifySecs = secondsSince(T0);

  T0 = std::chrono::steady_clock::now();
  uint64_t PlainBytes = 0;
  for (int R = 0; R < Reps; ++R)
    for (size_t I = 0; I < Images.size(); ++I) {
      auto B = exitOnError(
          readFileBytes(Dir + formatString("/region%zu.out", I)));
      PlainBytes += B.size();
    }
  double PlainSecs = secondsSince(T0);

  std::printf("store_dedup: verified load %.1f MB/s, plain read %.1f MB/s "
              "(verify overhead %.1fx)\n",
              VerifiedBytes / VerifySecs / 1e6,
              PlainBytes / PlainSecs / 1e6,
              PlainSecs > 0 ? VerifySecs / PlainSecs : 0.0);
  check(VerifiedBytes == PlainBytes, "both paths read the same bytes");

  // Per-artifact store latencies, one sample per artifact per round.
  constexpr int Rounds = 5;
  std::vector<double> PutEmpty, PutPresent, Materialize;
  for (int R = 0; R < Rounds; ++R)
    for (size_t I = 0; I < Images.size(); ++I) {
      std::string Fresh = Dir + formatString("/empty%d.%zu", R, I);
      auto Empty = exitOnError(store::ChunkStore::open(Fresh));
      T0 = std::chrono::steady_clock::now();
      exitOnError(store::putArtifact(Empty, "a", Images[I]));
      PutEmpty.push_back(secondsSince(T0));
      removeTree(Fresh);

      T0 = std::chrono::steady_clock::now();
      exitOnError(store::putArtifact(
          Pool, formatString("again%d.%zu", R, I), Images[I]));
      PutPresent.push_back(secondsSince(T0));

      T0 = std::chrono::steady_clock::now();
      exitOnError(store::materializeArtifact(
          Pool, formatString("region%zu.elfie", I),
          Dir + formatString("/region%zu.out", I)));
      Materialize.push_back(secondsSince(T0));
    }
  std::printf("store_dedup: per artifact (median of %zu): putArtifact "
              "%.2f ms into an empty pool, %.2f ms with every chunk "
              "present; materializeArtifact %.2f ms\n",
              PutEmpty.size(), medianMs(PutEmpty), medianMs(PutPresent),
              medianMs(Materialize));

  // A gcc_like-shaped artifact: a late region of gcc_like train emits a
  // 10 MB ELFie whose chunks are mostly distinct, so reassembly is bound by
  // chunk reads rather than by copies of repeated pages.
  std::string Gcc = buildWorkload(Dir, "gcc_like", workloads::InputSet::Train);
  auto GccSegs = exitOnError(captureSegments(Gcc, {{14000000, 14100000}}));
  if (GccSegs.empty())
    reportFatalError("store_dedup: gcc_like capture produced no region");
  auto GccImage =
      exitOnError(core::pinballToElf(GccSegs[0], core::Pinball2ElfOptions()));
  auto GccManifest = exitOnError(store::putArtifact(Pool, "gcc", GccImage));
  std::set<Sha256Digest> GccDistinct;
  for (const store::ChunkRef &C : GccManifest.Chunks)
    GccDistinct.insert(C.Digest);
  std::vector<double> GccMaterialize;
  for (int R = 0; R < 10; ++R) {
    T0 = std::chrono::steady_clock::now();
    exitOnError(store::materializeArtifact(Pool, "gcc", Dir + "/gcc.out"));
    GccMaterialize.push_back(secondsSince(T0));
  }
  std::printf("store_dedup: gcc_like-shaped artifact (%zu bytes, %zu "
              "references, %zu distinct): materializeArtifact %.2f ms "
              "(median of %zu)\n",
              GccImage.size(), GccManifest.Chunks.size(), GccDistinct.size(),
              medianMs(GccMaterialize), GccMaterialize.size());

  removeTree(Dir);
  if (Failures) {
    std::printf("store_dedup: %d FAILURE(S)\n", Failures);
    return 1;
  }
  std::printf("store_dedup: all checks passed\n");
  return 0;
}
