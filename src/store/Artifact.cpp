//===- store/Artifact.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "store/Artifact.h"

#include "elf/ELFReader.h"
#include "support/FileIO.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <system_error>
#include <thread>

using namespace elfie;
using namespace elfie::elf;
using namespace elfie::store;

std::string elfie::store::classifyArtifact(std::span<const uint8_t> Bytes) {
  if (Bytes.size() < 4 || Bytes[0] != 0x7f || Bytes[1] != 'E' ||
      Bytes[2] != 'L' || Bytes[3] != 'F')
    return "raw";
  auto R = ELFReader::parseView(Bytes);
  if (!R) {
    R.takeError();
    return "raw"; // malformed ELF: chunk it like any other byte string
  }
  return "elf";
}

namespace {

/// Appends fixed-granule chunks covering [Begin, End).
void tileFixed(uint64_t Begin, uint64_t End,
               std::vector<std::pair<uint64_t, uint64_t>> &Out) {
  for (uint64_t Off = Begin; Off < End; Off += ChunkGranule)
    Out.emplace_back(Off, std::min(ChunkGranule, End - Off));
}

} // namespace

std::vector<std::pair<uint64_t, uint64_t>>
elfie::store::chunkBoundaries(std::span<const uint8_t> Bytes,
                              const std::string &Kind) {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  uint64_t Size = Bytes.size();
  if (Size == 0)
    return Out;

  if (Kind == "elf") {
    auto R = ELFReader::parseView(Bytes);
    if (R) {
      // Section content ranges, clipped to the file and de-overlapped.
      std::vector<std::pair<uint64_t, uint64_t>> Ranges; // (begin, end)
      for (const auto &Sec : R->sections()) {
        if (Sec.Type != SHT_PROGBITS || Sec.Size == 0)
          continue;
        if (Sec.Offset >= Size)
          continue;
        Ranges.emplace_back(Sec.Offset,
                            std::min(Size, Sec.Offset + Sec.Size));
      }
      std::sort(Ranges.begin(), Ranges.end());
      uint64_t Cursor = 0;
      for (auto [Begin, End] : Ranges) {
        Begin = std::max(Begin, Cursor); // drop any overlap with the prior
        if (Begin >= End)
          continue;
        tileFixed(Cursor, Begin, Out); // residue: headers, gaps, tables
        // Section payload split relative to the *section* start, so the
        // same page payload chunks identically across differently-laid-out
        // files.
        tileFixed(Begin, End, Out);
        Cursor = End;
      }
      tileFixed(Cursor, Size, Out); // tail: section headers etc.
      return Out;
    }
    R.takeError();
  }

  tileFixed(0, Size, Out);
  return Out;
}

Expected<Manifest> elfie::store::putArtifact(ChunkStore &S,
                                             const std::string &Name,
                                             std::span<const uint8_t> Bytes,
                                             const std::string &Source) {
  if (!Manifest::validName(Name))
    return makeCodedError("EFAULT.STORE.MANIFEST",
                          "invalid artifact name '%s'", Name.c_str());
  Manifest M;
  M.Name = Name;
  M.Kind = classifyArtifact(Bytes);
  M.Source = Source;
  M.Size = Bytes.size();
  M.Total = Sha256::digest(Bytes);

  // Hash everything first; each distinct digest is pinned and put once.
  std::set<Sha256Digest> Seen;
  std::vector<Sha256Digest> Distinct;
  std::vector<std::span<const uint8_t>> Pieces; // bytes of Distinct[I]
  for (auto [Off, Len] : chunkBoundaries(Bytes, M.Kind)) {
    std::span<const uint8_t> Piece = Bytes.subspan(Off, Len);
    M.Chunks.push_back({Off, Len, Sha256::digest(Piece)});
    if (Seen.insert(M.Chunks.back().Digest).second) {
      Distinct.push_back(M.Chunks.back().Digest);
      Pieces.push_back(Piece);
    }
  }

  // Pin before put: from the instant any chunk exists it has a GC root,
  // even if we die before the manifest publishes.
  if (Error E = S.pin(Name, Distinct))
    return E;
  for (std::span<const uint8_t> Piece : Pieces) {
    auto Put = S.put(Piece);
    if (!Put)
      return Put.takeError();
  }

  if (Error E = S.putManifest(M))
    return E;
  // Manifest is the durable root now; retire the ingestion pins.
  if (Error E = S.sealPins(Name))
    return E;
  return M;
}

namespace {

/// Chunk reads per batch: the unit a reader claims and publishes.
constexpr size_t ReadBatch = 64;

/// Reader threads besides the caller, at most.
constexpr unsigned MaxHelpers = 3;

/// A batch's published outcome.
enum BatchState : uint32_t { Pending, Done, Failed };

/// Reassembles \p M into \p Out (M.Size bytes) in one pipelined pass
/// (DESIGN.md §15.2). The offset-order walk plans the reads: the first
/// reference of each digest is read in place, later ones copy its verified
/// bytes. A repeat of another size cannot match the chunk file: it is read
/// again, which reports the size mismatch. Helpers and the caller claim
/// batches of reads in offset order; the caller follows behind them,
/// copying repeats and hashing the whole artifact as it goes. Under an I/O
/// fault hook there are no helpers, so the hook sees a serial walk's reads.
Error assembleInto(const ChunkStore &S, const Manifest &M,
                   std::span<uint8_t> Out) {
  std::vector<const ChunkRef *> CopyOf(M.Chunks.size()); // null: read
  std::vector<const ChunkRef *> Reads;
  std::map<Sha256Digest, const ChunkRef *> First;
  for (size_t I = 0; I < M.Chunks.size(); ++I) {
    const ChunkRef &C = M.Chunks[I];
    auto [It, New] = First.try_emplace(C.Digest, &C);
    if (!New && It->second->Size == C.Size)
      CopyOf[I] = It->second;
    else
      Reads.push_back(&C);
  }

  size_t Batches = (Reads.size() + ReadBatch - 1) / ReadBatch;
  std::vector<std::atomic<uint32_t>> State(Batches); // all Pending
  std::vector<Error> Failure(Batches);
  std::atomic<size_t> NextBatch = 0;
  std::atomic<bool> Abandon = false;

  // The worker body: claims the next batch, reads its chunks into place
  // and publishes the outcome. A batch stops at its first failing read,
  // and a failure abandons every batch not yet claimed: they all lie
  // after it. Returns false when there is nothing left to claim.
  auto RunBatch = [&] {
    if (Abandon)
      return false;
    size_t B = NextBatch++;
    if (B >= Batches)
      return false;
    uint32_t Outcome = Done;
    size_t End = std::min(Reads.size(), (B + 1) * ReadBatch);
    for (size_t R = B * ReadBatch; R < End; ++R) {
      const ChunkRef &C = *Reads[R];
      if (Error E = S.readChunkInto(C, Out.subspan(C.Offset, C.Size))) {
        Failure[B] = std::move(E);
        Outcome = Failed;
        Abandon = true;
        break;
      }
    }
    State[B] = Outcome;
    State[B].notify_one();
    return true;
  };

  // Declared after everything the helpers use, so every return path joins
  // them first: no helper outlives the call. The caller returns early only
  // on a failed batch, which has abandoned the rest already.
  std::vector<std::jthread> Helpers;
  unsigned Cores = std::thread::hardware_concurrency();
  size_t Wanted = ioFaultHook() || Batches < 2
                      ? 0
                      : std::min<size_t>({MaxHelpers, Cores ? Cores - 1 : 0,
                                          Batches - 1});
  for (size_t I = 0; I < Wanted; ++I) {
    try {
      Helpers.emplace_back([&] {
        while (RunBatch()) {
        }
      });
    } catch (const std::system_error &) {
      break; // fewer helpers only means the caller reads more
    }
  }

  Sha256 Total;
  size_t Consumed = 0; // reads behind the caller
  for (size_t I = 0; I < M.Chunks.size(); ++I) {
    const ChunkRef &C = M.Chunks[I];
    std::span<uint8_t> Dst = Out.subspan(C.Offset, C.Size);
    if (const ChunkRef *From = CopyOf[I]) {
      std::copy_n(Out.data() + From->Offset, C.Size, Dst.data());
    } else if (size_t R = Consumed++; R % ReadBatch == 0) {
      size_t B = R / ReadBatch; // the first read of batch B
      while (State[B] == Pending && RunBatch()) {
      }
      State[B].wait(Pending);
      if (State[B] == Failed)
        return std::move(Failure[B]);
    }
    Total.update(Dst);
  }
  // Belt and braces: per-chunk digests already matched, but the cheap
  // whole-artifact check also catches manifest chunk-list tampering that
  // survived the seal (it cannot, in practice) and our own bugs.
  Sha256Digest Got = Total.final();
  if (Got != M.Total)
    return makeCodedError("EFAULT.STORE.DIGEST",
                          "artifact '%s' reassembles to %s but manifest "
                          "records %s",
                          M.Name.c_str(), Got.hex().c_str(),
                          M.Total.hex().c_str());
  return Error::success();
}

} // namespace

Expected<std::vector<uint8_t>>
elfie::store::loadArtifact(const ChunkStore &S, const std::string &Name) {
  auto M = S.getManifest(Name);
  if (!M)
    return M.takeError();
  std::vector<uint8_t> Bytes(M->Size);
  if (Error E = assembleInto(S, *M, Bytes))
    return E;
  return Bytes;
}

Error elfie::store::materializeArtifact(const ChunkStore &S,
                                        const std::string &Name,
                                        const std::string &OutPath,
                                        Manifest *M) {
  auto Parsed = S.getManifest(Name);
  if (!Parsed)
    return Parsed.takeError();
  // Every byte is written by a chunk read or copy, so the buffer is not
  // zero-filled first.
  auto Bytes = std::make_unique_for_overwrite<uint8_t[]>(Parsed->Size);
  if (Error E = assembleInto(S, *Parsed, {Bytes.get(), Parsed->Size}))
    return E;
  if (Error E = writeFileAtomic(OutPath, Bytes.get(), Parsed->Size,
                                /*Executable=*/Parsed->Kind == "elf"))
    return E;
  if (M)
    *M = std::move(*Parsed);
  return Error::success();
}
