//===- store/Artifact.h - Whole-artifact ingest and reassembly -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Artifact-level operations over the chunk pool: ingest a byte string
/// (chunked, pinned, manifested), reassemble it verified, or materialize
/// it back to a file byte-identical with the original.
///
/// Chunking is ELF-aware for cross-region dedup: emitted ELFies of the
/// same binary share most of their loadable page payloads (code pages,
/// read-only data) and differ mainly in the restoration tables. Splitting
/// PROGBITS section contents at 4 KiB boundaries *relative to the section
/// start* makes those shared page payloads hash to identical chunks no
/// matter where the section landed in each file, so N region checkpoints
/// of one workload cost roughly one copy of the shared pages plus the
/// per-region deltas. Everything else (headers, gaps, tables) falls into
/// fixed 4 KiB residue chunks. Non-ELF artifacts use fixed 4 KiB chunks
/// throughout.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_STORE_ARTIFACT_H
#define ELFIE_STORE_ARTIFACT_H

#include "store/ChunkStore.h"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace elfie {
namespace store {

/// The chunk granule. 4 KiB = the page size the ELFie loader maps at, so
/// one chunk is one restorable page payload.
constexpr uint64_t ChunkGranule = 4096;

/// "elf" when \p Bytes carries the ELF magic and parses, else "raw".
std::string classifyArtifact(std::span<const uint8_t> Bytes);

/// Computes (offset, size) chunk boundaries tiling [0, Bytes.size())
/// exactly, using the \p Kind strategy described in the file comment.
std::vector<std::pair<uint64_t, uint64_t>>
chunkBoundaries(std::span<const uint8_t> Bytes, const std::string &Kind);

/// Ingests \p Bytes as artifact \p Name: hashes every chunk, pins the
/// distinct digests in one fsync'd journal append (crash-safe GC roots,
/// durable before any chunk lands), puts each distinct chunk once,
/// publishes the sealed manifest, then retires the pins. A kill at any
/// point leaves either no manifest (pins keep the chunks; re-running
/// converges) or the complete published artifact.
Expected<Manifest> putArtifact(ChunkStore &S, const std::string &Name,
                               std::span<const uint8_t> Bytes,
                               const std::string &Source = "");

/// Reassembles artifact \p Name with end-to-end verification, in one
/// pipelined pass (DESIGN.md §15.2): each distinct chunk is read once into
/// place and digest-checked there by ChunkStore::readChunkInto, on up to
/// three helper threads; the calling thread follows in offset order,
/// copies repeats from the verified bytes and hashes the whole artifact
/// against the manifest's digest as it goes. Corruption anywhere is a
/// typed EFAULT.STORE.* error, never silently wrong bytes; with several
/// bad chunks it is the error of the first failing read in offset order.
/// Every helper is joined before return. With an I/O fault hook installed
/// there are no helpers, so the hook sees one read per distinct chunk in
/// offset order.
Expected<std::vector<uint8_t>> loadArtifact(const ChunkStore &S,
                                            const std::string &Name);

/// The same verified reassembly, into a buffer that is not zero-filled
/// first, then an atomic write to \p OutPath (marked executable for kind
/// "elf") once the whole-artifact digest has matched. The produced file is
/// byte-identical with the ingested original; on error no file is left
/// behind. \p M receives the manifest the bytes were verified against
/// when non-null.
Error materializeArtifact(const ChunkStore &S, const std::string &Name,
                          const std::string &OutPath, Manifest *M = nullptr);

} // namespace store
} // namespace elfie

#endif // ELFIE_STORE_ARTIFACT_H
