//===- core/GuestElfie.cpp - guest-target (EG64) ELFie emission -----------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Emits an EG64 ELFie: a guest executable that any binary-driven tool
/// (the EVM, the esim simulators) runs unmodified — the role x86 ELFies
/// play for x86 simulators in the paper (§III-C). The startup code is
/// generated EG64 assembly: it clone()s the checkpointed threads and each
/// thread entry restores its full register context from immediates before
/// jumping to the captured pc (`jalr r0, r0, pc` — r0 is the zero
/// register, so the jump needs no live register; cf. paper Fig. 6 where
/// per-thread entry code embeds the 'real' sp and pc).
///
//===----------------------------------------------------------------------===//

#include "core/Pinball2Elf.h"

#include "easm/Assembler.h"
#include "elf/ELFWriter.h"
#include "support/Format.h"

#include <cstring>

using namespace elfie;
using namespace elfie::core;
using pinball::PageRecord;
using pinball::Pinball;

namespace {

/// Emits `li rN, imm64` as text.
std::string li(const std::string &RegName, uint64_t Value) {
  return formatString("  li %s, %lld\n", RegName.c_str(),
                      static_cast<long long>(Value));
}

std::string buildStartupAsm(const Pinball &PB,
                            const Pinball2ElfOptions &Opts) {
  std::string S;
  S += formatString("  .text\n  .org 0x%llx\n_start:\n",
                    static_cast<unsigned long long>(
                        GuestLayout::StartupBase));
  unsigned N = static_cast<unsigned>(PB.Threads.size());
  // Spawn threads 1..N-1; each gets a tiny transient stack (its guest sp
  // is restored from the context immediately).
  for (unsigned I = 1; I < N; ++I) {
    S += formatString("  ldi r7, 9\n"
                      "  la  r1, t%u_entry\n"
                      "  la  r2, clone_stacks + %u\n"
                      "  ldi r3, 0\n"
                      "  syscall\n",
                      I, 512 * (I + 1));
  }
  S += "  jmp t0_entry\n";

  for (unsigned I = 0; I < N; ++I) {
    const pinball::ThreadRegs &T = PB.Threads[I];
    S += formatString("t%u_entry:\n", I);
    // FP registers first (r1 is the bit-pattern temp).
    for (unsigned R = 0; R < isa::NumFPRs; ++R) {
      uint64_t Bits;
      std::memcpy(&Bits, &T.FPR[R], 8);
      S += li("r1", Bits);
      S += formatString("  fmvtof f%u, r1\n", R);
    }
    // GPRs r2..r15 from immediates; r1 last (it was the temp).
    for (unsigned R = 2; R < isa::NumGPRs; ++R)
      S += li(formatString("r%u", R), T.GPR[R]);
    if (Opts.EmitMarkers)
      S += formatString("  marker %u, %d\n",
                        static_cast<unsigned>(Opts.MarkerType),
                        Opts.MarkerTag);
    S += li("r1", T.GPR[1]);
    // Jump to the captured pc through the zero register; works for any
    // pc below 2^31.
    S += formatString("  jalr r0, r0, %lld\n",
                      static_cast<long long>(T.PC));
  }
  S += "  .bss\n  .align 8\n";
  S += formatString("clone_stacks: .space %u\n", 512 * (N + 1));
  return S;
}

} // namespace

Expected<std::vector<uint8_t>>
core::emitGuestElfie(const Pinball &PB, const Pinball2ElfOptions &Opts) {
  if (PB.Threads.empty())
    return makeError("pinball has no threads");
  if (!PB.isFat())
    return makeError("guest ELFie emission requires a fat pinball "
                     "(-log:fat 1)");
  for (const pinball::ThreadRegs &T : PB.Threads)
    if (T.PC >= (1ull << 31))
      return makeError("thread %u starts at pc %#llx, beyond the 2^31 "
                       "immediate range of the guest startup jump",
                       T.Tid, static_cast<unsigned long long>(T.PC));

  // Assemble the startup code.
  std::string Asm = buildStartupAsm(PB, Opts);
  auto Startup = easm::assembleString(Asm, "<elfie-startup>");
  if (!Startup)
    return Startup.takeError();

  elf::ELFWriter W(elf::ET_EXEC, elf::EM_EG64);
  W.setEntry(Startup->Entry);

  // Pinball pages, coalesced into runs (paper §II-B2). The guest target
  // has no loader stack collision — the EVM builds a fresh address space —
  // so stack pages load directly at their original addresses.
  std::vector<const PageRecord *> Pages;
  for (const PageRecord &P : PB.Image)
    Pages.push_back(&P);
  addPageSections(W, std::move(Pages));

  // Startup sections.
  unsigned StartupSec = 0;
  for (easm::AssembledSection &S : Startup->Sections) {
    unsigned Sec =
        S.IsNoBits
            ? W.addNoBitsSection(".elfie" + S.Name, S.Flags, S.BaseAddr,
                                 S.Size)
            : W.addSection(".elfie" + S.Name, S.Flags, S.BaseAddr,
                           std::move(S.Data));
    if (S.Name == ".text")
      StartupSec = Sec;
  }

  // Symbols: startup entries and per-thread budgets (§II-B5).
  W.addSymbol("elfie_on_start", Startup->Entry, StartupSec,
              elf::STB_GLOBAL, elf::STT_FUNC);
  addRegionSymbols(W, PB, Opts, [&](unsigned T) {
    auto It = Startup->Symbols.find(formatString("t%u_entry", T));
    if (It != Startup->Symbols.end())
      W.addSymbol(formatString("elfie_t%u_start", T), It->second,
                  StartupSec, elf::STB_GLOBAL, elf::STT_FUNC);
  });
  return W.finalize();
}
