//===- analyze/cfg/Dataflow.cpp -------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analyze/cfg/Dataflow.h"

#include "isa/Semantics.h"

using namespace elfie;
using namespace elfie::analyze;
using namespace elfie::analyze::cfg;
using isa::Form;
using isa::Opcode;
namespace sem = isa::sem;

void cfg::applyInst(const isa::Inst &I, uint64_t PC, RegState &S) {
  switch (isa::opInfo(I.Op).F) {
  // No GPR effect (FPRs are not tracked).
  case Form::Marker:
  case Form::Branch:
  case Form::Jmp:
  case Form::FdFs1Fs2:
  case Form::FdFs:
  case Form::FMem:
  case Form::FdRs:
    return;

  case Form::None:
    if (I.Op == Opcode::Syscall)
      S.kill(isa::SysRetReg);
    return;

  case Form::RdRs1Rs2:
    if (S.known(I.Rs1) && S.known(I.Rs2))
      S.set(I.Rd, sem::evalInt(I.Op, S.get(I.Rs1), S.get(I.Rs2)));
    else
      S.kill(I.Rd);
    return;
  case Form::RdRs: // mov
    if (S.known(I.Rs1))
      S.set(I.Rd, S.get(I.Rs1));
    else
      S.kill(I.Rd);
    return;
  case Form::RdRs1Imm:
    if (S.known(I.Rs1))
      S.set(I.Rd, sem::evalInt(I.Op, S.get(I.Rs1), sem::sext(I.Imm)));
    else
      S.kill(I.Rd);
    return;
  case Form::RdImm:
    if (I.Op == Opcode::Ldi)
      S.set(I.Rd, sem::sext(I.Imm));
    else if (S.known(I.Rd))
      S.set(I.Rd, sem::ldih(S.get(I.Rd), I.Imm));
    else
      S.kill(I.Rd);
    return;

  // Loads and atomics produce memory-dependent values; stores write none.
  case Form::Mem:
    if (isa::isLoad(I.Op))
      S.kill(I.Rd);
    return;
  case Form::Atomic:
  // FP-to-GPR writes (FPRs are not tracked).
  case Form::RdFs1Fs2:
  case Form::RdFs:
    S.kill(I.Rd);
    return;

  // Link writes: rd = PC + 8.
  case Form::Jal:
  case Form::Jalr:
    S.set(I.Rd, PC + isa::InstSize);
    return;
  }
}

bool cfg::memRef(const isa::Inst &I, MemRef &Out) {
  unsigned Size = sem::accessSize(I.Op);
  if (Size == 0)
    return false;
  // Atomics address mem[rs1] directly (no displacement), read + write.
  if (isa::isAtomic(I.Op))
    Out = {true, true, I.Rs1, 0, Size};
  else
    Out = {isa::isLoad(I.Op), isa::isStore(I.Op), I.Rs1,
           static_cast<int64_t>(I.Imm), Size};
  return true;
}
