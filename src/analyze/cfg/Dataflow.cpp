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
using isa::Opcode;
namespace sem = isa::sem;

void cfg::applyInst(const isa::Inst &I, uint64_t PC, RegState &S) {
  switch (I.Op) {
  // No GPR effect.
  case Opcode::Nop:
  case Opcode::Fence:
  case Opcode::Pause:
  case Opcode::Halt:
  case Opcode::Marker:
  case Opcode::St1:
  case Opcode::St2:
  case Opcode::St4:
  case Opcode::St8:
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge:
  case Opcode::Bltu:
  case Opcode::Bgeu:
  case Opcode::Jmp:
  // FPR-only effects (FPRs are not tracked).
  case Opcode::Fadd:
  case Opcode::Fsub:
  case Opcode::Fmul:
  case Opcode::Fdiv:
  case Opcode::Fmin:
  case Opcode::Fmax:
  case Opcode::Fsqrt:
  case Opcode::Fneg:
  case Opcode::Fabs:
  case Opcode::Fmov:
  case Opcode::Fld:
  case Opcode::Fst:
  case Opcode::Fcvtid:
  case Opcode::FmvToF:
    return;

  case Opcode::Syscall:
    S.kill(isa::SysRetReg);
    return;

  // Register ALU.
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Mulh:
  case Opcode::Div:
  case Opcode::Divu:
  case Opcode::Rem:
  case Opcode::Remu:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Sar:
  case Opcode::Slt:
  case Opcode::Sltu:
  case Opcode::Seq:
    if (S.known(I.Rs1) && S.known(I.Rs2))
      S.set(I.Rd, sem::evalInt(I.Op, S.get(I.Rs1), S.get(I.Rs2)));
    else
      S.kill(I.Rd);
    return;
  case Opcode::Mov:
    if (S.known(I.Rs1))
      S.set(I.Rd, S.get(I.Rs1));
    else
      S.kill(I.Rd);
    return;

  // Immediate ALU.
  case Opcode::Addi:
  case Opcode::Muli:
  case Opcode::Andi:
  case Opcode::Ori:
  case Opcode::Xori:
  case Opcode::Shli:
  case Opcode::Shri:
  case Opcode::Sari:
  case Opcode::Slti:
  case Opcode::Sltui:
    if (S.known(I.Rs1))
      S.set(I.Rd, sem::evalInt(I.Op, S.get(I.Rs1), sem::sext(I.Imm)));
    else
      S.kill(I.Rd);
    return;
  case Opcode::Ldi:
    S.set(I.Rd, sem::sext(I.Imm));
    return;
  case Opcode::Ldih:
    if (S.known(I.Rd))
      S.set(I.Rd, sem::ldih(S.get(I.Rd), I.Imm));
    else
      S.kill(I.Rd);
    return;

  // Loads and atomics produce memory-dependent values.
  case Opcode::Ld1:
  case Opcode::Ld2:
  case Opcode::Ld4:
  case Opcode::Ld8:
  case Opcode::Ld1s:
  case Opcode::Ld2s:
  case Opcode::Ld4s:
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas:
  // FP-to-GPR writes (FPRs are not tracked).
  case Opcode::Feq:
  case Opcode::Flt:
  case Opcode::Fle:
  case Opcode::Fcvtdi:
  case Opcode::FmvToI:
    S.kill(I.Rd);
    return;

  // Link writes: rd = PC + 8.
  case Opcode::Jal:
  case Opcode::Jalr:
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
