//===- x86/Lowering.cpp ---------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/Lowering.h"

using namespace elfie;
using namespace elfie::x86;
using isa::Opcode;

bool Lowering::lowerRegOp(const isa::Inst &I) {
  Reg B = RF.Base;
  uint64_t Imm64 = static_cast<uint64_t>(static_cast<int64_t>(I.Imm));

  // rd = rs1 <op> rs2 with a simple reg-mem ALU op.
  auto BinOp = [&](void (Encoder::*Op)(Reg, Reg, int32_t)) {
    loadGpr(RAX, I.Rs1);
    (E.*Op)(RAX, B, RF.gpr(I.Rs2));
    storeGpr(I.Rd, RAX);
  };
  // rd = rs1 <op> imm.
  auto BinOpImm = [&](void (Encoder::*Op)(Reg, int32_t)) {
    loadGpr(RAX, I.Rs1);
    (E.*Op)(RAX, I.Imm);
    storeGpr(I.Rd, RAX);
  };
  // rd = rs1 <op> sext(imm) through a 64-bit immediate in rcx.
  auto BinOpImm64 = [&](void (Encoder::*Op)(Reg, Reg)) {
    loadGpr(RAX, I.Rs1);
    E.movRegImm64(RCX, Imm64);
    (E.*Op)(RAX, RCX);
    storeGpr(I.Rd, RAX);
  };
  // x86 masks the count in cl to six bits, as EG64 does.
  auto ShiftOp = [&](void (Encoder::*Op)(Reg)) {
    loadGpr(RAX, I.Rs1);
    loadGpr(RCX, I.Rs2);
    (E.*Op)(RAX);
    storeGpr(I.Rd, RAX);
  };
  auto ShiftOpImm = [&](void (Encoder::*Op)(Reg, uint8_t)) {
    loadGpr(RAX, I.Rs1);
    (E.*Op)(RAX, static_cast<uint8_t>(I.Imm & 63));
    storeGpr(I.Rd, RAX);
  };
  auto CmpSet = [&](Cond C) {
    loadGpr(RAX, I.Rs1);
    E.cmpRegMem(RAX, B, RF.gpr(I.Rs2));
    E.setcc(C, RAX);
    storeGpr(I.Rd, RAX);
  };
  auto CmpSetImm = [&](Cond C) {
    loadGpr(RAX, I.Rs1);
    E.cmpRegImm32(RAX, I.Imm);
    E.setcc(C, RAX);
    storeGpr(I.Rd, RAX);
  };
  // f[rd] = f[rs1] <op> f[rs2]. minsd/maxsd return the second operand on
  // NaN or equality, which is the EG64 fmin/fmax rule.
  auto FBinOp = [&](void (Encoder::*Op)(XmmReg, XmmReg)) {
    E.movsdXmmMem(XMM0, B, RF.fpr(I.Rs1));
    E.movsdXmmMem(XMM1, B, RF.fpr(I.Rs2));
    (E.*Op)(XMM0, XMM1);
    E.movsdMemXmm(B, RF.fpr(I.Rd), XMM0);
  };
  // r[rd] = f[rs1] <cmp> f[rs2] for flt/fle: ucomisd(rs2, rs1) sets
  // "above" exactly when rs1 < rs2 and clears it on NaN.
  auto FCmpSwapped = [&](Cond C) {
    E.movsdXmmMem(XMM0, B, RF.fpr(I.Rs2));
    E.movsdXmmMem(XMM1, B, RF.fpr(I.Rs1));
    E.ucomisd(XMM0, XMM1);
    E.setcc(C, RAX);
    storeGpr(I.Rd, RAX);
  };
  // f[rd] = bits(f[rs1]) <op> Mask.
  auto FBitOp = [&](void (Encoder::*Op)(Reg, Reg), uint64_t Mask) {
    loadFprBits(RAX, I.Rs1);
    E.movRegImm64(RDX, Mask);
    (E.*Op)(RAX, RDX);
    storeFprBits(I.Rd, RAX);
  };

  switch (I.Op) {
  case Opcode::Add: BinOp(&Encoder::addRegMem); return true;
  case Opcode::Sub: BinOp(&Encoder::subRegMem); return true;
  case Opcode::Mul: BinOp(&Encoder::imulRegMem); return true;
  case Opcode::Mulh:
    loadGpr(RAX, I.Rs1);
    E.imulMem(B, RF.gpr(I.Rs2)); // rdx:rax = rax * m64
    storeGpr(I.Rd, RDX);
    return true;
  case Opcode::Div:
  case Opcode::Rem: {
    bool IsRem = I.Op == Opcode::Rem;
    Label Done, DoDiv, ZeroDiv;
    loadGpr(RAX, I.Rs1);
    loadGpr(RCX, I.Rs2);
    E.testRegReg(RCX, RCX);
    E.jcc(CondE, ZeroDiv);
    // INT64_MIN / -1 would trap the host; EG64 defines the result.
    E.cmpRegImm32(RCX, -1);
    E.jcc(CondNE, DoDiv);
    E.movRegImm64(RDX, 0x8000000000000000ull);
    E.cmpRegReg(RAX, RDX);
    E.jcc(CondNE, DoDiv);
    if (IsRem)
      E.xorRegReg(RAX, RAX); // INT64_MIN % -1 == 0
    E.jmp(Done);             // div: rax already INT64_MIN
    E.bind(DoDiv);
    E.cqo();
    E.idivReg(RCX);
    if (IsRem)
      E.movRegReg(RAX, RDX);
    E.jmp(Done);
    E.bind(ZeroDiv);
    if (!IsRem)
      E.movRegImm64(RAX, UINT64_MAX); // div by zero -> all ones
    E.bind(Done);                     // rem by zero -> dividend (in rax)
    storeGpr(I.Rd, RAX);
    return true;
  }
  case Opcode::Divu:
  case Opcode::Remu: {
    bool IsRem = I.Op == Opcode::Remu;
    Label Done, ZeroDiv;
    loadGpr(RAX, I.Rs1);
    loadGpr(RCX, I.Rs2);
    E.testRegReg(RCX, RCX);
    E.jcc(CondE, ZeroDiv);
    E.xorRegReg(RDX, RDX);
    E.divReg(RCX);
    if (IsRem)
      E.movRegReg(RAX, RDX);
    E.jmp(Done);
    E.bind(ZeroDiv);
    if (!IsRem)
      E.movRegImm64(RAX, UINT64_MAX);
    E.bind(Done);
    storeGpr(I.Rd, RAX);
    return true;
  }
  case Opcode::And: BinOp(&Encoder::andRegMem); return true;
  case Opcode::Or: BinOp(&Encoder::orRegMem); return true;
  case Opcode::Xor: BinOp(&Encoder::xorRegMem); return true;
  case Opcode::Shl: ShiftOp(&Encoder::shlRegCl); return true;
  case Opcode::Shr: ShiftOp(&Encoder::shrRegCl); return true;
  case Opcode::Sar: ShiftOp(&Encoder::sarRegCl); return true;
  case Opcode::Slt: CmpSet(CondL); return true;
  case Opcode::Sltu: CmpSet(CondB); return true;
  case Opcode::Seq: CmpSet(CondE); return true;
  case Opcode::Mov:
    loadGpr(RAX, I.Rs1);
    storeGpr(I.Rd, RAX);
    return true;

  case Opcode::Addi: BinOpImm(&Encoder::addRegImm32); return true;
  case Opcode::Muli: BinOpImm64(&Encoder::imulRegReg); return true;
  case Opcode::Andi: BinOpImm(&Encoder::andRegImm32); return true;
  case Opcode::Ori: BinOpImm64(&Encoder::orRegReg); return true;
  case Opcode::Xori: BinOpImm64(&Encoder::xorRegReg); return true;
  case Opcode::Shli: ShiftOpImm(&Encoder::shlRegImm); return true;
  case Opcode::Shri: ShiftOpImm(&Encoder::shrRegImm); return true;
  case Opcode::Sari: ShiftOpImm(&Encoder::sarRegImm); return true;
  case Opcode::Slti: CmpSetImm(CondL); return true;
  case Opcode::Sltui: CmpSetImm(CondB); return true;
  case Opcode::Ldi:
    E.movRegImm64(RAX, Imm64);
    storeGpr(I.Rd, RAX);
    return true;
  case Opcode::Ldih:
    // rd = (imm32 << 32) | (rd & 0xffffffff)
    loadGpr(RAX, I.Rd);
    E.movRegImm64(RDX, 0xffffffffull);
    E.andRegReg(RAX, RDX);
    E.movRegImm64(RDX, static_cast<uint64_t>(static_cast<uint32_t>(I.Imm))
                           << 32);
    E.orRegReg(RAX, RDX);
    storeGpr(I.Rd, RAX);
    return true;

  case Opcode::Fadd: FBinOp(&Encoder::addsd); return true;
  case Opcode::Fsub: FBinOp(&Encoder::subsd); return true;
  case Opcode::Fmul: FBinOp(&Encoder::mulsd); return true;
  case Opcode::Fdiv: FBinOp(&Encoder::divsd); return true;
  case Opcode::Fmin: FBinOp(&Encoder::minsd); return true;
  case Opcode::Fmax: FBinOp(&Encoder::maxsd); return true;
  case Opcode::Fsqrt:
    E.movsdXmmMem(XMM0, B, RF.fpr(I.Rs1));
    E.sqrtsd(XMM0, XMM0);
    E.movsdMemXmm(B, RF.fpr(I.Rd), XMM0);
    return true;
  case Opcode::Fneg:
    FBitOp(&Encoder::xorRegReg, 0x8000000000000000ull);
    return true;
  case Opcode::Fabs:
    FBitOp(&Encoder::andRegReg, 0x7fffffffffffffffull);
    return true;
  case Opcode::Fmov:
    loadFprBits(RAX, I.Rs1);
    storeFprBits(I.Rd, RAX);
    return true;
  case Opcode::Feq:
    // Equal and ordered: ZF=1 with PF=0.
    E.movsdXmmMem(XMM0, B, RF.fpr(I.Rs1));
    E.movsdXmmMem(XMM1, B, RF.fpr(I.Rs2));
    E.ucomisd(XMM0, XMM1);
    E.setcc(CondE, RAX);
    E.setcc(CondNP, RDX);
    E.andRegReg(RAX, RDX);
    storeGpr(I.Rd, RAX);
    return true;
  case Opcode::Flt: FCmpSwapped(CondA); return true;
  case Opcode::Fle: FCmpSwapped(CondAE); return true;
  case Opcode::Fcvtid:
    loadGpr(RAX, I.Rs1);
    E.cvtsi2sd(XMM0, RAX);
    E.movsdMemXmm(B, RF.fpr(I.Rd), XMM0);
    return true;
  case Opcode::Fcvtdi:
    // cvttsd2si yields INT64_MIN for NaN and out-of-range inputs.
    E.movsdXmmMem(XMM0, B, RF.fpr(I.Rs1));
    E.cvttsd2si(RAX, XMM0);
    storeGpr(I.Rd, RAX);
    return true;
  case Opcode::FmvToF:
    loadGpr(RAX, I.Rs1);
    storeFprBits(I.Rd, RAX);
    return true;
  case Opcode::FmvToI:
    loadFprBits(RAX, I.Rs1);
    storeGpr(I.Rd, RAX);
    return true;

  // Left to the emitters: memory, control flow, fences, atomics, system.
  case Opcode::Nop:
  case Opcode::Halt:
  case Opcode::Marker:
  case Opcode::Syscall:
  case Opcode::Fence:
  case Opcode::Pause:
  case Opcode::Ld1:
  case Opcode::Ld2:
  case Opcode::Ld4:
  case Opcode::Ld8:
  case Opcode::Ld1s:
  case Opcode::Ld2s:
  case Opcode::Ld4s:
  case Opcode::St1:
  case Opcode::St2:
  case Opcode::St4:
  case Opcode::St8:
  case Opcode::Fld:
  case Opcode::Fst:
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge:
  case Opcode::Bltu:
  case Opcode::Bgeu:
  case Opcode::Jmp:
  case Opcode::Jal:
  case Opcode::Jalr:
  case Opcode::AmoAdd:
  case Opcode::AmoSwap:
  case Opcode::Cas:
    return false;
  }
  return false;
}
