//===- x86/Translator.cpp -------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "x86/Translator.h"

#include <cassert>
#include <cstring>

using namespace elfie;
using namespace elfie::x86;
using isa::Inst;
using isa::Opcode;

void Translator::addCodePage(uint64_t GuestAddr, const uint8_t *Bytes,
                             size_t Size) {
  std::vector<uint8_t> Copy(Bytes, Bytes + Size);
  if (Pages.empty()) {
    CodeLo = GuestAddr;
    CodeHi = GuestAddr + Size;
  } else {
    CodeLo = std::min(CodeLo, GuestAddr);
    CodeHi = std::max(CodeHi, GuestAddr + Size);
  }
  Pages[GuestAddr] = std::move(Copy);
}

Label &Translator::labelFor(uint64_t GuestAddr) { return Labels[GuestAddr]; }

void Translator::storeLinkAddress(unsigned GuestReg, uint64_t Value) {
  if (Value <= 0x7fffffffull) {
    E.movMemImm32(R15, CtxLayout::gpr(GuestReg),
                  static_cast<int32_t>(Value));
  } else {
    E.movRegImm64(RDX, Value);
    E.movMemReg(R15, CtxLayout::gpr(GuestReg), RDX);
  }
}

Error Translator::translateAll(const RuntimeLabels &RT) {
  if (Pages.empty())
    return makeError("no executable pages to translate");
  Abort = RT.AbortStub;

  // Translate pages in address order; each 8-byte slot gets a label bound
  // at its translation. Slots that fail to decode jump to the abort stub
  // (data bytes inside an executable page).
  for (const auto &[PageAddr, Bytes] : Pages) {
    for (size_t Off = 0; Off + 8 <= Bytes.size(); Off += 8) {
      uint64_t PC = PageAddr + Off;
      Label &L = labelFor(PC);
      E.bind(L);
      InstOffsets[PC] = E.here();
      Inst I;
      if (!isa::decode(Bytes.data() + Off, I)) {
        E.jmp(*RT.AbortStub);
        continue;
      }
      translateInst(PC, I, RT);
    }
  }

  // Bind any labels created for branch targets that fall in gaps between
  // captured pages: executing them means divergence -> abort.
  for (auto &[Addr, L] : Labels)
    if (!L.isBound()) {
      E.bind(L);
      E.jmp(*RT.AbortStub);
    }
  return Error::success();
}

bool Translator::hostOffsetFor(uint64_t GuestAddr, size_t &Out) const {
  auto It = InstOffsets.find(GuestAddr);
  if (It == InstOffsets.end())
    return false;
  Out = It->second;
  return true;
}

std::vector<uint8_t> Translator::buildAddressTable() const {
  size_t Slots = static_cast<size_t>((CodeHi - CodeLo) / 8);
  std::vector<uint8_t> Table(Slots * 8, 0);
  for (const auto &[Addr, Off] : InstOffsets) {
    uint64_t Host = Config.HostCodeBase + Off;
    size_t Slot = static_cast<size_t>((Addr - CodeLo) / 8);
    std::memcpy(Table.data() + Slot * 8, &Host, 8);
  }
  return Table;
}

void Translator::translateInst(uint64_t PC, const Inst &I,
                               const RuntimeLabels &RT) {
  Label &SyscallStub = *RT.SyscallStub;
  Label &AbortStub = *RT.AbortStub;
  // Graceful-exit countdown (software retired-instruction counter). When
  // the counter goes negative the current instruction has NOT retired;
  // the countdown-exit stub un-decrements before accounting.
  if (Config.EmitICountChecks) {
    E.decMem(R15, CtxLayout::ICountOff);
    E.jcc(CondS, *RT.CountdownExit);
  }

  if (Lower.lowerRegOp(I))
    return;

  auto Imm64 = [&]() { return static_cast<int64_t>(I.Imm); };

  // Emits a direct control transfer to guest address \p Target.
  auto JumpTo = [&](uint64_t Target) {
    if (Target < CodeLo || Target >= CodeHi || (Target & 7)) {
      E.jmp(AbortStub);
      return;
    }
    E.jmp(labelFor(Target));
  };
  auto Branch = [&](Cond C) {
    uint64_t Target = PC + Imm64();
    Lower.loadGpr(RAX, I.Rs1);
    E.cmpRegMem(RAX, R15, CtxLayout::gpr(I.Rs2));
    if (Target < CodeLo || Target >= CodeHi || (Target & 7)) {
      // Taken path diverges out of the captured code: abort if taken.
      E.jcc(C, AbortStub);
    } else {
      E.jcc(C, labelFor(Target));
    }
  };
  // Effective address of a load/store into RAX.
  auto LoadEA = [&]() {
    Lower.loadGpr(RAX, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RAX, RAX, I.Imm);
  };
  // rd = mem[ea], widened by \p Op.
  auto Load = [&](void (Encoder::*Op)(Reg, Reg, int32_t)) {
    LoadEA();
    (E.*Op)(RDX, RAX, 0);
    Lower.storeGpr(I.Rd, RDX);
  };
  // mem[ea] = low bytes of rd, written by \p Op.
  auto Store = [&](void (Encoder::*Op)(Reg, int32_t, Reg)) {
    LoadEA();
    Lower.loadGpr(RDX, I.Rd);
    (E.*Op)(RAX, 0, RDX);
  };

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::Fence:
    E.mfence();
    break;
  case Opcode::Pause:
    E.pause();
    break;
  case Opcode::Halt:
    // Guest machine stop: treat as region end (halt itself retires).
    E.jmp(*RT.HaltExit);
    break;
  case Opcode::Marker:
    // SSC-style marker so x86 tools can locate ROI boundaries.
    E.movRegImm32(RBX, static_cast<uint32_t>(I.Imm));
    E.emitBytes({0x64, 0x67, 0x90});
    break;
  case Opcode::Syscall:
    E.call(SyscallStub);
    break;

  case Opcode::Ld1: Load(&Encoder::movzxRegMem8); break;
  case Opcode::Ld2: Load(&Encoder::movzxRegMem16); break;
  case Opcode::Ld4: Load(&Encoder::movRegMem32); break;
  case Opcode::Ld8: Load(&Encoder::movRegMem); break;
  case Opcode::Ld1s: Load(&Encoder::movsxRegMem8); break;
  case Opcode::Ld2s: Load(&Encoder::movsxRegMem16); break;
  case Opcode::Ld4s: Load(&Encoder::movsxRegMem32); break;
  case Opcode::St1: Store(&Encoder::movMemReg8); break;
  case Opcode::St2: Store(&Encoder::movMemReg16); break;
  case Opcode::St4: Store(&Encoder::movMemReg32); break;
  case Opcode::St8: Store(&Encoder::movMemReg); break;
  case Opcode::Fld:
    LoadEA();
    E.movRegMem(RDX, RAX, 0);
    Lower.storeFprBits(I.Rd, RDX);
    break;
  case Opcode::Fst:
    LoadEA();
    Lower.loadFprBits(RDX, I.Rd);
    E.movMemReg(RAX, 0, RDX);
    break;

  case Opcode::Beq: Branch(CondE); break;
  case Opcode::Bne: Branch(CondNE); break;
  case Opcode::Blt: Branch(CondL); break;
  case Opcode::Bge: Branch(CondGE); break;
  case Opcode::Bltu: Branch(CondB); break;
  case Opcode::Bgeu: Branch(CondAE); break;
  case Opcode::Jmp:
    JumpTo(PC + Imm64());
    break;
  case Opcode::Jal: {
    if (I.Rd != isa::RegZero)
      storeLinkAddress(I.Rd, PC + 8);
    JumpTo(PC + Imm64());
    break;
  }
  case Opcode::Jalr: {
    // Target from the pre-link register file (rd may equal rs1), checked
    // for alignment before the link write, as the interpreter does.
    Lower.loadGpr(RAX, I.Rs1);
    if (I.Imm != 0)
      E.leaRegMem(RAX, RAX, I.Imm);
    E.testRegImm32(RAX, 7);
    E.jcc(CondNE, AbortStub);
    if (I.Rd != isa::RegZero)
      storeLinkAddress(I.Rd, PC + 8);
    // Bounds check and table lookup.
    E.movRegImm64(RDX, CodeLo);
    E.subRegReg(RAX, RDX);
    E.movRegImm64(RDX, CodeHi - CodeLo);
    E.cmpRegReg(RAX, RDX);
    E.jcc(CondAE, AbortStub);
    E.movRegImm64(RDX, Config.TableBase);
    E.addRegReg(RDX, RAX);
    E.movRegMem(RAX, RDX, 0);
    E.testRegReg(RAX, RAX);
    E.jcc(CondE, AbortStub);
    E.jmpReg(RAX);
    break;
  }

  case Opcode::AmoAdd:
    Lower.loadGpr(RAX, I.Rs2);
    Lower.loadGpr(RCX, I.Rs1);
    E.lockXaddMemReg(RCX, 0, RAX);
    Lower.storeGpr(I.Rd, RAX);
    break;
  case Opcode::AmoSwap:
    Lower.loadGpr(RAX, I.Rs2);
    Lower.loadGpr(RCX, I.Rs1);
    E.xchgMemReg(RCX, 0, RAX);
    Lower.storeGpr(I.Rd, RAX);
    break;
  case Opcode::Cas:
    Lower.loadGpr(RAX, I.Rd);  // expected
    Lower.loadGpr(RDX, I.Rs2); // new value
    Lower.loadGpr(RCX, I.Rs1); // address
    E.lockCmpxchgMemReg(RCX, 0, RDX);
    Lower.storeGpr(I.Rd, RAX); // rax holds the old value either way
    break;

  default:
    assert(false && "register-to-register ops are lowered above");
    break;
  }
}
