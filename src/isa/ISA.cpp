//===- isa/ISA.cpp --------------------------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "isa/ISA.h"

#include "support/Format.h"

#include <cstring>

using namespace elfie;
using namespace elfie::isa;

uint64_t isa::encode(const Inst &I) {
  uint64_t W = 0;
  W |= static_cast<uint64_t>(static_cast<uint8_t>(I.Op));
  W |= static_cast<uint64_t>(I.Rd) << 8;
  W |= static_cast<uint64_t>(I.Rs1) << 16;
  W |= static_cast<uint64_t>(I.Rs2) << 24;
  W |= static_cast<uint64_t>(static_cast<uint32_t>(I.Imm)) << 32;
  return W;
}

bool isa::decode(uint64_t Word, Inst &Out) {
  uint8_t Op = static_cast<uint8_t>(Word & 0xff);
  if (!isValidOpcode(Op))
    return false;
  Inst I;
  I.Op = static_cast<Opcode>(Op);
  I.Rd = static_cast<uint8_t>((Word >> 8) & 0xff);
  I.Rs1 = static_cast<uint8_t>((Word >> 16) & 0xff);
  I.Rs2 = static_cast<uint8_t>((Word >> 24) & 0xff);
  I.Imm = static_cast<int32_t>(static_cast<uint32_t>(Word >> 32));
  // Marker reuses Rd as the marker kind; everything else must name real
  // registers.
  if (I.Op != Opcode::Marker &&
      (I.Rd >= NumGPRs || I.Rs1 >= NumGPRs || I.Rs2 >= NumGPRs))
    return false;
  Out = I;
  return true;
}

bool isa::decode(const uint8_t *Bytes, Inst &Out) {
  uint64_t W;
  std::memcpy(&W, Bytes, 8);
  return decode(W, Out);
}

bool isa::opcodeFromName(const std::string &Name, Opcode &Out) {
  for (const OpInfo &I : OpTable) {
    if (Name == I.Name) {
      Out = I.Op;
      return true;
    }
  }
  return false;
}

std::string isa::gprName(unsigned Reg) {
  if (Reg == RegZero)
    return "r0";
  if (Reg == RegSP)
    return "sp";
  if (Reg == RegLR)
    return "lr";
  return formatString("r%u", Reg);
}

std::string isa::fprName(unsigned Reg) { return formatString("f%u", Reg); }

std::string isa::disassemble(const Inst &I, uint64_t PC) {
  const OpInfo &Info = opInfo(I.Op);
  if (!Info.Name)
    return "<bad>";
  auto Text = [&](std::initializer_list<std::string> Ops) {
    std::string S = Info.Name;
    const char *Sep = " ";
    for (const std::string &Op : Ops) {
      S += Sep;
      S += Op;
      Sep = ", ";
    }
    return S;
  };
  std::string Imm = std::to_string(I.Imm);
  std::string Disp = Imm + "(" + gprName(I.Rs1) + ")";
  std::string Target = toHex(PC + static_cast<int64_t>(I.Imm));

  switch (Info.F) {
  case Form::None:
    return Text({});
  case Form::Marker:
    return Text({std::to_string(I.Rd), Imm});
  case Form::RdRs1Rs2:
    return Text({gprName(I.Rd), gprName(I.Rs1), gprName(I.Rs2)});
  case Form::RdRs:
    return Text({gprName(I.Rd), gprName(I.Rs1)});
  case Form::RdRs1Imm:
    return Text({gprName(I.Rd), gprName(I.Rs1), Imm});
  case Form::RdImm:
    // ldih shows the 64-bit value whose high half it loads, which is the
    // operand the assembler takes back.
    if (I.Op == Opcode::Ldih)
      return Text({gprName(I.Rd),
                   toHex(static_cast<uint64_t>(static_cast<uint32_t>(I.Imm))
                         << 32)});
    return Text({gprName(I.Rd), Imm});
  case Form::Mem:
    return Text({gprName(I.Rd), Disp});
  case Form::Branch:
    return Text({gprName(I.Rs1), gprName(I.Rs2), Target});
  case Form::Jmp:
    return Text({Target});
  case Form::Jal:
    return Text({gprName(I.Rd), Target});
  case Form::Jalr:
    return Text({gprName(I.Rd), gprName(I.Rs1), Imm});
  case Form::Atomic:
    return Text({gprName(I.Rd), "(" + gprName(I.Rs1) + ")", gprName(I.Rs2)});
  case Form::FdFs1Fs2:
    return Text({fprName(I.Rd), fprName(I.Rs1), fprName(I.Rs2)});
  case Form::FdFs:
    return Text({fprName(I.Rd), fprName(I.Rs1)});
  case Form::RdFs1Fs2:
    return Text({gprName(I.Rd), fprName(I.Rs1), fprName(I.Rs2)});
  case Form::FMem:
    return Text({fprName(I.Rd), Disp});
  case Form::FdRs:
    return Text({fprName(I.Rd), gprName(I.Rs1)});
  case Form::RdFs:
    return Text({gprName(I.Rd), fprName(I.Rs1)});
  }
  return "<bad>";
}
