//===- tests/isa/ISATest.cpp - EG64 encode/decode properties --------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "isa/ISA.h"

#include "easm/Assembler.h"
#include "support/Format.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::isa;

namespace {

TEST(ISA, EncodeDecodeRoundTrip) {
  Inst I;
  I.Op = Opcode::Add;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Rs2 = 3;
  I.Imm = -12345;
  Inst Out;
  ASSERT_TRUE(decode(encode(I), Out));
  EXPECT_EQ(I, Out);
}

TEST(ISA, DecodeRejectsUnknownOpcode) {
  Inst Out;
  EXPECT_FALSE(decode(uint64_t(0xff), Out));
  EXPECT_FALSE(decode(uint64_t(0x06), Out)); // gap after Pause
}

TEST(ISA, DecodeRejectsBadRegisters) {
  Inst I;
  I.Op = Opcode::Add;
  I.Rd = 16; // out of range
  Inst Out;
  EXPECT_FALSE(decode(encode(I), Out));
}

TEST(ISA, MarkerAllowsKindInRdField) {
  Inst I;
  I.Op = Opcode::Marker;
  I.Rd = 200; // marker kind field, not a register
  I.Imm = 42;
  Inst Out;
  EXPECT_TRUE(decode(encode(I), Out));
  EXPECT_EQ(Out.Rd, 200);
}

TEST(ISA, OpcodeNamesRoundTrip) {
  // Every named opcode must map back to itself through the mnemonic table.
  for (unsigned V = 0; V < 256; ++V) {
    if (!isValidOpcode(static_cast<uint8_t>(V)))
      continue;
    Opcode Op = static_cast<Opcode>(V);
    std::string Name = opcodeName(Op);
    ASSERT_NE(Name, "<bad>");
    Opcode Back;
    ASSERT_TRUE(opcodeFromName(Name, Back)) << Name;
    EXPECT_EQ(Back, Op) << Name;
  }
}

TEST(ISA, OpTableListsEachOpcodeOnce) {
  size_t Valid = 0;
  for (unsigned V = 0; V < 256; ++V)
    Valid += isValidOpcode(static_cast<uint8_t>(V));
  EXPECT_EQ(Valid, std::size(OpTable));
  for (const OpInfo &Row : OpTable)
    EXPECT_STREQ(opInfo(Row.Op).Name, Row.Name);
}

TEST(ISA, Classification) {
  EXPECT_TRUE(isBranch(Opcode::Beq));
  EXPECT_FALSE(isBranch(Opcode::Jmp));
  EXPECT_TRUE(isControlFlow(Opcode::Jalr));
  EXPECT_TRUE(isControlFlow(Opcode::Halt));
  EXPECT_FALSE(isControlFlow(Opcode::Add));
  EXPECT_TRUE(isLoad(Opcode::Ld4s));
  EXPECT_TRUE(isLoad(Opcode::Fld));
  EXPECT_TRUE(isStore(Opcode::Fst));
  EXPECT_TRUE(isAtomic(Opcode::Cas));
  EXPECT_TRUE(isMemoryAccess(Opcode::AmoAdd));
  EXPECT_FALSE(isMemoryAccess(Opcode::Mov));
  EXPECT_TRUE(isFloatingPoint(Opcode::Fadd));
  EXPECT_TRUE(isFloatingPoint(Opcode::FmvToI));
  EXPECT_FALSE(isFloatingPoint(Opcode::Add));
}

TEST(ISA, RegisterNames) {
  EXPECT_EQ(gprName(0), "r0");
  EXPECT_EQ(gprName(15), "sp");
  EXPECT_EQ(gprName(14), "lr");
  EXPECT_EQ(gprName(7), "r7");
  EXPECT_EQ(fprName(3), "f3");
}

TEST(ISA, DisassembleBasics) {
  Inst I;
  I.Op = Opcode::Addi;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Imm = -4;
  EXPECT_EQ(disassemble(I, 0x10000), "addi r1, r2, -4");

  I = Inst();
  I.Op = Opcode::Beq;
  I.Rs1 = 3;
  I.Rs2 = 0;
  I.Imm = 16;
  EXPECT_EQ(disassemble(I, 0x10000), "beq r3, r0, 0x10010");

  I = Inst();
  I.Op = Opcode::Ld8;
  I.Rd = 4;
  I.Rs1 = 15;
  I.Imm = 8;
  EXPECT_EQ(disassemble(I, 0), "ld8 r4, 8(sp)");

  I = Inst();
  I.Op = Opcode::Fadd;
  I.Rd = 1;
  I.Rs1 = 2;
  I.Rs2 = 3;
  EXPECT_EQ(disassemble(I, 0), "fadd f1, f2, f3");
}

// Property: random valid instructions survive an encode/decode round trip.
class ISARoundTrip : public testing::TestWithParam<uint64_t> {};

TEST_P(ISARoundTrip, RandomInstructions) {
  RNG R(GetParam());
  // Collect the valid opcode values once.
  std::vector<uint8_t> Valid;
  for (unsigned V = 0; V < 256; ++V)
    if (isValidOpcode(static_cast<uint8_t>(V)))
      Valid.push_back(static_cast<uint8_t>(V));

  for (int N = 0; N < 2000; ++N) {
    Inst I;
    I.Op = static_cast<Opcode>(Valid[R.nextBelow(Valid.size())]);
    I.Rd = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Rs1 = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Rs2 = static_cast<uint8_t>(R.nextBelow(NumGPRs));
    I.Imm = static_cast<int32_t>(R.next());
    Inst Out;
    ASSERT_TRUE(decode(encode(I), Out));
    EXPECT_EQ(I, Out);
    // Disassembly of a valid instruction never says "<bad>".
    EXPECT_EQ(disassemble(Out, 0x10000).find("<bad>"), std::string::npos);
  }
}

/// A random instruction of \p Row's opcode that sets only the fields its
/// form uses; branch displacements stay 8-byte aligned.
Inst randomInstOfForm(const OpInfo &Row, RNG &R) {
  auto Reg = [&] { return static_cast<uint8_t>(R.nextBelow(NumGPRs)); };
  auto Imm = [&] { return static_cast<int32_t>(R.next()); };
  auto Disp = [&] { return static_cast<int32_t>(R.next() & ~7ull); };
  Inst I;
  I.Op = Row.Op;
  switch (Row.F) {
  case Form::None:
    break;
  case Form::Marker:
    I.Rd = static_cast<uint8_t>(R.nextBelow(256));
    I.Imm = Imm();
    break;
  case Form::RdRs1Rs2:
  case Form::Atomic:
  case Form::FdFs1Fs2:
  case Form::RdFs1Fs2:
    I.Rd = Reg();
    I.Rs1 = Reg();
    I.Rs2 = Reg();
    break;
  case Form::RdRs:
  case Form::FdFs:
  case Form::FdRs:
  case Form::RdFs:
    I.Rd = Reg();
    I.Rs1 = Reg();
    break;
  case Form::RdRs1Imm:
  case Form::Mem:
  case Form::Jalr:
  case Form::FMem:
    I.Rd = Reg();
    I.Rs1 = Reg();
    I.Imm = Imm();
    break;
  case Form::RdImm:
    I.Rd = Reg();
    I.Imm = Imm();
    break;
  case Form::Branch:
    I.Rs1 = Reg();
    I.Rs2 = Reg();
    I.Imm = Disp();
    break;
  case Form::Jmp:
    I.Imm = Disp();
    break;
  case Form::Jal:
    I.Rd = Reg();
    I.Imm = Disp();
    break;
  }
  return I;
}

// Property: disassembly is assembly. For every opcode, the text
// disassemble() prints at PC assembles at PC back to the same word.
TEST_P(ISARoundTrip, DisassemblyReassembles) {
  RNG R(GetParam());
  const uint64_t PC = 0x100000000;
  for (const OpInfo &Row : OpTable) {
    for (int N = 0; N < 32; ++N) {
      Inst I = randomInstOfForm(Row, R);
      std::string Text = disassemble(I, PC);
      auto P = easm::assembleString(
          formatString(".org %#llx\n  %s\n",
                       static_cast<unsigned long long>(PC), Text.c_str()),
          "roundtrip.s");
      ASSERT_TRUE(P.hasValue()) << Text << ": " << P.message();
      Inst Back;
      ASSERT_TRUE(decode(P->Sections[0].Data.data(), Back)) << Text;
      EXPECT_EQ(encode(Back), encode(I)) << Text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ISARoundTrip,
                         testing::Values(1ull, 42ull, 0xdeadbeefull));

} // namespace
