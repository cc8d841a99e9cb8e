//===- tests/easm/AssemblerTest.cpp - Assembler behaviour -----------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "easm/Assembler.h"

#include "elf/ELFReader.h"
#include "isa/ISA.h"

#include <gtest/gtest.h>

using namespace elfie;
using namespace elfie::easm;
using isa::Inst;
using isa::Opcode;

namespace {

/// Assembles and decodes the .text section into instructions.
std::vector<Inst> assembleText(const std::string &Src) {
  auto P = assembleString(Src, "test.s");
  EXPECT_TRUE(P.hasValue()) << P.message();
  if (!P)
    return {};
  for (const AssembledSection &S : P->Sections) {
    if (S.Name != ".text")
      continue;
    std::vector<Inst> Out;
    for (size_t Off = 0; Off + 8 <= S.Data.size(); Off += 8) {
      Inst I;
      EXPECT_TRUE(isa::decode(S.Data.data() + Off, I));
      Out.push_back(I);
    }
    return Out;
  }
  return {};
}

TEST(Assembler, BasicInstructions) {
  auto Insts = assembleText("  addi r1, r0, 5\n"
                            "  add  r2, r1, r1\n"
                            "  halt\n");
  ASSERT_EQ(Insts.size(), 3u);
  EXPECT_EQ(Insts[0].Op, Opcode::Addi);
  EXPECT_EQ(Insts[0].Rd, 1);
  EXPECT_EQ(Insts[0].Imm, 5);
  EXPECT_EQ(Insts[1].Op, Opcode::Add);
  EXPECT_EQ(Insts[2].Op, Opcode::Halt);
}

TEST(Assembler, CommentsAndBlankLines) {
  auto Insts = assembleText("# full comment\n"
                            "\n"
                            "  nop  # trailing\n"
                            "  nop  ; alt comment\n");
  EXPECT_EQ(Insts.size(), 2u);
}

TEST(Assembler, BranchTargetsResolve) {
  auto Insts = assembleText("start:\n"
                            "  addi r1, r1, 1\n"
                            "  bne r1, r2, start\n"
                            "  jmp done\n"
                            "done:\n"
                            "  halt\n");
  ASSERT_EQ(Insts.size(), 4u);
  // bne at TextBase+8 -> start at TextBase: displacement -8.
  EXPECT_EQ(Insts[1].Imm, -8);
  // jmp at +16 -> done at +24: displacement +8.
  EXPECT_EQ(Insts[2].Imm, 8);
}

TEST(Assembler, MemoryOperands) {
  auto Insts = assembleText("  ld8 r1, 16(sp)\n"
                            "  st4 r2, -8(r3)\n"
                            "  ld1 r4, (r5)\n");
  ASSERT_EQ(Insts.size(), 3u);
  EXPECT_EQ(Insts[0].Rs1, isa::RegSP);
  EXPECT_EQ(Insts[0].Imm, 16);
  EXPECT_EQ(Insts[1].Imm, -8);
  EXPECT_EQ(Insts[2].Imm, 0);
}

TEST(Assembler, LiExpandsToTwoInstructions) {
  auto Insts = assembleText("  li r1, 0x123456789abcdef0\n");
  ASSERT_EQ(Insts.size(), 2u);
  EXPECT_EQ(Insts[0].Op, Opcode::Ldi);
  EXPECT_EQ(Insts[1].Op, Opcode::Ldih);
  // ldi sign-extends the low 32 bits; ldih replaces the high 32.
  uint64_t Lo = static_cast<uint64_t>(static_cast<int64_t>(Insts[0].Imm));
  uint64_t V = (static_cast<uint64_t>(static_cast<uint32_t>(Insts[1].Imm))
                << 32) |
               (Lo & 0xffffffffull);
  EXPECT_EQ(V, 0x123456789abcdef0ull);
}

TEST(Assembler, LaLoadsLabelAddress) {
  auto P = assembleString("  la r1, value\n"
                          "  halt\n"
                          "  .data\n"
                          "value: .quad 7\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  uint64_t ValueAddr = P->Symbols.at("value");
  const AssembledSection &Text = P->Sections[0];
  Inst Lo, Hi;
  ASSERT_TRUE(isa::decode(Text.Data.data(), Lo));
  ASSERT_TRUE(isa::decode(Text.Data.data() + 8, Hi));
  uint64_t V =
      (static_cast<uint64_t>(static_cast<uint32_t>(Hi.Imm)) << 32) |
      (static_cast<uint64_t>(static_cast<int64_t>(Lo.Imm)) & 0xffffffffull);
  EXPECT_EQ(V, ValueAddr);
}

TEST(Assembler, PseudoInstructions) {
  auto Insts = assembleText("f:\n"
                            "  push r1\n"
                            "  pop r1\n"
                            "  call f\n"
                            "  ret\n"
                            "  mv r2, r3\n"
                            "  beqz r1, f\n"
                            "  bnez r1, f\n");
  // push=2, pop=2, call=1, ret=1, mv=1, beqz=1, bnez=1.
  ASSERT_EQ(Insts.size(), 9u);
  EXPECT_EQ(Insts[4].Op, Opcode::Jal);
  EXPECT_EQ(Insts[4].Rd, isa::RegLR);
  EXPECT_EQ(Insts[5].Op, Opcode::Jalr);
  EXPECT_EQ(Insts[5].Rs1, isa::RegLR);
  EXPECT_EQ(Insts[7].Op, Opcode::Beq);
  EXPECT_EQ(Insts[7].Rs2, isa::RegZero);
}

TEST(Assembler, DataDirectives) {
  auto P = assembleString("  .data\n"
                          "a: .byte 1, 2, 3\n"
                          "b: .half 0x1234\n"
                          "c: .word 0xdeadbeef\n"
                          "d: .quad 0x0102030405060708\n"
                          "s: .asciz \"hi\\n\"\n"
                          "z: .space 5\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Data = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".data")
      Data = &S;
  ASSERT_NE(Data, nullptr);
  EXPECT_EQ(Data->Data.size(), 3u + 2 + 4 + 8 + 4 + 5);
  EXPECT_EQ(Data->Data[0], 1);
  EXPECT_EQ(Data->Data[3], 0x34);
  EXPECT_EQ(Data->Data[5], 0xef);
  // "hi\n\0"
  size_t SOff = 3 + 2 + 4 + 8;
  EXPECT_EQ(Data->Data[SOff], 'h');
  EXPECT_EQ(Data->Data[SOff + 2], '\n');
  EXPECT_EQ(Data->Data[SOff + 3], '\0');
}

TEST(Assembler, QuadWithSymbol) {
  auto P = assembleString("  .data\n"
                          "ptr: .quad target\n"
                          "target: .quad 0\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Data = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".data")
      Data = &S;
  ASSERT_NE(Data, nullptr);
  uint64_t V;
  memcpy(&V, Data->Data.data(), 8);
  EXPECT_EQ(V, P->Symbols.at("target"));
}

TEST(Assembler, EquConstants) {
  auto Insts = assembleText("  .equ N, 17\n"
                            "  addi r1, r0, N\n");
  ASSERT_EQ(Insts.size(), 1u);
  EXPECT_EQ(Insts[0].Imm, 17);
}

TEST(Assembler, BssAllocatesWithoutBytes) {
  auto P = assembleString("  .bss\n"
                          "buf: .space 4096\n"
                          "  .align 8\n"
                          "v:   .space 8\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  const AssembledSection *Bss = nullptr;
  for (const auto &S : P->Sections)
    if (S.Name == ".bss")
      Bss = &S;
  ASSERT_NE(Bss, nullptr);
  EXPECT_TRUE(Bss->IsNoBits);
  EXPECT_EQ(Bss->Size, 4104u);
  EXPECT_TRUE(Bss->Data.empty());
}

TEST(Assembler, EntryIsStartSymbol) {
  auto P = assembleString("  nop\n"
                          "_start: halt\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  EXPECT_EQ(P->Entry, isa::TextBase + 8);
}

TEST(Assembler, OrgSetsSectionBase) {
  auto P = assembleString("  .text\n"
                          "  .org 0x40000\n"
                          "_start: halt\n",
                          "test.s");
  ASSERT_TRUE(P.hasValue()) << P.message();
  EXPECT_EQ(P->Entry, 0x40000u);
}

TEST(Assembler, MarkerInstruction) {
  auto Insts = assembleText("  marker 1, 42\n");
  ASSERT_EQ(Insts.size(), 1u);
  EXPECT_EQ(Insts[0].Op, Opcode::Marker);
  EXPECT_EQ(Insts[0].Rd, 1);
  EXPECT_EQ(Insts[0].Imm, 42);
}

TEST(Assembler, MarkerKindMustFitEightBits) {
  auto Insts = assembleText("  marker 255, 1\n");
  ASSERT_EQ(Insts.size(), 1u);
  EXPECT_EQ(Insts[0].Rd, 255);
  EXPECT_EQ(Insts[0].Imm, 1);
  for (const char *Src :
       {"  nop\n  marker 300, 1\n", "  nop\n  marker -1, 1\n"}) {
    auto P = assembleString(Src, "bad.s");
    ASSERT_FALSE(P.hasValue()) << Src;
    EXPECT_NE(P.message().find("bad.s:2"), std::string::npos) << P.message();
    EXPECT_NE(P.message().find("out of 8-bit range"), std::string::npos)
        << P.message();
  }
}

TEST(Assembler, FloatingPointForms) {
  auto Insts = assembleText("  fadd f1, f2, f3\n"
                            "  fsqrt f4, f1\n"
                            "  flt r1, f1, f2\n"
                            "  fld f5, 8(r2)\n"
                            "  fst f5, 16(r2)\n"
                            "  fcvtid f0, r3\n"
                            "  fcvtdi r3, f0\n"
                            "  fmvtof f1, r1\n"
                            "  fmvtoi r1, f1\n");
  ASSERT_EQ(Insts.size(), 9u);
  EXPECT_EQ(Insts[0].Op, Opcode::Fadd);
  EXPECT_EQ(Insts[3].Imm, 8);
}

// ---- Error cases ----

TEST(AssemblerErrors, UnknownMnemonic) {
  auto P = assembleString("  frobnicate r1\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("bad.s:1"), std::string::npos);
  EXPECT_NE(P.message().find("unknown mnemonic"), std::string::npos);
}

TEST(AssemblerErrors, UndefinedSymbol) {
  auto P = assembleString("  jmp nowhere\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("undefined symbol"), std::string::npos);
}

TEST(AssemblerErrors, RedefinedLabel) {
  auto P = assembleString("x: nop\nx: nop\n", "bad.s");
  ASSERT_FALSE(P.hasValue());
  EXPECT_NE(P.message().find("redefined"), std::string::npos);
}

TEST(AssemblerErrors, WrongOperandCount) {
  EXPECT_FALSE(assembleString("  add r1, r2\n", "bad.s").hasValue());
  EXPECT_FALSE(assembleString("  halt r1\n", "bad.s").hasValue());
}

TEST(AssemblerErrors, BadRegister) {
  EXPECT_FALSE(assembleString("  add r1, r99, r2\n", "bad.s").hasValue());
}

TEST(AssemblerErrors, FpIntMismatch) {
  EXPECT_FALSE(assembleString("  fadd r1, f1, f2\n", "bad.s").hasValue());
  EXPECT_FALSE(assembleString("  add f1, f2, f3\n", "bad.s").hasValue());
}

// ---- ELF output ----

TEST(AssemblerELF, ProducesLoadableGuestExecutable) {
  auto Image = assembleToELF("_start:\n"
                             "  .global _start\n"
                             "  halt\n"
                             "  .data\n"
                             "msg: .ascii \"x\"\n",
                             "prog.s");
  ASSERT_TRUE(Image.hasValue()) << Image.message();
  auto R = elf::ELFReader::parse(*Image);
  ASSERT_TRUE(R.hasValue()) << R.message();
  EXPECT_EQ(R->machine(), elf::EM_EG64);
  EXPECT_EQ(R->fileType(), elf::ET_EXEC);
  EXPECT_EQ(R->entry(), isa::TextBase);
  ASSERT_NE(R->findSection(".text"), nullptr);
  ASSERT_NE(R->findSection(".data"), nullptr);
  ASSERT_NE(R->findSymbol("_start"), nullptr);
}

} // namespace
