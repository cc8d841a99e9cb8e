//===- tests/common/RandomProgram.h - random EG64 compute programs -*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random straight-line EG64 compute programs shared by the differential
/// tests of the four consumers of the ISA's semantics: the interpreter, the
/// dataflow folder, the AOT translator and the JIT.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_TESTS_COMMON_RANDOMPROGRAM_H
#define ELFIE_TESTS_COMMON_RANDOMPROGRAM_H

#include "support/Format.h"
#include "support/RNG.h"

#include <cstdint>
#include <iterator>
#include <string>

namespace elfie {
namespace test {

/// Edge cases every pass evaluates after dumping its register file, so
/// each rule of isa/Semantics.h runs in every implementation whatever the
/// random body computed: each integer op on each operand pair, fcvtdi on
/// each double, and fmin/fmax/feq/flt/fle on each double pair.
inline constexpr const char *EdgeIntOps[] = {"div", "divu", "rem", "remu",
                                             "mulh", "shl", "shr", "sar",
                                             "slt", "sltu"};
inline constexpr int64_t EdgeIntPairs[][2] = {
    {INT64_MIN, -1}, {INT64_MIN, 0}, {-7, 0},
    {-7, 64},        {INT64_MAX, 63}, {-1, INT64_MIN}};
inline constexpr const char *EdgeFpOps[] = {"fmin", "fmax", "feq", "flt",
                                            "fle"};
// Bit patterns: NaN, +inf, -inf, 2^63, -2^63, -0.0, +0.0, -1.5.
inline constexpr uint64_t EdgeDoubles[] = {
    0x7ff8000000000000, 0x7ff0000000000000, 0xfff0000000000000,
    0x43e0000000000000, 0xc3e0000000000000, 0x8000000000000000,
    0x0000000000000000, 0xbff8000000000000};
// Index pairs into EdgeDoubles.
inline constexpr unsigned EdgeFpPairs[][2] = {
    {0, 7}, {7, 0}, {5, 6}, {6, 5}, {1, 2}};

/// Bytes of the register file in a dump: r1..r13, then the bit patterns
/// of f0..f15.
constexpr size_t RandomRegDumpBytes = 232;
/// Bytes one pass of a random program dumps: the register file, then one
/// word per edge case.
constexpr size_t RandomDumpBytes =
    RandomRegDumpBytes +
    8 * (std::size(EdgeIntOps) * std::size(EdgeIntPairs) +
         std::size(EdgeDoubles) + std::size(EdgeFpOps) * std::size(EdgeFpPairs));
/// Passes a random program makes over its body. The EVM compiles a block
/// when it is looked up again after being decoded, so with a JIT threshold
/// of 1 the third pass runs compiled.
constexpr unsigned RandomPasses = 3;

/// Generates a random straight-line compute program. Each pass seeds
/// r1..r13 (about half from values on the integer edge cases: 0, 1, -1,
/// INT64_MIN, INT64_MAX, 63, 64) and f0..f15 from them, runs \p NumOps
/// random ALU/FP instructions, dumps the register file and the edge cases
/// and writes the dump to stdout (RandomDumpBytes). The body ends at the
/// `body_end` label; r14 and r15 are neither read nor written before it.
/// The whole program repeats the pass RandomPasses times from identical
/// seeds.
inline std::string randomComputeProgram(uint64_t Seed, unsigned NumOps) {
  RNG R(Seed);
  static const int64_t EdgeValues[] = {0,         1,         -1, INT64_MIN,
                                       INT64_MAX, 63,        64};
  std::string S = "_start:\npass:\n";
  for (unsigned I = 1; I <= 13; ++I) {
    int64_t V = R.nextBelow(2)
                    ? EdgeValues[R.nextBelow(std::size(EdgeValues))]
                    : static_cast<int64_t>(R.next());
    S += formatString("  li r%u, %lld\n", I, static_cast<long long>(V));
  }
  for (unsigned I = 0; I < 16; ++I)
    S += formatString("  fcvtid f%u, r%u\n", I, 1 + I % 13);

  static const char *IntOps3[] = {"add", "sub", "mul",  "mulh", "div",
                                  "divu", "rem", "remu", "and",  "or",
                                  "xor", "shl", "shr",  "sar",  "slt",
                                  "sltu", "seq"};
  static const char *IntOpsImm[] = {"addi", "muli", "andi", "ori", "xori",
                                    "slti", "sltui"};
  static const char *ShiftImm[] = {"shli", "shri", "sari"};
  static const char *FpOps3[] = {"fadd", "fsub", "fmul", "fdiv", "fmin",
                                 "fmax"};
  static const char *FpOps2[] = {"fneg", "fabs", "fmov", "fsqrt"};
  static const char *FpCmp[] = {"feq", "flt", "fle"};

  auto Gpr = [&](bool Dst) {
    // Destinations avoid r0 (hardwired zero) and r14/r15 (lr/sp used by
    // the dump epilogue); sources may include r0.
    return Dst ? 1 + R.nextBelow(13) : R.nextBelow(14);
  };
  auto Fpr = [&] { return R.nextBelow(16); };

  for (unsigned I = 0; I < NumOps; ++I) {
    switch (R.nextBelow(8)) {
    case 0:
    case 1:
    case 2:
      S += formatString("  %s r%llu, r%llu, r%llu\n",
                        IntOps3[R.nextBelow(std::size(IntOps3))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        (unsigned long long)Gpr(false));
      break;
    case 3:
      S += formatString("  %s r%llu, r%llu, %lld\n",
                        IntOpsImm[R.nextBelow(std::size(IntOpsImm))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        static_cast<long long>(R.nextInRange(-100000,
                                                             100000)));
      break;
    case 4:
      S += formatString("  %s r%llu, r%llu, %llu\n",
                        ShiftImm[R.nextBelow(std::size(ShiftImm))],
                        (unsigned long long)Gpr(true),
                        (unsigned long long)Gpr(false),
                        (unsigned long long)R.nextBelow(64));
      break;
    case 5:
      S += formatString("  %s f%llu, f%llu, f%llu\n",
                        FpOps3[R.nextBelow(std::size(FpOps3))],
                        (unsigned long long)Fpr(), (unsigned long long)Fpr(),
                        (unsigned long long)Fpr());
      break;
    case 6:
      S += formatString("  %s f%llu, f%llu\n",
                        FpOps2[R.nextBelow(std::size(FpOps2))],
                        (unsigned long long)Fpr(),
                        (unsigned long long)Fpr());
      break;
    case 7:
      if (R.nextBelow(2))
        S += formatString("  %s r%llu, f%llu, f%llu\n",
                          FpCmp[R.nextBelow(std::size(FpCmp))],
                          (unsigned long long)Gpr(true),
                          (unsigned long long)Fpr(),
                          (unsigned long long)Fpr());
      else
        S += formatString("  fcvtdi r%llu, f%llu\n",
                          (unsigned long long)Gpr(true),
                          (unsigned long long)Fpr());
      break;
    }
  }

  // Dump: store r1..r13 and all FPR bit patterns into a buffer, write it.
  S += "body_end:\n  la r14, dump\n";
  for (unsigned I = 1; I <= 13; ++I)
    S += formatString("  st8 r%u, %u(r14)\n", I, 8 * (I - 1));
  for (unsigned I = 0; I < 16; ++I)
    S += formatString("  fmvtoi r1, f%u\n  st8 r1, %u(r14)\n", I,
                      104 + 8 * I);
  // Edge cases, each result stored after the register file.
  size_t Off = RandomRegDumpBytes;
  auto Store = [&](const char *Reg) {
    S += formatString("  st8 %s, %zu(r14)\n", Reg, Off);
    Off += 8;
  };
  auto Li = [&](unsigned Reg, uint64_t V) {
    S += formatString("  li r%u, %lld\n", Reg, static_cast<long long>(V));
  };
  for (const auto &P : EdgeIntPairs) {
    Li(1, P[0]);
    Li(2, P[1]);
    for (const char *Op : EdgeIntOps) {
      S += formatString("  %s r3, r1, r2\n", Op);
      Store("r3");
    }
  }
  for (uint64_t D : EdgeDoubles) {
    Li(1, D);
    S += "  fmvtof f0, r1\n  fcvtdi r3, f0\n";
    Store("r3");
  }
  for (const auto &P : EdgeFpPairs) {
    Li(1, EdgeDoubles[P[0]]);
    Li(2, EdgeDoubles[P[1]]);
    S += "  fmvtof f0, r1\n  fmvtof f1, r2\n";
    for (const char *Op : EdgeFpOps) {
      if (Op[1] == 'm') // fmin/fmax: FP result
        S += formatString("  %s f2, f0, f1\n  fmvtoi r3, f2\n", Op);
      else
        S += formatString("  %s r3, f0, f1\n", Op);
      Store("r3");
    }
  }

  S += formatString(R"(
  ldi r7, 2
  ldi r1, 1
  la  r2, dump
  ldi r3, %zu
  syscall
  la   r14, passes
  ld8  r1, 0(r14)
  addi r1, r1, 1
  st8  r1, 0(r14)
  slti r1, r1, %u
  bnez r1, pass
  ldi r7, 1
  ldi r1, 0
  syscall
  .data
  .align 8
passes: .space 8
dump: .space %zu
)",
                    RandomDumpBytes, RandomPasses, RandomDumpBytes);
  return S;
}

} // namespace test
} // namespace elfie

#endif // ELFIE_TESTS_COMMON_RANDOMPROGRAM_H
