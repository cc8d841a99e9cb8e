//===- isa/Semantics.h - EG64 scalar semantics, defined once ----*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one C++ definition of every EG64 scalar result with an edge case:
/// RISC-V division, mulh, shift masking, the set-less-than family, sext of
/// the 32-bit immediate, the ldih merge, load width and extension, SSE-style
/// fmin/fmax, and the saturating fcvtdi. The EVM interpreter (one case per
/// opcode in VM::execDecoded) and the dataflow folder (through evalInt)
/// both call these, so a constant the folder claims is the value the
/// interpreter computes; load widths and signedness are read from the
/// opcode table in isa/ISA.h. The x86 lowering of the same rules lives
/// once in x86/Lowering.cpp; the translator differential tests hold the
/// two definitions equal. See DESIGN.md §4.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_ISA_SEMANTICS_H
#define ELFIE_ISA_SEMANTICS_H

#include "isa/ISA.h"

#include <cstdint>

namespace elfie {
namespace isa {
namespace sem {

/// Sign-extends the instruction's 32-bit immediate to 64 bits.
constexpr uint64_t sext(int32_t Imm) {
  return static_cast<uint64_t>(static_cast<int64_t>(Imm));
}

/// High 64 bits of the signed 128-bit product.
constexpr uint64_t mulh(uint64_t A, uint64_t B) {
  __int128 P = static_cast<__int128>(static_cast<int64_t>(A)) *
               static_cast<int64_t>(B);
  return static_cast<uint64_t>(P >> 64);
}

/// Signed division, RISC-V rules: x / 0 = all ones; INT64_MIN / -1 =
/// INT64_MIN (no trap).
constexpr uint64_t div(uint64_t A, uint64_t B) {
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  if (SB == 0)
    return UINT64_MAX;
  if (SA == INT64_MIN && SB == -1)
    return static_cast<uint64_t>(INT64_MIN);
  return static_cast<uint64_t>(SA / SB);
}

/// Unsigned division: x / 0 = all ones.
constexpr uint64_t divu(uint64_t A, uint64_t B) {
  return B == 0 ? UINT64_MAX : A / B;
}

/// Signed remainder, RISC-V rules: x % 0 = x; INT64_MIN % -1 = 0.
constexpr uint64_t rem(uint64_t A, uint64_t B) {
  int64_t SA = static_cast<int64_t>(A), SB = static_cast<int64_t>(B);
  if (SB == 0)
    return A;
  if (SA == INT64_MIN && SB == -1)
    return 0;
  return static_cast<uint64_t>(SA % SB);
}

/// Unsigned remainder: x % 0 = x.
constexpr uint64_t remu(uint64_t A, uint64_t B) { return B == 0 ? A : A % B; }

/// Shifts use the low six bits of the amount (x86 semantics).
constexpr uint64_t shl(uint64_t A, uint64_t B) { return A << (B & 63); }
constexpr uint64_t shr(uint64_t A, uint64_t B) { return A >> (B & 63); }
constexpr uint64_t sar(uint64_t A, uint64_t B) {
  return static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63));
}

/// Comparisons write 0 or 1.
constexpr uint64_t slt(uint64_t A, uint64_t B) {
  return static_cast<int64_t>(A) < static_cast<int64_t>(B);
}
constexpr uint64_t sltu(uint64_t A, uint64_t B) { return A < B; }
constexpr uint64_t seq(uint64_t A, uint64_t B) { return A == B; }

/// ldih: rd = (imm32 << 32) | (rd & 0xffffffff).
constexpr uint64_t ldih(uint64_t Old, int32_t Imm) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(Imm)) << 32) |
         (Old & 0xffffffffull);
}

/// Integer result of \p Op on A and B: register forms take B = r[rs2],
/// immediate forms B = sext(imm). Defined for the integer ALU opcodes
/// (Add..Seq and Addi..Sltui); every other opcode yields 0.
constexpr uint64_t evalInt(Opcode Op, uint64_t A, uint64_t B) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Addi:
    return A + B;
  case Opcode::Sub:
    return A - B;
  case Opcode::Mul:
  case Opcode::Muli:
    return A * B;
  case Opcode::Mulh:
    return mulh(A, B);
  case Opcode::Div:
    return div(A, B);
  case Opcode::Divu:
    return divu(A, B);
  case Opcode::Rem:
    return rem(A, B);
  case Opcode::Remu:
    return remu(A, B);
  case Opcode::And:
  case Opcode::Andi:
    return A & B;
  case Opcode::Or:
  case Opcode::Ori:
    return A | B;
  case Opcode::Xor:
  case Opcode::Xori:
    return A ^ B;
  case Opcode::Shl:
  case Opcode::Shli:
    return shl(A, B);
  case Opcode::Shr:
  case Opcode::Shri:
    return shr(A, B);
  case Opcode::Sar:
  case Opcode::Sari:
    return sar(A, B);
  case Opcode::Slt:
  case Opcode::Slti:
    return slt(A, B);
  case Opcode::Sltu:
  case Opcode::Sltui:
    return sltu(A, B);
  case Opcode::Seq:
    return seq(A, B);
  default:
    return 0;
  }
}

/// Bytes a load, store or atomic accesses; 0 for every other opcode.
constexpr unsigned accessSize(Opcode Op) { return opInfo(Op).Size; }

/// True for the sign-extending loads (ld1s/ld2s/ld4s).
constexpr bool isSignedLoad(Opcode Op) {
  return opInfo(Op).Class & ClassSigned;
}

/// Widens the \p Size-byte value \p Raw (upper bytes zero) to 64 bits.
constexpr uint64_t extendLoad(uint64_t Raw, unsigned Size, bool Signed) {
  if (!Signed || Size >= 8)
    return Raw;
  unsigned Shift = 64 - 8 * Size;
  return static_cast<uint64_t>(static_cast<int64_t>(Raw << Shift) >> Shift);
}

/// fmin/fmax follow SSE minsd/maxsd: the second operand is returned when
/// the operands are unordered (NaN) or equal (so fmin(+0, -0) = -0).
constexpr double fmin(double A, double B) { return A < B ? A : B; }
constexpr double fmax(double A, double B) { return A > B ? A : B; }

/// Truncating double -> int64 with x86 cvttsd2si results: NaN and every
/// out-of-range input give INT64_MIN.
constexpr uint64_t fcvtdi(double V) {
  if (!(V > -9223372036854775808.0 && V < 9223372036854775808.0))
    return static_cast<uint64_t>(INT64_MIN);
  return static_cast<uint64_t>(static_cast<int64_t>(V));
}

} // namespace sem
} // namespace isa
} // namespace elfie

#endif // ELFIE_ISA_SEMANTICS_H
