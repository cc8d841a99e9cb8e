//===- x86/Lowering.h - shared EG64 -> x86-64 register ops ------*- C++ -*-===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one x86-64 lowering of every EG64 register-to-register instruction:
/// the integer ALU in register and immediate forms (with the RISC-V
/// division edge cases and shift masking of isa/Semantics.h), ldi/ldih,
/// mov, and the FP arithmetic, compare, convert and move ops. The AOT
/// Translator and the JIT's block emitter both call it; they differ only in
/// where the guest register file lives, which a GuestRegFile describes.
/// Everything else — prologue and countdown, memory access, control flow,
/// fences, atomics and system ops — stays with each emitter (DESIGN.md §12).
///
/// Scratch registers: %rax, %rcx, %rdx and %xmm0/%xmm1. Nothing is live
/// across a lowered instruction.
///
//===----------------------------------------------------------------------===//

#ifndef ELFIE_X86_LOWERING_H
#define ELFIE_X86_LOWERING_H

#include "isa/ISA.h"
#include "x86/Encoder.h"

#include <cstdint>

namespace elfie {
namespace x86 {

/// Where the guest registers live: 16 u64 GPR slots at Base + GprOff and
/// 16 f64 FPR slots at Base + FprOff.
struct GuestRegFile {
  Reg Base;
  int32_t GprOff;
  int32_t FprOff;

  int32_t gpr(unsigned R) const { return GprOff + 8 * static_cast<int>(R); }
  int32_t fpr(unsigned R) const { return FprOff + 8 * static_cast<int>(R); }
};

/// Emits guest register traffic and register-to-register ops into an
/// encoder for one guest register file.
class Lowering {
public:
  Lowering(Encoder &E, GuestRegFile RF) : E(E), RF(RF) {}

  void loadGpr(Reg Dst, unsigned GuestReg) {
    E.movRegMem(Dst, RF.Base, RF.gpr(GuestReg));
  }
  /// Writes to r0 are dropped: its slot is zero and never written.
  void storeGpr(unsigned GuestReg, Reg Src) {
    if (GuestReg != isa::RegZero)
      E.movMemReg(RF.Base, RF.gpr(GuestReg), Src);
  }
  void loadFprBits(Reg Dst, unsigned GuestReg) {
    E.movRegMem(Dst, RF.Base, RF.fpr(GuestReg));
  }
  void storeFprBits(unsigned GuestReg, Reg Src) {
    E.movMemReg(RF.Base, RF.fpr(GuestReg), Src);
  }

  /// Lowers \p I when it is a register-to-register op and returns true;
  /// returns false, emitting nothing, for every other opcode.
  bool lowerRegOp(const isa::Inst &I);

private:
  Encoder &E;
  GuestRegFile RF;
};

} // namespace x86
} // namespace elfie

#endif // ELFIE_X86_LOWERING_H
