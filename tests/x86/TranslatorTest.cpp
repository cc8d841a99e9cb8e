//===- tests/x86/TranslatorTest.cpp - differential translator tests -------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// Property-based differential testing of the EG64 -> x86-64 lowering:
/// randomly generated guest programs run (a) interpreted in the EVM, (b)
/// under the EVM's JIT at promotion threshold 1, so the last pass runs
/// compiled, and (c) AOT-translated inside a native ELFie; all three dump
/// their register file and a fixed edge-case table to stdout, which must
/// match bit-for-bit. Register seeds include the integer edge values, so
/// this covers the division edge cases, shift masking, saturating
/// conversion, NaN-safe FP compares, and the ldi/ldih immediate
/// composition against the interpreter as the reference model.
///
//===----------------------------------------------------------------------===//

#include "x86/Translator.h"

#include "../common/RandomProgram.h"
#include "../common/Subprocess.h"
#include "../common/TestHelpers.h"
#include "core/Pinball2Elf.h"

#include <gtest/gtest.h>

using namespace elfie;

namespace {

/// Captures a program's whole execution and emits it as a native ELFie.
/// Returns the ELFie's path, or "" on failure.
std::string nativeWhole(const std::string &Dir, const std::string &Src) {
  pinball::CaptureRequest Req;
  Req.ProgramPath = Dir + "/prog.elf";
  Error E = easm::assembleToFile(Src, "prog.s", Req.ProgramPath);
  EXPECT_FALSE(E.isError()) << E.message();
  Req.RegionStart = 0;
  Req.RegionLength = UINT64_MAX / 2;
  Req.Opts = pinball::LoggerOptions::fat();
  auto PB = pinball::captureRegion(Req);
  EXPECT_TRUE(PB.hasValue()) << PB.message();
  if (!PB)
    return "";
  std::string Exe = Dir + "/prog.elfie";
  E = core::pinballToElfFile(*PB, core::Pinball2ElfOptions(), Exe);
  EXPECT_FALSE(E.isError()) << E.message();
  return E.isError() ? "" : Exe;
}

/// Runs a program's whole execution as a native ELFie and returns stdout.
bool runNativeWhole(const std::string &Dir, const std::string &Src,
                    std::string &Out, std::string &Err) {
  std::string Exe = nativeWhole(Dir, Src);
  if (Exe.empty())
    return false;
  auto R = test::runProcess(Exe);
  EXPECT_TRUE(R.Exited) << "signal " << R.TermSignal << " " << R.Stderr;
  Err = R.Stderr;
  Out = R.Stdout;
  return R.Exited && R.ExitCode == 0;
}

/// Interprets \p Src to completion under \p Config and returns stdout.
std::string interpret(const std::string &Src, vm::VMConfig Config,
                      vm::JitStats *Stats = nullptr) {
  auto Captured = std::make_shared<std::string>();
  auto M = test::makeVM(Src, Captured, Config);
  if (!M)
    return "";
  auto VR = M->run(10000000);
  EXPECT_EQ(VR.Reason, vm::StopReason::AllExited)
      << (VR.Reason == vm::StopReason::Faulted ? VR.FaultInfo.Message
                                               : "no exit");
  if (Stats)
    *Stats = M->jitStats();
  return *Captured;
}

/// Compares two register-file dumps word by word.
void expectSameDump(const std::string &Ref, const std::string &Got,
                    const char *What, unsigned Round) {
  ASSERT_EQ(Got.size(), Ref.size()) << What;
  for (size_t I = 0; I < Ref.size(); I += 8) {
    uint64_t A, B;
    memcpy(&A, Ref.data() + I, 8);
    memcpy(&B, Got.data() + I, 8);
    size_t W = I % test::RandomDumpBytes / 8;
    EXPECT_EQ(A, B) << What << ": round " << Round << ", pass "
                    << I / test::RandomDumpBytes << ", dump word " << W
                    << (W < 13   ? " (GPR)"
                        : W < 29 ? " (FPR bits)"
                                 : " (edge case)");
  }
}

class TranslatorDifferential : public testing::TestWithParam<uint64_t> {};

TEST_P(TranslatorDifferential, RandomProgramsMatchInterpreter) {
  std::string Dir =
      testing::TempDir() + "/elfie_xlate_" + std::to_string(GetParam());
  removeTree(Dir);
  createDirectories(Dir);

  for (unsigned Round = 0; Round < 4; ++Round) {
    std::string Src = test::randomComputeProgram(GetParam() * 97 + Round, 120);

    // Reference: EVM interpretation.
    std::string Ref = interpret(Src, vm::VMConfig());
    ASSERT_EQ(Ref.size(), test::RandomPasses * test::RandomDumpBytes);

    // JIT: every block compiles on its second entry, so the last pass runs
    // compiled code.
    vm::VMConfig JitConfig;
    JitConfig.EnableJit = true;
    JitConfig.JitThreshold = 1;
    vm::JitStats Stats;
    std::string Jit = interpret(Src, JitConfig, &Stats);
    EXPECT_GT(Stats.Hits, 0u) << "round " << Round;
    expectSameDump(Ref, Jit, "jit", Round);

    // Native translation.
    std::string NativeOut, NativeErr;
    ASSERT_TRUE(runNativeWhole(Dir, Src, NativeOut, NativeErr))
        << NativeErr;
    expectSameDump(Ref, NativeOut, "native", Round);
  }
  removeTree(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslatorDifferential,
                         testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                         6ull));

TEST(TranslatorUnit, JalrReadsTargetBeforeLinkWhenRdIsRs1) {
  // jalr r5, r5, 0 must jump to the old r5 and then link into r5: the
  // target checks r5 holds the return address and exits 7; jumping to the
  // link instead exits 2.
  const std::string Src = R"(
_start:
  la   r5, target
  jalr r5, r5, 0
back:
  ldi  r7, 1
  ldi  r1, 2
  syscall
target:
  la   r6, back
  ldi  r1, 7
  beq  r5, r6, done
  ldi  r1, 3
done:
  ldi  r7, 1
  syscall
)";
  auto M = test::makeVM(Src, nullptr);
  ASSERT_NE(M, nullptr);
  auto VR = M->run(1000);
  ASSERT_EQ(VR.Reason, vm::StopReason::AllExited);
  EXPECT_EQ(M->exitCode(), 7);

  std::string Dir = testing::TempDir() + "/elfie_xlate_jalr";
  removeTree(Dir);
  createDirectories(Dir);
  std::string Exe = nativeWhole(Dir, Src);
  ASSERT_FALSE(Exe.empty());
  auto R = test::runProcess(Exe);
  ASSERT_TRUE(R.Exited) << "signal " << R.TermSignal << " " << R.Stderr;
  EXPECT_EQ(R.ExitCode, M->exitCode());
  removeTree(Dir);
}

TEST(TranslatorUnit, AddressTableCoversAllInstructions) {
  x86::Encoder E;
  x86::TranslatorConfig TC;
  TC.HostCodeBase = 0x1000;
  TC.TableBase = 0x2000;
  x86::Translator T(E, TC);
  // Two pages with a gap.
  std::vector<uint8_t> Page(4096, 0);
  for (size_t Off = 0; Off + 8 <= Page.size(); Off += 8) {
    isa::Inst I;
    I.Op = isa::Opcode::Nop;
    uint64_t W = isa::encode(I);
    memcpy(Page.data() + Off, &W, 8);
  }
  T.addCodePage(0x10000, Page.data(), Page.size());
  T.addCodePage(0x12000, Page.data(), Page.size());
  x86::Label Sys, Cd, Hl, Ab;
  x86::Translator::RuntimeLabels RT{&Sys, &Cd, &Hl, &Ab};
  E.bind(Sys);
  E.ret();
  E.bind(Cd);
  E.ret();
  E.bind(Hl);
  E.ret();
  E.bind(Ab);
  E.ud2();
  // Bind order: runtime first here, then translate.
  ASSERT_FALSE(T.translateAll(RT).isError());
  EXPECT_EQ(T.codeLo(), 0x10000u);
  EXPECT_EQ(T.codeHi(), 0x13000u);
  EXPECT_EQ(T.translatedCount(), 2 * 512u);

  auto Table = T.buildAddressTable();
  EXPECT_EQ(Table.size(), (T.codeHi() - T.codeLo()) / 8 * 8);
  // Translated slots are nonzero; the gap page's slots are zero.
  auto EntryAt = [&](uint64_t Guest) {
    uint64_t V;
    memcpy(&V, Table.data() + (Guest - T.codeLo()), 8);
    return V;
  };
  EXPECT_NE(EntryAt(0x10000), 0u);
  EXPECT_NE(EntryAt(0x12ff8), 0u);
  EXPECT_EQ(EntryAt(0x11000), 0u) << "gap pages are not code";
  size_t Off;
  ASSERT_TRUE(T.hostOffsetFor(0x10008, Off));
  EXPECT_EQ(EntryAt(0x10008), TC.HostCodeBase + Off);
  EXPECT_FALSE(T.hostOffsetFor(0x11000, Off));
}

} // namespace
