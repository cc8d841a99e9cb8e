//===- tests/support/WatchdogTest.cpp -------------------------------------===//
//
// Part of the ELFies reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"
#include "support/Watchdog.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace elfie;

namespace {

TEST(Watchdog, ScalingRule) {
  // Floor for tiny budgets; linear at 50M instr/s; capped at 600s.
  EXPECT_EQ(scaledWatchdogSeconds(0), 10u);
  EXPECT_EQ(scaledWatchdogSeconds(1000), 10u);
  EXPECT_EQ(scaledWatchdogSeconds(100000000ull), 12u);
  EXPECT_EQ(scaledWatchdogSeconds(UINT64_MAX), 600u);
  // Interpreting consumers pass a lower rate.
  EXPECT_EQ(scaledWatchdogSeconds(2000000ull, 2000000ull), 11u);
  EXPECT_EQ(scaledWatchdogSeconds(UINT64_MAX, 2000000ull), 600u);
}

TEST(Watchdog, DisarmClearsAlarmAndRestoresDisposition) {
  armBudgetWatchdog("test", 1000);
  EXPECT_TRUE(budgetWatchdogArmed());
  disarmBudgetWatchdog();
  EXPECT_FALSE(budgetWatchdogArmed());
  // No alarm may still be pending (satellite: a fast tool run must not
  // leak a pending SIGALRM into a harness that embeds it)...
  EXPECT_EQ(alarm(0), 0u);
  // ...and SIGALRM must be back at the default disposition.
  struct sigaction SA;
  ASSERT_EQ(sigaction(SIGALRM, nullptr, &SA), 0);
  EXPECT_EQ(SA.sa_handler, SIG_DFL);
}

TEST(Watchdog, ArmZeroSecondsIsNoOp) {
  armBudgetWatchdog("test", 0);
  EXPECT_FALSE(budgetWatchdogArmed());
  EXPECT_EQ(alarm(0), 0u);
}

TEST(Watchdog, FiresAsExit125) {
  // The firing path calls _exit from a signal handler; exercise it in a
  // forked child so the test process survives.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    armBudgetWatchdog("watchdog-test", 1);
    for (;;)
      pause();
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), ExitWatchdog);
}

TEST(Subprocess, SpawnRedirectsAndEnv) {
  std::string Dir = testing::TempDir() + "/elfie_subproc";
  ::mkdir(Dir.c_str(), 0755);
  SpawnSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", "echo out-$SUB_TEST_VAR; echo err >&2"};
  Spec.ExtraEnv.emplace_back("SUB_TEST_VAR", "42");
  Spec.StdoutPath = Dir + "/out";
  Spec.StderrPath = Dir + "/err";
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  EXPECT_TRUE(W->Exited);
  EXPECT_EQ(W->ExitCode, 0);

  FILE *F = fopen((Dir + "/out").c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {0};
  ASSERT_NE(fgets(Buf, sizeof(Buf), F), nullptr);
  fclose(F);
  EXPECT_STREQ(Buf, "out-42\n");
}

TEST(Subprocess, UnsetEnvStripsVariable) {
  ASSERT_EQ(setenv("SUB_TEST_STRIP", "leak", 1), 0);
  std::string Out = testing::TempDir() + "/elfie_subproc_strip";
  SpawnSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", "echo [$SUB_TEST_STRIP]"};
  Spec.UnsetEnv.push_back("SUB_TEST_STRIP");
  Spec.StdoutPath = Out;
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  unsetenv("SUB_TEST_STRIP");
  FILE *F = fopen(Out.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {0};
  ASSERT_NE(fgets(Buf, sizeof(Buf), F), nullptr);
  fclose(F);
  EXPECT_STREQ(Buf, "[]\n");
}

TEST(Subprocess, ExecFailureExits124) {
  SpawnSpec Spec;
  Spec.Argv = {"/no/such/binary/anywhere"};
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  EXPECT_TRUE(W->Exited);
  EXPECT_EQ(W->ExitCode, ExitExecFailure);
}

TEST(Subprocess, KillProcessTreeTakesOutChildren) {
  // A shell that forks a sleeping child: the group kill must reach both.
  SpawnSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", "sleep 30 & wait"};
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  // Give the shell a moment to fork.
  ::usleep(100000);
  auto Poll = pollProcess(*Pid);
  ASSERT_TRUE(Poll.hasValue());
  EXPECT_TRUE(Poll->Running);
  killProcessTree(*Pid, SIGKILL);
  auto W = waitProcess(*Pid);
  ASSERT_TRUE(W.hasValue());
  EXPECT_FALSE(W->Exited);
  EXPECT_EQ(W->Signal, SIGKILL);
}

TEST(Subprocess, WaitProcessForKillsAtTheDeadline) {
  SpawnSpec Spec;
  Spec.Argv = {"/bin/sh", "-c", "sleep 30"};
  auto Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  bool TimedOut = false;
  uint64_t T0 = monotonicMillis();
  auto W = waitProcessFor(*Pid, 100, TimedOut);
  ASSERT_TRUE(W.hasValue()) << W.message();
  EXPECT_TRUE(TimedOut);
  EXPECT_FALSE(W->Exited);
  EXPECT_EQ(W->Signal, SIGKILL);
  EXPECT_LT(monotonicMillis() - T0, 10000u);

  // A child that finishes in time is reaped normally.
  Spec.Argv = {"/bin/sh", "-c", "exit 3"};
  Pid = spawnProcess(Spec);
  ASSERT_TRUE(Pid.hasValue()) << Pid.message();
  W = waitProcessFor(*Pid, 10000, TimedOut);
  ASSERT_TRUE(W.hasValue()) << W.message();
  EXPECT_FALSE(TimedOut);
  EXPECT_TRUE(W->Exited);
  EXPECT_EQ(W->ExitCode, 3);
}

} // namespace
