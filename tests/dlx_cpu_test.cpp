#include <gtest/gtest.h>

#include "rispp/dlx/assembler.hpp"
#include "rispp/dlx/cpu.hpp"
#include "rispp/dlx/h264_binding.hpp"
#include "rispp/h264/reference.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::dlx;
using rispp::isa::SiLibrary;

class DlxCpu : public ::testing::Test {
 protected:
  SiLibrary lib_ = SiLibrary::h264();

  Cpu make_cpu(rispp::rt::RisppManager* mgr = nullptr) {
    return Cpu(lib_, mgr);
  }

  std::vector<std::uint32_t> run_and_print(const std::string& src,
                                           rispp::rt::RisppManager* mgr = nullptr) {
    auto cpu = make_cpu(mgr);
    cpu.load(assemble(src));
    bind_h264_sis(cpu, lib_);
    cpu.run();
    return cpu.prints();
  }
};

TEST_F(DlxCpu, ArithmeticAndPrint) {
  const auto out = run_and_print(
      "  addi r1, r0, 6\n"
      "  addi r2, r0, 7\n"
      "  mul  r3, r1, r2\n"
      "  print r3\n"
      "  sub  r4, r3, r1\n"
      "  print r4\n"
      "  halt\n");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 42u);
  EXPECT_EQ(out[1], 36u);
}

TEST_F(DlxCpu, RegisterZeroIsHardwired) {
  const auto out = run_and_print(
      "  addi r0, r0, 99\n"
      "  print r0\n"
      "  halt\n");
  EXPECT_EQ(out[0], 0u);
}

TEST_F(DlxCpu, LoopComputesSum) {
  // Sum 1..10 with a backwards branch.
  const auto out = run_and_print(
      "      addi r1, r0, 10\n"
      "      addi r2, r0, 0\n"
      "loop: add  r2, r2, r1\n"
      "      addi r1, r1, -1\n"
      "      bne  r1, r0, loop\n"
      "      print r2\n"
      "      halt\n");
  EXPECT_EQ(out[0], 55u);
}

TEST_F(DlxCpu, MemoryAndDataSegment) {
  const auto out = run_and_print(
      "  .data 11 22 33\n"
      "  lw r1, 4(r0)\n"   // data word 1
      "  addi r1, r1, 1\n"
      "  sw r1, 8(r0)\n"
      "  lw r2, 8(r0)\n"
      "  print r2\n"
      "  halt\n");
  EXPECT_EQ(out[0], 23u);
}

TEST_F(DlxCpu, JalAndJrImplementCalls) {
  const auto out = run_and_print(
      "      jal  func\n"
      "      print r5\n"
      "      halt\n"
      "func: addi r5, r0, 77\n"
      "      jr   r31\n");
  EXPECT_EQ(out[0], 77u);
}

TEST_F(DlxCpu, ShiftsAndComparisons) {
  const auto out = run_and_print(
      "  addi r1, r0, -8\n"
      "  addi r2, r0, 2\n"
      "  sra  r3, r1, r2\n"   // -8 >> 2 = -2
      "  print r3\n"
      "  slt  r4, r1, r0\n"   // -8 < 0 → 1
      "  print r4\n"
      "  halt\n");
  EXPECT_EQ(static_cast<std::int32_t>(out[0]), -2);
  EXPECT_EQ(out[1], 1u);
}

TEST_F(DlxCpu, CycleAccounting) {
  auto cpu = make_cpu();
  cpu.load(assemble(
      "  addi r1, r0, 1\n"  // 1 cycle
      "  lw   r2, 0(r0)\n"  // 2 cycles
      "  sw   r2, 4(r0)\n"  // 2 cycles
      "  halt\n"));          // 1 cycle
  cpu.run();
  EXPECT_EQ(cpu.cycles(), 6u);
  EXPECT_EQ(cpu.instructions(), 4u);
}

TEST_F(DlxCpu, SiComputesRealSatdAgainstReference) {
  // Two 4x4 blocks in the data segment; the SI must produce exactly the
  // reference SATD value.
  std::string src = "  .data";
  rispp::h264::Block4x4 cur{}, ref{};
  for (int i = 0; i < 16; ++i) {
    cur[i] = 100 + i * 3;
    ref[i] = 98 + ((i * 5) % 11);
  }
  for (int i = 0; i < 16; ++i) src += " " + std::to_string(cur[i]);
  src += "\n  .data";
  for (int i = 0; i < 16; ++i) src += " " + std::to_string(ref[i]);
  src +=
      "\n  addi r5, r0, 0\n"    // cur at byte 0
      "  addi r6, r0, 64\n"     // ref at byte 64
      "  si SATD_4x4 r4, r5, r6\n"
      "  print r4\n"
      "  halt\n";
  const auto out = run_and_print(src);
  EXPECT_EQ(out[0],
            static_cast<std::uint32_t>(rispp::h264::ref::satd_4x4(cur, ref)));
}

TEST_F(DlxCpu, SiLatencyComesFromTheManager) {
  // The same binary runs with software-Molecule latency without a manager,
  // and with hardware latency once the manager has rotated the atoms.
  // 1500 iterations: long enough that the ~350k-cycle rotation window ends
  // while the loop is still running (each SW iteration is ~547 cycles).
  const std::string src =
      "  forecast SATD_4x4, 1500\n"
      "  addi r1, r0, 0\n"
      "  addi r2, r0, 64\n"
      "  addi r3, r0, 1500\n"
      "loop: si SATD_4x4 r4, r1, r2\n"
      "  addi r3, r3, -1\n"
      "  bne r3, r0, loop\n"
      "  halt\n";

  auto run_cycles = [&](rispp::rt::RisppManager* mgr) {
    auto cpu = make_cpu(mgr);
    cpu.load(assemble(src));
    bind_h264_sis(cpu, lib_);
    cpu.run();
    return cpu;
  };

  const auto no_mgr = run_cycles(nullptr);
  EXPECT_EQ(no_mgr.si_usage().at("SATD_4x4").sw, 1500u);
  EXPECT_EQ(no_mgr.si_usage().at("SATD_4x4").hw, 0u);

  rispp::rt::RtConfig cfg;
  cfg.atom_containers = 4;
  rispp::rt::RisppManager mgr(borrow(lib_), cfg);
  const auto with_mgr = run_cycles(&mgr);
  const auto& usage = with_mgr.si_usage().at("SATD_4x4");
  EXPECT_EQ(usage.hw + usage.sw, 1500u);
  EXPECT_GT(usage.hw, 0u);  // rotations complete during the loop
  EXPECT_LT(with_mgr.cycles(), no_mgr.cycles());
}

TEST_F(DlxCpu, DctSiWritesTransformedBlock) {
  std::string src = "  .data";
  rispp::h264::Block4x4 res{};
  for (int i = 0; i < 16; ++i) {
    res[i] = (i % 4) * 2 - 3;
    src += " " + std::to_string(res[i]);
  }
  src +=
      "\n  addi r5, r0, 0\n"
      "  addi r6, r0, 64\n"
      "  si DCT_4x4 r4, r5, r6\n"
      "  lw r7, 64(r0)\n"   // DC coefficient written to memory
      "  print r7\n"
      "  print r4\n"        // and returned in rd
      "  halt\n";
  const auto out = run_and_print(src);
  const auto expected = rispp::h264::ref::dct_4x4(res)[0];
  EXPECT_EQ(static_cast<std::int32_t>(out[0]), expected);
  EXPECT_EQ(out[0], out[1]);
}

TEST_F(DlxCpu, RuntimeGuards) {
  auto cpu = make_cpu();
  cpu.load(assemble("  lw r1, 2(r0)\n  halt\n"));
  EXPECT_THROW(cpu.run(), rispp::util::PreconditionError);  // unaligned

  auto cpu2 = make_cpu();
  cpu2.load(assemble("  si SATD_4x4 r1, r2, r3\n  halt\n"));
  EXPECT_THROW(cpu2.run(), rispp::util::PreconditionError);  // unbound SI

  auto cpu3 = make_cpu();
  CpuConfig tight;
  tight.max_instructions = 10;
  Cpu bounded(lib_, nullptr, tight);
  bounded.load(assemble("spin: j spin\n"));
  EXPECT_THROW(bounded.run(), rispp::util::PreconditionError);  // no halt

  EXPECT_THROW(cpu3.load(assemble("  si NOPE r1, r2, r3\n  halt\n")),
               rispp::util::PreconditionError);  // unknown SI at load
}

TEST_F(DlxCpu, ProgramRunningOffTheEndThrows) {
  auto cpu = make_cpu();
  cpu.load(assemble("  nop\n"));
  cpu.step();
  EXPECT_THROW(cpu.step(), rispp::util::PreconditionError);
}

}  // namespace
