/// The DLX tool-chain front end: static CFG extraction, dynamic profiling,
/// and the complete §4 flow over real code — extract → profile → forecast
/// pass, with the resulting FC plan validated against the program.

#include <gtest/gtest.h>

#include "rispp/cfg/probability.hpp"
#include "rispp/dlx/assembler.hpp"
#include "rispp/dlx/cfg_extract.hpp"
#include "rispp/dlx/h264_binding.hpp"
#include "rispp/forecast/forecast_pass.hpp"

namespace {

using namespace rispp::dlx;
using rispp::isa::SiLibrary;

class DlxCfgExtract : public ::testing::Test {
 protected:
  SiLibrary lib_ = SiLibrary::h264();
};

TEST_F(DlxCfgExtract, StraightLineIsOneBlock) {
  const auto prog = assemble(
      "  addi r1, r0, 1\n"
      "  addi r2, r0, 2\n"
      "  halt\n");
  const auto cfg = extract_cfg(prog, lib_);
  EXPECT_EQ(cfg.graph.block_count(), 1u);
  EXPECT_TRUE(cfg.graph.edges().empty());
  // 3 single-cycle instructions.
  EXPECT_EQ(cfg.graph.block(0).cycles, 3u);
}

TEST_F(DlxCfgExtract, LoopSplitsIntoBlocksWithBackEdge) {
  const auto prog = assemble(
      "      addi r1, r0, 10\n"   // block 0
      "loop: addi r1, r1, -1\n"   // block 1 (branch target)
      "      bne  r1, r0, loop\n"
      "      halt\n");            // block 2
  const auto cfg = extract_cfg(prog, lib_);
  ASSERT_EQ(cfg.graph.block_count(), 3u);
  // Edges: 0→1 (fallthrough), 1→1 (back edge), 1→2 (exit).
  EXPECT_TRUE(cfg.graph.find_edge(0, 1).has_value());
  EXPECT_TRUE(cfg.graph.find_edge(1, 1).has_value());
  EXPECT_TRUE(cfg.graph.find_edge(1, 2).has_value());
  EXPECT_EQ(cfg.graph.edges().size(), 3u);
}

TEST_F(DlxCfgExtract, SiUsageSitesRecorded) {
  const auto prog = assemble(
      "loop: si SATD_4x4 r4, r5, r6\n"
      "      bne r1, r0, loop\n"
      "      halt\n");
  const auto cfg = extract_cfg(prog, lib_);
  const auto sites = cfg.graph.usage_sites(lib_.index_of("SATD_4x4"));
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites.front(), 0u);
}

TEST_F(DlxCfgExtract, ProfileCountsMatchExecution) {
  const auto prog = assemble(
      "      addi r1, r0, 7\n"
      "loop: addi r1, r1, -1\n"
      "      bne  r1, r0, loop\n"
      "      halt\n");
  auto cfg = extract_cfg(prog, lib_);
  Cpu cpu(lib_, nullptr);
  cpu.load(prog);
  profile_cfg(cfg, cpu);
  EXPECT_EQ(cfg.graph.block(0).exec_count, 1u);   // entry
  EXPECT_EQ(cfg.graph.block(1).exec_count, 7u);   // loop body
  EXPECT_EQ(cfg.graph.block(2).exec_count, 1u);   // exit
  // Back edge taken 6 times, exit edge once.
  EXPECT_EQ(cfg.graph.edges()[*cfg.graph.find_edge(1, 1)].count, 6u);
  EXPECT_EQ(cfg.graph.edges()[*cfg.graph.find_edge(1, 2)].count, 1u);
  // Edge probabilities derive from the profile: 6/7 back, 1/7 out.
  EXPECT_NEAR(cfg.graph.edge_probability(*cfg.graph.find_edge(1, 1)),
              6.0 / 7.0, 1e-12);
}

TEST_F(DlxCfgExtract, JalJrApproximationCoversReturnFlow) {
  const auto prog = assemble(
      "      jal  f\n"
      "      halt\n"
      "f:    addi r5, r0, 1\n"
      "      jr   r31\n");
  auto cfg = extract_cfg(prog, lib_);
  Cpu cpu(lib_, nullptr);
  cpu.load(prog);
  profile_cfg(cfg, cpu);
  // The call and return edges carry one execution each.
  const auto call_block = cfg.block_of_instr[0];
  const auto func_block = cfg.block_of_instr[2];
  const auto ret_block = cfg.block_of_instr[1];
  EXPECT_EQ(cfg.graph.edges()[*cfg.graph.find_edge(call_block, func_block)].count, 1u);
  EXPECT_EQ(cfg.graph.edges()[*cfg.graph.find_edge(func_block, ret_block)].count, 1u);
  EXPECT_NO_THROW(cfg.graph.validate());
}

TEST_F(DlxCfgExtract, FullToolchainFlowPlacesForecastAheadOfHotLoop) {
  // A warm-up preamble followed by a hot SATD loop — the §4 pass over the
  // extracted+profiled graph must place the SATD forecast in the preamble,
  // not inside the loop (per-reach expectation there is ~1).
  const auto prog = assemble(
      "       .data 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "       addi r9, r0, 600\n"      // block 0: preamble head
      "warm:  addi r9, r9, -1\n"       // block 1: long warm-up loop
      "       bne  r9, r0, warm\n"
      "       addi r3, r0, 4000\n"     // block 2: hot-loop setup
      "hot:   si SATD_4x4 r4, r1, r2\n"  // block 3: the hot spot
      "       addi r3, r3, -1\n"
      "       bne  r3, r0, hot\n"
      "       halt\n");                // block 4
  auto cfg = extract_cfg(prog, lib_);
  Cpu cpu(lib_, nullptr);
  cpu.load(prog);
  bind_h264_sis(cpu, lib_);
  profile_cfg(cfg, cpu);

  EXPECT_EQ(cfg.graph.total_si_invocations(lib_.index_of("SATD_4x4")), 4000u);

  rispp::forecast::ForecastConfig fcfg;
  fcfg.atom_containers = 4;
  fcfg.alpha = 0.02;
  const auto plan = run_forecast_pass(cfg.graph, lib_, fcfg);
  ASSERT_GT(plan.total_points(), 0u);
  const auto hot_block = cfg.graph.usage_sites(lib_.index_of("SATD_4x4")).front();
  for (const auto& fb : plan.blocks) {
    EXPECT_NE(fb.block, hot_block);  // never at the usage site itself
    for (const auto& p : fb.points) {
      EXPECT_EQ(p.si_index, lib_.index_of("SATD_4x4"));
      EXPECT_GT(p.expected_executions, 100.0);
    }
  }
}

TEST_F(DlxCfgExtract, InjectForecastsAutomaticallyAcceleratesTheBinary) {
  // The complete §4 compiler: extract → profile → forecast pass → rewrite.
  // The source contains NO forecast instruction; the instrumented binary
  // reaches hardware execution on the RISPP platform and produces the same
  // results as the original.
  const auto prog = assemble(
      "       .data 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
      "       addi r9, r0, 800\n"
      "warm:  addi r9, r9, -1\n"
      "       bne  r9, r0, warm\n"
      "       addi r3, r0, 4000\n"
      "       addi r8, r0, 0\n"
      "hot:   si SATD_4x4 r4, r1, r2\n"
      "       add  r8, r8, r4\n"
      "       addi r3, r3, -1\n"
      "       bne  r3, r0, hot\n"
      "       print r8\n"
      "       halt\n");

  auto cfg = extract_cfg(prog, lib_);
  Cpu profiler(lib_, nullptr);
  profiler.load(prog);
  bind_h264_sis(profiler, lib_);
  profile_cfg(cfg, profiler);

  rispp::forecast::ForecastConfig fcfg;
  fcfg.atom_containers = 4;
  fcfg.alpha = 0.02;
  const auto plan = run_forecast_pass(cfg.graph, lib_, fcfg);
  ASSERT_GT(plan.total_points(), 0u);

  const auto instrumented = inject_forecasts(prog, cfg, plan, lib_);
  EXPECT_EQ(instrumented.code.size(),
            prog.code.size() + plan.total_points());

  // The instrumented binary on the RISPP platform.
  rispp::rt::RtConfig rcfg;
  rcfg.atom_containers = 4;
  rispp::rt::RisppManager mgr(borrow(lib_), rcfg);
  Cpu accelerated(lib_, &mgr);
  accelerated.load(instrumented);
  bind_h264_sis(accelerated, lib_);
  accelerated.run();

  // The original binary on a plain core.
  Cpu plain(lib_, nullptr);
  plain.load(prog);
  bind_h264_sis(plain, lib_);
  plain.run();

  EXPECT_EQ(accelerated.prints(), plain.prints());  // identical semantics
  const auto& usage = accelerated.si_usage().at("SATD_4x4");
  EXPECT_GT(usage.hw, 3000u);  // mostly hardware after the warm-up loop
  EXPECT_LT(accelerated.cycles(), plain.cycles() / 2);
}

TEST_F(DlxCfgExtract, InjectPreservesControlFlowExactly) {
  // Branch-target relocation: a program with forward and backward branches
  // must compute the same values after injection, even with forecasts
  // inserted at branch targets.
  const auto prog = assemble(
      "       addi r1, r0, 5\n"
      "       addi r2, r0, 0\n"
      "loop:  si HT_2x2 r4, r0, r0\n"
      "       add  r2, r2, r1\n"
      "       addi r1, r1, -1\n"
      "       bne  r1, r0, loop\n"
      "       print r2\n"
      "       halt\n");
  auto cfg = extract_cfg(prog, lib_);
  Cpu profiler(lib_, nullptr);
  profiler.load(prog);
  bind_h264_sis(profiler, lib_);
  profile_cfg(cfg, profiler);

  // Hand-build a plan placing an FC at the loop head (block of 'loop').
  rispp::forecast::FcPlan plan;
  rispp::forecast::FcBlock fb;
  fb.block = cfg.block_of_instr[2];
  rispp::forecast::ForecastPoint pt;
  pt.block = fb.block;
  pt.si_index = lib_.index_of("HT_2x2");
  pt.probability = 1.0;
  pt.expected_executions = 5;
  fb.points.push_back(pt);
  plan.blocks.push_back(fb);

  const auto instrumented = inject_forecasts(prog, cfg, plan, lib_);
  Cpu cpu(lib_, nullptr);
  cpu.load(instrumented);
  bind_h264_sis(cpu, lib_);
  cpu.run();
  ASSERT_EQ(cpu.prints().size(), 1u);
  EXPECT_EQ(cpu.prints()[0], 15u);  // 5+4+3+2+1
}

}  // namespace
