/// Cross-module integration: compile-time forecast plans driving the
/// run-time system inside the simulator, reproducing the paper's headline
/// behaviours end to end.

#include <gtest/gtest.h>

#include "rispp/aes/graph.hpp"
#include "rispp/baseline/asip.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/h264/workload.hpp"
#include "rispp/sim/simulator.hpp"

namespace {

using rispp::isa::SiLibrary;

TEST(Integration, EncoderSpeedupOver3xWithMinimalAtoms) {
  // Fig 12: minimal-atom RISPP is "more than 300% faster" than software.
  const auto lib = SiLibrary::h264();
  rispp::h264::TraceParams p;
  p.macroblocks = 99;  // one QCIF frame
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 4;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  sim.add_task({"enc", rispp::h264::make_encode_trace(lib, p)});
  const auto r = sim.run();
  const double sw_total = static_cast<double>(
      p.macroblocks *
      rispp::h264::software_cycles_per_mb(lib, p.counts, p.model));
  EXPECT_GT(sw_total / static_cast<double>(r.total_cycles), 3.0);
}

TEST(Integration, AmdahlFlatteningAcrossAtomBudgets) {
  // Fig 12 shape: 4 → 5 → 6 atoms improves, but only marginally.
  const auto lib = SiLibrary::h264();
  rispp::h264::TraceParams p;
  p.macroblocks = 60;
  std::vector<double> totals;
  for (unsigned containers : {4u, 5u, 6u}) {
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = containers;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"enc", rispp::h264::make_encode_trace(lib, p)});
    totals.push_back(static_cast<double>(sim.run().total_cycles));
  }
  EXPECT_LE(totals[1], totals[0]);
  EXPECT_LE(totals[2], totals[1]);
  // Marginal: 6 atoms buys < 10 % over 4 atoms.
  EXPECT_GT(totals[2] / totals[0], 0.90);
}

TEST(Integration, ForecastingBeatsNoForecasting) {
  // DESIGN.md ablation 3: without FCs nothing ever rotates (the run-time
  // system is forecast-driven), so everything stays in software.
  const auto lib = SiLibrary::h264();
  rispp::h264::TraceParams p;
  p.macroblocks = 20;
  auto run = [&](std::uint64_t every) {
    auto params = p;
    params.forecast_every_mbs = every;
    rispp::sim::SimConfig cfg;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"enc", rispp::h264::make_encode_trace(lib, params)});
    return sim.run().total_cycles;
  };
  const auto with_fc = run(1);
  const auto without_fc = run(0);
  EXPECT_LT(with_fc, without_fc / 2);
}

TEST(Integration, AesPlanDrivesRuntimeSpeedup) {
  // Forecast pass output (Fig 3) → run-time manager: replay the AES round
  // loop with the plan's FC blocks and confirm hardware execution engages.
  const auto lib = rispp::aes::si_library();
  const auto g = rispp::aes::build_graph(2000);
  rispp::forecast::ForecastConfig fcfg;
  fcfg.alpha = 0.05;
  const auto plan = rispp::forecast::run_forecast_pass(g, lib, fcfg);
  ASSERT_GT(plan.total_points(), 0u);

  rispp::rt::RtConfig rcfg;
  rcfg.atom_containers = 8;  // fits the Reps of SUBBYTES + MIXCOLUMNS
  rispp::rt::RisppManager mgr(borrow(lib), rcfg);
  // Fire every planned FC block once at t = 0 …
  for (const auto& fb : plan.blocks) mgr.on_fc_block(fb, 0);
  // … then run the steady-state round loop far past the rotation window.
  std::uint64_t hw = 0, sw_cycles = 0, actual_cycles = 0;
  rispp::rt::Cycle now = 4'000'000;
  for (int round = 0; round < 100; ++round) {
    for (const auto name : {"SUBBYTES", "MIXCOLUMNS"}) {
      const auto& si = lib.find(name);
      const auto res = mgr.execute(lib.index_of(name), now);
      now += res.cycles;
      actual_cycles += res.cycles;
      sw_cycles += si.software_cycles();
      if (res.hardware) ++hw;
    }
  }
  // The forecasted subset runs in hardware; the loop as a whole is far
  // faster than all-software.
  EXPECT_GT(hw, 0u);
  EXPECT_LT(actual_cycles, sw_cycles / 2);
}

TEST(Integration, RisppApproachesAsipWithFullBudget) {
  // With a generous atom budget and warmed containers, RISPP executes every
  // SI at the ASIP's (fastest-molecule) latency — while the ASIP dedicates
  // the summed hardware permanently.
  const auto lib = SiLibrary::h264();
  const rispp::baseline::Asip asip(lib);

  rispp::rt::RtConfig rcfg;
  rcfg.atom_containers = 20;
  rispp::rt::RisppManager mgr(borrow(lib), rcfg);
  for (std::size_t s = 0; s < lib.size(); ++s)
    mgr.forecast(s, 100, 1.0, 0);
  const rispp::rt::Cycle warm = 5'000'000;
  for (const auto& si : lib.sis()) {
    const auto res = mgr.execute(lib.index_of(si.name()), warm);
    EXPECT_TRUE(res.hardware) << si.name();
    EXPECT_EQ(res.cycles, asip.cycles(si.name())) << si.name();
  }
  // Area contrast (Fig 1 in atom terms): ASIP sum vs RISPP sup.
  EXPECT_GT(asip.dedicated_atom_count(),
            mgr.committed_atoms().determinant() == 0
                ? 0u
                : mgr.committed_atoms().determinant());
}

TEST(Integration, MultiTaskScenarioSharesAndRotates) {
  // A compact Fig-6-style scenario: Task A runs SATD on 4 containers; Task
  // B then forecasts HT_4x4 with overwhelming weight — the selector
  // reallocates the containers to HT's wide Molecules (Pack/Transform
  // only), evicting SATD's atoms; A falls back to software until B
  // releases, then recovers.
  const auto lib = SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");
  const auto ht4 = lib.index_of("HT_4x4");

  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 4;
  cfg.quantum = 50000;
  rispp::sim::Simulator sim(borrow(lib), cfg);

  rispp::sim::Trace a;
  a.push_back(rispp::sim::TraceOp::forecast(satd, 10000));
  for (int i = 0; i < 80; ++i) {
    a.push_back(rispp::sim::TraceOp::compute(20000));
    a.push_back(rispp::sim::TraceOp::si(satd, 100));
  }
  rispp::sim::Trace b;
  b.push_back(rispp::sim::TraceOp::compute(900000));
  b.push_back(rispp::sim::TraceOp::forecast(ht4, 1000000));
  for (int i = 0; i < 10; ++i) {
    b.push_back(rispp::sim::TraceOp::compute(20000));
    b.push_back(rispp::sim::TraceOp::si(ht4, 200));
  }
  b.push_back(rispp::sim::TraceOp::release(ht4));
  sim.add_task({"A", std::move(a)});
  sim.add_task({"B", std::move(b)});
  const auto r = sim.run();

  // Both tasks got hardware executions at some point.
  EXPECT_GT(r.si("SATD_4x4").hw_invocations, 0u);
  EXPECT_GT(r.si("HT_4x4").hw_invocations, 0u);
  // A was forced back to software while B held the containers.
  EXPECT_GT(r.si("SATD_4x4").sw_invocations, 0u);
  // The reallocation (and the recovery after release) forced rotations
  // beyond the initial four.
  EXPECT_GT(r.rotations, 4u);
}

}  // namespace
