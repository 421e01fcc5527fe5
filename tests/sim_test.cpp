#include <gtest/gtest.h>

#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::sim;
using rispp::isa::SiLibrary;
using rispp::util::PreconditionError;

SimConfig default_config(unsigned containers = 4) {
  SimConfig cfg;
  cfg.rt.atom_containers = containers;
  return cfg;
}

class Sim : public ::testing::Test {
 protected:
  SiLibrary lib_ = SiLibrary::h264();
  std::size_t satd_ = lib_.index_of("SATD_4x4");
  std::size_t ht2_ = lib_.index_of("HT_2x2");
};

TEST_F(Sim, PureComputeTaskTakesExactCycles) {
  Simulator sim(borrow(lib_), default_config());
  sim.add_task({"t", {TraceOp::compute(12345)}});
  const auto r = sim.run();
  EXPECT_EQ(r.total_cycles, 12345u);
  EXPECT_EQ(r.task_cycles.at("t"), 12345u);
}

TEST_F(Sim, SoftwareOnlySiCosts) {
  Simulator sim(borrow(lib_), default_config());
  sim.add_task({"t", {TraceOp::si(satd_, 10)}});
  const auto r = sim.run();
  EXPECT_EQ(r.total_cycles, 10u * 544u);
  const auto& st = r.si("SATD_4x4");
  EXPECT_EQ(st.invocations, 10u);
  EXPECT_EQ(st.sw_invocations, 10u);
  EXPECT_EQ(st.hw_invocations, 0u);
}

TEST_F(Sim, ForecastThenComputeThenSiHitsHardware) {
  Simulator sim(borrow(lib_), default_config());
  Trace t;
  t.push_back(TraceOp::forecast(satd_, 256));
  t.push_back(TraceOp::compute(500000));  // rotations finish during this
  t.push_back(TraceOp::si(satd_, 100));
  sim.add_task({"t", std::move(t)});
  const auto r = sim.run();
  const auto& st = r.si("SATD_4x4");
  EXPECT_EQ(st.hw_invocations, 100u);
  EXPECT_EQ(r.total_cycles, 500000u + 100u * 24u);
  EXPECT_EQ(r.rotations, 4u);
}

TEST_F(Sim, RotationInAdvanceUpgradesMidStream) {
  // No explicit compute gap: the SI stream starts in software and upgrades
  // to hardware as rotations complete underneath it.
  Simulator sim(borrow(lib_), default_config());
  Trace t;
  t.push_back(TraceOp::forecast(satd_, 2000));
  t.push_back(TraceOp::si(satd_, 2000));
  sim.add_task({"t", std::move(t)});
  const auto r = sim.run();
  const auto& st = r.si("SATD_4x4");
  EXPECT_GT(st.sw_invocations, 0u);  // warm-up in software
  EXPECT_GT(st.hw_invocations, 0u);  // upgraded eventually
  EXPECT_EQ(st.invocations, 2000u);
  // Total < all-software and > all-hardware.
  EXPECT_LT(r.total_cycles, 2000u * 544u);
  EXPECT_GT(r.total_cycles, 2000u * 24u);
}

TEST_F(Sim, LabelsProduceTimeline) {
  Simulator sim(borrow(lib_), default_config());
  sim.add_task({"t",
                {TraceOp::label("start"), TraceOp::compute(100),
                 TraceOp::label("end")}});
  const auto r = sim.run();
  ASSERT_EQ(r.timeline.size(), 2u);
  EXPECT_EQ(r.timeline[0].text, "start");
  EXPECT_EQ(r.timeline[0].at, 0u);
  EXPECT_EQ(r.timeline[1].text, "end");
  EXPECT_EQ(r.timeline[1].at, 100u);
  EXPECT_EQ(r.timeline[1].task, "t");
}

TEST_F(Sim, TwoTasksInterleaveRoundRobin) {
  SimConfig cfg = default_config();
  cfg.quantum = 1000;
  Simulator sim(borrow(lib_), cfg);
  sim.add_task({"a", {TraceOp::compute(5000)}});
  sim.add_task({"b", {TraceOp::compute(5000)}});
  const auto r = sim.run();
  // Single core: total = sum of both tasks' work.
  EXPECT_EQ(r.total_cycles, 10000u);
  EXPECT_EQ(r.task_cycles.at("a"), 5000u);
  EXPECT_EQ(r.task_cycles.at("b"), 5000u);
}

TEST_F(Sim, TasksShareLoadedAtoms) {
  // Task a forecasts and warms the containers; task b then executes the
  // same SI in hardware without ever forecasting (Fig 6 T3).
  SimConfig cfg = default_config();
  cfg.quantum = 100000;
  Simulator sim(borrow(lib_), cfg);
  sim.add_task({"a",
                {TraceOp::forecast(satd_, 1000), TraceOp::compute(500000),
                 TraceOp::si(satd_, 10)}});
  sim.add_task({"b", {TraceOp::compute(600000), TraceOp::si(satd_, 10)}});
  const auto r = sim.run();
  EXPECT_EQ(r.si("SATD_4x4").hw_invocations, 20u);
}

TEST_F(Sim, RepeatHelperUnrollsLoops) {
  Trace body{TraceOp::compute(10), TraceOp::si(ht2_, 1)};
  Trace t;
  repeat(t, body, 5);
  EXPECT_EQ(t.size(), 10u);
  Simulator sim(borrow(lib_), default_config());
  sim.add_task({"t", std::move(t)});
  const auto r = sim.run();
  EXPECT_EQ(r.si("HT_2x2").invocations, 5u);
}

TEST_F(Sim, DeterministicAcrossRuns) {
  auto run_once = [&] {
    Simulator sim(borrow(lib_), default_config());
    Trace t;
    t.push_back(TraceOp::forecast(satd_, 500));
    for (int i = 0; i < 50; ++i) {
      t.push_back(TraceOp::compute(1000));
      t.push_back(TraceOp::si(satd_, 10));
    }
    sim.add_task({"t", std::move(t)});
    return sim.run().total_cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(Sim, Preconditions) {
  Simulator sim(borrow(lib_), default_config());
  EXPECT_THROW(sim.add_task({"", {TraceOp::compute(1)}}), PreconditionError);
  EXPECT_THROW(sim.add_task({"t", {TraceOp::si(999)}}), PreconditionError);
  SimConfig bad;
  bad.quantum = 0;
  EXPECT_THROW(Simulator(borrow(lib_), bad), PreconditionError);
  EXPECT_THROW(TraceOp::si(satd_, 0), PreconditionError);
}

TEST_F(Sim, ResultSiLookupThrowsOnUnknown) {
  Simulator sim(borrow(lib_), default_config());
  sim.add_task({"t", {TraceOp::compute(1)}});
  const auto r = sim.run();
  EXPECT_THROW(r.si("SATD_4x4"), PreconditionError);  // never invoked
}

TEST(SharedLibrary, ComponentsShareOneSnapshot) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  const Simulator sim(lib, {});
  const rispp::rt::RisppManager mgr(lib, {});
  EXPECT_EQ(sim.library_ptr().get(), lib.get());
  EXPECT_EQ(mgr.library_ptr().get(), lib.get());
  EXPECT_EQ(&mgr.library(), lib.get());
  // share() moved the value into shared ownership; borrow() views a
  // caller-kept instance without taking ownership.
  const auto local = SiLibrary::h264();
  EXPECT_EQ(rispp::isa::borrow(local).get(), &local);
}

TEST(SharedLibrary, NullLibraryIsRejected) {
  EXPECT_THROW(rispp::rt::RisppManager(nullptr, {}), PreconditionError);
  EXPECT_THROW(Simulator(nullptr, {}), PreconditionError);
}

}  // namespace
