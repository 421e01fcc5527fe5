/// Event-driven reallocation kernel tests: the refactored plan→gate→
/// cancel-stale→issue pipeline must reproduce the seed simulator's Fig-6
/// event stream byte-for-byte, the plan cache must invalidate on exactly
/// the right triggers, and Molecule-upgrade detection must not leak across
/// tasks.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rispp/isa/io.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "sim_scenarios.hpp"

namespace {

using namespace rispp::sim;
using rispp::rt::RisppManager;
using rispp::rt::RtConfig;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string run_fig06_csv(const std::string& path) {
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::obs::TraceRecorder recorder;
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  cfg.rt.sink = &recorder;
  Simulator sim(borrow(lib), cfg);
  sim_scenarios::add_all(sim, sim_scenarios::fig06(lib));
  (void)sim.run();
  rispp::obs::write_trace_file(path, recorder.events(),
                               make_trace_meta(lib, cfg, {"A", "B"}));
  return read_file(path);
}

TEST(KernelGoldenTrace, Fig06EventStreamMatchesSeedByteForByte) {
  const auto csv =
      run_fig06_csv(::testing::TempDir() + "rispp_fig06_wakeup.csv");
  const auto golden = read_file(std::string(RISPP_TEST_DATA_DIR) +
                                "/fig06_golden.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(csv, golden)
      << "refactored kernel diverged from the seed fig06 event stream";
}

class PlanCache : public ::testing::Test {
 protected:
  rispp::isa::SiLibrary lib_ = rispp::isa::SiLibrary::h264();
  RtConfig cfg_;

  std::uint64_t plans(const RisppManager& mgr) const {
    return mgr.counters().get("selector_plans");
  }
};

TEST_F(PlanCache, ForecastDirtiesThePlan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  EXPECT_EQ(plans(mgr), 1u);
  mgr.forecast(lib_.index_of("DCT_4x4"), 100, 1.0, 0);
  EXPECT_EQ(plans(mgr), 2u);
}

TEST_F(PlanCache, ReleaseDirtiesThePlan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  const auto before = plans(mgr);
  mgr.forecast_release(lib_.index_of("SATD_4x4"), 10);
  EXPECT_EQ(plans(mgr), before + 1);
  // Releasing an SI that holds no active forecast is not a demand change.
  mgr.forecast_release(lib_.index_of("HT_4x4"), 20);
  EXPECT_EQ(plans(mgr), before + 1);
}

TEST_F(PlanCache, UnrelatedPollDoesNotReplan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  const auto before = plans(mgr);
  // Polls before any rotation completes: demand set and committed atoms
  // unchanged, so the cached plan stands.
  mgr.poll(1);
  mgr.poll(2);
  mgr.poll(3);
  EXPECT_EQ(plans(mgr), before);
  EXPECT_GT(mgr.counters().get("reallocations"), before);
}

TEST_F(PlanCache, RotationCompletionDirtiesThePlan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  ASSERT_GT(mgr.rotations_performed(), 0u);
  const auto before = plans(mgr);
  const auto wake = mgr.next_wakeup(0);
  ASSERT_TRUE(wake.has_value());
  mgr.poll(*wake - 1);  // nothing completed yet → cache hit
  EXPECT_EQ(plans(mgr), before);
  mgr.poll(*wake);  // first transfer finished → re-plan
  EXPECT_EQ(plans(mgr), before + 1);
}

/// Two disjoint single-molecule SIs over one container: forecasting B after
/// A forces the lone container to flip, so A's SI oscillates HW ↔ SW.
const char* kTwoTaskLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
  atom Q slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=1
end

si YB software=500
  molecule cycles=50 Q=1
end
)";

TEST(MoleculeUpgrade, FirstObservationOfAnotherTaskIsNotAnUpgrade) {
  const auto lib = rispp::isa::parse_si_library(kTwoTaskLibrary);
  const auto xa = lib.index_of("XA");
  const auto yb = lib.index_of("YB");

  rispp::obs::TraceRecorder recorder;
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);

  // Task 0 brings XA into hardware and executes it.
  mgr.forecast(xa, 1000, 1.0, 0, /*task=*/0);
  rispp::rt::Cycle now = 1'000'000;  // P's transfer completed long ago
  EXPECT_TRUE(mgr.execute(xa, now, /*task=*/0).hardware);

  // Task 1's heavier demand flips the lone container to Q; XA falls back
  // to software for everyone.
  mgr.forecast(yb, 100000, 1.0, now + 1, /*task=*/1);
  now += 1'000'000;  // Q's transfer completed
  EXPECT_FALSE(mgr.execute(xa, now, /*task=*/1).hardware);   // task 1, first
  EXPECT_FALSE(mgr.execute(xa, now + 10, /*task=*/0).hardware);  // task 0

  // Emissions are batched (obs::EventBatch): hosts reading the sink between
  // reallocation boundaries flush first.
  mgr.flush_events();

  unsigned task0_upgrades = 0, task1_upgrades = 0;
  for (const auto& e : recorder.events()) {
    if (e.kind != rispp::obs::EventKind::MoleculeUpgraded) continue;
    e.task == 0 ? ++task0_upgrades : ++task1_upgrades;
  }
  // Task 1 never saw XA before its software execution — nothing upgraded
  // (the seed emitted a spurious event here, inheriting task 0's history).
  EXPECT_EQ(task1_upgrades, 0u);
  // Task 0 genuinely went HW → SW.
  EXPECT_EQ(task0_upgrades, 1u);
}

}  // namespace
