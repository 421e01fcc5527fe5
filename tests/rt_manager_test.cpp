/// The run-time manager (paper §5): forecast-driven rotation, software
/// fallback, gradual upgrade, replacement, cross-task sharing, monitoring.

#include <gtest/gtest.h>

#include "rispp/rt/manager.hpp"
#include "rispp/util/error.hpp"
#include "rotation_lifecycle.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::SiLibrary;
using rispp::obs::EventKind;
using rispp::obs::TraceRecorder;

RtConfig fast_config() {
  RtConfig cfg;
  cfg.atom_containers = 4;
  cfg.clock_mhz = 100.0;
  return cfg;
}

class Manager : public ::testing::Test {
 protected:
  SiLibrary lib_ = SiLibrary::h264();
  std::size_t satd_ = lib_.index_of("SATD_4x4");
  std::size_t dct_ = lib_.index_of("DCT_4x4");
  std::size_t ht2_ = lib_.index_of("HT_2x2");
};

TEST_F(Manager, ExecutesInSoftwareBeforeAnyRotation) {
  RisppManager mgr(borrow(lib_), fast_config());
  const auto res = mgr.execute(satd_, 0);
  EXPECT_FALSE(res.hardware);
  EXPECT_EQ(res.cycles, 544u);
  EXPECT_EQ(mgr.counters().get("si_exec_sw"), 1u);
}

TEST_F(Manager, ForecastTriggersRotationsAndEventualHardware) {
  RisppManager mgr(borrow(lib_), fast_config());
  mgr.forecast(satd_, 256, 1.0, 0);
  EXPECT_GT(mgr.rotations_performed(), 0u);
  // Immediately after the forecast the atoms are still loading → software.
  EXPECT_FALSE(mgr.execute(satd_, 1).hardware);
  // Four Table-1 rotations at ≈69 MB/s and 100 MHz finish well within
  // 4 × 100k cycles.
  const Cycle later = 400000;
  const auto res = mgr.execute(satd_, later);
  EXPECT_TRUE(res.hardware);
  EXPECT_EQ(res.cycles, 24u);
}

TEST_F(Manager, GradualUpgradeThroughMolecules) {
  // "Rotation in Advance": as atoms complete one by one, the SI upgrades
  // from software through progressively faster Molecules (Fig 6 T4→T5).
  RtConfig cfg = fast_config();
  cfg.atom_containers = 6;
  RisppManager mgr(borrow(lib_), cfg);
  mgr.forecast(satd_, 256, 1.0, 0);

  std::vector<std::uint32_t> latencies;
  for (Cycle t = 0; t <= 800000; t += 20000)
    latencies.push_back(mgr.execute(satd_, t).cycles);
  // Latency must be non-increasing over time and end at a hardware value.
  for (std::size_t i = 1; i < latencies.size(); ++i)
    EXPECT_LE(latencies[i], latencies[i - 1]);
  EXPECT_EQ(latencies.front(), 544u);
  EXPECT_LE(latencies.back(), 24u);
  // With 6 containers the selector upgrades beyond the minimal molecule.
  EXPECT_LT(latencies.back(), 24u);
}

TEST_F(Manager, ReleaseFreesContainersForOtherSis) {
  RtConfig cfg = fast_config();
  cfg.atom_containers = 2;  // only room for one small SI's molecule
  RisppManager mgr(borrow(lib_), cfg);

  // HT_2x2 needs 1 container (Transform); DCT needs 3 — doesn't fit with 2.
  mgr.forecast(ht2_, 100, 1.0, 0);
  const Cycle t1 = 200000;
  EXPECT_TRUE(mgr.execute(ht2_, t1).hardware);

  // Releasing HT_2x2 and forecasting DCT still can't fit DCT (needs 3), but
  // releasing must not crash and HT_2x2 keeps working while its atom stays.
  mgr.forecast_release(ht2_, t1);
  EXPECT_TRUE(mgr.execute(ht2_, t1 + 1).hardware);  // atom still loaded
}

TEST_F(Manager, ReplacementEvictsReleasedSisAtoms) {
  RtConfig cfg = fast_config();
  cfg.atom_containers = 4;
  RisppManager mgr(borrow(lib_), cfg);

  mgr.forecast(satd_, 256, 1.0, 0);
  const Cycle warm = 500000;
  ASSERT_TRUE(mgr.execute(satd_, warm).hardware);

  // SATD no longer needed; DCT forecasted. The selector now targets DCT's
  // best 4-container configuration; SATD's unique atom gets replaced.
  mgr.forecast_release(satd_, warm);
  mgr.forecast(dct_, 1000, 1.0, warm);
  const Cycle warm2 = warm + 500000;
  const auto res = mgr.execute(dct_, warm2);
  EXPECT_TRUE(res.hardware);
  EXPECT_LT(res.cycles, 24u);  // 4 containers allow a better-than-minimal DCT
}

TEST_F(Manager, CrossTaskAtomSharing) {
  // Fig 6 T3: a task may execute on atoms whose containers belong to
  // another task.
  RisppManager mgr(borrow(lib_), fast_config());
  mgr.forecast(satd_, 256, 1.0, 0, /*task=*/0);
  const Cycle warm = 500000;
  const auto res = mgr.execute(satd_, warm, /*task=*/7);
  EXPECT_TRUE(res.hardware);
}

TEST_F(Manager, MonitoringLearnsActualExecutions) {
  RtConfig cfg = fast_config();
  cfg.learning_rate = 0.5;
  RisppManager mgr(borrow(lib_), cfg);

  mgr.forecast(satd_, 1000, 1.0, 0);  // compile-time guess: 1000
  for (int i = 0; i < 10; ++i) mgr.execute(satd_, 1000 + i);
  mgr.forecast_release(satd_, 2000);  // observed only 10

  const auto learned = mgr.learned_expectation(satd_);
  ASSERT_TRUE(learned.has_value());
  EXPECT_DOUBLE_EQ(*learned, 10.0);

  // The next forecast blends compile-time and learned values.
  mgr.forecast(satd_, 1000, 1.0, 3000);
  const auto demands = mgr.active_demands();
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_DOUBLE_EQ(demands.front().expected_executions, 0.5 * 10 + 0.5 * 1000);
}

TEST_F(Manager, EventTraceRecordsLifecycle) {
  TraceRecorder recorder;
  RtConfig cfg = fast_config();
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib_), cfg);
  mgr.forecast(ht2_, 10, 1.0, 0);
  mgr.execute(ht2_, 1);       // software (rotation in flight)
  mgr.execute(ht2_, 300000);  // hardware
  mgr.forecast_release(ht2_, 300001);

  bool saw_forecast = false, saw_rot_start = false, saw_rot_done = false,
       saw_sw = false, saw_hw = false, saw_release = false;
  for (const auto& e : recorder.events()) {
    switch (e.kind) {
      case EventKind::ForecastSeen: saw_forecast = true; break;
      case EventKind::RotationStarted: saw_rot_start = true; break;
      case EventKind::RotationFinished: saw_rot_done = true; break;
      case EventKind::SiExecuted:
        (e.hardware ? saw_hw : saw_sw) = true;
        break;
      case EventKind::ForecastReleased: saw_release = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_forecast);
  EXPECT_TRUE(saw_rot_start);
  EXPECT_TRUE(saw_rot_done);
  EXPECT_TRUE(saw_sw);
  EXPECT_TRUE(saw_hw);
  EXPECT_TRUE(saw_release);
  rotation_lifecycle::expect_closed(mgr, recorder);
}

TEST_F(Manager, RotationsSerializeOverThePort) {
  // Four needed atoms must complete one after another: the i-th completion
  // time is at least i × min bitstream duration.
  TraceRecorder recorder;
  RtConfig cfg = fast_config();
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib_), cfg);
  mgr.forecast(satd_, 256, 1.0, 0);
  std::vector<Cycle> completions;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::RotationFinished) completions.push_back(e.at);
  ASSERT_EQ(completions.size(), 4u);
  for (std::size_t i = 1; i < completions.size(); ++i)
    EXPECT_GT(completions[i], completions[i - 1]);
  // At ≈69.2 B/µs and 100 MHz, each Table-1 atom takes ≥ 83,000 cycles.
  EXPECT_GE(completions.front(), 83000u);
  EXPECT_GE(completions.back(), 4u * 83000u);
}

TEST_F(Manager, CostAwareReallocationSkipsUneconomicalRotations) {
  RtConfig cfg = fast_config();
  cfg.rotation_cost_factor = 1.0;
  RisppManager mgr(borrow(lib_), cfg);
  // Tiny demand: 3 expected SATD executions save 3·(544−24) = 1560 cycles,
  // far below the ~350k cycles of transfers → no rotation.
  mgr.forecast(satd_, 3, 1.0, 0);
  EXPECT_EQ(mgr.rotations_performed(), 0u);
  EXPECT_FALSE(mgr.execute(satd_, 400000).hardware);
  // Large demand pays for itself → rotations proceed.
  mgr.forecast(satd_, 5000, 1.0, 400000);
  EXPECT_EQ(mgr.rotations_performed(), 4u);
  EXPECT_TRUE(mgr.execute(satd_, 900000).hardware);
}

TEST_F(Manager, CostGateComparesAgainstCurrentConfiguration) {
  // Once the atoms are loaded, a re-forecast with a small expectation must
  // NOT tear them down (gain vs current config is zero → no rotations, and
  // the loaded molecule keeps serving).
  RtConfig cfg = fast_config();
  cfg.rotation_cost_factor = 1.0;
  RisppManager mgr(borrow(lib_), cfg);
  mgr.forecast(satd_, 5000, 1.0, 0);
  ASSERT_TRUE(mgr.execute(satd_, 500000).hardware);
  mgr.forecast_release(satd_, 500000);
  mgr.forecast(satd_, 5000, 1.0, 500001);  // lr blends 5000 with observed 1
  EXPECT_TRUE(mgr.execute(satd_, 500002).hardware);
}

TEST_F(Manager, StaleRotationCancellation) {
  // Forecast SATD (queues 4 transfers), then immediately switch the demand
  // to HT_4x4 before any-but-the-first transfer started: with cancellation
  // on, the queued stale transfers are dropped, their containers freed, and
  // the HT atoms start loading right away.
  TraceRecorder recorder;
  RtConfig cfg = fast_config();
  cfg.cancel_stale_rotations = true;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib_), cfg);
  const auto ht4 = lib_.index_of("HT_4x4");

  mgr.forecast(satd_, 1000, 1.0, 0);
  const auto queued = mgr.rotations_performed();
  EXPECT_EQ(queued, 4u);

  // At cycle 10 only the first transfer is in flight; the other three are
  // pending and become stale once SATD is released.
  mgr.forecast_release(satd_, 10);
  mgr.forecast(ht4, 1'000'000, 1.0, 10);
  EXPECT_GT(mgr.rotations_cancelled(), 0u);
  EXPECT_EQ(mgr.counters().get("rotations_cancelled"),
            mgr.rotations_cancelled());

  // HT_4x4 eventually runs in hardware despite the churn.
  const auto res = mgr.execute(ht4, 2'000'000);
  EXPECT_TRUE(res.hardware);

  // Event stream consistency: every cancellation names a finished booking,
  // and the finished bookings that were not cancelled are the rotations
  // performed.
  rotation_lifecycle::expect_closed(mgr, recorder);
}

TEST_F(Manager, CancellationRefundsRotationEnergy) {
  RtConfig cfg = fast_config();
  cfg.cancel_stale_rotations = true;
  RisppManager mgr(borrow(lib_), cfg);
  mgr.forecast(satd_, 1000, 1.0, 0);
  const double charged = mgr.energy().rotation_nj();
  mgr.forecast_release(satd_, 10);
  mgr.forecast(lib_.index_of("HT_2x2"), 1'000'000, 1.0, 10);
  // Some of the charged rotation energy was refunded.
  EXPECT_LT(mgr.energy().rotation_nj(), charged + 80000.0);
  EXPECT_GE(mgr.energy().rotation_nj(), 0.0);
}

TEST_F(Manager, InFlightTransferIsNeverCancelled) {
  RtConfig cfg = fast_config();
  cfg.atom_containers = 1;
  cfg.cancel_stale_rotations = true;
  RisppManager mgr(borrow(lib_), cfg);
  const auto ht2 = lib_.index_of("HT_2x2");
  mgr.forecast(ht2, 100, 1.0, 0);  // Transform transfer starts immediately
  EXPECT_EQ(mgr.rotations_performed(), 1u);
  // Release + new demand while the transfer is mid-flight: non-preemptive
  // port → no cancellation possible.
  mgr.forecast_release(ht2, 100);
  mgr.forecast(satd_, 1000, 1.0, 100);
  EXPECT_EQ(mgr.rotations_cancelled(), 0u);
}

TEST_F(Manager, LoadedSlicesMatchesRecomputeWalk) {
  // loaded_slices() is maintained incrementally (the seed walked every
  // container with a catalog lookup apiece, on every energy sample); the
  // walk stays the ground truth, so recompute it at every lifecycle stage.
  RtConfig cfg = fast_config();
  cfg.atom_containers = 6;
  RisppManager mgr(borrow(lib_), cfg);

  const auto recompute = [&] {
    std::uint64_t slices = 0;
    const auto& file = mgr.containers();
    for (unsigned i = 0; i < file.size(); ++i) {
      const auto& ac = file.at(i);
      const auto kind = ac.loading ? ac.loading : ac.atom;
      if (kind) slices += lib_.catalog().at(*kind).hardware.slices;
    }
    return slices;
  };

  EXPECT_EQ(mgr.loaded_slices(), recompute());  // fresh: nothing loaded
  EXPECT_EQ(mgr.loaded_slices(), 0u);

  mgr.forecast(satd_, 5000, 1.0, 0);  // transfers queued / in flight
  EXPECT_EQ(mgr.loaded_slices(), recompute());
  EXPECT_GT(mgr.loaded_slices(), 0u);

  const Cycle warm = 500000;
  ASSERT_TRUE(mgr.execute(satd_, warm).hardware);  // all promoted
  EXPECT_EQ(mgr.loaded_slices(), recompute());

  // Demand shift evicts SATD's excess atoms in favour of DCT.
  mgr.forecast_release(satd_, warm);
  mgr.forecast(dct_, 5000, 1.0, warm);
  EXPECT_EQ(mgr.loaded_slices(), recompute());

  const Cycle warm2 = warm + 600000;
  ASSERT_TRUE(mgr.execute(dct_, warm2).hardware);
  EXPECT_EQ(mgr.loaded_slices(), recompute());

  mgr.forecast_release(dct_, warm2);
  mgr.poll(warm2 + 1);
  EXPECT_EQ(mgr.loaded_slices(), recompute());
}

TEST_F(Manager, UsableAtomsMatchesAvailableRecompute) {
  // The execute hot path trusts the incrementally-maintained usable_atoms()
  // instead of recomputing available_atoms(now); right after a refresh the
  // two must be the same multiset, at every stage of the lifecycle.
  RtConfig cfg = fast_config();
  cfg.atom_containers = 6;
  RisppManager mgr(borrow(lib_), cfg);

  const auto check = [&](Cycle now) {
    // available_atoms() refreshes to `now`, then the incremental view must
    // agree with it exactly (Molecule has defaulted equality).
    const auto recomputed = mgr.available_atoms(now);
    EXPECT_TRUE(recomputed == mgr.containers().usable_atoms())
        << "incremental usable view diverged at cycle " << now;
  };

  check(0);
  mgr.forecast(satd_, 5000, 1.0, 0);
  // Sample across the transfer completions (one lands every ~90k cycles).
  for (Cycle t = 0; t <= 600000; t += 30000) check(t);
  mgr.forecast_release(satd_, 600001);
  mgr.forecast(dct_, 5000, 1.0, 600001);
  for (Cycle t = 600002; t <= 1300000; t += 30000) check(t);
}

TEST_F(Manager, TwoWaveCancellationKeepsTheLifecycleClosed) {
  // Two waves of stale cancellations: the second cancels bookings issued
  // after the first wave's cancelled ones, while the port is still busy
  // with the very first transfer. Checked mid-stream and at the end, every
  // cancellation must name its own finished booking.
  TraceRecorder recorder;
  RtConfig cfg = fast_config();
  cfg.cancel_stale_rotations = true;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib_), cfg);
  const auto ht4 = lib_.index_of("HT_4x4");

  mgr.forecast(satd_, 1000, 1.0, 0);
  mgr.forecast_release(satd_, 10);  // strands 3 queued SATD transfers
  mgr.forecast(ht4, 1'000'000, 1.0, 10);
  const auto wave1_cancels = mgr.rotations_cancelled();
  ASSERT_GT(wave1_cancels, 0u);
  rotation_lifecycle::expect_closed(mgr, recorder);

  // HT_4x4's bookings are all queued behind the first SATD transfer, so
  // releasing it strands them in turn.
  mgr.forecast_release(ht4, 20);
  mgr.forecast(satd_, 1000, 1.0, 20);
  (void)mgr.execute(satd_, 900000);
  mgr.poll(2'000'000);
  ASSERT_GT(mgr.rotations_cancelled(), wave1_cancels);
  rotation_lifecycle::expect_closed(mgr, recorder);
}

TEST_F(Manager, ForecastValidation) {
  RisppManager mgr(borrow(lib_), fast_config());
  EXPECT_THROW(mgr.forecast(99, 10, 1.0, 0), rispp::util::PreconditionError);
  EXPECT_THROW(mgr.forecast(satd_, -1.0, 1.0, 0),
               rispp::util::PreconditionError);
  EXPECT_THROW(mgr.forecast(satd_, 10, 0.0, 0),
               rispp::util::PreconditionError);
  EXPECT_THROW(mgr.execute(99, 0), rispp::util::PreconditionError);
  // Releasing a never-forecasted SI is a harmless no-op.
  EXPECT_NO_THROW(mgr.forecast_release(dct_, 0));
}

TEST(RtConfigValidation, UnknownFactoryKeysThrowListingRegistered) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  RtConfig bad_selection;
  bad_selection.selection_policy = "greedyy";
  try {
    const RisppManager mgr(lib, bad_selection);
    FAIL() << "expected util::Error";
  } catch (const rispp::util::Error& e) {  // PreconditionError is-a Error
    const std::string what = e.what();
    EXPECT_NE(what.find("greedyy"), std::string::npos);
    EXPECT_NE(what.find("greedy"), std::string::npos);
    EXPECT_NE(what.find("exhaustive"), std::string::npos);
  }
  RtConfig bad_replacement;
  bad_replacement.replacement_policy = "fifo";
  try {
    validate(bad_replacement);
    FAIL() << "expected util::Error";
  } catch (const rispp::util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fifo"), std::string::npos);
    EXPECT_NE(what.find("lru"), std::string::npos);
    EXPECT_NE(what.find("round-robin"), std::string::npos);
  }
}

TEST(RtConfigValidation, RangeChecksFireAtConstruction) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  RtConfig no_containers;
  no_containers.atom_containers = 0;
  EXPECT_THROW(RisppManager(lib, no_containers),
               rispp::util::PreconditionError);
  RtConfig bad_rate;
  bad_rate.learning_rate = 1.5;
  EXPECT_THROW(validate(bad_rate), rispp::util::PreconditionError);
  EXPECT_NO_THROW(validate(RtConfig{}));
}

}  // namespace
