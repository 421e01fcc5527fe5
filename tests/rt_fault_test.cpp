/// Fault-injection tests for the reconfiguration path: the hw::FaultModel /
/// hw::FaultyReconfigPort layer, the RotationScheduler's failure delivery
/// and cancellation semantics, and the manager's retry / backoff /
/// quarantine reaction — including the differential check that the none()
/// model reproduces the fig06 golden trace byte-for-byte.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "rispp/hw/fault.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/rt/rotation.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "rotation_lifecycle.hpp"

namespace {

using rispp::hw::FaultModel;
using rispp::hw::FaultyReconfigPort;
using rispp::hw::ReconfigPort;
using rispp::hw::TransferFault;
using rispp::hw::TransferResult;
using rispp::isa::borrow;
using rispp::obs::EventKind;
using rispp::obs::TraceRecorder;
using rispp::rt::Cycle;
using rispp::rt::RisppManager;
using rispp::rt::RotationScheduler;
using rispp::rt::RtConfig;

// --- hw::FaultModel ------------------------------------------------------

TEST(FaultModel, NoneIsDisabledAndEveryTransferIsNominal) {
  auto model = FaultModel::none();
  EXPECT_FALSE(model.enabled());
  FaultyReconfigPort port{ReconfigPort{}, FaultModel::none()};
  EXPECT_TRUE(port.fault_free());
  const auto nominal = port.base().rotation_time_cycles(50000, 100.0);
  for (int i = 0; i < 8; ++i) {
    const auto t = port.next_transfer(50000, 100.0);
    EXPECT_EQ(t.cycles, nominal);
    EXPECT_EQ(t.result, TransferResult::Ok);
  }
  // No draw is ever made: the sequence index never advances.
  EXPECT_EQ(port.model().transfers_decided(), 0u);
}

TEST(FaultModel, ProbabilisticIsDeterministicPerSeed) {
  auto a = FaultModel::probabilistic(42, 0.3, 0.2, 0.2);
  auto b = FaultModel::probabilistic(42, 0.3, 0.2, 0.2);
  for (int i = 0; i < 256; ++i) {
    const auto fa = a.next();
    const auto fb = b.next();
    EXPECT_EQ(fa.result, fb.result);
    EXPECT_EQ(fa.stretch, fb.stretch);
  }
  EXPECT_EQ(a.transfers_decided(), 256u);
}

TEST(FaultModel, ProbabilisticCoversEveryOutcome) {
  auto m = FaultModel::probabilistic(7, 0.25, 0.25, 0.25, 3.0);
  int failed = 0, poisoned = 0, degraded = 0, ok = 0;
  for (int i = 0; i < 512; ++i) {
    const auto f = m.next();
    if (f.result == TransferResult::Failed) ++failed;
    else if (f.result == TransferResult::Poisoned) ++poisoned;
    else if (f.stretch > 1.0) ++degraded;
    else ++ok;
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(ok, 0);
}

TEST(FaultModel, ValidatesProbabilitiesAndStretch) {
  EXPECT_THROW((void)FaultModel::probabilistic(1, 1.5), rispp::util::Error);
  EXPECT_THROW((void)FaultModel::probabilistic(1, 0.6, 0.6),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::probabilistic(1, 0.1, 0.0, 0.1, 0.5),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::schedule({{0, {TransferResult::Ok, 0.5}}}),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::schedule({{3, {TransferResult::Failed, 1.0}},
                                           {3, {TransferResult::Ok, 1.0}}}),
               rispp::util::Error);
}

TEST(FaultModel, ScheduleAppliesAtExactSequenceIndices) {
  auto m = FaultModel::schedule({{1, {TransferResult::Failed, 1.0}},
                                 {3, {TransferResult::Poisoned, 1.0}}});
  EXPECT_TRUE(m.enabled());
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 0
  EXPECT_EQ(m.next().result, TransferResult::Failed);    // seq 1
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 2
  EXPECT_EQ(m.next().result, TransferResult::Poisoned);  // seq 3
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 4
}

TEST(FaultModel, DegradationStretchesAndNeverShortens) {
  FaultyReconfigPort port{
      ReconfigPort{},
      FaultModel::schedule({{0, {TransferResult::Ok, 2.5}}})};
  const auto nominal = port.base().rotation_time_cycles(50000, 100.0);
  const auto stretched = port.next_transfer(50000, 100.0);
  EXPECT_EQ(stretched.result, TransferResult::Ok);
  EXPECT_EQ(stretched.cycles,
            static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(nominal) * 2.5)));
  EXPECT_GE(stretched.cycles, nominal);
  // Past the schedule: back to nominal.
  EXPECT_EQ(port.next_transfer(50000, 100.0).cycles, nominal);
}

TEST(FaultModel, ToStringCoversEveryResult) {
  EXPECT_STREQ(to_string(TransferResult::Ok), "ok");
  EXPECT_STREQ(to_string(TransferResult::Failed), "failed");
  EXPECT_STREQ(to_string(TransferResult::Poisoned), "poisoned");
}

// --- RotationScheduler ---------------------------------------------------

/// One rotatable atom, one single-molecule SI — enough to steer rotations.
const char* kOneAtomLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=1
end
)";

TEST(FaultScheduler, FaultyBookingIsDeliveredExactlyOnceAtCompletion) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RotationScheduler sched(
      FaultyReconfigPort{ReconfigPort{},
                         FaultModel::schedule(
                             {{0, {TransferResult::Failed, 1.0}}})},
      100.0);
  const auto b = sched.schedule(0, 0, lib.catalog(), 0);
  EXPECT_EQ(b.result, TransferResult::Failed);
  EXPECT_TRUE(sched.take_failures(b.done - 1).empty());  // still in flight
  const auto delivered = sched.take_failures(b.done);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].container, 0u);
  EXPECT_EQ(delivered[0].done, b.done);
  EXPECT_TRUE(sched.take_failures(b.done + 1000).empty());  // once only
}

TEST(FaultScheduler, CancelledFaultyBookingIsNeverDelivered) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RotationScheduler sched(
      FaultyReconfigPort{ReconfigPort{},
                         FaultModel::schedule(
                             {{1, {TransferResult::Failed, 1.0}}})},
      100.0);
  const auto ok = sched.schedule(0, 0, lib.catalog(), 0);      // seq 0, Ok
  const auto bad = sched.schedule(0, 0, lib.catalog(), 1);     // seq 1, Failed
  EXPECT_EQ(ok.result, TransferResult::Ok);
  EXPECT_EQ(bad.result, TransferResult::Failed);
  // The faulty transfer is queued behind the port and cancellable.
  EXPECT_TRUE(sched.cancel_pending(1, 0));
  // Cancelled is terminal: its failure must never surface later.
  EXPECT_TRUE(sched.take_failures(bad.done + 1).empty());
  EXPECT_EQ(sched.rotations_performed(), 1u);
  EXPECT_EQ(sched.rotations_cancelled(), 1u);
}

TEST(FaultScheduler, BookingNearTheLargestCycleSaturates) {
  // A transfer booked within its own duration of the largest Cycle ends at
  // the end of time instead of wrapping to a done before its start.
  constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RotationScheduler sched(ReconfigPort{}, 100.0);
  const auto late = sched.schedule(kMax - 10, 0, lib.catalog(), 0);
  EXPECT_EQ(late.start, kMax - 10);
  EXPECT_EQ(late.done, kMax);
  const auto queued = sched.schedule(kMax - 5, 0, lib.catalog(), 1);
  EXPECT_EQ(queued.start, kMax);
  EXPECT_EQ(queued.done, kMax);
}

// --- RisppManager reaction ----------------------------------------------

/// Polls the manager at every wakeup until the platform settles.
Cycle drain(RisppManager& mgr, Cycle from) {
  Cycle t = from;
  for (int guard = 0; guard < 10000; ++guard) {
    const auto wake = mgr.next_wakeup(t);
    if (!wake) return t;
    t = *wake;
    mgr.poll(t);
  }
  ADD_FAILURE() << "manager did not settle within the drain guard";
  return t;
}

TEST(FaultRecovery, FailedRotationBacksOffThenRetriesAndRecovers) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults =
      FaultModel::schedule({{0, {TransferResult::Failed, 1.0}}});
  cfg.max_rotation_retries = 3;
  cfg.retry_backoff_cycles = 1000;
  TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  ASSERT_EQ(mgr.rotations_performed(), 1u);
  const auto first_done = mgr.next_wakeup(0);
  ASSERT_TRUE(first_done.has_value());

  // The failure is only discovered when the transfer window ends.
  mgr.poll(*first_done - 1);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 0u);
  mgr.poll(*first_done);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 1u);
  EXPECT_EQ(mgr.counters().get("rotation_retries"), 1u);
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), 0u);
  // The container ended empty and is blocked for the backoff window — no
  // retry may be issued yet.
  EXPECT_EQ(mgr.rotations_performed(), 1u);
  EXPECT_FALSE(mgr.containers().at(0).atom.has_value());
  EXPECT_FALSE(mgr.containers().at(0).loading.has_value());
  EXPECT_EQ(mgr.containers().at(0).blocked_until,
            *first_done + cfg.retry_backoff_cycles);

  // The backoff expiry is a wakeup; polling there issues the retry.
  const auto unblock = mgr.next_wakeup(*first_done);
  ASSERT_TRUE(unblock.has_value());
  EXPECT_EQ(*unblock, *first_done + cfg.retry_backoff_cycles);
  mgr.poll(*unblock);
  EXPECT_EQ(mgr.rotations_performed(), 2u);

  // The retry (fault schedule exhausted) completes cleanly: the SI upgrades
  // to hardware and the failure streak resets.
  const auto end = drain(mgr, *unblock);
  EXPECT_TRUE(mgr.execute(lib.index_of("XA"), end + 1).hardware);
  EXPECT_EQ(mgr.containers().at(0).fail_streak, 0u);
  rotation_lifecycle::expect_closed(mgr, recorder);
}

TEST(FaultRecovery, SaturatedBackoffNeverBooksAWrappingRotation) {
  // Every transfer fails and the backoff base is 2^63, so the second
  // failure saturates blocked_until at the largest Cycle. A host polling at
  // each next_wakeup() must never see a booking whose end lies before its
  // start (a poll at 2^64-1 used to book one whose done wrapped).
  constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::probabilistic(11, 1.0);
  cfg.max_rotation_retries = 8;
  cfg.retry_backoff_cycles = Cycle{1} << 63;
  TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  Cycle t = 0;
  for (int guard = 0; guard < 16; ++guard) {
    const auto wake = mgr.next_wakeup(t);
    if (!wake) break;
    ASSERT_GT(*wake, t);
    t = *wake;
    mgr.poll(t);
    const auto& ac = mgr.containers().at(0);
    if (ac.loading) {
      EXPECT_GE(ac.ready_at, t) << "rotation booked at " << t << " wrapped";
    }
  }
  mgr.flush_events();
  for (const auto& e : recorder.events()) {
    if (e.kind == EventKind::RotationStarted) {
      EXPECT_LE(e.cycles, kMax - e.at)
          << "RotationStarted at " << e.at << " ends past the largest Cycle";
    }
  }
  EXPECT_EQ(mgr.containers().at(0).blocked_until, kMax);
  EXPECT_TRUE(mgr.containers().at(0).blocked(kMax));
  EXPECT_EQ(mgr.rotations_performed(), 2u);
}

TEST(FaultRecovery, PoisonedTransferCountsSeparately) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults =
      FaultModel::schedule({{0, {TransferResult::Poisoned, 1.0}}});
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  const auto done = mgr.next_wakeup(0);
  ASSERT_TRUE(done.has_value());
  // The poisoned Atom must never become available — even when the failure
  // is discovered by an execution rather than a poll.
  const auto exec = mgr.execute(lib.index_of("XA"), *done);
  EXPECT_FALSE(exec.hardware);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 1u);
  EXPECT_EQ(mgr.counters().get("rotations_poisoned"), 1u);
  EXPECT_TRUE(mgr.available_atoms(*done).is_zero());
}

TEST(FaultRecovery, RepeatedFailuresQuarantineTheContainer) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::probabilistic(11, 1.0);  // every transfer fails
  cfg.max_rotation_retries = 1;
  cfg.retry_backoff_cycles = 100;
  TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  const auto end = drain(mgr, 0);

  // Initial attempt + one retry, both failed; the second failure exceeds
  // the retry budget and quarantines the lone container.
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 2u);
  EXPECT_EQ(mgr.counters().get("rotation_retries"), 1u);
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), 1u);
  EXPECT_TRUE(mgr.containers().at(0).quarantined);
  EXPECT_EQ(mgr.containers().usable_count(), 0u);
  EXPECT_EQ(mgr.rotations_performed(), 2u);  // no further attempts

  // Forward progress is never lost: the SI still executes in software.
  const auto exec = mgr.execute(lib.index_of("XA"), end + 1);
  EXPECT_FALSE(exec.hardware);
  EXPECT_EQ(exec.cycles, 1000u);

  rotation_lifecycle::expect_closed(mgr, recorder);
  bool saw_quarantine_event = false;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::AcQuarantined) saw_quarantine_event = true;
  EXPECT_TRUE(saw_quarantine_event);
}

TEST(FaultRecovery, BackoffGrowsExponentiallyWithTheStreak) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::probabilistic(11, 1.0);
  cfg.max_rotation_retries = 3;
  cfg.retry_backoff_cycles = 1000;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  std::vector<Cycle> windows;  // blocked_until − failed_at per failure
  Cycle t = 0;
  Cycle last_failed = 0;
  for (int guard = 0; guard < 100 && !mgr.containers().at(0).quarantined;
       ++guard) {
    const auto wake = mgr.next_wakeup(t);
    ASSERT_TRUE(wake.has_value());
    t = *wake;
    const auto failed_before = mgr.counters().get("rotations_failed");
    mgr.poll(t);
    if (mgr.counters().get("rotations_failed") > failed_before &&
        !mgr.containers().at(0).quarantined) {
      windows.push_back(mgr.containers().at(0).blocked_until - t);
      last_failed = t;
    }
  }
  (void)last_failed;
  ASSERT_EQ(windows.size(), 3u);  // failures 1..3 back off; the 4th quarantines
  EXPECT_EQ(windows[0], 1000u);
  EXPECT_EQ(windows[1], 2000u);
  EXPECT_EQ(windows[2], 4000u);
}

// --- cancel-stale interaction (bugfix-sweep audit) -----------------------

/// Three-instance molecule: one forecast issues three serialized rotations,
/// so a Failed transfer can sit between two clean ones.
const char* kThreeAtomLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=3
end
)";

TEST(FaultCancelStale, FailedBetweenTwoDonesDoesNotSkipTombstones) {
  const auto lib = rispp::isa::parse_si_library(kThreeAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 3;
  cfg.cancel_stale_rotations = true;
  cfg.faults =
      FaultModel::schedule({{1, {TransferResult::Failed, 1.0}}});
  TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);
  const auto finished_on = [&] {
    std::vector<std::int32_t> containers;
    for (const auto& e : recorder.events())
      if (e.kind == EventKind::RotationFinished)
        containers.push_back(e.container);
    return containers;
  };

  // One forecast → three serialized transfers: seq 0 Ok (Finished emitted
  // at issue), seq 1 Failed (no Finished), seq 2 Ok (Finished emitted).
  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  ASSERT_EQ(mgr.rotations_performed(), 3u);
  ASSERT_EQ(finished_on().size(), 2u)
      << "a faulty booking must not emit a RotationFinished";

  // Releasing the demand before the second transfer starts cancels both
  // queued bookings — the Failed one (whose pending failure must die with
  // it) and the last Ok one (whose RotationCancelled must name its own
  // finished booking, past the Failed booking between the two).
  mgr.forecast_release(lib.index_of("XA"), 1);
  EXPECT_EQ(mgr.rotations_cancelled(), 2u);
  EXPECT_EQ(mgr.rotations_performed(), 1u);

  const auto end = drain(mgr, 1);
  (void)end;
  // The cancelled faulty transfer never reports: only terminated cleanly.
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 0u);

  rotation_lifecycle::expect_closed(mgr, recorder);
  // Exactly the first transfer's booking finished without a cancellation.
  std::vector<std::int32_t> cancelled_on;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::RotationCancelled)
      cancelled_on.push_back(e.container);
  EXPECT_EQ(cancelled_on, (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(finished_on(), (std::vector<std::int32_t>{0, 2}));
}

// --- zero-fault differential --------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The fig06 scenario of rt_kernel_test, with the fault subsystem
/// explicitly configured (none() model + non-default retry knobs): the
/// recorded trace must be byte-identical to the pre-fault golden.
TEST(FaultDifferential, NoneModelReproducesFig06GoldenByteForByte) {
  const auto lib = rispp::isa::SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");
  const auto si0 = lib.index_of("HT_2x2");
  const auto si1 = lib.index_of("HT_4x4");

  rispp::obs::TraceRecorder recorder;
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  cfg.rt.sink = &recorder;
  cfg.rt.faults = FaultModel::none();
  cfg.rt.max_rotation_retries = 7;     // retry knobs are dead config
  cfg.rt.retry_backoff_cycles = 12345; // without a fault model
  rispp::sim::Simulator sim(borrow(lib), cfg);

  rispp::sim::Trace a;
  a.push_back(rispp::sim::TraceOp::label(
      "T0: steady state — A forecasts SATD_4x4"));
  a.push_back(rispp::sim::TraceOp::forecast(satd, 5000));
  for (int i = 0; i < 120; ++i) {
    a.push_back(rispp::sim::TraceOp::compute(10000));
    a.push_back(rispp::sim::TraceOp::si(satd, 50));
  }
  rispp::sim::Trace b;
  b.push_back(rispp::sim::TraceOp::forecast(si0, 50));
  b.push_back(rispp::sim::TraceOp::compute(700000));
  b.push_back(rispp::sim::TraceOp::si(si0, 20));
  b.push_back(rispp::sim::TraceOp::label(
      "T1: B forecasts the more important SI1"));
  b.push_back(rispp::sim::TraceOp::forecast(si1, 2000000));
  for (int i = 0; i < 8; ++i) {
    b.push_back(rispp::sim::TraceOp::compute(40000));
    b.push_back(rispp::sim::TraceOp::si(si1, 100));
  }
  b.push_back(rispp::sim::TraceOp::label(
      "T2: forecast states SI1 no longer needed"));
  b.push_back(rispp::sim::TraceOp::release(si1));
  b.push_back(rispp::sim::TraceOp::label(
      "T3: B's SI0 reuses containers now owned by A"));
  b.push_back(rispp::sim::TraceOp::si(si0, 20));
  sim.add_task({"A", std::move(a)});
  sim.add_task({"B", std::move(b)});

  (void)sim.run();
  const auto path = ::testing::TempDir() + "rispp_fig06_nofault.csv";
  rispp::obs::write_trace_file(path, recorder.events(),
                               make_trace_meta(lib, cfg, {"A", "B"}));
  const auto golden =
      read_file(std::string(RISPP_TEST_DATA_DIR) + "/fig06_golden.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(read_file(path), golden)
      << "FaultModel::none() diverged from the fault-free event stream";
  EXPECT_EQ(sim.manager().counters().get("rotations_failed"), 0u);
  EXPECT_EQ(sim.manager().counters().get("rotations_degraded"), 0u);
}

}  // namespace
