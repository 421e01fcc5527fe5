/// Invariant-checking harness for the reconfiguration path under seeded
/// fault schedules: randomized manager-driven workloads and the fig06
/// simulator scenario run with nonzero fault probabilities, with platform
/// invariants asserted after every kernel event. The invariants:
///
///   I1  committed Atom instances never exceed the Atom Container capacity
///   I2  a hardware execution's Molecule is implementable from the Atoms
///       available at that cycle (no execution on a failed/poisoned load)
///   I3  the platform clock only moves forward (wakeups are monotone)
///   I4  every issued rotation closes in the event stream: Finished or
///       Failed, or Cancelled while still queued (rotation_lifecycle.hpp)
///   I5  every SI is always executable — hardware or software fallback
///
/// The zero-fault differential (FaultModel::none() byte-identical to the
/// fig06 golden) lives in rt_fault_test.cpp.

#include <gtest/gtest.h>

#include "rispp/hw/fault.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/rng.hpp"
#include "rotation_lifecycle.hpp"
#include "sim_scenarios.hpp"

namespace {

using rispp::hw::FaultModel;
using rispp::isa::borrow;
using rispp::rt::Cycle;
using rispp::rt::RisppManager;
using rispp::rt::RtConfig;

/// I1 + I5 and bookkeeping sanity, checked after every kernel op.
void check_platform_invariants(RisppManager& mgr, Cycle now) {
  const auto capacity = mgr.containers().size();
  ASSERT_LE(mgr.committed_atoms().determinant(), capacity)
      << "I1: committed atoms exceed the container capacity at " << now;
  ASSERT_LE(mgr.containers().usable_count(), capacity);
  // Available atoms are a subset of committed ones (loads still in flight
  // are committed but not yet available).
  ASSERT_TRUE(mgr.available_atoms(now).leq(mgr.committed_atoms()))
      << "available atoms not covered by the committed view at " << now;
}

/// Polls the manager at every wakeup until it settles; asserts I3 along the
/// way and that the drain terminates (quarantine must not wedge the wakeup
/// chain into an infinite retry loop).
Cycle drain(RisppManager& mgr, Cycle from) {
  Cycle t = from;
  for (int guard = 0; guard < 20000; ++guard) {
    const auto wake = mgr.next_wakeup(t);
    if (!wake) return t;
    if (*wake <= t) {
      ADD_FAILURE() << "I3: wakeup does not advance the clock";
      return t;
    }
    t = *wake;
    mgr.poll(t);
    check_platform_invariants(mgr, t);
  }
  ADD_FAILURE() << "drain did not terminate — retry loop never settles";
  return t;
}

/// One randomized run: forecasts, executions, releases and polls drawn from
/// a seeded stream, against the H.264 library with probabilistic faults.
void run_randomized(std::uint64_t seed, double p_fail, double p_poison,
                    double p_degrade, unsigned retries) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const auto lib = rispp::isa::SiLibrary::h264();
  RtConfig cfg;
  cfg.atom_containers = 5;
  cfg.faults =
      FaultModel::probabilistic(seed, p_fail, p_poison, p_degrade, 2.0);
  cfg.max_rotation_retries = retries;
  cfg.retry_backoff_cycles = 500;
  rispp::obs::TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);
  rispp::util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);

  Cycle now = 0;
  std::vector<std::size_t> forecasted;
  for (int op = 0; op < 300; ++op) {
    now += 1 + rng.below(20000);  // I3 by construction: time only advances
    const auto si = static_cast<std::size_t>(rng.below(lib.size()));
    switch (rng.below(4)) {
      case 0:
        mgr.forecast(si, 100 + rng.below(5000), 1.0, now);
        forecasted.push_back(si);
        break;
      case 1: {
        // I5: execute must always answer, hardware or software.
        const auto r = mgr.execute(si, now);
        ASSERT_GT(r.cycles, 0u) << "I5: SI " << si << " not executable";
        if (r.hardware) {
          // I2: the chosen Molecule's rotatable atoms are really loaded.
          ASSERT_NE(r.molecule, nullptr);
          const auto needed =
              lib.catalog().project_rotatable(r.molecule->atoms);
          ASSERT_TRUE(needed.leq(mgr.available_atoms(now)))
              << "I2: hardware Molecule not implementable at " << now;
        }
        break;
      }
      case 2:
        if (!forecasted.empty()) {
          const auto idx = rng.below(forecasted.size());
          mgr.forecast_release(forecasted[idx], now);
          forecasted.erase(forecasted.begin() +
                           static_cast<std::ptrdiff_t>(idx));
        }
        break;
      default:
        mgr.poll(now);
        break;
    }
    check_platform_invariants(mgr, now);
  }

  const auto end = drain(mgr, now);
  rotation_lifecycle::expect_closed(mgr, recorder);  // I4

  // I5 after everything settled: every SI in the library still executes,
  // however many containers the fault schedule quarantined.
  for (std::size_t si = 0; si < lib.size(); ++si) {
    const auto r = mgr.execute(si, end + 1 + si);
    EXPECT_GT(r.cycles, 0u) << "I5: SI " << si << " lost its fallback";
  }
  // The fault accounting is consistent with what the containers show.
  unsigned quarantined = 0;
  for (unsigned c = 0; c < mgr.containers().size(); ++c)
    if (mgr.containers().at(c).quarantined) ++quarantined;
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), quarantined);
}

TEST(FaultInvariants, RandomizedWorkloadsModerateFaults) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    run_randomized(seed, 0.10, 0.05, 0.10, 3);
}

TEST(FaultInvariants, RandomizedWorkloadsHostileFaults) {
  // Half of all transfers end badly and the retry budget is tiny: most
  // containers quarantine, yet every SI must keep executing.
  for (std::uint64_t seed = 100; seed <= 103; ++seed)
    run_randomized(seed, 0.35, 0.15, 0.25, 1);
}

TEST(FaultInvariants, DegradationOnlyNeverFailsARotation) {
  const auto lib = rispp::isa::SiLibrary::h264();
  RtConfig cfg;
  cfg.atom_containers = 6;
  cfg.faults = FaultModel::probabilistic(7, 0.0, 0.0, 0.5, 3.0);
  rispp::obs::TraceRecorder recorder;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);
  mgr.forecast(lib.index_of("SATD_4x4"), 5000, 1.0, 0);
  const auto end = drain(mgr, 0);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 0u);
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), 0u);
  // Stretched transfers still commit: the SI reaches hardware eventually.
  EXPECT_TRUE(mgr.execute(lib.index_of("SATD_4x4"), end + 1).hardware);
  rotation_lifecycle::expect_closed(mgr, recorder);
}

/// The fig06 two-task scenario on the full simulator, under a seeded fault
/// schedule: the run must terminate, the kernel's event stream must close
/// every rotation, and the platform must end with every SI executable.
TEST(FaultInvariants, Fig06ScenarioUnderSeededFaults) {
  const auto lib = rispp::isa::SiLibrary::h264();

  for (std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 6;
    cfg.quantum = 25000;
    cfg.rt.faults = FaultModel::probabilistic(seed, 0.2, 0.1, 0.1);
    cfg.rt.max_rotation_retries = 2;
    cfg.rt.retry_backoff_cycles = 2000;
    rispp::obs::TraceRecorder recorder;
    cfg.rt.sink = &recorder;
    rispp::sim::Simulator sim(borrow(lib), cfg);

    sim_scenarios::add_all(sim, sim_scenarios::fig06(lib));

    const auto r = sim.run();
    EXPECT_GT(r.total_cycles, 0u);  // the run terminated
    for (const auto& [name, st] : r.per_si)
      EXPECT_EQ(st.invocations, st.hw_invocations + st.sw_invocations);

    // Drain the manager past the trace end so failures booked there are
    // discovered and every rotation reaches a terminal state.
    auto& mgr = sim.manager();
    const auto end = drain(mgr, r.total_cycles);
    rotation_lifecycle::expect_closed(mgr, recorder);
    for (std::size_t si = 0; si < lib.size(); ++si)
      EXPECT_GT(mgr.execute(si, end + 1 + si).cycles, 0u);
  }
}

}  // namespace
