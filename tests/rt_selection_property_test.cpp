/// Property testing of the Molecule selector over RANDOM SI libraries (not
/// just the paper's nested H.264 lattice): plan feasibility, step soundness,
/// monotonicity in budget, bounded loss vs the exhaustive optimum, and the
/// fault-aware properties — selection plans around quarantined Atom
/// Containers, and replacement never evicts mid-rotation or targets a
/// blocked container.
///
/// Every property body takes the library as a parameter, so the same checks
/// run twice: over the ad-hoc random_library() instances (the original
/// population — rng streams unchanged) and over isa::LibraryGenerator
/// libraries from the genlib_fixture matrix, whose chains and flat fronts
/// have the correlated structure the ad-hoc generator never produces.

#include <gtest/gtest.h>

#include "genlib_fixture.hpp"
#include "random_library.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::rt;
using rispp::atom::Molecule;
using rispp::isa::SiLibrary;
using selection_fixture::random_library;

/// Plan feasibility, step soundness and budget monotonicity for one library;
/// demands are drawn from `rng`.
void check_plan_invariants(const SiLibrary& lib,
                           rispp::util::Xoshiro256& rng) {
  const GreedySelector sel(lib);

  std::vector<ForecastDemand> demands;
  for (std::size_t s = 0; s < lib.size(); ++s)
    demands.push_back(
        {s, 1.0 + static_cast<double>(rng.below(500)), 1.0, -1});

  for (std::uint64_t budget = 0; budget <= 8; ++budget) {
    const auto plan = sel.plan(demands, budget);
    const auto& cat = lib.catalog();

    // Feasibility: the target never exceeds the budget.
    EXPECT_LE(cat.rotatable_determinant(plan.target), budget);

    // Step soundness: steps sum to the target, each strictly improves its
    // SI, and the final target supports each step's promised latency.
    Molecule sum(cat.size());
    for (const auto& step : plan.steps) {
      EXPECT_LT(step.new_cycles, step.old_cycles);
      EXPECT_FALSE(step.additional.is_zero());
      EXPECT_GT(step.gain_per_container, 0.0);
      sum = sum.plus(step.additional);
      EXPECT_LE(lib.at(step.si_index).cycles_with(plan.target, cat),
                step.new_cycles);
    }
    EXPECT_EQ(sum, plan.target);

    // Benefit is non-negative and monotone in budget.
    EXPECT_GE(sel.benefit(plan.target, demands), -1e-9);
    if (budget > 0) {
      const auto smaller = sel.plan(demands, budget - 1);
      EXPECT_GE(sel.benefit(plan.target, demands),
                sel.benefit(smaller.target, demands) - 1e-9);
    }
  }
}

/// Greedy stays within 50 % of the exhaustive optimum (and never beats it).
void check_greedy_within_half(const SiLibrary& lib,
                              rispp::util::Xoshiro256& rng) {
  const GreedySelector sel(lib);
  std::vector<ForecastDemand> demands;
  for (std::size_t s = 0; s < lib.size(); ++s)
    demands.push_back(
        {s, 1.0 + static_cast<double>(rng.below(500)), 1.0, -1});

  for (std::uint64_t budget : {2ull, 4ull, 6ull}) {
    const auto greedy = sel.plan(demands, budget);
    const auto best = sel.exhaustive(demands, budget);
    const double g = sel.benefit(greedy.target, demands);
    const double b = sel.benefit(best.target, demands);
    EXPECT_GE(g, 0.5 * b) << "budget " << budget;
    EXPECT_LE(g, b + 1e-9) << "budget " << budget;  // exhaustive is optimal
  }
}

/// Whatever the random container state — loaded, mid-rotation, in fault
/// backoff, quarantined — choose_victim never sacrifices a container whose
/// transfer is still in flight, never targets a blocked one, and never
/// evicts an Atom the target still needs.
void check_replacement_victims(const SiLibrary& lib,
                               rispp::util::Xoshiro256& rng) {
  const auto& cat = lib.catalog();
  const Cycle now = 10000;

  // Only rotatable Atoms ever enter a container; generated catalogs also
  // carry static movers. For the all-rotatable random_library catalogs the
  // index map is the identity, so the historical rng stream is unchanged.
  std::vector<std::size_t> rotatable;
  for (std::size_t a = 0; a < cat.size(); ++a)
    if (cat.at(a).rotatable) rotatable.push_back(a);
  ASSERT_FALSE(rotatable.empty());

  ContainerFile file(6, cat);
  for (unsigned c = 0; c < file.size(); ++c) {
    const auto kind = rotatable[rng.below(rotatable.size())];
    switch (rng.below(5)) {
      case 0:  // empty
        break;
      case 1:  // completed load
        file.start_rotation(c, kind, now - 1, 0);
        break;
      case 2:  // mid-rotation: transfer still in flight at `now`
        file.start_rotation(c, kind, now + 500 + rng.below(2000), 0);
        break;
      case 3:  // failed load, still inside its backoff window
        file.start_rotation(c, kind, now - 1, 0);
        ASSERT_FALSE(file.on_rotation_failed(c, kind, now - 1, 10, 5000));
        break;
      default:  // failed once with a zero retry budget: quarantined
        file.start_rotation(c, kind, now - 1, 0);
        ASSERT_TRUE(file.on_rotation_failed(c, kind, now - 1, 0, 5000));
        break;
    }
  }
  file.refresh(now);

  LruReplacement lru;
  MruReplacement mru;
  RoundRobinReplacement round_robin;
  ReplacementPolicy* const policies[] = {&lru, &mru, &round_robin};
  for (int trial = 0; trial < 20; ++trial) {
    // Draw a count for every component (keeps the stream), but the target
    // configuration itself only ever demands rotatable Atoms.
    Molecule target(cat.size());
    for (std::size_t a = 0; a < cat.size(); ++a) {
      const auto c = static_cast<rispp::atom::Count>(rng.below(3));
      if (cat.at(a).rotatable) target.set(a, c);
    }
    for (auto* const policy : policies) {
      const auto victim = file.choose_victim(target, now, *policy);
      if (!victim) continue;
      const auto& ac = file.at(*victim);
      EXPECT_FALSE(ac.busy(now))
          << "victim " << *victim << " has a transfer in flight";
      EXPECT_FALSE(ac.blocked(now))
          << "victim " << *victim << " is quarantined or backing off";
      // Needed atoms are never evicted: whatever the victim holds (or is
      // committed to hold) is excess over the target.
      if (const auto held = ac.atom ? ac.atom : ac.loading) {
        EXPECT_GT(file.committed_atoms()[*held], target[*held])
            << "victim " << *victim << " holds a needed atom";
      }
    }
  }
}

/// Under a hostile fault schedule that quarantines containers as the run
/// progresses, the platform never counts on a quarantined AC — quarantined
/// containers stay empty forever and the committed configuration always
/// fits into the surviving budget.
void check_quarantine_planning(const SiLibrary& lib, std::uint64_t fault_seed,
                               rispp::util::Xoshiro256& rng) {
  RtConfig cfg;
  cfg.atom_containers = 4;
  cfg.faults = rispp::hw::FaultModel::probabilistic(fault_seed, 0.6);
  cfg.max_rotation_retries = 0;  // first failure quarantines
  cfg.retry_backoff_cycles = 200;
  RisppManager mgr(rispp::isa::borrow(lib), cfg);

  Cycle now = 0;
  for (int op = 0; op < 120; ++op) {
    now += 1 + rng.below(20000);
    const auto si = static_cast<std::size_t>(rng.below(lib.size()));
    switch (rng.below(3)) {
      case 0:
        mgr.forecast(si, 50 + rng.below(1000), 1.0, now);
        break;
      case 1:
        (void)mgr.execute(si, now);
        break;
      default:
        mgr.poll(now);
        break;
    }
    ASSERT_LE(mgr.committed_atoms().determinant(),
              mgr.containers().usable_count())
        << "committed configuration counts on a quarantined container";
    for (unsigned c = 0; c < mgr.containers().size(); ++c) {
      const auto& ac = mgr.containers().at(c);
      if (!ac.quarantined) continue;
      EXPECT_FALSE(ac.atom.has_value())
          << "quarantined container " << c << " still holds an atom";
      EXPECT_FALSE(ac.loading.has_value())
          << "quarantined container " << c << " is rotation target";
    }
  }
}

class SelectionProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionProperties, PlanInvariantsOnRandomLibraries) {
  rispp::util::Xoshiro256 rng(GetParam());
  const auto lib = random_library(rng);
  check_plan_invariants(lib, rng);
}

TEST_P(SelectionProperties, GreedyWithinHalfOfExhaustive) {
  // Greedy marginal-gain selection has no universal optimality guarantee on
  // arbitrary molecule lattices, but on these random instances it must stay
  // within 50 % of the exhaustive optimum (empirically it is far closer;
  // the H.264 library is exact — see rt_selection_test).
  rispp::util::Xoshiro256 rng(GetParam() * 7919);
  const auto lib = random_library(rng);
  check_greedy_within_half(lib, rng);
}

TEST_P(SelectionProperties, ReplacementNeverEvictsMidRotationOrBlocked) {
  rispp::util::Xoshiro256 rng(GetParam() * 104729);
  const auto lib = random_library(rng);
  check_replacement_victims(lib, rng);
}

TEST_P(SelectionProperties, SelectionPlansAroundQuarantinedContainers) {
  const std::uint64_t seed = GetParam();
  rispp::util::Xoshiro256 rng(seed * 31337);
  const auto lib = random_library(rng);
  check_quarantine_planning(lib, seed, rng);
}

INSTANTIATE_TEST_SUITE_P(RandomLibraries, SelectionProperties,
                         ::testing::Range<std::uint64_t>(1, 41));

/// The same properties over the genlib_fixture population. The failure
/// message names the generator seed (the gtest param) and the full
/// parameter line.
class GeneratedSelectionProperties
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    SCOPED_TRACE("genlib " + genlib_fixture::matrix_config(GetParam())
                                 .describe());
  }
};

TEST_P(GeneratedSelectionProperties, PlanInvariants) {
  rispp::util::Xoshiro256 rng(GetParam() * 6151);
  check_plan_invariants(genlib_fixture::generated_library(GetParam()), rng);
}

TEST_P(GeneratedSelectionProperties, GreedyWithinHalfOfExhaustive) {
  // Exhaustive selection enumerates Molecule combinations; bound the
  // instance size so the optimum stays tractable.
  const auto lib = genlib_fixture::generated_library(GetParam());
  std::size_t options = 0;
  for (const auto& si : lib.sis()) options += si.options().size();
  if (lib.size() > 4 || options > 16) GTEST_SKIP() << "instance too large";
  rispp::util::Xoshiro256 rng(GetParam() * 7919);
  check_greedy_within_half(lib, rng);
}

TEST_P(GeneratedSelectionProperties, ReplacementNeverEvictsMidRotationOrBlocked) {
  rispp::util::Xoshiro256 rng(GetParam() * 104729);
  check_replacement_victims(genlib_fixture::generated_library(GetParam()),
                            rng);
}

TEST_P(GeneratedSelectionProperties, SelectionPlansAroundQuarantine) {
  const std::uint64_t seed = GetParam();
  rispp::util::Xoshiro256 rng(seed * 31337);
  check_quarantine_planning(genlib_fixture::generated_library(seed), seed,
                            rng);
}

INSTANTIATE_TEST_SUITE_P(GeneratedLibraries, GeneratedSelectionProperties,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
