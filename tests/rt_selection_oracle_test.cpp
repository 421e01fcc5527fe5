/// Differential oracle for run-time Molecule selection. The greedy loop
/// builds one candidate table per plan and updates each candidate's
/// container cost incrementally, and a persistent GreedySelector replays its
/// previous plan when one demand changed; the reference below is the
/// straightforward formulation that re-projects every option and recomputes
/// every cost on every step. Over random, generated and hand-built
/// libraries, and over long sequences of one-demand changes, both must
/// agree exactly: every plan step (gain compared with ==, not a tolerance),
/// every target, every benefit value.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "genlib_fixture.hpp"
#include "random_library.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::rt;
using rispp::atom::Molecule;
using rispp::isa::SiLibrary;

// --- reference: projection per call -------------------------------------

double ref_benefit(const SiLibrary& lib, const Molecule& config,
                   const std::vector<ForecastDemand>& demands) {
  const auto& cat = lib.catalog();
  double total = 0.0;
  for (const auto& d : demands) {
    const auto& si = lib.at(d.si_index);
    const auto cycles = si.cycles_with(config, cat);
    total += d.weight() * (static_cast<double>(si.software_cycles()) -
                           static_cast<double>(cycles));
  }
  return total;
}

SelectionPlan ref_greedy_plan(const SiLibrary& lib,
                              const std::vector<ForecastDemand>& demands,
                              std::uint64_t containers,
                              const Molecule* limit) {
  const auto& cat = lib.catalog();
  SelectionPlan out;
  out.target = cat.zero();

  while (true) {
    const auto used = cat.rotatable_determinant(out.target);
    SelectionStep best;
    bool found = false;

    for (const auto& d : demands) {
      if (d.weight() <= 0) continue;
      const auto& si = lib.at(d.si_index);
      const auto current = si.cycles_with(out.target, cat);
      for (const auto& opt : si.options()) {
        if (opt.cycles >= current) continue;
        const auto need = cat.project_rotatable(
            out.target.residual_to(cat.project_rotatable(opt.atoms)));
        const auto k = need.determinant();
        if (k == 0) continue;
        if (used + k > containers) continue;
        if (limit && !out.target.plus(need).leq(*limit)) continue;
        const double gain =
            d.weight() * static_cast<double>(current - opt.cycles) /
            static_cast<double>(k);
        if (!found || gain > best.gain_per_container) {
          best = SelectionStep{
              .si_index = d.si_index,
              .additional = need,
              .old_cycles = current,
              .new_cycles = opt.cycles,
              .gain_per_container = gain,
              .task = d.task,
          };
          found = true;
        }
      }
    }
    if (!found) break;
    out.target = out.target.plus(best.additional);
    out.steps.push_back(best);
  }
  return out;
}

Molecule ref_exhaustive_target(const SiLibrary& lib,
                               const std::vector<ForecastDemand>& demands,
                               std::uint64_t containers) {
  const auto& cat = lib.catalog();
  auto best = cat.zero();
  double best_benefit = 0.0;

  std::function<void(std::size_t, Molecule)> recurse =
      [&](std::size_t i, Molecule config) {
        if (cat.rotatable_determinant(config) > containers) return;
        if (i == demands.size()) {
          const double b = ref_benefit(lib, config, demands);
          if (b > best_benefit) {
            best_benefit = b;
            best = config;
          }
          return;
        }
        recurse(i + 1, config);
        for (const auto& opt : lib.at(demands[i].si_index).options())
          recurse(i + 1, config.unite(cat.project_rotatable(opt.atoms)));
      };
  recurse(0, cat.zero());
  return best;
}

// --- comparison ---------------------------------------------------------

void expect_same_plan(const SelectionPlan& got, const SelectionPlan& want,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.target, want.target);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t s = 0; s < got.steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const auto& g = got.steps[s];
    const auto& w = want.steps[s];
    EXPECT_EQ(g.si_index, w.si_index);
    EXPECT_EQ(g.additional, w.additional);
    EXPECT_EQ(g.old_cycles, w.old_cycles);
    EXPECT_EQ(g.new_cycles, w.new_cycles);
    EXPECT_TRUE(g.gain_per_container == w.gain_per_container)
        << g.gain_per_container << " vs " << w.gain_per_container;
    EXPECT_EQ(g.task, w.task);
  }
}

/// Demand sets over `lib`: every SI, a random subset, a duplicate entry and
/// zero or negative-weight entries, with fractional weights so that any
/// change in summation order would show in the low bits.
std::vector<std::vector<ForecastDemand>> demand_sets(
    const SiLibrary& lib, rispp::util::Xoshiro256& rng) {
  const double probabilities[] = {1.0, 0.5, 0.3, 0.9};
  auto draw = [&](std::size_t si) {
    return ForecastDemand{
        .si_index = si,
        .expected_executions =
            static_cast<double>(rng.below(2000)) / 7.0,
        .probability = probabilities[rng.below(4)],
        .task = static_cast<int>(rng.below(5)) - 1};
  };
  std::vector<std::vector<ForecastDemand>> sets(4);
  for (std::size_t s = 0; s < lib.size(); ++s) {
    sets[0].push_back(draw(s));
    if (rng.below(2) == 0) sets[1].push_back(draw(s));
  }
  sets[2] = sets[0];
  sets[2].push_back(draw(rng.below(lib.size())));
  sets[3] = sets[0];
  sets[3][rng.below(lib.size())].expected_executions = 0.0;
  return sets;
}

/// Exhaustive search enumerates Π (options + 1) configurations; keep the
/// oracle to instances where that stays small.
bool exhaustive_tractable(const SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands) {
  std::uint64_t configs = 1;
  for (const auto& d : demands) {
    configs *= lib.at(d.si_index).options().size() + 1;
    if (configs > 4096) return false;
  }
  return true;
}

/// A random Molecule of the library's dimension, static components included
/// (benefit() must ignore them the way the projection does).
Molecule random_config(const SiLibrary& lib, rispp::util::Xoshiro256& rng) {
  Molecule m(lib.catalog().size());
  for (std::size_t a = 0; a < m.dimension(); ++a)
    m.set(a, static_cast<rispp::atom::Count>(rng.below(5)));
  return m;
}

void check_projection_table(const SiLibrary& lib) {
  const auto& cat = lib.catalog();
  for (std::size_t si = 0; si < lib.size(); ++si) {
    const auto& options = lib.at(si).options();
    const auto projected = lib.rotatable_options(si);
    ASSERT_EQ(projected.size(), options.size());
    for (std::size_t k = 0; k < options.size(); ++k)
      EXPECT_EQ(projected[k], cat.project_rotatable(options[k].atoms))
          << lib.at(si).name() << " option " << k;
  }
}

void check_plans(const SiLibrary& lib,
                 const std::vector<std::vector<ForecastDemand>>& sets,
                 std::uint64_t max_budget, rispp::util::Xoshiro256& rng) {
  const GreedySelector greedy(lib);
  const ExhaustiveSelector exhaustive(lib);
  for (std::size_t set = 0; set < sets.size(); ++set) {
    const auto& demands = sets[set];
    for (std::uint64_t budget = 0; budget <= max_budget; ++budget) {
      const auto where =
          "demand set " + std::to_string(set) + ", budget " +
          std::to_string(budget);
      const auto plan = greedy.plan(demands, budget);
      expect_same_plan(plan, ref_greedy_plan(lib, demands, budget, nullptr),
                       "greedy, " + where);

      for (const auto& config : {plan.target, random_config(lib, rng)})
        EXPECT_TRUE(greedy.benefit(config, demands) ==
                    ref_benefit(lib, config, demands))
            << where;

      if (!exhaustive_tractable(lib, demands)) continue;
      const auto target = ref_exhaustive_target(lib, demands, budget);
      EXPECT_EQ(greedy.exhaustive(demands, budget).target, target) << where;
      auto want = ref_greedy_plan(lib, demands, budget, &target);
      want.target = target;
      expect_same_plan(exhaustive.plan(demands, budget), want,
                       "exhaustive, " + where);
    }
  }
}

void check_library(const SiLibrary& lib, std::uint64_t seed) {
  check_projection_table(lib);
  check_projection_table(
      rispp::isa::parse_si_library(rispp::isa::write_si_library(lib)));

  rispp::util::Xoshiro256 rng(seed);
  for (int trial = 0; trial < 16; ++trial) {
    const auto config = random_config(lib, rng);
    for (std::size_t si = 0; si < lib.size(); ++si)
      EXPECT_EQ(lib.cycles_with(si, config),
                lib.at(si).cycles_with(config, lib.catalog()));
  }

  check_plans(lib, demand_sets(lib, rng), 12, rng);
}

class RandomLibraryOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLibraryOracle, SelectionMatchesProjectionPerCallReference) {
  rispp::util::Xoshiro256 rng(GetParam() * 2654435761u);
  check_library(selection_fixture::random_library(rng), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomLibraries, RandomLibraryOracle,
                         ::testing::Range<std::uint64_t>(1, 41));

class GeneratedLibraryOracle
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedLibraryOracle, SelectionMatchesProjectionPerCallReference) {
  SCOPED_TRACE("genlib " +
               genlib_fixture::matrix_config(GetParam()).describe());
  check_library(genlib_fixture::generated_library(GetParam()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(GeneratedLibraries, GeneratedLibraryOracle,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(SelectionOracle, H264FrameLibrary) {
  check_library(SiLibrary::h264_frame(), 7);
}

/// Corner cases that random libraries hit rarely or never:
///  * TIE's 3-cycle gain over 3 containers, its 1-cycle gain over one and
///    its 6-cycle gain over six are exactly equal per container, and so
///    are EVEN's Q=1 gain and TIE's P=1 gain at twice EVEN's weight, so the
///    strict `>` tie-break decides;
///  * SLOW's Q=1 Molecule is slower than software; once another SI's Q
///    lands it is what SLOW runs (the first supported option replaces
///    software), and SLOW's upgrades are then measured from it;
///  * FIXED's first Molecule needs only a static Atom, so it is supported
///    from the start;
/// with duplicate-SI, zero-weight and negative-weight demands, at budgets
/// up to 24.
TEST(SelectionOracle, HandBuiltTiesSlowHardwareAndDuplicates) {
  const auto lib = rispp::isa::parse_si_library(R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
  atom Q slices=100 luts=200 bitstream=50000 rotatable
  atom R slices=100 luts=200 bitstream=50000 rotatable
  atom S slices=100 luts=200 bitstream=50000 static
end

si TIE software=10
  molecule cycles=7 P=3
  molecule cycles=9 P=1
  molecule cycles=4 P=3 Q=3
end

si SLOW software=50
  molecule cycles=80 Q=1
  molecule cycles=20 Q=2 R=1
  molecule cycles=45 R=2 S=1
end

si EVEN software=30
  molecule cycles=27 R=3
  molecule cycles=28 Q=1
  molecule cycles=24 Q=1 R=3
  molecule cycles=10 P=2 R=6
end

si FIXED software=40
  molecule cycles=35 S=1
  molecule cycles=12 P=1 S=1
end
)");
  const auto tie = lib.index_of("TIE");
  const auto slow = lib.index_of("SLOW");
  const auto even = lib.index_of("EVEN");
  const auto fixed = lib.index_of("FIXED");
  auto demand = [](std::size_t si, double weight, int task) {
    return ForecastDemand{.si_index = si,
                          .expected_executions = weight,
                          .probability = 1.0,
                          .task = task};
  };
  const std::vector<std::vector<ForecastDemand>> sets = {
      {demand(tie, 1, 0), demand(slow, 1, 1), demand(even, 1, 2),
       demand(fixed, 1, 3)},
      {demand(even, 2, 0), demand(tie, 2, 1), demand(slow, 5, 2),
       demand(fixed, 0.5, 3)},
      {demand(tie, 1, 0), demand(tie, 1, 1), demand(even, 1, 2),
       demand(even, 0, 3), demand(slow, 3, 4)},
      {demand(tie, 0, 0), demand(even, 1, 1), demand(slow, 0, 2),
       demand(fixed, -1, 3)},
      {demand(even, 1, 0), demand(slow, 4, 1), demand(slow, 4, 2)},
  };
  rispp::util::Xoshiro256 rng(99);
  check_projection_table(lib);
  check_plans(lib, sets, 24, rng);

  const GreedySelector greedy(lib);
  // Equal Δ/k within one SI: the earlier option wins.
  const auto tied = greedy.plan({demand(tie, 1, 0)}, 3);
  ASSERT_FALSE(tied.steps.empty());
  EXPECT_EQ(tied.steps[0].new_cycles, 7u);
  // Equal Δ/k across SIs: the earlier demand wins.
  const auto across = greedy.plan({demand(even, 1, 0), demand(tie, 2, 1)}, 1);
  ASSERT_FALSE(across.steps.empty());
  EXPECT_EQ(across.steps[0].si_index, even);
  // Static-only Molecules count as supported from the empty target.
  const auto fixed_plan = greedy.plan({demand(fixed, 1, 0)}, 1);
  ASSERT_EQ(fixed_plan.steps.size(), 1u);
  EXPECT_EQ(fixed_plan.steps[0].old_cycles, 35u);
  // SLOW upgrades from its slower-than-software Molecule once EVEN's Q
  // has landed.
  const auto slow_plan =
      greedy.plan({demand(even, 10, 0), demand(slow, 1, 1)}, 3);
  ASSERT_EQ(slow_plan.steps.size(), 2u);
  EXPECT_EQ(slow_plan.steps[0].si_index, even);
  EXPECT_EQ(slow_plan.steps[1].si_index, slow);
  EXPECT_EQ(slow_plan.steps[1].old_cycles, 80u);
  EXPECT_EQ(slow_plan.steps[1].new_cycles, 20u);
  // SLOW's Q=1 Molecule alone saves a negative amount: 50 − 80 cycles.
  const Molecule q_only{0, 1, 0, 0};
  EXPECT_EQ(greedy.benefit(q_only, {demand(slow, 1, 0)}), -30.0);
  EXPECT_EQ(ref_benefit(lib, q_only, {demand(slow, 1, 0)}), -30.0);
}

// --- replay: one selector across a changing demand list ------------------

/// Drives one persistent GreedySelector the way a manager does: each call
/// sees the previous call's demands with one forecast, release or weight
/// change applied (sometimes none, sometimes several, sometimes a new
/// budget), and every plan must equal the from-scratch reference.
class ReplaySequence {
 public:
  ReplaySequence(const SiLibrary& lib, std::uint64_t seed)
      : lib_(lib), selector_(lib), rng_(seed), budget_(rng_.below(13)) {}

  void step() {
    const auto changes = rng_.below(10) == 0 ? 2 + rng_.below(3)
                         : rng_.below(12) == 0 ? 0
                                               : 1;
    for (std::uint64_t c = 0; c < changes; ++c) change();
    if (rng_.below(25) == 0) budget_ = rng_.below(13);
    ++calls_;
    expect_same_plan(selector_.plan(demands_, budget_),
                     ref_greedy_plan(lib_, demands_, budget_, nullptr),
                     "call " + std::to_string(calls_) + ", budget " +
                         std::to_string(budget_) + ", " +
                         std::to_string(demands_.size()) + " demands");
  }

  const GreedySelector& selector() const { return selector_; }
  std::uint64_t calls() const { return calls_; }

 private:
  /// Weights from a small set as well as fractional ones, so that equal
  /// gains across SIs and across steps keep occurring.
  double weight() {
    if (rng_.below(3) == 0) return static_cast<double>(rng_.below(4));
    if (rng_.below(8) == 0) return -1.0;
    return static_cast<double>(rng_.below(3000)) / 7.0;
  }

  void change() {
    const auto pick = rng_.below(4);
    if (demands_.empty() || pick == 0) {  // forecast: an SI enters
      const auto at = rng_.below(demands_.size() + 1);
      demands_.insert(
          demands_.begin() + static_cast<std::ptrdiff_t>(at),
          ForecastDemand{.si_index = rng_.below(lib_.size()),
                         .expected_executions = weight(),
                         .probability = 1.0,
                         .task = static_cast<int>(rng_.below(4)) - 1});
    } else if (pick == 1) {  // release: an SI leaves
      demands_.erase(demands_.begin() + static_cast<std::ptrdiff_t>(
                                            rng_.below(demands_.size())));
    } else {  // re-weighted in place, sometimes to nothing and back
      auto& d = demands_[rng_.below(demands_.size())];
      d.expected_executions = weight();
      if (rng_.below(4) == 0) d.task = static_cast<int>(rng_.below(4)) - 1;
    }
  }

  const SiLibrary& lib_;
  GreedySelector selector_;
  rispp::util::Xoshiro256 rng_;
  std::uint64_t budget_;
  std::vector<ForecastDemand> demands_;
  std::uint64_t calls_ = 0;
};

std::uint64_t diverged(const GreedySelector::ReplayCounts& c) {
  std::uint64_t total = 0;
  for (const auto n : c.diverged_at) total += n;
  return total;
}

/// Two selectors on two libraries, calls interleaved: neither may see the
/// other's certificate. Every path of plan() must have been taken.
void check_replay(const SiLibrary& a, const SiLibrary& b, std::uint64_t seed) {
  ReplaySequence first(a, seed), second(b, seed * 7919 + 1);
  for (int call = 0; call < 400; ++call) {
    first.step();
    second.step();
    if (::testing::Test::HasFailure()) return;
  }
  for (const auto* run : {&first, &second}) {
    const auto& c = run->selector().replay_counts();
    EXPECT_EQ(c.full + c.reused + c.replayed + diverged(c), run->calls());
    EXPECT_GT(c.reused, 0u);
    EXPECT_GT(c.replayed, 0u);
    EXPECT_GT(diverged(c), 0u);
  }
}

class ReplayOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayOracle, GeneratedLibraryInterleavedWithH264Frame) {
  SCOPED_TRACE("genlib " +
               genlib_fixture::matrix_config(GetParam()).describe());
  check_replay(genlib_fixture::generated_library(GetParam()),
               SiLibrary::h264_frame(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(GeneratedLibraries, ReplayOracle,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(SelectionOracle, ReplayTwoSelectorsOnOneH264FrameLibrary) {
  const auto lib = SiLibrary::h264_frame();
  check_replay(lib, lib, 21);
}

}  // namespace
