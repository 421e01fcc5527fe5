/// Policy-seam tests: the string-keyed factory, the replacement strategy
/// objects, and the first-class ExhaustiveSelector.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "rispp/rt/manager.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::rt;
using rispp::util::PreconditionError;

class Policies : public ::testing::Test {
 protected:
  rispp::isa::SiLibrary lib_ = rispp::isa::SiLibrary::h264();

  std::vector<ForecastDemand> encoder_mix() const {
    auto d = [&](const char* name, double w) {
      return ForecastDemand{lib_.index_of(name), w, 1.0, -1};
    };
    return {d("SATD_4x4", 256), d("DCT_4x4", 24), d("HT_4x4", 1),
            d("HT_2x2", 2)};
  }
};

TEST_F(Policies, FactoryListsBuiltins) {
  const auto sel = selection_policy_names();
  EXPECT_TRUE(std::count(sel.begin(), sel.end(), "greedy"));
  EXPECT_TRUE(std::count(sel.begin(), sel.end(), "exhaustive"));
  const auto rep = replacement_policy_names();
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "lru"));
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "mru"));
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "round-robin"));
}

TEST_F(Policies, FactoryConstructsByKey) {
  EXPECT_EQ(make_selection_policy("greedy", lib_)->name(), "greedy");
  EXPECT_EQ(make_selection_policy("exhaustive", lib_)->name(), "exhaustive");
  EXPECT_EQ(make_replacement_policy("lru")->name(), "lru");
  EXPECT_EQ(make_replacement_policy("mru")->name(), "mru");
  EXPECT_EQ(make_replacement_policy("round-robin")->name(), "round-robin");
}

TEST_F(Policies, UnknownKeysThrowListingRegisteredNames) {
  try {
    make_selection_policy("nope", lib_);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
  }
  EXPECT_THROW(make_replacement_policy("nope"), PreconditionError);
}

TEST_F(Policies, CustomRegistrationIsConstructible) {
  register_selection_policy("test-greedy-alias", [](const auto& lib) {
    return std::make_unique<GreedySelector>(lib);
  });
  register_replacement_policy(
      "test-lru-alias", [] { return std::make_unique<LruReplacement>(); });
  EXPECT_EQ(make_selection_policy("test-greedy-alias", lib_)->name(),
            "greedy");
  EXPECT_EQ(make_replacement_policy("test-lru-alias")->name(), "lru");
  // And a manager can be configured with the custom keys end to end.
  RtConfig cfg;
  cfg.selection_policy = "test-greedy-alias";
  cfg.replacement_policy = "test-lru-alias";
  RisppManager mgr(borrow(lib_), cfg);
  EXPECT_EQ(mgr.selection_policy().name(), "greedy");
  EXPECT_EQ(mgr.replacement_policy().name(), "lru");
}

TEST_F(Policies, LruAndMruPickTheExpectedContainers) {
  // Three Transform containers, loaded at 10/20/30; one touch at 100 marks
  // container 0 (least recently used first, ties to the lowest id). With
  // every container in excess, LRU picks the first untouched one and MRU
  // the touched one.
  const auto& cat = lib_.catalog();
  const auto transform = cat.index_of("Transform");
  for (const auto& [key, expected] :
       {std::pair<const char*, unsigned>{"lru", 1}, {"mru", 0}}) {
    ContainerFile file(3, cat);
    for (unsigned c = 0; c < 3; ++c)
      file.start_rotation(c, transform, 10 * (c + 1), kNoTask);
    file.refresh(30);
    rispp::atom::Molecule one(cat.size());
    one.set(transform, 1);
    file.touch(one, 100);
    const auto victim =
        file.choose_victim(cat.zero(), 200, *make_replacement_policy(key));
    ASSERT_TRUE(victim.has_value()) << key;
    EXPECT_EQ(*victim, expected) << key;
  }
}

TEST_F(Policies, SharedBenefitIsPolicyIndependent) {
  const auto greedy = make_selection_policy("greedy", lib_);
  const auto exhaustive = make_selection_policy("exhaustive", lib_);
  const auto demands = encoder_mix();
  const auto config = greedy->plan(demands, 8).target;
  EXPECT_DOUBLE_EQ(greedy->benefit(config, demands),
                   exhaustive->benefit(config, demands));
}

TEST_F(Policies, ExhaustiveSelectorPlansStepsReachingItsTarget) {
  const ExhaustiveSelector sel(lib_);
  const GreedySelector greedy(lib_);
  const auto demands = encoder_mix();
  for (std::uint64_t budget : {4ull, 6ull, 8ull}) {
    const auto plan = sel.plan(demands, budget);
    // Target matches the exhaustive() reference search.
    EXPECT_EQ(plan.target, greedy.exhaustive(demands, budget).target);
    // Steps stay within the target and, summed, support its benefit: the
    // kernel issues rotations from steps, so an unreachable target would
    // never come online.
    rispp::atom::Molecule cum(lib_.catalog().size());
    for (const auto& s : plan.steps) {
      cum = cum.plus(s.additional);
      EXPECT_TRUE(cum.leq(plan.target));
    }
    EXPECT_DOUBLE_EQ(sel.benefit(cum, demands),
                     sel.benefit(plan.target, demands));
  }
}

TEST_F(Policies, PolicyKindTracksOverrides) {
  // The devirtualized dispatch may only bypass the factory's virtual
  // product while the key still means the stock builtin. Custom keys — and
  // builtin names that have been re-registered — must report Custom so the
  // dispatch falls back to whatever the factory produces.
  EXPECT_EQ(selection_policy_kind("exhaustive"), SelectionKind::Exhaustive);
  EXPECT_EQ(replacement_policy_kind("lru"), ReplacementKind::Lru);
  EXPECT_EQ(replacement_policy_kind("mru"), ReplacementKind::Mru);
  EXPECT_EQ(replacement_policy_kind("round-robin"),
            ReplacementKind::RoundRobin);
  EXPECT_EQ(selection_policy_kind("no-such-policy"), SelectionKind::Custom);
  EXPECT_EQ(replacement_policy_kind("no-such-policy"),
            ReplacementKind::Custom);
  // Freshly registered custom keys are Custom (tests run one-per-process
  // under gtest_discover_tests, so register here rather than relying on
  // CustomRegistrationIsConstructible having run).
  register_selection_policy("kind-test-selector", [](const auto& lib) {
    return std::make_unique<GreedySelector>(lib);
  });
  register_replacement_policy(
      "kind-test-replacer", [] { return std::make_unique<LruReplacement>(); });
  EXPECT_EQ(selection_policy_kind("kind-test-selector"),
            SelectionKind::Custom);
  EXPECT_EQ(replacement_policy_kind("kind-test-replacer"),
            ReplacementKind::Custom);

  // Re-registering a builtin name demotes it: even a behaviour-identical
  // replacement factory must reach the manager through the virtual seam,
  // since the concrete type behind the key is no longer known. (This
  // demotion is process-global, which is why the test checks "greedy" last
  // and re-registers the stock factory semantics.)
  EXPECT_EQ(selection_policy_kind("greedy"), SelectionKind::Greedy);
  register_selection_policy("greedy", [](const auto& lib) {
    return std::make_unique<GreedySelector>(lib);
  });
  EXPECT_EQ(selection_policy_kind("greedy"), SelectionKind::Custom);

  // A default-configured manager still works end to end on the demoted key:
  // same GreedySelector behaviour, now via the fallback dispatch arm.
  RtConfig cfg;
  cfg.atom_containers = 6;
  RisppManager mgr(borrow(lib_), cfg);
  EXPECT_EQ(mgr.selection_policy().name(), "greedy");
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  EXPECT_GT(mgr.rotations_performed(), 0u);
  EXPECT_TRUE(mgr.execute(lib_.index_of("SATD_4x4"), 10'000'000).hardware);
}

TEST_F(Policies, ManagerRotatesUnderExhaustiveSelection) {
  RtConfig cfg;
  cfg.atom_containers = 6;
  cfg.selection_policy = "exhaustive";
  RisppManager mgr(borrow(lib_), cfg);
  EXPECT_EQ(mgr.selection_policy().name(), "exhaustive");
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  EXPECT_GT(mgr.rotations_performed(), 0u);
  // After the transfers complete, the SI executes in hardware.
  const auto res = mgr.execute(lib_.index_of("SATD_4x4"), 10'000'000);
  EXPECT_TRUE(res.hardware);
}

}  // namespace
