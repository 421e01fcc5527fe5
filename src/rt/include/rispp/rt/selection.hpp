#pragma once
/// \file selection.hpp
/// \brief Run-time Molecule selection (paper §5b): given the currently
/// forecasted SIs and the Atom Container budget, decide which Atoms the
/// platform should converge to.
///
/// Both selectors implement rt::SelectionPolicy (policy.hpp) and are
/// registered in the policy factory ("greedy" / "exhaustive"), so the
/// reallocation kernel, the ablation benches and tools/rispp_explorer can
/// swap them by name.
///
/// The greedy selector works over *upgrade steps*: starting from the empty
/// configuration it repeatedly applies the (SI, Molecule) upgrade with the
/// highest marginal benefit per additionally required container, where the
/// benefit of an upgrade weighs the SI's forecasted executions against the
/// cycles saved over its currently best-supported execution (software when
/// nothing fits). The resulting *step sequence* is as important as the final
/// target: rotations are issued in step order, which is what makes an SI
/// upgrade gradually — software → minimal Molecule → faster Molecules —
/// exactly the "Rotation in Advance" behaviour of Fig 6.

#include <cstdint>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/policy.hpp"

namespace rispp::rt {

/// Plans are replayed against a certificate of the previous plan (see
/// plan()), which the selector keeps as mutable state: like a
/// ReplacementPolicy, one GreedySelector instance belongs to one manager
/// and is not called from two threads at once.
class GreedySelector : public SelectionPolicy {
 public:
  explicit GreedySelector(const isa::SiLibrary& lib) : SelectionPolicy(lib) {}

  /// Plans the target configuration for `containers` AC slots. The plan's
  /// steps start from the empty configuration; the caller diffs the target
  /// against what is already loaded.
  ///
  /// The result is always the from-scratch greedy plan, bit for bit. When
  /// the budget is the last call's and the positive-weight demands differ
  /// from the last call's in at most one entry (changed in place, inserted
  /// or removed), the plan is replayed from the certificate of the last
  /// one: each step re-evaluates only the changed demand's options against
  /// the cached best option of every other demand, and planning restarts
  /// from the candidate table only at the first step whose winner differs.
  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const override;

  /// How this instance's plan() calls were answered. Deterministic for a
  /// given call sequence; every call counts exactly once.
  struct ReplayCounts {
    std::uint64_t full = 0;      ///< planned from the empty configuration
    std::uint64_t reused = 0;    ///< same input: the cached plan
    std::uint64_t replayed = 0;  ///< one demand changed, every step kept
    /// [t]: one demand changed, steps before t kept, step t on replanned.
    std::vector<std::uint64_t> diverged_at;
  };
  const ReplayCounts& replay_counts() const { return counts_; }

  /// Exhaustive reference for small instances (tests/ablation): enumerates
  /// all combinations of per-SI Molecule options (including software) and
  /// returns the feasible configuration with maximal total benefit. The
  /// returned plan carries no steps — use ExhaustiveSelector when the plan
  /// must drive rotations.
  SelectionPlan exhaustive(const std::vector<ForecastDemand>& demands,
                           std::uint64_t containers) const;

  std::string_view name() const override { return "greedy"; }

  /// A positive-weight demand as the plan sees it.
  struct Demand {
    std::size_t si_index;
    double weight;
    int task;
    bool operator==(const Demand&) const = default;
  };
  /// One demand's best upgrade at one step: the first option in options()
  /// order reaching the demand's maximum gain (kNone when it has none).
  struct RunBest {
    static constexpr std::uint32_t kNone = ~0u;
    std::uint32_t option;
    std::uint32_t current;  ///< the demand's cycles before the step
    double gain;
  };

 private:
  /// Everything the last plan was derived from. `bests` is step-major:
  /// (steps + 1) × demands, the last row being the step that found no
  /// upgrade; `winners[t]` is the demand that won step t.
  struct Certificate {
    bool valid = false;
    std::uint64_t containers = 0;
    std::vector<Demand> demands;
    std::vector<RunBest> bests;
    std::vector<std::uint32_t> winners;
    SelectionPlan plan;
  };
  /// Replans `next_demands_`, which differ from the certificate's demands
  /// only at position `at`, and makes them the certificate.
  void replay(std::size_t at, std::uint64_t containers) const;

  mutable Certificate last_;
  mutable std::vector<Demand> next_demands_;  ///< reused per call
  mutable std::vector<RunBest> next_bests_;   ///< reused per call
  mutable ReplayCounts counts_;
};

/// GreedySelector's exhaustive() search promoted to a first-class policy:
/// the target is the benefit-optimal configuration over all per-SI Molecule
/// choices, and the step sequence orders the upgrades *within* that target
/// greedily so rotations still come online most-valuable-first.
class ExhaustiveSelector : public SelectionPolicy {
 public:
  explicit ExhaustiveSelector(const isa::SiLibrary& lib)
      : SelectionPolicy(lib) {}

  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const override;

  std::string_view name() const override { return "exhaustive"; }
};

}  // namespace rispp::rt
