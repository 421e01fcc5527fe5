#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>
#include <span>

#include "rispp/util/error.hpp"

namespace rispp::rt {
namespace {

/// Greedy step construction shared by both selectors. When `limit` is given,
/// only steps whose cumulative target stays within `limit` are admissible —
/// that is how ExhaustiveSelector orders the upgrades inside its
/// independently-optimised target.
///
/// The target only ever holds rotatable Atoms, so a candidate's container
/// cost is Σᵢ max(optᵢ − targetᵢ, 0) over the library's precomputed
/// rotatable projection, and target + residual is the element-wise max.
/// Both are read straight off the counts; the step's `additional` Molecule
/// is built once per step, for the winner only.
SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit) {
  SelectionPlan out;
  out.target = lib.catalog().zero();
  const auto cap = limit ? limit->counts() : std::span<const atom::Count>{};

  while (true) {
    const auto used = out.target.determinant();
    const auto target = out.target.counts();
    SelectionStep best;
    const atom::Molecule* best_option = nullptr;

    for (const auto& d : demands) {
      if (d.weight() <= 0) continue;
      const auto& options = lib.at(d.si_index).options();
      const auto projected = lib.rotatable_options(d.si_index);
      const auto current = lib.cycles_with(d.si_index, out.target);
      for (std::size_t o = 0; o < options.size(); ++o) {
        if (options[o].cycles >= current) continue;
        const auto opt = projected[o].counts();
        std::uint64_t k = 0;
        bool within = true;
        for (std::size_t i = 0; i < opt.size(); ++i) {
          if (opt[i] > target[i]) k += opt[i] - target[i];
          if (limit && std::max(opt[i], target[i]) > cap[i])
            within = false;
        }
        if (k == 0) continue;  // already supported (cycles check caught it)
        if (used + k > containers) continue;
        if (!within) continue;
        const double gain =
            d.weight() * static_cast<double>(current - options[o].cycles) /
            static_cast<double>(k);
        if (!best_option || gain > best.gain_per_container) {
          best.si_index = d.si_index;
          best.old_cycles = current;
          best.new_cycles = options[o].cycles;
          best.gain_per_container = gain;
          best.task = d.task;
          best_option = &projected[o];
        }
      }
    }
    if (!best_option) break;
    best.additional = out.target.residual_to(*best_option);
    out.target = out.target.plus(best.additional);
    out.steps.push_back(std::move(best));
  }
  return out;
}

/// Enumerates one option choice (or software = no atoms) per demanded SI and
/// returns the feasible configuration with the best total benefit. Every
/// configuration is a union of rotatable projections, so its determinant is
/// its container count.
atom::Molecule exhaustive_target(const SelectionPolicy& policy,
                                 const isa::SiLibrary& lib,
                                 const std::vector<ForecastDemand>& demands,
                                 std::uint64_t containers) {
  auto best = lib.catalog().zero();
  double best_benefit = 0.0;

  std::function<void(std::size_t, atom::Molecule)> recurse =
      [&](std::size_t i, atom::Molecule config) {
        if (config.determinant() > containers) return;
        if (i == demands.size()) {
          const double b = policy.benefit(config, demands);
          if (b > best_benefit) {
            best_benefit = b;
            best = config;
          }
          return;
        }
        recurse(i + 1, config);  // software execution for SI i
        for (const auto& projected : lib.rotatable_options(demands[i].si_index))
          recurse(i + 1, config.unite(projected));
      };
  recurse(0, lib.catalog().zero());
  return best;
}

}  // namespace

SelectionPlan GreedySelector::plan(const std::vector<ForecastDemand>& demands,
                                   std::uint64_t containers) const {
  return greedy_plan(library(), demands, containers, nullptr);
}

SelectionPlan GreedySelector::exhaustive(
    const std::vector<ForecastDemand>& demands,
    std::uint64_t containers) const {
  SelectionPlan out;
  out.target = exhaustive_target(*this, library(), demands, containers);
  return out;
}

SelectionPlan ExhaustiveSelector::plan(
    const std::vector<ForecastDemand>& demands,
    std::uint64_t containers) const {
  const auto target = exhaustive_target(*this, library(), demands, containers);
  auto out = greedy_plan(library(), demands, containers, &target);
  // Steps may not cover atoms that no SI benefits from incrementally; the
  // target still protects them from eviction, so report it as planned.
  out.target = target;
  return out;
}

}  // namespace rispp::rt
