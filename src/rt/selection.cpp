#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

namespace rispp::rt {
namespace {

/// One row of a plan's candidate table: one Molecule option of one
/// demanded SI.
struct Candidate {
  const atom::Count* atoms;  ///< the option's rotatable projection
  std::uint32_t cycles;
  bool within;               ///< projection ≤ limit (always, without one)
  std::uint64_t k;  ///< Σᵢ max(atomsᵢ − targetᵢ, 0) against the plan's target
};

/// A positive-weight demand and its run of candidate rows, in options()
/// order.
struct DemandRun {
  std::size_t first;
  std::size_t last;
  double weight;
  std::uint32_t software_cycles;
  std::size_t si_index;
  int task;
};

/// Per-thread table storage, reused across plans so that building the
/// table allocates only while it grows to its high-water mark.
struct PlanTable {
  std::vector<Candidate> rows;
  std::vector<DemandRun> runs;
  std::vector<atom::Count> target;
};

PlanTable& plan_table() {
  thread_local PlanTable table;
  return table;
}

/// Greedy step construction shared by both selectors. When `limit` is given,
/// only steps whose cumulative target stays within `limit` are admissible —
/// that is how ExhaustiveSelector orders the upgrades inside its
/// independently-optimised target.
///
/// The target only ever holds rotatable Atoms, so a candidate's container
/// cost is k = Σᵢ max(optᵢ − targetᵢ, 0) over the library's precomputed
/// rotatable projection, and each step lifts the target to the element-wise
/// max with the winner. The plan builds one candidate table up front and
/// after each step updates k only on the Atoms the step added. An SI's
/// current cycles come from the same table: its fastest option with k == 0,
/// else software — SiLibrary::cycles_with, value for value. Since the
/// target never leaves `limit`, `target + residual ≤ limit` is just
/// `opt ≤ limit`, fixed per row.
SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit) {
  const auto dim = lib.catalog().size();
  const auto cap = limit ? limit->counts() : std::span<const atom::Count>{};
  auto& table = plan_table();
  auto& rows = table.rows;
  auto& target = table.target;
  rows.clear();
  table.runs.clear();
  target.assign(dim, 0);
  for (const auto& d : demands) {
    if (d.weight() <= 0) continue;
    const auto& si = lib.at(d.si_index);
    const auto projected = lib.rotatable_options(d.si_index);
    table.runs.push_back({rows.size(), rows.size() + projected.size(),
                          d.weight(), si.software_cycles(), d.si_index,
                          d.task});
    for (std::size_t o = 0; o < projected.size(); ++o) {
      const auto opt = projected[o].counts();
      Candidate c{opt.data(), si.options()[o].cycles, true, 0};
      for (std::size_t i = 0; i < dim; ++i) {
        c.k += opt[i];
        if (limit && opt[i] > cap[i]) c.within = false;
      }
      rows.push_back(c);
    }
  }

  SelectionPlan out;
  std::uint64_t used = 0;
  while (true) {
    SelectionStep best;
    const Candidate* winner = nullptr;

    for (const auto& run : table.runs) {
      const auto* first = rows.data() + run.first;
      const auto* last = rows.data() + run.last;
      // The first supported option replaces software even when slower.
      std::uint32_t current = run.software_cycles;
      bool supported = false;
      for (const auto* r = first; r != last; ++r)
        if (r->k == 0 && (!supported || r->cycles < current)) {
          current = r->cycles;
          supported = true;
        }
      for (const auto* r = first; r != last; ++r) {
        if (r->cycles >= current) continue;
        if (r->k == 0) continue;  // already supported (cycles check caught it)
        if (used + r->k > containers) continue;
        if (!r->within) continue;
        const double gain = run.weight *
                            static_cast<double>(current - r->cycles) /
                            static_cast<double>(r->k);
        if (!winner || gain > best.gain_per_container) {
          best.si_index = run.si_index;
          best.old_cycles = current;
          best.new_cycles = r->cycles;
          best.gain_per_container = gain;
          best.task = run.task;
          winner = r;
        }
      }
    }
    if (!winner) break;

    used += winner->k;
    std::vector<atom::Count> additional(dim, 0);
    for (std::size_t i = 0; i < dim; ++i) {
      const auto before = target[i];
      const auto after = winner->atoms[i];
      if (after <= before) continue;
      additional[i] = after - before;
      target[i] = after;
      for (auto& r : rows)
        if (r.atoms[i] > before) r.k -= std::min(r.atoms[i], after) - before;
    }
    best.additional = atom::Molecule(std::move(additional));
    out.steps.push_back(std::move(best));
  }
  out.target = atom::Molecule(std::vector<atom::Count>(target));
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
