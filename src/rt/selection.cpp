#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

namespace rispp::rt {
namespace {

using Demand = GreedySelector::Demand;
using RunBest = GreedySelector::RunBest;
constexpr std::uint32_t kNone = RunBest::kNone;

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

/// Per-thread scratch storage, reused across plans so that building a
/// table allocates only while it grows to its high-water mark. It holds no
/// state from one plan to the next.
struct PlanTable {
  std::vector<Candidate> rows;
  std::vector<DemandRun> runs;
  std::vector<atom::Count> target;
  std::vector<RunBest> bests;  ///< ExhaustiveSelector's throwaway record
  std::vector<std::uint32_t> winners;
};

PlanTable& plan_table() {
  thread_local PlanTable table;
  return table;
}

/// Empties the table's rows and zeroes its target.
PlanTable& reset_table(std::size_t dim) {
  auto& table = plan_table();
  table.rows.clear();
  table.runs.clear();
  table.target.assign(dim, 0);
  return table;
}

/// Appends `d`'s run of rows, each with its k against the table's target.
void add_run(PlanTable& table, const isa::SiLibrary& lib, const Demand& d,
             const atom::Molecule* limit) {
  const auto& si = lib.at(d.si_index);
  const auto projected = lib.rotatable_options(d.si_index);
  const auto& target = table.target;
  auto& rows = table.rows;
  table.runs.push_back({rows.size(), rows.size() + projected.size(), d.weight,
                        si.software_cycles(), d.si_index, d.task});
  for (std::size_t o = 0; o < projected.size(); ++o) {
    const auto opt = projected[o].counts();
    Candidate c{opt.data(), si.options()[o].cycles, true, 0};
    for (std::size_t i = 0; i < target.size(); ++i) {
      if (opt[i] > target[i]) c.k += opt[i] - target[i];
      if (limit && opt[i] > limit->counts()[i]) c.within = false;
    }
    rows.push_back(c);
  }
}

/// The run's best upgrade against the table's k: its current cycles (the
/// fastest option with k == 0, else software — SiLibrary::cycles_with,
/// value for value) and the first option in order reaching its maximum
/// gain w·Δ/k among those that fit the budget.
RunBest run_best(const PlanTable& table, const DemandRun& run,
                 std::uint64_t used, std::uint64_t containers) {
  const auto* first = table.rows.data() + run.first;
  const auto* last = table.rows.data() + run.last;
  // The first supported option replaces software even when slower.
  std::uint32_t current = run.software_cycles;
  bool supported = false;
  for (const auto* r = first; r != last; ++r)
    if (r->k == 0 && (!supported || r->cycles < current)) {
      current = r->cycles;
      supported = true;
    }
  RunBest best{kNone, current, 0.0};
  for (const auto* r = first; r != last; ++r) {
    if (r->cycles >= current) continue;
    if (r->k == 0) continue;  // already supported (cycles check caught it)
    if (used + r->k > containers) continue;
    if (!r->within) continue;
    const double gain = run.weight * static_cast<double>(current - r->cycles) /
                        static_cast<double>(r->k);
    if (best.option == kNone || gain > best.gain) {
      best.option = static_cast<std::uint32_t>(r - first);
      best.gain = gain;
    }
  }
  return best;
}

/// Raises the target's Atom `i` to `after` and lowers k of every row that
/// needed more than the old count.
void raise(PlanTable& table, std::size_t i, atom::Count after) {
  const auto before = table.target[i];
  table.target[i] = after;
  for (auto& r : table.rows)
    if (r.atoms[i] > before) r.k -= std::min(r.atoms[i], after) - before;
}

/// Greedy steps from the table's target onwards. Each step appends every
/// run's best to `bests` and, when some run has one, takes the first run
/// reaching the maximum gain, appends it to `winners` and its step to
/// `out.steps`, and lifts the target to the element-wise max with the
/// winning option. Sets `out.target` to where the steps end.
void continue_plan(PlanTable& table, std::uint64_t used,
                   std::uint64_t containers, SelectionPlan& out,
                   std::vector<RunBest>& bests,
                   std::vector<std::uint32_t>& winners) {
  const auto runs = table.runs.size();
  while (true) {
    const auto row0 = bests.size();
    std::uint32_t w = kNone;
    for (std::size_t r = 0; r < runs; ++r) {
      bests.push_back(run_best(table, table.runs[r], used, containers));
      if (bests.back().option != kNone &&
          (w == kNone || bests.back().gain > bests[row0 + w].gain))
        w = static_cast<std::uint32_t>(r);
    }
    if (w == kNone) break;

    const auto& run = table.runs[w];
    const auto best = bests[row0 + w];
    const auto& row = table.rows[run.first + best.option];
    used += row.k;
    std::vector<atom::Count> additional(table.target.size(), 0);
    for (std::size_t i = 0; i < additional.size(); ++i) {
      if (row.atoms[i] <= table.target[i]) continue;
      additional[i] = row.atoms[i] - table.target[i];
      raise(table, i, row.atoms[i]);
    }
    out.steps.push_back({.si_index = run.si_index,
                         .additional = atom::Molecule(std::move(additional)),
                         .old_cycles = best.current,
                         .new_cycles = row.cycles,
                         .gain_per_container = best.gain,
                         .task = run.task});
    winners.push_back(w);
  }
  out.target = atom::Molecule(std::vector<atom::Count>(table.target));
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
/// after each step updates k only on the Atoms the step added. Since the
/// target never leaves `limit`, `target + residual ≤ limit` is just
/// `opt ≤ limit`, fixed per row.
SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit) {
  auto& table = reset_table(lib.catalog().size());
  for (const auto& d : demands)
    if (!(d.weight() <= 0))
      add_run(table, lib, {d.si_index, d.weight(), d.task}, limit);
  SelectionPlan out;
  table.bests.clear();
  table.winners.clear();
  continue_plan(table, 0, containers, out, table.bests, table.winners);
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
  auto& next = next_demands_;
  next.clear();
  for (const auto& d : demands)
    if (!(d.weight() <= 0)) next.push_back({d.si_index, d.weight(), d.task});

  auto& last = last_;
  if (last.valid && last.containers == containers) {
    const auto n = last.demands.size();
    const auto m = next.size();
    const auto at = static_cast<std::size_t>(
        std::mismatch(next.begin(), next.begin() + std::min(n, m),
                      last.demands.begin())
            .first -
        next.begin());
    if (m == n && at == n) {
      ++counts_.reused;
      return last.plan;
    }
    // The demands after the one differing entry must line up again:
    // shifted by one when that entry was inserted or removed.
    const auto rest_matches = [&](std::size_t next_from,
                                  std::size_t last_from) {
      return std::equal(next.begin() + next_from, next.end(),
                        last.demands.begin() + last_from, last.demands.end());
    };
    if ((m == n && next[at].si_index == last.demands[at].si_index &&
         rest_matches(at + 1, at + 1)) ||
        (m == n + 1 && rest_matches(at + 1, at)) ||
        (m + 1 == n && rest_matches(at, at + 1))) {
      replay(at, containers);
      last.demands.swap(next);
      return last.plan;
    }
  }

  auto& table = reset_table(library().catalog().size());
  for (const auto& d : next) add_run(table, library(), d, nullptr);
  last.plan.steps.clear();
  last.winners.clear();
  last.bests.clear();
  continue_plan(table, 0, containers, last.plan, last.bests, last.winners);
  last.valid = true;
  last.containers = containers;
  last.demands.swap(next);
  ++counts_.full;
  return last.plan;
}

void GreedySelector::replay(std::size_t at, std::uint64_t containers) const {
  const auto& next = next_demands_;
  auto& last = last_;
  const auto n = last.demands.size();
  const auto m = next.size();
  // New run index → the certificate's, for every run but the changed one;
  // the certificate's winner → its new index (kNone once removed).
  const auto old_of = [&](std::size_t r) { return r < at ? r : r + n - m; };
  const auto new_of = [&](std::uint32_t r) -> std::uint32_t {
    if (r < at) return r;
    if (r == at && m < n) return kNone;
    return static_cast<std::uint32_t>(r + m - n);
  };
  const bool changed = m >= n;  // run `at` is new or re-weighted

  // The changed run alone, its k kept against the replayed target.
  auto& table = reset_table(library().catalog().size());
  if (changed) add_run(table, library(), next[at], nullptr);

  auto& bests = next_bests_;
  bests.clear();
  std::uint64_t used = 0;
  const auto steps = last.plan.steps.size();
  for (std::size_t s = 0;; ++s) {
    const auto* cached = last.bests.data() + s * n;
    const auto row0 = bests.size();
    std::uint32_t w = kNone;
    for (std::size_t r = 0; r < m; ++r) {
      bests.push_back(changed && r == at
                          ? run_best(table, table.runs[0], used, containers)
                          : cached[old_of(r)]);
      if (bests.back().option != kNone &&
          (w == kNone || bests.back().gain > bests[row0 + w].gain))
        w = static_cast<std::uint32_t>(r);
    }
    const bool kept =
        s == steps ? w == kNone
                   : w != kNone && w == new_of(last.winners[s]) &&
                         bests[row0 + w].option ==
                             cached[last.winners[s]].option;
    if (!kept) {
      // Replan from step s: the candidate table, its k against the target
      // the kept steps reached.
      last.plan.steps.resize(s);
      last.winners.resize(s);
      bests.resize(row0);
      table.rows.clear();
      table.runs.clear();
      for (const auto& d : next) add_run(table, library(), d, nullptr);
      continue_plan(table, used, containers, last.plan, bests, last.winners);
      if (counts_.diverged_at.size() <= s) counts_.diverged_at.resize(s + 1);
      ++counts_.diverged_at[s];
      break;
    }
    if (s == steps) {
      ++counts_.replayed;
      break;
    }

    last.winners[s] = w;
    auto& step = last.plan.steps[s];
    if (changed && w == at) {
      step.gain_per_container = bests[row0 + w].gain;
      step.old_cycles = bests[row0 + w].current;
      step.task = next[at].task;
    }
    const auto add = step.additional.counts();
    for (std::size_t i = 0; i < add.size(); ++i)
      if (add[i] > 0) {
        used += add[i];
        raise(table, i, static_cast<atom::Count>(table.target[i] + add[i]));
      }
  }
  last.bests.swap(bests);
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
