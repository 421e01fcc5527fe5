#include "rispp/rt/manager.hpp"

#include <limits>
#include <utility>

#include "rispp/util/error.hpp"
#include "rispp/util/log.hpp"

namespace rispp::rt {

namespace {

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

std::shared_ptr<const isa::SiLibrary> require_library(
    std::shared_ptr<const isa::SiLibrary> lib) {
  RISPP_REQUIRE(lib != nullptr, "manager needs an SI library");
  return lib;
}

}  // namespace

void validate(const RtConfig& cfg) {
  RISPP_REQUIRE(cfg.atom_containers > 0, "need at least one atom container");
  RISPP_REQUIRE(cfg.clock_mhz > 0, "clock must be positive");
  RISPP_REQUIRE(cfg.learning_rate >= 0 && cfg.learning_rate <= 1,
                "learning_rate must be in [0,1]");
  RISPP_REQUIRE(cfg.rotation_cost_factor >= 0,
                "rotation_cost_factor must be non-negative");
  if (!selection_policy_registered(cfg.selection_policy))
    throw util::PreconditionError(
        "unknown selection policy '" + cfg.selection_policy +
        "' in RtConfig (registered: " + joined(selection_policy_names()) +
        ")");
  if (!replacement_policy_registered(cfg.replacement_policy))
    throw util::PreconditionError(
        "unknown replacement policy '" + cfg.replacement_policy +
        "' in RtConfig (registered: " + joined(replacement_policy_names()) +
        ")");
}

RisppManager::RisppManager(std::shared_ptr<const isa::SiLibrary> lib,
                           RtConfig cfg)
    : lib_(require_library(std::move(lib))),
      cfg_((validate(cfg), std::move(cfg))),
      containers_(cfg_.atom_containers, lib_->catalog()),
      rotations_(hw::FaultyReconfigPort(cfg_.port, cfg_.faults),
                 cfg_.clock_mhz),
      selector_(cfg_.selection_policy, *lib_),
      replacer_(cfg_.replacement_policy),
      energy_(cfg_.power, cfg_.clock_mhz),
      batch_(cfg_.sink),
      merged_(lib_->size()),
      executions_(lib_->size()),
      exec_memo_(lib_->size()) {}

void RisppManager::forecast(std::size_t si, double expected_executions,
                            double probability, Cycle now, int task) {
  RISPP_REQUIRE(si < lib_->size(), "SI index out of range");
  RISPP_REQUIRE(expected_executions >= 0, "expectation must be non-negative");
  RISPP_REQUIRE(probability > 0 && probability <= 1,
                "probability must be in (0,1]");

  // Monitoring (a): blend the compile-time value with what previous
  // forecast→release windows actually observed.
  double expectation = expected_executions;
  if (const auto it = learned_.find(si); it != learned_.end())
    expectation = cfg_.learning_rate * it->second +
                  (1.0 - cfg_.learning_rate) * expected_executions;

  auto& state = active_[{si, task}];
  state.demand = ForecastDemand{si, expectation, probability, task};
  state.execution_mark = executions_[si];
  refold(si);
  ++demand_generation_;  // dirties the cached plan

  counters_.bump("forecasts");
  if (batch_.enabled())
    batch_.emit({.at = now,
                 .kind = obs::EventKind::ForecastSeen,
                 .task = task,
                 .si = static_cast<std::int64_t>(si)});
  RISPP_DEBUG << "forecast " << lib_->at(si).name() << " E=" << expectation
              << " p=" << probability << " @" << now;
  reallocate(now);
}

void RisppManager::forecast_release(std::size_t si, Cycle now, int task) {
  const auto it = active_.find({si, task});
  if (it == active_.end()) return;

  // Learn from this window: what did the SI actually execute?
  const double observed =
      static_cast<double>(executions_[si] - it->second.execution_mark);
  if (const auto l = learned_.find(si); l != learned_.end())
    l->second = cfg_.learning_rate * observed +
                (1.0 - cfg_.learning_rate) * l->second;
  else
    learned_[si] = observed;

  active_.erase(it);
  refold(si);
  ++demand_generation_;  // dirties the cached plan
  counters_.bump("forecast_releases");
  if (batch_.enabled())
    batch_.emit({.at = now,
                 .kind = obs::EventKind::ForecastReleased,
                 .task = task,
                 .si = static_cast<std::int64_t>(si)});
  reallocate(now);
}

void RisppManager::on_fc_block(const forecast::FcBlock& block, Cycle now,
                               int task) {
  for (const auto& p : block.points)
    forecast(p.si_index, p.expected_executions, p.probability, now, task);
}

void RisppManager::process_failures(Cycle now) {
  // O(1) out in the fault-free common case — execute() pays one branch
  // instead of a take_failures() call per invocation.
  if (!rotations_.has_pending_failures()) return;
  for (const auto& b : rotations_.take_failures(now)) {
    const bool quarantined = containers_.on_rotation_failed(
        b.container, b.atom_kind, b.done, cfg_.max_rotation_retries,
        cfg_.retry_backoff_cycles);
    // The transfer's energy was really spent — no refund, unlike a cancel.
    counters_.bump("rotations_failed");
    if (b.result == hw::TransferResult::Poisoned)
      counters_.bump("rotations_poisoned");
    failed_since_plan_ = true;
    ++state_generation_;  // the failed booking left the timeline; a backoff
                          // (or quarantine) changed the unblock horizon
    if (batch_.enabled())
      batch_.emit({.at = b.done,
                   .kind = obs::EventKind::RotationFailed,
                   .container = static_cast<std::int32_t>(b.container),
                   .atom = static_cast<std::int64_t>(b.atom_kind),
                   .cycles = b.done - b.start,
                   // identifies the span whose transfer this was
                   .prev_cycles = b.start});
    if (quarantined) {
      counters_.bump("acs_quarantined");
      if (batch_.enabled())
        batch_.emit({.at = b.done,
                     .kind = obs::EventKind::AcQuarantined,
                     .container = static_cast<std::int32_t>(b.container)});
      RISPP_DEBUG << "AC " << b.container << " quarantined @" << b.done;
    } else {
      counters_.bump("rotation_retries");
    }
  }
}

void RisppManager::reallocate(Cycle now) {
  process_failures(now);
  containers_.refresh(now);
  energy_.advance_leakage(now, loaded_slices());
  counters_.bump("reallocations");

  // --- plan stage (cached) -------------------------------------------
  // The plan is a pure function of the demand set, so it only goes stale
  // when a forecast fired/released (generation counter), a rotation
  // completed since it was computed (a blocked issue stage may unblock,
  // see docs/observability.md), a rotation failed (its load must be
  // re-issued or planned around), or a fault-backoff window expired (its
  // container became targetable again). Otherwise nothing downstream can
  // act: victims unblock only at those points, committed atoms change only
  // here.
  const bool stale = plan_generation_ != demand_generation_ ||
                     rotations_.completed_in(plan_time_, now) ||
                     failed_since_plan_ ||
                     containers_.unblocked_in(plan_time_, now);
  if (stale) {
    failed_since_plan_ = false;

    const auto demands = active_demands();
    // Plan against the in-service AC budget: quarantined containers are
    // gone for good, so the selector must not count on their slots.
    plan_ = selector_.plan(demands, containers_.usable_count());
    plan_generation_ = demand_generation_;
    plan_time_ = now;
    counters_.bump("selector_plans");

    // --- gate / cancel-stale / issue stages ---------------------------
    if (gate_passes(demands)) {
      if (cfg_.cancel_stale_rotations) cancel_stale(now);
      issue(now);
    }
  }
  // Reallocations are the batch's flush boundary: every forecast, release
  // and poll hands the buffered run to the sink here, so an attached
  // profiler/recorder is never more than one poll behind.
  batch_.flush();
}

bool RisppManager::gate_passes(
    const std::vector<ForecastDemand>& demands) const {
  // Cost-aware gate: skip the whole reconfiguration when the expected gain
  // over the *current* configuration does not pay for the transfers.
  if (cfg_.rotation_cost_factor <= 0.0) return true;
  const auto& current = containers_.committed_atoms();
  const double gain = selector_.benefit(plan_.target, demands) -
                      selector_.benefit(current, demands);
  const auto needed =
      lib_->catalog().project_rotatable(current).residual_to(plan_.target);
  double cost_cycles = 0;
  for (std::size_t k = 0; k < needed.dimension(); ++k)
    if (needed[k] > 0)
      cost_cycles += static_cast<double>(needed[k]) *
                     static_cast<double>(
                         rotations_.duration_cycles(k, lib_->catalog()));
  return !(cost_cycles > 0 && gain <= cfg_.rotation_cost_factor * cost_cycles);
}

void RisppManager::cancel_stale(Cycle now) {
  // Cancel queued transfers the new plan no longer wants: the port slot is
  // lost, but the container frees immediately and the stale atom never
  // occupies it. The RotationFinished emitted at issue time stays in the
  // stream; the RotationCancelled below names its span by (container,
  // start), so consumers drop it.
  for (unsigned c = 0; c < containers_.size(); ++c) {
    const auto pending = rotations_.pending_for(c, now);
    if (!pending) continue;
    const auto kind = pending->atom_kind;
    if (containers_.committed_atoms()[kind] <= plan_.target[kind])
      continue;  // still wanted
    if (!rotations_.cancel_pending(c, now)) continue;
    containers_.abort_rotation(c);
    energy_.refund_rotation(pending->done - pending->start);
    counters_.bump("rotations_cancelled");
    ++state_generation_;  // a completion point left the timeline
    if (batch_.enabled())
      batch_.emit({.at = now,
                   .kind = obs::EventKind::RotationCancelled,
                   .container = static_cast<std::int32_t>(c),
                   .atom = static_cast<std::int64_t>(kind),
                   .cycles = pending->done - pending->start,
                   // identifies the span that will never happen
                   .prev_cycles = pending->start});
  }
}

void RisppManager::issue(Cycle now) {
  // Issue rotations in greedy step order — most valuable upgrades first —
  // so SIs come online gradually (minimal Molecule before refinements).
  // `cum` is the configuration the plan wants after each step; rotations
  // fill the gap between it and what the containers are committed to.
  atom::Molecule cum(lib_->catalog().size());
  for (const auto& step : plan_.steps) {
    cum = cum.plus(step.additional);
    for (std::size_t kind = 0; kind < cum.dimension(); ++kind) {
      while (containers_.committed_atoms()[kind] < cum[kind]) {
        const auto victim =
            containers_.choose_victim(plan_.target, now, replacer_);
        if (!victim) return;  // all remaining containers busy or needed;
                              // the next wakeup or forecast event retries
        const auto& vc = containers_.at(*victim);
        const auto evicted = vc.loading ? vc.loading : vc.atom;
        const auto booking =
            rotations_.schedule(now, kind, lib_->catalog(), *victim);
        containers_.start_rotation(*victim, kind, booking.done, step.task);
        ++state_generation_;  // a new completion point entered the timeline
        // Energy covers the actual transfer window (bandwidth degradation
        // stretches it); identical to the nominal duration when fault-free.
        energy_.add_rotation(booking.done - booking.start);
        counters_.bump("rotations");
        if (booking.done - booking.start >
            rotations_.duration_cycles(kind, lib_->catalog()))
          counters_.bump("rotations_degraded");
        if (batch_.enabled()) {
          if (evicted)
            batch_.emit({.at = now,
                         .kind = obs::EventKind::AtomEvicted,
                         .task = step.task,
                         .container = static_cast<std::int32_t>(*victim),
                         .atom = static_cast<std::int64_t>(*evicted)});
          // The span covers the actual transfer window [start, done) — the
          // hw::ReconfigPort latency — not the queueing delay before it.
          // prev_cycles carries the booking cycle so consumers can separate
          // port queueing (booked → start) from the transfer itself.
          const obs::Event span{.at = booking.start,
                                .kind = obs::EventKind::RotationStarted,
                                .task = step.task,
                                .container = static_cast<std::int32_t>(*victim),
                                .si = static_cast<std::int64_t>(step.si_index),
                                .atom = static_cast<std::int64_t>(kind),
                                .cycles = booking.done - booking.start,
                                .prev_cycles = now};
          batch_.emit(span);
          // Only a clean transfer gets its RotationFinished at issue time; a
          // faulty booking's terminal event is the RotationFailed that
          // process_failures emits when the transfer window ends.
          if (booking.result == hw::TransferResult::Ok) {
            obs::Event fin = span;
            fin.at = booking.done;
            fin.kind = obs::EventKind::RotationFinished;
            batch_.emit(fin);
          }
        }
      }
    }
  }
}

void RisppManager::poll(Cycle now) { reallocate(now); }

RisppManager::ExecResult RisppManager::execute(std::size_t si, Cycle now,
                                               int task) {
  RISPP_REQUIRE(si < lib_->size(), "SI index out of range");
  process_failures(now);  // a poisoned load must never execute an SI
  containers_.refresh(now);
  energy_.advance_leakage(now, loaded_slices());

  // Monitoring: an execution counts against every active window for this
  // SI (the task parameter attributes container ownership, not usage);
  // each window reads its count off this clock against its mark.
  ++executions_[si];

  // Fastest-supported lookup, allocation-free: right after refresh(now) the
  // incremental usable_atoms() view equals available_atoms(now), the
  // candidate projections come from the library's precomputed table, and
  // the winner is memoized on the usable-atom generation — between
  // rotations the scan reduces to one integer compare.
  const auto& instr = lib_->at(si);
  const auto& options = instr.options();
  const auto projected = lib_->rotatable_options(si);
  auto& memo = exec_memo_[si];
  const auto generation = containers_.usable_generation();
  if (!memo.valid || memo.generation != generation) {
    const auto& usable = containers_.usable_atoms();
    std::optional<std::size_t> best;
    for (std::size_t o = 0; o < options.size(); ++o)
      if (projected[o].leq(usable) &&
          (!best || options[o].cycles < options[*best].cycles))
        best = o;
    memo.best = best;
    memo.generation = generation;
    memo.valid = true;
  }

  ExecResult res;
  if (memo.best) {
    const auto& chosen = options[*memo.best];
    res = {chosen.cycles, true, &chosen};
    energy_.add_execution(chosen.cycles, true);
    containers_.touch(projected[*memo.best], now);
    counters_.bump("si_exec_hw");
  } else {
    res = {instr.software_cycles(), false, nullptr};
    energy_.add_execution(instr.software_cycles(), false);
    counters_.bump("si_exec_sw");
  }
  if (batch_.enabled()) {
    batch_.emit({.at = now,
                 .kind = obs::EventKind::SiExecuted,
                 .task = task,
                 .si = static_cast<std::int64_t>(si),
                 .cycles = res.cycles,
                 .hardware = res.hardware});
    // Upgrade detection is keyed per (SI, task): a task's first execution
    // of an SI is an observation, not an upgrade, even when another task
    // already ran the same SI at a different speed.
    auto& last = last_exec_cycles_[{si, task}];
    if (last != 0 && last != res.cycles)
      batch_.emit({.at = now,
                   .kind = obs::EventKind::MoleculeUpgraded,
                   .task = task,
                   .si = static_cast<std::int64_t>(si),
                   .cycles = res.cycles,
                   .prev_cycles = last,
                   .hardware = res.hardware});
    last = res.cycles;
  }
  return res;
}

atom::Molecule RisppManager::available_atoms(Cycle now) {
  process_failures(now);
  containers_.refresh(now);
  return containers_.available_atoms(now);
}

void RisppManager::refold(std::size_t si) {
  // Aggregate per SI: weights (expectation × probability) sum across tasks;
  // ownership goes to the heaviest contributor. active_ is ordered by
  // (si, task), so the SI's windows form one run and merge in task order.
  auto& merged = merged_[si];
  merged.reset();
  for (auto it = active_.lower_bound({si, std::numeric_limits<int>::min()});
       it != active_.end() && it->first.first == si; ++it) {
    const auto& d = it->second.demand;
    if (!merged) {
      merged = d;
      // Normalize so weight() is preserved under probability = 1.
      merged->expected_executions = d.weight();
      merged->probability = 1.0;
      continue;
    }
    if (d.weight() > merged->expected_executions) merged->task = d.task;
    merged->expected_executions += d.weight();
  }
}

std::vector<ForecastDemand> RisppManager::active_demands() const {
  std::vector<ForecastDemand> out;
  out.reserve(lib_->size());
  for (const auto& merged : merged_)
    if (merged) out.push_back(*merged);
  return out;
}

std::optional<double> RisppManager::learned_expectation(std::size_t si) const {
  const auto it = learned_.find(si);
  if (it == learned_.end()) return std::nullopt;
  return it->second;
}

}  // namespace rispp::rt
