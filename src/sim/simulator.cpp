#include "rispp/sim/simulator.hpp"

#include <algorithm>

#include "rispp/util/error.hpp"

namespace rispp::sim {

const SiStats& SimResult::si(const std::string& name) const {
  const auto it = per_si.find(name);
  RISPP_REQUIRE(it != per_si.end(), "no stats for SI: " + name);
  return it->second;
}

Simulator::Simulator(std::shared_ptr<const isa::SiLibrary> lib, SimConfig cfg)
    : lib_(std::move(lib)), cfg_(cfg), manager_(lib_, cfg.rt) {
  RISPP_REQUIRE(lib_ != nullptr, "simulator needs an SI library");
  RISPP_REQUIRE(cfg.quantum > 0, "quantum must be positive");
}

void Simulator::add_task(TaskDef task) {
  RISPP_REQUIRE(!task.name.empty(), "task needs a name");
  for (const auto& op : task.trace)
    if (op.kind == TraceOp::Kind::Si || op.kind == TraceOp::Kind::Forecast ||
        op.kind == TraceOp::Kind::Release)
      RISPP_REQUIRE(op.si_index < lib_->size(),
                    "trace references unknown SI in task " + task.name);
  // Precompute where the cycle-consuming tail of the trace ends (see
  // TaskState::work_end): run() gates TaskSwitch emission on it.
  std::size_t work_end = 0;
  for (std::size_t i = task.trace.size(); i-- > 0;) {
    const auto& op = task.trace[i];
    if (op.kind == TraceOp::Kind::Si ||
        (op.kind == TraceOp::Kind::Compute && op.cycles > 0)) {
      work_end = i + 1;
      break;
    }
  }
  tasks_.push_back(TaskState{std::move(task), 0, 0, 0, work_end});
}

SimResult Simulator::run() {
  SimResult result;
  // Per-SI stats by index during the run; folded into the name-keyed map at
  // the end. The seed did a string-keyed map lookup per SI invocation.
  std::vector<SiStats> si_stats(lib_->size());

  // Runnable-task ring: circular doubly-linked list (index arrays) over the
  // not-yet-finished tasks, in task-id order — the round-robin order of the
  // seed's linear scan. Advancing is one hop; a finished task unlinks in
  // O(1). Built fresh per run() (a re-run may start with finished tasks).
  const std::size_t n = tasks_.size();
  std::vector<std::size_t> ring_next(n), ring_prev(n);
  std::size_t runnable = 0;
  std::size_t current = 0;
  {
    std::vector<std::size_t> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (!tasks_[i].done()) ids.push_back(i);
    runnable = ids.size();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ring_next[ids[k]] = ids[(k + 1) % ids.size()];
      ring_prev[ids[k]] = ids[(k + ids.size() - 1) % ids.size()];
    }
    if (!ids.empty()) current = ids.front();
  }

  int last_task = -1;
  while (runnable > 0) {
    TaskState& task = tasks_[current];
    const int task_id = static_cast<int>(current);
    // Announce the switch only when this quantum will consume cycles: a
    // task whose remaining trace is pure bookkeeping (forecasts, releases,
    // labels) finishes inside this slice without occupying the core, and
    // the seed's zero-length TaskSwitch record for it mis-attributed an
    // empty interval. A suppressed switch leaves last_task alone, so the
    // stream reads as if the previous task ran straight through. Routed
    // through the manager's emission batch to keep one ordered stream.
    if (task_id != last_task && task.has_work()) {
      manager_.emit_host_event({.at = now_,
                                .kind = obs::EventKind::TaskSwitch,
                                .task = task_id});
      last_task = task_id;
    }

    // Wakeup-driven reallocation retry: between rotation completions a poll
    // cannot change the platform state (victims unblock only when a
    // transfer finishes; committed atoms change only inside the manager),
    // so only poll when a completion landed since the last check. The seed
    // polled at every switch; sim_reference_test checks both give the same
    // event stream (docs/observability.md). The horizon itself is cached
    // against the manager's state generation (see cached_wake_) instead of
    // recomputed every switch.
    const auto generation = manager_.state_generation();
    if (!wake_valid_ || wake_generation_ != generation) {
      cached_wake_ = manager_.next_wakeup(wakeup_checked_);
      wake_generation_ = generation;
      wake_valid_ = true;
    }
    if (cached_wake_ && *cached_wake_ <= now_) {
      manager_.poll(now_);
      // The poll may book or cancel rotations and wakeup_checked_ moves
      // past the cached horizon — recompute at the next switch.
      wake_valid_ = false;
    }
    wakeup_checked_ = now_;

    // Run this task for up to one quantum of busy cycles.
    std::uint64_t budget = cfg_.quantum;
    while (budget > 0 && !task.done()) {
      TraceOp& op = task.def.trace[task.op];
      switch (op.kind) {
        case TraceOp::Kind::Compute: {
          const std::uint64_t remaining = op.cycles - task.op_progress;
          const std::uint64_t step = std::min(remaining, budget);
          now_ += step;
          task.busy += step;
          budget -= step;
          task.op_progress += step;
          if (task.op_progress >= op.cycles) {
            ++task.op;
            task.op_progress = 0;
          }
          break;
        }
        case TraceOp::Kind::Si: {
          const auto exec = manager_.execute(op.si_index, now_, task_id);
          now_ += exec.cycles;
          task.busy += exec.cycles;
          budget -= std::min<std::uint64_t>(budget, exec.cycles);
          auto& stats = si_stats[op.si_index];
          ++stats.invocations;
          exec.hardware ? ++stats.hw_invocations : ++stats.sw_invocations;
          stats.total_cycles += exec.cycles;
          if (++task.op_progress >= op.count) {
            ++task.op;
            task.op_progress = 0;
          }
          break;
        }
        case TraceOp::Kind::Forecast:
          manager_.forecast(op.si_index, op.expected, op.probability, now_,
                            task_id);
          ++task.op;
          break;
        case TraceOp::Kind::Release:
          manager_.forecast_release(op.si_index, now_, task_id);
          ++task.op;
          break;
        case TraceOp::Kind::Label:
          result.timeline.push_back({now_, task.def.name, op.text});
          ++task.op;
          break;
      }
    }

    const std::size_t following = ring_next[current];
    if (task.done()) {
      --runnable;
      ring_next[ring_prev[current]] = following;
      ring_prev[following] = ring_prev[current];
    }
    current = following;
  }

  result.total_cycles = now_;
  for (const auto& t : tasks_) result.task_cycles[t.def.name] = t.busy;
  for (std::size_t i = 0; i < si_stats.size(); ++i)
    if (si_stats[i].invocations > 0)
      result.per_si[lib_->at(i).name()] = si_stats[i];
  result.rotations = manager_.rotations_performed();
  manager_.poll(now_);  // settle leakage integration up to the end of time
  manager_.flush_events();  // batched emissions reach the sink before return
  wake_valid_ = false;      // the settle poll moved the scheduling state
  const auto& e = manager_.energy();
  result.energy_execution_nj = e.execution_nj();
  result.energy_rotation_nj = e.rotation_nj();
  result.energy_leakage_nj = e.leakage_nj();
  result.energy_total_nj = e.total_nj();
  return result;
}

}  // namespace rispp::sim
