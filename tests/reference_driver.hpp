#pragma once
/// The seed simulator's run loop, kept as a test-only differential oracle
/// for sim::Simulator.
///
/// Deliberately plain and written only against RisppManager's public API:
/// it scans the task vector linearly for the next runnable task and polls
/// the manager at every task switch, the way the seed did. There is no
/// runnable ring, no cached wakeup horizon and no state_generation() key —
/// everything the fast loop optimises away is done the slow, obvious way
/// here, so any divergence points at the fast loop's shortcuts.
///
/// Shared with the simulator: the TaskSwitch suppression rule (a switch is
/// announced only when the task's next quantum consumes cycles), Labels
/// going to the timeline, and the end-of-run settle poll + flush.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/simulator.hpp"

namespace reference_driver {

class ReferenceDriver {
 public:
  ReferenceDriver(std::shared_ptr<const rispp::isa::SiLibrary> lib,
                  const rispp::sim::SimConfig& cfg)
      : lib_(std::move(lib)), quantum_(cfg.quantum), manager_(lib_, cfg.rt) {}

  void add_task(rispp::sim::TaskDef def) { tasks_.push_back({std::move(def)}); }

  rispp::rt::RisppManager& manager() { return manager_; }

  rispp::sim::SimResult run() {
    using rispp::sim::TraceOp;
    rispp::sim::SimResult result;
    std::size_t current = 0;
    int last_task = -1;
    while (any_running()) {
      while (tasks_[current].done()) current = (current + 1) % tasks_.size();
      Task& task = tasks_[current];
      const int task_id = static_cast<int>(current);
      if (task_id != last_task && task.has_work()) {
        manager_.emit_host_event({.at = now_,
                                  .kind = rispp::obs::EventKind::TaskSwitch,
                                  .task = task_id});
        last_task = task_id;
      }
      manager_.poll(now_);

      std::uint64_t budget = quantum_;
      while (budget > 0 && !task.done()) {
        const TraceOp& op = task.def.trace[task.op];
        switch (op.kind) {
          case TraceOp::Kind::Compute: {
            const std::uint64_t step =
                std::min(op.cycles - task.progress, budget);
            now_ += step;
            task.busy += step;
            budget -= step;
            task.progress += step;
            if (task.progress >= op.cycles) task.next_op();
            break;
          }
          case TraceOp::Kind::Si: {
            const auto exec = manager_.execute(op.si_index, now_, task_id);
            now_ += exec.cycles;
            task.busy += exec.cycles;
            budget -= std::min<std::uint64_t>(budget, exec.cycles);
            auto& stats = result.per_si[lib_->at(op.si_index).name()];
            ++stats.invocations;
            exec.hardware ? ++stats.hw_invocations : ++stats.sw_invocations;
            stats.total_cycles += exec.cycles;
            if (++task.progress >= op.count) task.next_op();
            break;
          }
          case TraceOp::Kind::Forecast:
            manager_.forecast(op.si_index, op.expected, op.probability, now_,
                              task_id);
            task.next_op();
            break;
          case TraceOp::Kind::Release:
            manager_.forecast_release(op.si_index, now_, task_id);
            task.next_op();
            break;
          case TraceOp::Kind::Label:
            result.timeline.push_back({now_, task.def.name, op.text});
            task.next_op();
            break;
        }
      }
      current = (current + 1) % tasks_.size();
    }

    result.total_cycles = now_;
    for (const auto& t : tasks_) result.task_cycles[t.def.name] = t.busy;
    // Counted before the settle poll, as the seed did.
    result.rotations = manager_.rotations_performed();
    manager_.poll(now_);
    manager_.flush_events();
    const auto& e = manager_.energy();
    result.energy_execution_nj = e.execution_nj();
    result.energy_rotation_nj = e.rotation_nj();
    result.energy_leakage_nj = e.leakage_nj();
    result.energy_total_nj = e.total_nj();
    return result;
  }

 private:
  struct Task {
    rispp::sim::TaskDef def;
    std::size_t op = 0;
    std::uint64_t progress = 0;  ///< consumed cycles / SI repetitions
    rispp::rt::Cycle busy = 0;

    bool done() const { return op >= def.trace.size(); }
    void next_op() {
      ++op;
      progress = 0;
    }
    /// True when some remaining op consumes cycles: an SI, or a compute
    /// interval of non-zero length.
    bool has_work() const {
      for (std::size_t i = op; i < def.trace.size(); ++i) {
        const auto& o = def.trace[i];
        if (o.kind == rispp::sim::TraceOp::Kind::Si ||
            (o.kind == rispp::sim::TraceOp::Kind::Compute && o.cycles > 0))
          return true;
      }
      return false;
    }
  };

  bool any_running() const {
    for (const auto& t : tasks_)
      if (!t.done()) return true;
    return false;
  }

  std::shared_ptr<const rispp::isa::SiLibrary> lib_;
  std::uint64_t quantum_;
  rispp::rt::RisppManager manager_;
  std::vector<Task> tasks_;
  rispp::rt::Cycle now_ = 0;
};

}  // namespace reference_driver
