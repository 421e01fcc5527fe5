/// Kernel-throughput headline — simulated cycles per wall-clock second.
///
/// ROADMAP item 2's metric: how fast does the simulator kernel itself run?
/// The bench replays the Fig-6 two-task scenario (the same workload every
/// golden trace and the profiler bench use) plus a many-task contention
/// scenario along a task-count axis (64, 512, 2048 and 8192 simulated
/// tasks), and reports simulated cycles / second, best-of-N so scheduler
/// noise on a shared host is filtered out. Results go to stdout and
/// BENCH_kernel.json; CI runs the `--quick` smoke so the numbers stay wired.
///
/// Configurations measured per scenario:
///   * fast    — the kernel (runnable-ring scheduler, cached wakeup
///               horizon, devirtualized policy dispatch, batched emission),
///   * sink    — the same kernel with a null EventSink attached (the
///               batched-emission path under load).
///
/// Behaviour is pinned elsewhere: the sim_reference tests check this
/// kernel against the seed-equivalent reference driver on both scenarios,
/// event for event, so this bench only measures.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "rispp/bench/meta_block.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

namespace {

using namespace rispp::sim;

struct NullSink final : rispp::obs::EventSink {
  void on_event(const rispp::obs::Event&) override {}
};

/// The exact Fig-6 scenario of bench/fig06_runtime_scenario.cpp.
void add_fig06_tasks(Simulator& sim, const rispp::isa::SiLibrary& lib) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto si0 = lib.index_of("HT_2x2");
  const auto si1 = lib.index_of("HT_4x4");
  Trace a;
  a.push_back(TraceOp::forecast(satd, 5000));
  for (int i = 0; i < 120; ++i) {
    a.push_back(TraceOp::compute(10000));
    a.push_back(TraceOp::si(satd, 50));
  }
  Trace b;
  b.push_back(TraceOp::forecast(si0, 50));
  b.push_back(TraceOp::compute(700000));
  b.push_back(TraceOp::si(si0, 20));
  b.push_back(TraceOp::forecast(si1, 2000000));
  for (int i = 0; i < 8; ++i) {
    b.push_back(TraceOp::compute(40000));
    b.push_back(TraceOp::si(si1, 100));
  }
  b.push_back(TraceOp::release(si1));
  b.push_back(TraceOp::si(si0, 20));
  sim.add_task({"A", std::move(a)});
  sim.add_task({"B", std::move(b)});
}

/// Many-task contention: `tasks` round-robin tasks, every fourth one a
/// short early finisher so the scheduler keeps running over a mixed
/// done/runnable task vector — the shape that exposes an O(T) task scan.
void add_many_tasks(Simulator& sim, const rispp::isa::SiLibrary& lib,
                    int tasks) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto dct = lib.index_of("DCT_4x4");
  for (int t = 0; t < tasks; ++t) {
    Trace tr;
    if (t % 4 == 0) {
      tr.push_back(TraceOp::compute(500));
    } else {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 200));
      for (int i = 0; i < 6; ++i) {
        tr.push_back(TraceOp::compute(2000));
        tr.push_back(TraceOp::si(t % 2 ? satd : dct, 5));
      }
      tr.push_back(TraceOp::release(t % 2 ? satd : dct));
    }
    sim.add_task({"t" + std::to_string(t), std::move(tr)});
  }
}

enum class Scenario { Fig06, ManyTask };

struct Measurement {
  std::uint64_t sim_cycles = 0;
  std::uint64_t rotations = 0;
  std::uint64_t plans = 0;  ///< selector plan() runs
  rispp::rt::GreedySelector::ReplayCounts replay;  ///< how they were answered
  double best_ms = 1e300;
  double cps = 0;  ///< simulated cycles per wall-clock second
};

Measurement measure(const rispp::isa::SiLibrary& lib, Scenario scenario,
                    int tasks, int reps, rispp::obs::EventSink* sink) {
  Measurement m;
  for (int i = 0; i < reps; ++i) {
    SimConfig cfg;
    cfg.rt.atom_containers = 6;
    cfg.quantum = 25000;
    cfg.rt.sink = sink;
    Simulator sim(borrow(lib), cfg);
    scenario == Scenario::Fig06 ? add_fig06_tasks(sim, lib)
                                : add_many_tasks(sim, lib, tasks);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.best_ms = std::min(m.best_ms, ms);
    m.sim_cycles = r.total_cycles;
    m.rotations = r.rotations;
    m.plans = sim.manager().counters().get("selector_plans");
    m.replay = dynamic_cast<const rispp::rt::GreedySelector&>(
                   sim.manager().selection_policy())
                   .replay_counts();
  }
  m.cps = m.best_ms > 0
              ? static_cast<double>(m.sim_cycles) / (m.best_ms / 1000.0)
              : 0;
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  const char* out_path = "BENCH_kernel.json";
  int reps = 40;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = argv[i] + 6;
    if (arg.rfind("--reps=", 0) == 0) reps = std::stoi(arg.substr(7));
    if (arg == "--quick") reps = 3;
  }
  // Simulated tasks, not threads: the simulator runs them all on one. The
  // 512-task point is the headline that the many_task_* fields report.
  const int kTaskAxis[] = {64, 512, 2048, 8192};

  const auto lib = rispp::isa::SiLibrary::h264();
  NullSink null_sink;

  const auto fig06 = measure(lib, Scenario::Fig06, 0, reps, nullptr);
  const auto fig06_sink = measure(lib, Scenario::Fig06, 0, reps, &null_sink);
  std::vector<std::pair<int, Measurement>> axis;
  for (const int tasks : kTaskAxis)
    axis.emplace_back(tasks,
                      measure(lib, Scenario::ManyTask, tasks, reps, nullptr));
  const auto& [many, mt] = axis[1];

  TextTable t{"scenario", "kernel", "sim cycles", "plans", "best wall [ms]",
              "Mcycles/s"};
  t.set_title("Kernel throughput (best of " + std::to_string(reps) +
              " runs)");
  const auto row = [&](const std::string& sc, const char* k,
                       const Measurement& m) {
    t.add_row({sc, k, TextTable::grouped(static_cast<long long>(m.sim_cycles)),
               TextTable::grouped(static_cast<long long>(m.plans)),
               TextTable::num(m.best_ms, 3), TextTable::num(m.cps / 1e6, 1)});
  };
  row("fig06", "fast", fig06);
  row("fig06", "fast+sink", fig06_sink);
  for (const auto& [tasks, m] : axis)
    row("many-task (" + std::to_string(tasks) + ")", "fast", m);
  std::cout << t.str();

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"meta\": " << rispp::bench::meta_block("kernel_throughput")
       << ",\n"
       << "  \"scenario\": \"fig06\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"fig06_sim_cycles\": " << fig06.sim_cycles << ",\n"
       << "  \"fig06_rotations\": " << fig06.rotations << ",\n"
       << "  \"fig06_cps\": " << fig06.cps << ",\n"
       << "  \"fig06_sink_cps\": " << fig06_sink.cps << ",\n"
       << "  \"many_task_count\": " << many << ",\n"
       << "  \"many_task_sim_cycles\": " << mt.sim_cycles << ",\n"
       << "  \"many_task_cps\": " << mt.cps << ",\n"
       << "  \"fig06_over_many_task\": "
       << (mt.cps > 0 ? fig06.cps / mt.cps : 0) << ",\n"
       << "  \"many_task_axis\": [";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    const auto& [tasks, m] = axis[i];
    json << (i ? "," : "") << "\n    {\"tasks\": " << tasks
         << ", \"sim_cycles\": " << m.sim_cycles
         << ", \"rotations\": " << m.rotations
         << ", \"selector_plans\": " << m.plans << ", \"plans_full\": "
         << m.replay.full << ", \"plans_reused\": " << m.replay.reused
         << ", \"plans_replayed\": " << m.replay.replayed
         << ", \"plans_diverged_at\": [";
    for (std::size_t s = 0; s < m.replay.diverged_at.size(); ++s)
      json << (s ? ", " : "") << m.replay.diverged_at[s];
    json << "], \"cps\": " << m.cps << "}";
  }
  json << "\n  ]\n"
       << "}\n";
  std::cout << "Wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
