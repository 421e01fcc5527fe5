/// Microbenchmark — the reallocation kernel's hot path under forecast-heavy
/// multi-task load.
///
/// The seed run-time re-ran the full greedy selector on every forecast(),
/// forecast_release() *and* poll(): with a small quantum the per-task-switch
/// polls dominate, so the selector executed once per kernel entry even when
/// nothing changed. Two independent layers now remove that work:
///   1. the kernel caches the SelectionPlan behind a demand-generation
///      counter and re-plans only when a forecast fired or a rotation
///      completed (visible even under seed-style every-switch polling),
///   2. the simulator polls via rotation-completion wakeups instead of at
///      every task switch, so most kernel entries never happen at all.
///
/// The bench replays an encoder+decoder co-run with a deliberately small
/// quantum in both driving modes. `seed_baseline_plan_invocations` is the
/// number of kernel entries under every-switch polling — the seed planned
/// unconditionally on each of them. Results go to stdout and
/// BENCH_realloc.json (numbers recorded in EXPERIMENTS.md).

#include <chrono>
#include <fstream>
#include <iostream>

#include "rispp/bench/meta_block.hpp"
#include "rispp/h264/phases.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

namespace {

struct Run {
  std::uint64_t total_cycles = 0;
  std::uint64_t rotations = 0;
  std::uint64_t kernel_entries = 0;  ///< "reallocations" counter
  std::uint64_t plans = 0;           ///< "selector_plans" counter
  double wall_ms = 0;
};

Run run_mode(rispp::sim::Driving driving) {
  const auto lib = rispp::isa::SiLibrary::h264_frame();
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 10;
  cfg.quantum = 2000;  // forecast/poll pressure: many switches per phase
  cfg.driving = driving;

  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::h264::PhaseTraceParams p;
  p.frames = 4;
  p.macroblocks_per_frame = 99;
  sim.add_task({"enc", rispp::h264::make_phase_trace(
                           lib, p, rispp::h264::fig1_phases())});
  sim.add_task({"dec", rispp::h264::make_phase_trace(
                           lib, p, rispp::h264::decoder_phases())});

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  Run out;
  out.total_cycles = r.total_cycles;
  out.rotations = r.rotations;
  out.kernel_entries = sim.manager().counters().get("reallocations");
  out.plans = sim.manager().counters().get("selector_plans");
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  const char* out_path = "BENCH_realloc.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = argv[i] + 6;
  }

  const auto polled = run_mode(rispp::sim::Driving::PollEverySwitch);
  const auto wakeup = run_mode(rispp::sim::Driving::Wakeups);

  TextTable t{"metric", "every-switch polling", "rotation wakeups"};
  t.set_title("Reallocation hot path (enc+dec co-run, quantum 2000)");
  auto g = [](std::uint64_t v) {
    return TextTable::grouped(static_cast<long long>(v));
  };
  t.add_row({"simulated cycles", g(polled.total_cycles),
             g(wakeup.total_cycles)});
  t.add_row({"rotations", g(polled.rotations), g(wakeup.rotations)});
  t.add_row({"kernel entries", g(polled.kernel_entries),
             g(wakeup.kernel_entries)});
  t.add_row({"selector plan() runs", g(polled.plans), g(wakeup.plans)});
  t.add_row({"wall time [ms]", TextTable::num(polled.wall_ms, 2),
             TextTable::num(wakeup.wall_ms, 2)});
  std::cout << t.str();
  std::cout << "(seed planned on every kernel entry: "
            << g(polled.kernel_entries) << " plans for this scenario; the "
            << "plan cache needs " << g(polled.plans)
            << " even under the same polling, wakeups cut entries to "
            << g(wakeup.kernel_entries) << ")\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"meta\": " << rispp::bench::meta_block("realloc_hot_path")
       << ",\n"
       << "  \"scenario\": \"h264_enc_dec_corun\",\n"
       << "  \"atom_containers\": 10,\n"
       << "  \"quantum\": 2000,\n"
       << "  \"simulated_cycles\": " << wakeup.total_cycles << ",\n"
       << "  \"rotations\": " << wakeup.rotations << ",\n"
       << "  \"seed_baseline_plan_invocations\": " << polled.kernel_entries
       << ",\n"
       << "  \"polled_mode\": {\"kernel_entries\": " << polled.kernel_entries
       << ", \"selector_plan_invocations\": " << polled.plans
       << ", \"wall_time_ms\": " << polled.wall_ms << "},\n"
       << "  \"wakeup_mode\": {\"kernel_entries\": " << wakeup.kernel_entries
       << ", \"selector_plan_invocations\": " << wakeup.plans
       << ", \"wall_time_ms\": " << wakeup.wall_ms << "}\n"
       << "}\n";
  std::cout << "Wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
