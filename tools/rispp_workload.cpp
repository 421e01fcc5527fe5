/// rispp_workload — generate, inspect, and simulate phased workload configs
/// (docs/FORMATS.md §8) from the command line.
///
///   rispp_workload describe --config=FILE [options]
///   rispp_workload generate --config=FILE [--out=FILE] [options]
///   rispp_workload simulate --config=FILE [--containers=N] [--quantum=N]
///                           [--report-out=FILE] [options]
///
/// Common options:
///   --library=NAME|FILE  SI library: h264 (default), h264_with_sad,
///                        h264_frame, aes, or a library file (§1 format)
///   --seed=N             overrides the config's seed
///
/// `describe` prints the resolved plan and the generation totals without
/// writing anything. `generate` emits the workload as §2 trace text (stdout
/// unless --out=), byte-identical for identical (config, seed) — the CI
/// workload smoke diffs this output against a checked-in golden. `simulate`
/// feeds the workload to the cycle simulator and prints the run summary;
/// --report-out= streams the run through an obs::Profiler into a run report
/// (render or diff it with rispp_report).

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rispp/aes/graph.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::util::TextTable;
using rispp::workload::PhasedStats;
using rispp::workload::PhasedWorkload;

rispp::isa::SiLibrary load_library(const std::string& spec) {
  if (spec == "h264") return rispp::isa::SiLibrary::h264();
  if (spec == "h264_with_sad") return rispp::isa::SiLibrary::h264_with_sad();
  if (spec == "h264_frame") return rispp::isa::SiLibrary::h264_frame();
  if (spec == "aes") return rispp::aes::si_library();
  std::ifstream in(spec);
  if (!in.good())
    throw std::runtime_error("cannot open SI library '" + spec +
                             "' (builtins: h264, h264_with_sad, h264_frame, "
                             "aes)");
  return rispp::isa::parse_si_library(in);
}

void print_stats(const PhasedStats& stats) {
  TextTable t{"phase", "events", "SI invocations", "forecasts", "releases",
              "compute cycles"};
  t.set_title("Generation totals");
  for (const auto& p : stats.phases)
    t.add_row({p.name, std::to_string(p.events),
               std::to_string(p.si_invocations), std::to_string(p.forecasts),
               std::to_string(p.releases),
               TextTable::grouped(static_cast<long long>(p.compute_cycles))});
  t.add_row({"total", std::to_string(stats.events),
             std::to_string(stats.si_invocations),
             std::to_string(stats.forecasts), std::to_string(stats.releases),
             TextTable::grouped(static_cast<long long>(stats.compute_cycles))});
  std::cout << t.str();

  std::uint64_t busiest = 0, idle = 0;
  for (const auto& n : stats.events_per_task) {
    busiest = std::max(busiest, n);
    if (n == 0) ++idle;
  }
  std::cout << stats.events_per_task.size() << " tasks; busiest got "
            << busiest << " events, " << idle << " got none\n";
}

int usage() {
  std::cerr
      << "usage: rispp_workload <describe|generate|simulate> --config=FILE\n"
         "         [--library=NAME|FILE] [--seed=N] [--out=FILE]\n"
         "         [--containers=N] [--quantum=N] [--report-out=FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command != "describe" && command != "generate" && command != "simulate")
    return usage();

  std::string config_path, library = "h264", out_path, report_out;
  std::optional<std::uint64_t> seed;
  unsigned containers = 6;
  std::uint64_t quantum = 10000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--config=", 0) == 0)
      config_path = arg.substr(9);
    else if (arg.rfind("--library=", 0) == 0)
      library = arg.substr(10);
    else if (arg.rfind("--seed=", 0) == 0)
      seed = std::stoull(arg.substr(7));
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
    else if (arg.rfind("--containers=", 0) == 0)
      containers = static_cast<unsigned>(std::stoul(arg.substr(13)));
    else if (arg.rfind("--quantum=", 0) == 0)
      quantum = std::stoull(arg.substr(10));
    else if (arg.rfind("--report-out=", 0) == 0)
      report_out = arg.substr(13);
    else
      return usage();
  }
  if (config_path.empty()) return usage();

  const auto lib = load_library(library);
  const auto workload = PhasedWorkload::from_file(config_path, borrow(lib),
                                                  seed);

  if (command == "describe") {
    std::cout << workload.describe();
    PhasedStats stats;
    (void)workload.generate(&stats);
    print_stats(stats);
    return 0;
  }

  if (command == "generate") {
    PhasedStats stats;
    const auto tasks = workload.generate(&stats);
    if (out_path.empty()) {
      rispp::sim::write_tasks(std::cout, tasks, lib);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out.good())
        throw std::runtime_error("cannot open output file '" + out_path +
                                 "'");
      rispp::sim::write_tasks(out, tasks, lib);
      std::cout << "wrote " << tasks.size() << " tasks ("
                << stats.si_invocations << " SI invocations) to " << out_path
                << "\n";
    }
    return 0;
  }

  // simulate
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = containers;
  cfg.quantum = quantum;
  const auto source =
      rispp::workload::TraceSource::make_phased(workload);
  const auto tasks = source->tasks();
  std::vector<std::string> task_names;
  for (const auto& t : tasks) task_names.push_back(t.name);
  rispp::obs::Profiler profiler(
      report_out.empty()
          ? rispp::obs::TraceMeta{}
          : rispp::sim::make_trace_meta(lib, cfg, task_names));
  if (!report_out.empty()) cfg.rt.sink = &profiler;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  for (auto task : tasks) sim.add_task(std::move(task));
  const auto r = sim.run();

  TextTable t{"SI", "invocations", "hw", "sw"};
  t.set_title("Simulated " + std::to_string(tasks.size()) + " tasks, " +
              std::to_string(containers) + " atom containers");
  for (const auto& [name, st] : r.per_si) {
    if (st.invocations == 0) continue;
    t.add_row({name, std::to_string(st.invocations),
               std::to_string(st.hw_invocations),
               std::to_string(st.sw_invocations)});
  }
  std::cout << t.str();
  std::cout << "Total cycles: " << r.total_cycles
            << "\nRotations:    " << r.rotations << "\n";
  if (!report_out.empty()) {
    rispp::obs::write_report_file(
        report_out, profiler.finalize(workload.config().name));
    std::cout << "Run report written to " << report_out << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
