/// Fig 6 — "Scenario of the H.264 showing the run-time architecture
/// capabilities".
///
/// Two quasi-parallel tasks share six Atom Containers:
///   T0  steady state — Task A's SATD_4x4 runs on its Molecule; Task B's
///       SI0 (HT_2x2 here) executes on the shared Transform atom.
///   T1  Task B forecasts the more important SI1 (HT_4x4) — reallocation:
///       containers rotate to HT's wide Molecule, Task A falls back to the
///       software Molecule.
///   T2  SI1 is forecasted to be no longer needed — release triggers
///       re-rotation towards SATD_4x4.
///   T3  Task B's SI0 still executes in hardware on containers that now
///       'belong' to Task A (the Transform atom is shared).
///   T4  a container completes — SATD_4x4 switches from SW to its minimal
///       hardware Molecule.
///   T5  another container completes — SATD_4x4 upgrades to a faster
///       Molecule.
///
/// The bench prints the simulator timeline and a condensed view of the
/// manager's obs::Event stream.

#include <iostream>

#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

int main(int argc, char** argv) try {
  using namespace rispp::sim;
  using rispp::util::TextTable;

  const auto lib = rispp::isa::SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");
  const auto si0 = lib.index_of("HT_2x2");
  const auto si1 = lib.index_of("HT_4x4");

  const auto trace_out = rispp::obs::trace_out_arg(argc, argv);
  const auto report_out = rispp::obs::report_out_arg(argc, argv);
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  const auto meta = make_trace_meta(lib, cfg, {"A", "B"});
  // The recorder feeds the condensed event table and the trace file; the
  // profiler streams the run report only when one is asked for.
  rispp::obs::TraceRecorder recorder;
  rispp::obs::Profiler profiler(meta);
  rispp::obs::TeeSink tee(&recorder, report_out ? &profiler : nullptr);
  cfg.rt.sink = &tee;
  Simulator sim(borrow(lib), cfg);

  Trace a;
  a.push_back(TraceOp::label("T0: steady state — A forecasts SATD_4x4"));
  a.push_back(TraceOp::forecast(satd, 5000));
  for (int i = 0; i < 120; ++i) {
    a.push_back(TraceOp::compute(10000));
    a.push_back(TraceOp::si(satd, 50));
  }

  Trace b;
  b.push_back(TraceOp::forecast(si0, 50));
  b.push_back(TraceOp::compute(700000));  // let T0 settle
  b.push_back(TraceOp::si(si0, 20));
  b.push_back(TraceOp::label("T1: B forecasts the more important SI1"));
  b.push_back(TraceOp::forecast(si1, 2000000));
  for (int i = 0; i < 8; ++i) {
    b.push_back(TraceOp::compute(40000));
    b.push_back(TraceOp::si(si1, 100));
  }
  b.push_back(TraceOp::label("T2: forecast states SI1 no longer needed"));
  b.push_back(TraceOp::release(si1));
  b.push_back(TraceOp::label("T3: B's SI0 reuses containers now owned by A"));
  b.push_back(TraceOp::si(si0, 20));

  rispp::workload::TraceSource::make_fixed(
      {{"A", std::move(a)}, {"B", std::move(b)}}, "fig06")
      ->add_to(sim);
  const auto r = sim.run();

  TextTable timeline{"cycle", "task", "event"};
  timeline.set_title("Fig 6: scenario timeline markers");
  for (const auto& e : r.timeline)
    timeline.add_row({TextTable::grouped(static_cast<long long>(e.at)), e.task,
                      e.text});
  std::cout << timeline.str() << "\n";

  // Condensed manager trace: forecasts, rotations, and the first execution
  // after each latency change (the SW→HW→faster-HW upgrades of T4/T5).
  using rispp::obs::EventKind;
  TextTable events{"cycle", "event", "SI", "atom", "AC", "task", "cycles"};
  events.set_title("Run-time manager event trace (condensed)");
  std::uint64_t last_cycles[16] = {0};
  for (const auto& e : recorder.events()) {
    auto at = e.at;
    const char* label = nullptr;
    switch (e.kind) {
      case EventKind::ForecastSeen: label = "forecast"; break;
      case EventKind::ForecastReleased: label = "forecast-release"; break;
      case EventKind::RotationStarted:
        label = "rotation-start";
        at = e.prev_cycles;  // the booking cycle, not the transfer start
        break;
      case EventKind::RotationFinished: label = "rotation-done"; break;
      case EventKind::RotationCancelled: label = "rotation-cancelled"; break;
      case EventKind::RotationFailed: label = "rotation-failed"; break;
      case EventKind::AcQuarantined: label = "ac-quarantined"; break;
      case EventKind::SiExecuted:
        // Only print executions whose latency changed — the upgrade points.
        if (last_cycles[e.si % 16] == e.cycles) continue;
        last_cycles[e.si % 16] = e.cycles;
        label = e.hardware ? "execute-hw" : "execute-sw";
        break;
      default: continue;  // task switches, evictions, upgrade markers
    }
    events.add_row({
        TextTable::grouped(static_cast<long long>(at)),
        label,
        e.si >= 0 ? lib.at(static_cast<std::size_t>(e.si)).name() : "-",
        e.atom >= 0 ? lib.catalog().at(static_cast<std::size_t>(e.atom)).name
                    : "-",
        e.container >= 0 ? std::to_string(e.container) : "-",
        e.task >= 0 ? std::string(1, static_cast<char>('A' + e.task)) : "-",
        e.kind == EventKind::SiExecuted ? std::to_string(e.cycles) : "-",
    });
  }
  std::cout << events.str() << "\n";

  TextTable stats{"SI", "invocations", "hw", "sw"};
  stats.set_title("Execution mix");
  for (const auto& [name, st] : r.per_si)
    stats.add_row({name, std::to_string(st.invocations),
                   std::to_string(st.hw_invocations),
                   std::to_string(st.sw_invocations)});
  std::cout << stats.str();
  std::cout << "Rotations performed: " << r.rotations << "\n";

  if (trace_out) {
    rispp::obs::write_trace_file(*trace_out, recorder.events(), meta);
    std::cout << "Trace (" << recorder.events().size() << " events) written to "
              << *trace_out
              << " — open .json output in chrome://tracing or Perfetto,\n"
                 "or summarize .csv output with tools/trace_summary.\n";
  }
  if (report_out) {
    rispp::obs::write_report_file(*report_out, profiler.finalize("fig06"));
    std::cout << "Run report written to " << *report_out
              << " — render or diff it with tools/rispp_report.\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
