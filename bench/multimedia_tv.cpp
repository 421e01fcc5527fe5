/// The paper's §2 Multimedia-TV motivation: encoding and decoding run
/// quasi-parallel under a tight schedule, with quickly changing demands —
/// "our approach is suitable for Multi-Mode systems with their changing
/// demands on quasi-parallel executed tasks" (§5).
///
/// An encoder task (ME→MC→TQ→LF phases) and a decoder task
/// (ED→MC→IT→LF) time-share one core and one Atom Container set; their
/// phase forecasts compete for containers, and SIs of one task execute on
/// Atoms rotated in for the other wherever the Molecules overlap
/// (MC_HPEL/QPEL, LF_EDGE, Transform-based SIs).

#include <iostream>

#include "rispp/h264/phases.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

namespace {

struct RunResult {
  double cycles = 0;
  std::uint64_t rotations = 0;
  double hw_fraction = 0;
};

RunResult run(const rispp::isa::SiLibrary& lib, bool encoder, bool decoder,
              unsigned containers, std::uint64_t frames,
              std::uint64_t mbs) {
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = containers;
  cfg.quantum = 30000;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::h264::PhaseTraceParams p;
  p.frames = frames;
  p.macroblocks_per_frame = mbs;
  if (encoder)
    sim.add_task({"encoder", rispp::h264::make_phase_trace(
                                 lib, p, rispp::h264::fig1_phases())});
  if (decoder)
    sim.add_task({"decoder", rispp::h264::make_phase_trace(
                                 lib, p, rispp::h264::decoder_phases())});
  const auto r = sim.run();
  std::uint64_t hw = 0, total = 0;
  for (const auto& [name, st] : r.per_si) {
    hw += st.hw_invocations;
    total += st.invocations;
  }
  return {static_cast<double>(r.total_cycles), r.rotations,
          total ? static_cast<double>(hw) / static_cast<double>(total) : 0.0};
}

}  // namespace

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264_frame();
  const std::uint64_t frames = 2, mbs = 60;
  const auto total_mbs = frames * mbs;

  // All-software reference for both tasks combined.
  double sw_total = 0;
  for (const auto& ph : rispp::h264::fig1_phases())
    sw_total += static_cast<double>(phase_software_cycles(lib, ph));
  for (const auto& ph : rispp::h264::decoder_phases())
    sw_total += static_cast<double>(phase_software_cycles(lib, ph));
  sw_total *= static_cast<double>(total_mbs);

  TextTable t{"configuration", "total cycles", "cycles/MB-pair",
              "speed-up vs SW", "rotations", "HW fraction"};
  t.set_title("Multimedia TV: encoder + decoder quasi-parallel, " +
              std::to_string(total_mbs) + " MB pairs");
  t.add_row({"all software",
             TextTable::grouped(static_cast<long long>(sw_total)),
             TextTable::grouped(static_cast<long long>(sw_total / total_mbs)),
             "1.00x", "0", "-"});
  for (unsigned containers : {8u, 12u, 16u, 20u}) {
    const auto r = run(lib, true, true, containers, frames, mbs);
    t.add_row({"RISPP, " + std::to_string(containers) + " ACs",
               TextTable::grouped(static_cast<long long>(r.cycles)),
               TextTable::grouped(static_cast<long long>(r.cycles / total_mbs)),
               TextTable::num(sw_total / r.cycles, 2) + "x",
               std::to_string(r.rotations),
               TextTable::num(r.hw_fraction * 100, 1) + "%"});
  }
  std::cout << t.str() << "\n";

  // Interference: does co-running cost much vs each task alone on the same
  // container budget? (Sharing should be cheap — the tasks' SI clusters
  // overlap heavily.)
  const auto enc_alone = run(lib, true, false, 12, frames, mbs);
  const auto dec_alone = run(lib, false, true, 12, frames, mbs);
  const auto both = run(lib, true, true, 12, frames, mbs);
  TextTable i{"run", "cycles", "rotations"};
  i.set_title("Interference at 12 ACs");
  i.add_row({"encoder alone",
             TextTable::grouped(static_cast<long long>(enc_alone.cycles)),
             std::to_string(enc_alone.rotations)});
  i.add_row({"decoder alone",
             TextTable::grouped(static_cast<long long>(dec_alone.cycles)),
             std::to_string(dec_alone.rotations)});
  i.add_row({"quasi-parallel",
             TextTable::grouped(static_cast<long long>(both.cycles)),
             std::to_string(both.rotations)});
  const double overhead =
      both.cycles / (enc_alone.cycles + dec_alone.cycles) - 1.0;
  std::cout << i.str();
  std::cout << "co-run overhead vs sum of solo runs: "
            << TextTable::num(overhead * 100, 1) << " %\n";
  return 0;
}
