/// Ablation (DESIGN.md §6.3) — forecasting on/off and forecast cadence.
///
/// The run-time system only rotates on forecasts ("rotation in advance").
/// Disabling FCs leaves every SI on its software Molecule; sparse FCs delay
/// the warm-up. This quantifies what the forecast infrastructure of §4 buys.

#include <iostream>

#include "rispp/h264/workload.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264();

  TextTable t{"forecast cadence", "cycles/MB", "rotations",
              "SATD hw fraction", "speed-up vs no-FC"};
  t.set_title("Forecast ablation: 40 macroblocks, 4 atom containers");

  rispp::h264::TraceParams base;
  base.macroblocks = 40;

  double no_fc_per_mb = 0;
  struct Case {
    const char* label;
    std::uint64_t every;
  };
  for (const auto& c : {Case{"no forecasting", 0}, Case{"every 16th MB", 16},
                        Case{"every 4th MB", 4}, Case{"every MB", 1}}) {
    auto p = base;
    p.forecast_every_mbs = c.every;
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 4;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"encoder", rispp::h264::make_encode_trace(lib, p)});
    const auto r = sim.run();
    const double per_mb = static_cast<double>(r.total_cycles) /
                          static_cast<double>(p.macroblocks);
    if (c.every == 0) no_fc_per_mb = per_mb;
    double hw_frac = 0;
    if (r.per_si.count("SATD_4x4")) {
      const auto& s = r.si("SATD_4x4");
      hw_frac = static_cast<double>(s.hw_invocations) /
                static_cast<double>(s.invocations);
    }
    t.add_row({c.label, TextTable::grouped(static_cast<long long>(per_mb)),
               std::to_string(r.rotations),
               TextTable::num(hw_frac * 100, 1) + "%",
               TextTable::num(no_fc_per_mb / per_mb, 2) + "x"});
  }
  std::cout << t.str();
  return 0;
}
