/// Ablation — run-time monitoring (paper §5a: "Monitoring FCs and SIs in
/// order to fine-tune the profiling information to reflect varying run-time
/// situations").
///
/// Scenario: the compile-time profile is WRONG — it claims SI A dominates
/// and SI B is rare, but at run time the roles are inverted (changed input
/// characteristics, exactly the paper's §1 motivation b). With two Atom
/// Containers the selector can only support one of the two SIs. Without
/// learning, the stale expectations keep the wrong SI in hardware forever;
/// with learning, observed executions correct the weights within a few
/// forecast windows.

#include <iostream>

#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

namespace {

rispp::sim::Trace make_trace(const rispp::isa::SiLibrary& lib) {
  using rispp::sim::TraceOp;
  // HT_4x4 lives on Pack/Transform atoms, SAD_4x4 on QuadSub/SATD —
  // disjoint minimal molecules of two atoms each, so a two-container
  // platform can only support one of them at a time.
  const auto ht4 = lib.index_of("HT_4x4");   // "SI A": profile says hot
  const auto sad = lib.index_of("SAD_4x4");  // "SI B": profile says cold
  rispp::sim::Trace t;
  // 40 forecast windows; in each, the compile-time FC claims A:1000 / B:10
  // but the actual execution is A:10 / B:1000.
  for (int w = 0; w < 40; ++w) {
    t.push_back(TraceOp::forecast(ht4, 1000));
    t.push_back(TraceOp::forecast(sad, 10));
    t.push_back(TraceOp::compute(150000));
    t.push_back(TraceOp::si(ht4, 10));
    t.push_back(TraceOp::si(sad, 1000));
    t.push_back(TraceOp::release(ht4));
    t.push_back(TraceOp::release(sad));
  }
  return t;
}

}  // namespace

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264_with_sad();

  TextTable t{"learning rate", "total cycles", "SAD_4x4 hw execs",
              "HT_4x4 hw execs", "speed-up vs lr=0"};
  t.set_title(
      "Monitoring ablation: inverted workload vs compile-time profile "
      "(2 ACs: only one SI fits)");
  double base_cycles = 0;
  for (double lr : {0.0, 0.25, 0.5, 0.9}) {
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 2;
    cfg.rt.learning_rate = lr;
    // Cost-aware reallocation: without it, the release/forecast bursts at
    // window boundaries thrash the two containers regardless of learning.
    cfg.rt.rotation_cost_factor = 1.0;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"app", make_trace(lib)});
    const auto r = sim.run();
    if (lr == 0.0) base_cycles = static_cast<double>(r.total_cycles);
    t.add_row({rispp::util::TextTable::num(lr, 2),
               TextTable::grouped(static_cast<long long>(r.total_cycles)),
               TextTable::grouped(static_cast<long long>(
                   r.si("SAD_4x4").hw_invocations)),
               TextTable::grouped(static_cast<long long>(
                   r.si("HT_4x4").hw_invocations)),
               TextTable::num(base_cycles / static_cast<double>(r.total_cycles),
                              2) + "x"});
  }
  std::cout << t.str();
  std::cout << "(with learning, observed executions override the stale "
               "profile and the hot SI wins the containers)\n";
  return 0;
}
