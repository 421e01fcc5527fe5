/// fig06 — the paper's Fig-6 two-task scenario, run exactly as
/// `bench/fig06_runtime_scenario --report-out=` runs it: h264 library, six
/// Atom Containers, quantum 25000, an obs::Profiler behind a TeeSink. One op
/// is one simulation plus the run report it serializes; the report must
/// match tests/data/fig06_report_golden.json byte for byte.

#include <stdexcept>

#include "perfbench.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/workload/trace_source.hpp"

namespace perfbench {
namespace {

using namespace rispp;

/// Counts and times event delivery in front of the Profiler.
class CountingSink final : public obs::EventSink {
 public:
  CountingSink(obs::EventSink& next, LayerClock& clock)
      : next_(next), clock_(clock) {}

  void on_event(const obs::Event& e) override {
    const auto t0 = now_ns();
    next_.on_event(e);
    charge(t0, 1, e.kind == obs::EventKind::TaskSwitch);
  }
  void on_batch(std::span<const obs::Event> events) override {
    const auto t0 = now_ns();
    next_.on_batch(events);
    std::uint64_t switches = 0;
    for (const auto& e : events)
      switches += e.kind == obs::EventKind::TaskSwitch;
    charge(t0, events.size(), switches);
  }

 private:
  void charge(std::uint64_t t0, std::uint64_t n, std::uint64_t switches) {
    // The switch count above is tracing overhead, not sink time.
    clock_.sink_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    clock_.events.fetch_add(n, std::memory_order_relaxed);
    clock_.task_switches.fetch_add(switches, std::memory_order_relaxed);
  }

  obs::EventSink& next_;
  LayerClock& clock_;
};

class Fig06 final : public Workload {
 public:
  explicit Fig06(const Options& opts) : opts_(opts) {}

  void setup(Tracer*) override {
    golden_ = read_file(opts_.golden);
    lib_ = isa::share(isa::SiLibrary::h264());
    const auto& lib = *lib_;
    const auto satd = lib.index_of("SATD_4x4");
    const auto si0 = lib.index_of("HT_2x2");
    const auto si1 = lib.index_of("HT_4x4");
    cfg_.rt.atom_containers = 6;
    cfg_.quantum = 25000;
    meta_ = sim::make_trace_meta(lib, cfg_, {"A", "B"});

    using sim::TraceOp;
    sim::Trace a;
    a.push_back(TraceOp::label("T0: steady state — A forecasts SATD_4x4"));
    a.push_back(TraceOp::forecast(satd, 5000));
    for (int i = 0; i < 120; ++i) {
      a.push_back(TraceOp::compute(10000));
      a.push_back(TraceOp::si(satd, 50));
    }
    sim::Trace b;
    b.push_back(TraceOp::forecast(si0, 50));
    b.push_back(TraceOp::compute(700000));
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
    trace_ops_ = static_cast<double>(a.size() + b.size());
    source_ = workload::TraceSource::make_fixed(
        {{"A", std::move(a)}, {"B", std::move(b)}}, "fig06");

    (void)run_unit(nullptr);  // warm-up op
  }

  Unit run_unit(Tracer* tr) override {
    Unit u;
    std::string report;
    const auto t0 = now_ns();
    if (tr == nullptr) {
      obs::Profiler profiler(meta_);
      obs::TeeSink tee(nullptr, &profiler);
      auto cfg = cfg_;
      cfg.rt.sink = &tee;
      sim::Simulator sim(lib_, cfg);
      source_->add_to(sim);
      u.sim_cycles = static_cast<double>(sim.run().total_cycles);
      report = obs::write_report(profiler.finalize("fig06"));
    } else {
      report = traced_op(*tr, u);
    }
    const auto t1 = now_ns();
    u.wall_s = static_cast<double>(t1 - t0) / 1e9;
    u.op_ms.push_back(ms_between(t0, t1));
    u.failed = report == golden_ ? 0 : 1;
    return u;
  }

  std::size_t ops_per_unit() const override { return 1; }

  std::uint64_t verify(std::uint64_t, std::uint64_t failed) override {
    return failed;  // every op was compared with the golden inline
  }

 private:
  /// The same op with each layer call timed as a span.
  std::string traced_op(Tracer& tr, Unit& u) {
    auto& v = u.layers;
    tr.begin_unit();
    const auto op = tr.log.open("op", -1, tr.unit);
    obs::Profiler profiler(meta_);
    CountingSink counting(profiler, tr.clock);
    obs::TeeSink tee(nullptr, &counting);
    auto cfg = cfg_;
    cfg.rt.sink = &tee;
    std::vector<sim::TaskDef> tasks;
    v["workload.gen_ms"] =
        tr.time("workload.tasks", op, [&] { tasks = source_->tasks(); });
    std::unique_ptr<sim::Simulator> sim;
    v["sim.build_ms"] = tr.time("sim.build", op, [&] {
      sim = std::make_unique<sim::Simulator>(lib_, cfg);
      for (auto& t : tasks) sim->add_task(std::move(t));
    });
    v["sim.run_ms"] = tr.time("sim.run", op, [&] {
      u.sim_cycles = static_cast<double>(sim->run().total_cycles);
    });
    obs::RunReport rep;
    v["obs.finalize_ms"] =
        tr.time("obs.finalize", op, [&] { rep = profiler.finalize("fig06"); });
    std::string report;
    v["obs.report_ms"] =
        tr.time("obs.report", op, [&] { report = obs::write_report(rep); });
    tr.log.close(op);
    tr.end_unit(v);
    add_manager_counters(sim->manager(), v);
    v["workload.trace_ops"] = trace_ops_;
    v["sim.cycles"] = u.sim_cycles;
    return report;
  }

  Options opts_;
  std::string golden_;
  std::shared_ptr<const isa::SiLibrary> lib_;
  sim::SimConfig cfg_;
  obs::TraceMeta meta_;
  std::unique_ptr<workload::TraceSource> source_;
  double trace_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fig06(const Options& opts) {
  return std::make_unique<Fig06>(opts);
}

}  // namespace perfbench
