/// many-task — the phased generator's built-in template (the sweep's
/// `workload=phased`) over the 9-SI h264_frame platform: 2,048 tasks,
/// zipfian task skew 0.9, six Atom Containers and no event sink. The
/// benchmark's seed picks eight generator seeds, one per generated input,
/// and ops rotate over the inputs. One op is one full simulation of one
/// input; generation belongs to set-up.

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "perfbench.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/workload/trace_source.hpp"

namespace perfbench {
namespace {

using namespace rispp;
using workload::Chooser;

/// The sweep evaluator's built-in phased template (standard_eval.cpp),
/// with the point's wl_tasks / wl_events / wl_skew / wl_seed overrides
/// applied. The template is private to the evaluator, so it is mirrored
/// here; verify() proves the mirror against exp::run_sim_point every run.
workload::PhasedConfig builtin_template(const isa::SiLibrary& lib,
                                        const exp::SweepPoint& point) {
  workload::PhasedConfig cfg;
  cfg.name = "exp_builtin";
  std::vector<std::pair<std::string, double>> all_sis;
  for (const auto& si : lib.sis()) all_sis.emplace_back(si.name(), 1.0);

  workload::PhaseConfig warm;
  warm.name = "warm";
  warm.mix = all_sis;
  warm.si_chooser.kind = Chooser::Kind::Uniform;
  warm.compute_min = 2000;
  warm.compute_max = 8000;

  workload::PhaseConfig hot;
  hot.name = "hot";
  hot.mix = all_sis;
  hot.si_chooser.kind = Chooser::Kind::Zipfian;
  hot.si_chooser.theta = 0.8;
  hot.si_count = 2;
  hot.rate_begin = 1.0;
  hot.rate_end = 2.0;
  hot.burst_period = 64;
  hot.burst_amplitude = 0.3;

  workload::PhaseConfig cool;
  cool.name = "cool";
  cool.mix = all_sis;
  cool.si_chooser.kind = Chooser::Kind::HotSet;
  cool.si_chooser.hot_fraction = 0.25;
  cool.si_chooser.hot_probability = 0.9;
  cool.rate_begin = 2.0;
  cool.rate_end = 0.5;

  cfg.phases = {std::move(warm), std::move(hot), std::move(cool)};
  cfg.seed = point.get_u64("wl_seed", point.seed);
  cfg.tasks = point.get_u64("wl_tasks", 0);
  for (auto& phase : cfg.phases) phase.events = point.get_u64("wl_events", 0);
  cfg.task_chooser = workload::ChooserSpec{Chooser::Kind::Zipfian};
  cfg.task_chooser.theta = point.get_f64("wl_skew", 0.0);
  return cfg;
}

/// The metric cells exp::run_sim_point reports for a fault-free point.
exp::PointMetrics row_cells(const sim::SimResult& r,
                            const rt::RisppManager& m) {
  std::uint64_t hw = 0, sw = 0;
  for (const auto& [name, st] : r.per_si) {
    hw += st.hw_invocations;
    sw += st.sw_invocations;
  }
  char energy[64];
  std::snprintf(energy, sizeof energy, "%.3f", r.energy_total_nj);
  exp::PointMetrics cells = {
      {"cycles", std::to_string(r.total_cycles)},
      {"rotations", std::to_string(r.rotations)},
      {"si_hw", std::to_string(hw)},
      {"si_sw", std::to_string(sw)},
      {"energy_nj", energy},
      {"reallocations", std::to_string(m.counters().get("reallocations"))},
      {"selector_plans", std::to_string(m.counters().get("selector_plans"))}};
  for (const auto& [name, st] : r.per_si) {
    if (st.invocations == 0) continue;
    cells.emplace_back("hw_" + name, std::to_string(st.hw_invocations));
    cells.emplace_back("sw_" + name, std::to_string(st.sw_invocations));
  }
  return cells;
}

/// Digest of everything a simulation reports: totals, per-SI and per-task
/// statistics, energy and the manager's counters.
std::string digest_of(const sim::SimResult& r, const rt::RisppManager& m) {
  std::string text;
  for (const auto& [k, v] : row_cells(r, m)) text += k + "=" + v + ";";
  for (const auto& [name, st] : r.per_si)
    text += name + ":" + std::to_string(st.invocations) + "," +
            std::to_string(st.hw_invocations) + "," +
            std::to_string(st.sw_invocations) + "," +
            std::to_string(st.total_cycles) + ";";
  for (const auto& [name, cycles] : r.task_cycles)
    text += name + "=" + std::to_string(cycles) + ";";
  for (const auto& [k, v] : m.counters().all())
    text += k + "=" + std::to_string(v) + ";";
  return hex64(fnv1a(text));
}

/// Inputs per run. The generated workload's host cost per simulated cycle
/// depends strongly on its seed (which tasks and SIs come out hot): two
/// seeds differed by 1.4x. Rotating over several generated inputs averages
/// that out of each run, so runs with other seeds compare.
constexpr std::uint64_t kInputs = 8;

/// One generated input: a sweep point (generator seed = point seed) and the
/// tasks it generates.
struct Input {
  exp::SweepPoint point;
  sim::SimConfig cfg;
  std::vector<sim::TaskDef> tasks;
  std::string reference;  ///< digest of its first op; later ops must match
  exp::PointMetrics reference_cells;
};

class ManyTask final : public Workload {
 public:
  explicit ManyTask(const Options& opts) : opts_(opts) {}

  void setup(Tracer* tr) override {
    const bool tiny = opts_.size == "tiny";
    platform_ = exp::Platform::builtin("h264_frame");
    const auto gen = tr ? tr->log.open("workload.gen", -1, 0) : -1;
    const auto t0 = now_ns();
    inputs_.resize(kInputs);
    trace_ops_ = 0;
    for (std::uint64_t i = 0; i < kInputs; ++i) {
      auto& in = inputs_[i];
      in.point.seed = opts_.seed * kInputs + i;
      in.point.params = {{"workload", "phased"},
                         {"containers", "6"},
                         {"wl_tasks", tiny ? "64" : "2048"},
                         {"wl_events", tiny ? "40" : "1000"},
                         {"wl_skew", "0.9"},
                         {"wl_seed", std::to_string(in.point.seed)}};
      in.cfg = exp::sim_config_for(in.point);
      in.tasks = workload::TraceSource::make_phased(
                     workload::PhasedWorkload(
                         builtin_template(platform_->library(), in.point),
                         platform_->library_ptr()))
                     ->tasks();
      for (const auto& t : in.tasks)
        trace_ops_ += static_cast<double>(t.trace.size()) / kInputs;
    }
    gen_ms_ = ms_between(t0, now_ns()) / kInputs;
    if (tr) tr->log.close(gen);
    (void)run_input(inputs_[0], nullptr);  // warm-up op
  }

  /// Traced and untraced units keep separate cursors over the inputs, so
  /// that both units of a traced-run pair simulate the same input.
  Unit run_unit(Tracer* tr) override {
    auto& cursor = next_[tr != nullptr];
    return run_input(inputs_[cursor++ % kInputs], tr);
  }

  std::size_t ops_per_unit() const override { return 1; }

  std::uint64_t verify(std::uint64_t attempted,
                       std::uint64_t failed) override {
    // Each input's first op, which all its later ops matched, must be the
    // sweep evaluator's row for the same point. The rows of all inputs make
    // the run's digest, recorded at the default seed.
    bool same = true;
    std::string rows;
    for (const auto& in : inputs_) {
      const auto row = exp::run_sim_point(*platform_, in.point);
      for (const auto& [key, value] : row) rows += key + "=" + value + ";";
      rows += "\n";
      for (const auto& [key, value] : in.reference_cells) {
        const auto it = std::find_if(
            row.begin(), row.end(), [&](const auto& c) { return c.first == key; });
        same = same && it != row.end() && it->second == value;
      }
    }
    if (!same)
      std::fprintf(stderr, "many-task: op result differs from "
                           "exp::run_sim_point for the same point\n");
    digest_ = hex64(fnv1a(rows));
    const auto recorded = recorded_digest(opts_);
    if (!recorded.empty() && recorded != digest_) {
      std::fprintf(stderr, "many-task: digest %s differs from recorded %s\n",
                   digest_.c_str(), recorded.c_str());
      same = false;
    }
    return same ? failed : attempted;
  }

  LayerValues run_layers() const override {
    return {{"workload.gen_ms", gen_ms_}};
  }

  std::string digest() const override { return digest_; }

 private:
  /// One op: builds and runs a simulator for `in` and checks its digest
  /// against the input's first op.
  Unit run_input(Input& in, Tracer* tr) {
    Unit u;
    auto& v = u.layers;
    std::int64_t op = -1;
    if (tr) {
      tr->begin_unit();
      op = tr->log.open("op", -1, tr->unit);
    }
    const auto t0 = now_ns();
    std::unique_ptr<sim::Simulator> sim;
    const auto build = [&] {
      sim = std::make_unique<sim::Simulator>(platform_->library_ptr(), in.cfg);
      for (const auto& t : in.tasks) sim->add_task(t);
    };
    sim::SimResult r;
    const auto run = [&] { r = sim->run(); };
    if (tr) {
      v["sim.build_ms"] = tr->time("sim.build", op, build);
      v["sim.run_ms"] = tr->time("sim.run", op, run);
      tr->log.close(op);
    } else {
      build();
      run();
    }
    const auto t1 = now_ns();
    u.wall_s = static_cast<double>(t1 - t0) / 1e9;
    u.op_ms.push_back(ms_between(t0, t1));
    u.sim_cycles = static_cast<double>(r.total_cycles);
    const auto digest = digest_of(r, sim->manager());
    if (in.reference.empty()) {
      in.reference = digest;
      in.reference_cells = row_cells(r, sim->manager());
    }
    u.failed = digest == in.reference ? 0 : 1;
    if (tr) {
      tr->end_unit(v);
      add_manager_counters(sim->manager(), v);
      v["workload.trace_ops"] = trace_ops_;
      v["sim.cycles"] = u.sim_cycles;
    }
    return u;
  }

  Options opts_;
  std::shared_ptr<const exp::Platform> platform_;
  std::vector<Input> inputs_;
  std::uint64_t next_[2] = {0, 0};  ///< untraced, traced
  double gen_ms_ = 0, trace_ops_ = 0;
  std::string digest_;
};

}  // namespace

std::unique_ptr<Workload> make_many_task(const Options& opts) {
  return std::make_unique<ManyTask>(opts);
}

}  // namespace perfbench
