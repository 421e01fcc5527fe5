#include "rispp/exp/standard_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "rispp/h264/phases.hpp"
#include "rispp/h264/workload.hpp"
#include "rispp/isa/generator.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/obs/telemetry.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/rng.hpp"
#include "rispp/workload/trace_source.hpp"

namespace rispp::exp {

namespace {

using workload::Chooser;

/// Scales every Compute op by a uniform factor in [1-jitter, 1+jitter],
/// drawn from the point's own Xoshiro256 stream — same seed, same workload,
/// bit for bit.
void apply_jitter(sim::Trace& trace, double jitter, util::Xoshiro256& rng) {
  for (auto& op : trace) {
    if (op.kind != sim::TraceOp::Kind::Compute || op.cycles == 0) continue;
    const double factor = 1.0 + jitter * (2.0 * rng.uniform01() - 1.0);
    op.cycles = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(op.cycles) * factor)));
  }
}

std::string format_nj(double nj) {
  // Fixed 3-decimal rendering: deterministic across platforms and stable
  // under re-runs (std::to_string's 6 decimals add only noise digits).
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", nj);
  return buf;
}

/// The built-in phased template: three phases over every SI the platform
/// library offers — a uniform warm-up, a zipf-skewed burst with a rate ramp
/// and diurnal modulation, and a hot-set cool-down. The wl_* axes reshape it.
workload::PhasedConfig builtin_phased_config(const isa::SiLibrary& lib) {
  workload::PhasedConfig cfg;
  cfg.name = "exp_builtin";
  cfg.tasks = 8;
  std::vector<std::pair<std::string, double>> all_sis;
  for (const auto& si : lib.sis()) all_sis.emplace_back(si.name(), 1.0);

  workload::PhaseConfig warm;
  warm.name = "warm";
  warm.events = 200;
  warm.mix = all_sis;
  warm.si_chooser.kind = Chooser::Kind::Uniform;
  warm.compute_min = 2000;
  warm.compute_max = 8000;

  workload::PhaseConfig hot;
  hot.name = "hot";
  hot.events = 200;
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
  cool.events = 100;
  cool.mix = all_sis;
  cool.si_chooser.kind = Chooser::Kind::HotSet;
  cool.si_chooser.hot_fraction = 0.25;
  cool.si_chooser.hot_probability = 0.9;
  cool.rate_begin = 2.0;
  cool.rate_end = 0.5;

  cfg.phases = {std::move(warm), std::move(hot), std::move(cool)};
  return cfg;
}

/// Resolves a point's phased-workload config: the wconfig file when given,
/// the built-in template otherwise, then the wl_* overrides on top.
workload::PhasedConfig phased_config_for(const isa::SiLibrary& lib,
                                         const SweepPoint& point) {
  workload::PhasedConfig cfg;
  if (const auto* path = point.find("wconfig")) {
    std::ifstream in(*path);
    if (!in.good())
      throw util::PreconditionError("cannot open workload config '" + *path +
                                    "'");
    cfg = workload::parse_phased_config(in);
  } else {
    cfg = builtin_phased_config(lib);
  }
  cfg.seed = point.get_u64("wl_seed", point.seed);
  if (point.find("wl_tasks") != nullptr)
    cfg.tasks = point.get_u64("wl_tasks", cfg.tasks);
  if (point.find("wl_events") != nullptr) {
    const auto events = point.get_u64("wl_events", 0);
    for (auto& phase : cfg.phases) phase.events = events;
  }
  if (point.find("wl_skew") != nullptr) {
    // Workload-level task skew: wins over any per-phase task choosers so a
    // single axis value reshapes the whole arrival stream.
    const double skew = point.get_f64("wl_skew", 0.0);
    workload::ChooserSpec spec{skew > 0.0 ? Chooser::Kind::Zipfian
                                          : Chooser::Kind::Uniform};
    if (skew > 0.0) spec.theta = skew;
    cfg.task_chooser = spec;
    for (auto& phase : cfg.phases) phase.task_chooser.reset();
  }
  if (point.find("wl_rate") != nullptr) {
    const double rate = point.get_f64("wl_rate", 1.0);
    for (auto& phase : cfg.phases) {
      phase.rate_begin *= rate;
      phase.rate_end *= rate;
    }
  }
  return cfg;
}

/// The lib_* axis family: any of these present means the point runs on a
/// synthetic library generated per point instead of the Platform snapshot.
constexpr const char* kLibAxes[] = {
    "lib_seed",    "lib_atoms",     "lib_static",  "lib_sis",
    "lib_shape",   "lib_mol_min",   "lib_mol_max", "lib_bitstream",
    "lib_speedup", "lib_max_count"};

bool has_lib_axes(const SweepPoint& point) {
  for (const auto* axis : kLibAxes)
    if (point.find(axis) != nullptr) return true;
  return false;
}

/// A u64 axis narrowed to `unsigned` — rejected when it does not fit rather
/// than wrapped, so retries=4294967296 cannot silently mean zero retries.
unsigned get_unsigned(const SweepPoint& point, const std::string& key,
                      unsigned fallback) {
  const auto value = point.get_u64(key, fallback);
  RISPP_REQUIRE(value <= std::numeric_limits<unsigned>::max(),
                key + " must be at most " +
                    std::to_string(std::numeric_limits<unsigned>::max()));
  return static_cast<unsigned>(value);
}

/// Builds (and validates) the per-point generator config from the lib_*
/// axes. Called from sim_config_for so a bad axis value fails in --dry-run
/// validation, before any worker generates anything.
isa::GeneratorConfig generator_config_for(const SweepPoint& point) {
  isa::GeneratorConfig cfg;
  cfg.name = "genlib";
  cfg.seed = point.get_u64("lib_seed", point.seed);
  cfg.rotatable_atoms = point.get_u64("lib_atoms", 4);
  cfg.static_atoms = point.get_u64("lib_static", 2);
  cfg.sis = point.get_u64("lib_sis", 6);
  cfg.molecules_min = point.get_u64("lib_mol_min", 2);
  cfg.molecules_max = point.get_u64("lib_mol_max", 8);
  cfg.shape = isa::parse_lattice_shape(point.get("lib_shape", "mixed"));
  if (const auto* spec = point.find("lib_bitstream"))
    cfg.bitstream = isa::Distribution::parse(*spec);
  if (const auto* spec = point.find("lib_speedup"))
    cfg.speedup = isa::Distribution::parse(*spec);
  cfg.max_count = get_unsigned(point, "lib_max_count", 4);
  cfg.validate();
  return cfg;
}

/// Resolves a point's generated-workload params from the wl_* axes.
workload::GeneratedWorkloadParams generated_params_for(
    const SweepPoint& point) {
  workload::GeneratedWorkloadParams p;
  p.seed = point.get_u64("wl_seed", point.seed);
  p.tasks = point.get_u64("wl_tasks", p.tasks);
  p.phases = point.get_u64("wl_phases", p.phases);
  p.events_per_phase = point.get_u64("wl_events", p.events_per_phase);
  p.task_skew = point.get_f64("wl_skew", 0.0);
  p.rate = point.get_f64("wl_rate", 1.0);
  return p;
}

}  // namespace

sim::SimConfig sim_config_for(const SweepPoint& point) {
  sim::SimConfig cfg;
  cfg.rt.atom_containers = get_unsigned(point, "containers", 10);
  cfg.rt.selection_policy = point.get("selector", "greedy");
  cfg.rt.replacement_policy = point.get("replacement", "lru");
  cfg.rt.rotation_cost_factor = point.get_f64("cost_factor", 0.0);
  cfg.rt.cancel_stale_rotations = point.get_u64("cancel_stale", 0) != 0;
  if (point.find("bandwidth") != nullptr)
    cfg.rt.port = hw::ReconfigPort(point.get_f64("bandwidth", 0.0));
  // Fault injection: only points naming a fault axis get a model (and the
  // extra metric columns); everything else keeps the none() model, so
  // fault-free sweep output is byte-identical to the pre-fault evaluator.
  if (point.find("fault_p") != nullptr ||
      point.find("fault_poison") != nullptr ||
      point.find("fault_degrade") != nullptr)
    cfg.rt.faults = hw::FaultModel::probabilistic(
        point.get_u64("fault_seed", point.seed),
        point.get_f64("fault_p", 0.0), point.get_f64("fault_poison", 0.0),
        point.get_f64("fault_degrade", 0.0),
        point.get_f64("fault_stretch", 2.0));
  cfg.rt.max_rotation_retries = get_unsigned(point, "retries", 3);
  cfg.rt.retry_backoff_cycles = point.get_u64("backoff", 1000);
  cfg.quantum = point.get_u64("quantum", 10000);

  const double jitter = point.get_f64("jitter", 0.0);
  RISPP_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0,1)");
  (void)point.get_u64("fail_point", 0);  // parse-checked here for --dry-run
  const auto workload = point.get("workload", "encdec");
  if (workload != "enc" && workload != "dec" && workload != "encdec" &&
      workload != "fig7" && workload != "phased" && workload != "generated")
    throw util::PreconditionError(
        "unknown workload '" + workload +
        "' (known: enc, dec, encdec, fig7, phased, generated)");
  if (workload == "phased" || workload == "generated") {
    // The wl_* axes are range-checked here so a bad grid fails in --dry-run
    // validation, before any worker generates anything.
    const double skew = point.get_f64("wl_skew", 0.0);
    RISPP_REQUIRE(skew >= 0.0 && skew < 1.0, "wl_skew must be in [0,1)");
    RISPP_REQUIRE(point.get_u64("wl_tasks", 1) >= 1, "wl_tasks must be >= 1");
    RISPP_REQUIRE(point.get_u64("wl_events", 1) >= 1,
                  "wl_events must be >= 1");
    RISPP_REQUIRE(point.get_f64("wl_rate", 1.0) > 0.0,
                  "wl_rate must be > 0");
    RISPP_REQUIRE(point.get_u64("wl_phases", 1) >= 1,
                  "wl_phases must be >= 1");
  }
  if (has_lib_axes(point)) {
    // Synthetic-library points must carry a workload that resolves its SI
    // names against the generated library; the H.264 trace builders would
    // ask the library for CAVLC/MC/... and fail deep inside a worker.
    if (workload != "phased" && workload != "generated")
      throw util::PreconditionError(
          "lib_* axes require workload=generated or workload=phased "
          "(H.264 traces name SIs a synthetic library does not have)");
    (void)generator_config_for(point);  // throws on a bad lib_* value
  }
  rt::validate(cfg.rt);
  return cfg;
}

void validate_sim_sweep(const Sweep& sweep) {
  sweep.visit([](const SweepPoint& point) { (void)sim_config_for(point); });
}

PointMetrics run_sim_point(const Platform& platform,
                           const SweepPoint& point) {
  auto cfg = sim_config_for(point);
  // Deliberate-failure axis: a point whose index matches `fail_point` throws
  // before simulating. Exists so the flight-recorder path (telemetry dump on
  // evaluator exception, preserved exit code) can be driven from a plain
  // sweep grid — CI's telemetry smoke uses it.
  if (point.find("fail_point") != nullptr &&
      point.get_u64("fail_point", 0) == point.index)
    throw util::PreconditionError("fail_point: deliberate failure at point #" +
                                  std::to_string(point.index));
  // lib_* axes swap the platform snapshot's library for a per-point
  // synthetic one; points without them keep the snapshot, so existing
  // sweep output stays byte-identical.
  auto lib_ptr = platform.library_ptr();
  if (has_lib_axes(point))
    lib_ptr =
        isa::share(isa::LibraryGenerator(generator_config_for(point)).generate());
  const auto& lib = *lib_ptr;
  const auto workload = point.get("workload", "encdec");
  const double jitter = point.get_f64("jitter", 0.0);
  util::Xoshiro256 rng(point.seed);

  // Every workload arrives through the TraceSource seam; the evaluator only
  // materializes the tasks once, jitters them in list order (one shared rng
  // stream — same seed, same workload, bit for bit), and feeds the sim.
  std::vector<sim::TaskDef> tasks;
  {
    obs::ScopedSpan wl_span("point.workload");
    std::unique_ptr<workload::TraceSource> source;
    if (workload == "phased") {
      source = workload::TraceSource::make_phased(
          workload::PhasedWorkload(phased_config_for(lib, point), lib_ptr));
    } else if (workload == "generated") {
      source = workload::TraceSource::make_generated(
          lib_ptr, generated_params_for(point));
    } else if (workload == "fig7") {
      h264::TraceParams p;
      p.macroblocks = point.get_u64("mb", 60);
      source = workload::TraceSource::make_fixed(
          {{"encoder", h264::make_encode_trace(lib, p)}}, "fig7");
    } else {
      h264::PhaseTraceParams p;
      p.frames = point.get_u64("frames", 2);
      p.macroblocks_per_frame = point.get_u64("mb", 60);
      std::vector<sim::TaskDef> fixed;
      if (workload == "enc" || workload == "encdec")
        fixed.push_back(
            {"enc", h264::make_phase_trace(lib, p, h264::fig1_phases())});
      if (workload == "dec" || workload == "encdec")
        fixed.push_back(
            {"dec", h264::make_phase_trace(lib, p, h264::decoder_phases())});
      source = workload::TraceSource::make_fixed(std::move(fixed), workload);
    }
    tasks = source->tasks();
  }

  // report_dir: stream this point's events through a Profiler and drop a
  // run report next to the sweep output. The report payload carries only
  // the point label (no paths, no times), so reports are byte-identical
  // for any --jobs value.
  std::vector<std::string> task_names;
  for (const auto& task : tasks) task_names.push_back(task.name);
  const bool want_report = point.find("report_dir") != nullptr;
  obs::Profiler profiler(
      want_report ? sim::make_trace_meta(lib, cfg, task_names)
                  : obs::TraceMeta{});
  if (want_report) cfg.rt.sink = &profiler;

  sim::Simulator sim(lib_ptr, cfg);
  for (auto& task : tasks) {
    if (jitter > 0.0) apply_jitter(task.trace, jitter, rng);
    sim.add_task(std::move(task));
  }

  const auto r = [&] {
    obs::ScopedSpan sim_span("point.sim");
    return sim.run();
  }();
  std::uint64_t hw = 0, sw = 0;
  for (const auto& [name, st] : r.per_si) {
    hw += st.hw_invocations;
    sw += st.sw_invocations;
  }

  PointMetrics m;
  m.emplace_back("cycles", std::to_string(r.total_cycles));
  m.emplace_back("rotations", std::to_string(r.rotations));
  m.emplace_back("si_hw", std::to_string(hw));
  m.emplace_back("si_sw", std::to_string(sw));
  m.emplace_back("energy_nj", format_nj(r.energy_total_nj));
  m.emplace_back("reallocations",
                 std::to_string(sim.manager().counters().get("reallocations")));
  m.emplace_back(
      "selector_plans",
      std::to_string(sim.manager().counters().get("selector_plans")));
  if (cfg.rt.faults.enabled()) {
    const auto& ctr = sim.manager().counters();
    m.emplace_back("rotations_failed",
                   std::to_string(ctr.get("rotations_failed")));
    m.emplace_back("rotation_retries",
                   std::to_string(ctr.get("rotation_retries")));
    m.emplace_back("acs_quarantined",
                   std::to_string(ctr.get("acs_quarantined")));
  }
  // Per-SI execution mix — r.per_si is an ordered map, so the column order
  // is stable across points and worker counts.
  for (const auto& [name, st] : r.per_si) {
    if (st.invocations == 0) continue;
    m.emplace_back("hw_" + name, std::to_string(st.hw_invocations));
    m.emplace_back("sw_" + name, std::to_string(st.sw_invocations));
  }
  if (want_report) {
    obs::ScopedSpan report_span("point.report");
    const auto label = "point_" + std::to_string(point.index);
    obs::write_report_file(point.get("report_dir", ".") + "/" + label +
                               ".report.json",
                           profiler.finalize(label));
  }
  return m;
}

ResultTable run_sim_sweep(std::shared_ptr<const Platform> platform,
                          const Sweep& sweep, unsigned jobs) {
  validate_sim_sweep(sweep);
  const Runner runner(std::move(platform), {jobs});
  return runner.run(sweep, run_sim_point);
}

void run_sim_sweep_into(std::shared_ptr<const Platform> platform,
                        const Sweep& sweep, unsigned jobs, ResultSink& sink,
                        const Runner::RunOptions& opts,
                        std::size_t reorder_window) {
  validate_sim_sweep(sweep);
  const Runner runner(std::move(platform), {jobs, reorder_window});
  runner.run(sweep, run_sim_point, sink, opts);
}

}  // namespace rispp::exp
