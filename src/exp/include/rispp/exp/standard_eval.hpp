#pragma once
/// \file standard_eval.hpp
/// \brief The standard simulation point evaluator: maps string-keyed sweep
/// parameters onto a SimConfig + H.264 workload, runs one Simulator, and
/// reports the canonical metric set.
///
/// Understood parameters (all optional):
///   workload     enc | dec | encdec (phase traces; default encdec) |
///                fig7 (the Fig-7/Fig-12 encoder macroblock trace) |
///                phased (the workload::PhasedWorkload generator) |
///                generated (the library-derived sliding-hot-window
///                workload; pairs with the lib_* axes)
///   containers   Atom Containers                     (default 10)
///   quantum      round-robin quantum in cycles       (default 10000)
///   frames       frames per task (phase workloads)   (default 2)
///   mb           macroblocks per frame / per run     (default 60)
///   selector     selection-policy factory key        (default "greedy")
///   replacement  replacement-policy factory key      (default "lru")
///   bandwidth    reconfiguration port MB/s           (default Table 1)
///   cost_factor  RtConfig::rotation_cost_factor      (default 0)
///   cancel_stale 0 | 1                               (default 0)
///   jitter       ±fraction of per-op compute cycles, drawn from
///                Xoshiro256(point.seed)              (default 0 = exact)
///   fault_p      per-transfer failure probability    (default: no faults)
///   fault_poison per-transfer poison probability     (default 0)
///   fault_degrade per-transfer degradation prob.     (default 0)
///   fault_stretch degradation duration factor        (default 2)
///   fault_seed   fault-model RNG seed                (default point.seed)
///   retries      RtConfig::max_rotation_retries      (default 3)
///   backoff      RtConfig::retry_backoff_cycles      (default 1000)
///   fail_point   global point index at which the evaluator throws a
///                PreconditionError *instead of* simulating — the
///                deliberate-failure axis that drives the flight-recorder
///                path (telemetry dump, preserved exit code) from a plain
///                grid; points with a different index are unaffected
///   report_dir   when set, stream the point's events through an
///                obs::Profiler and write a run report to
///                <report_dir>/point_<index>.report.json; the payload holds
///                only the point label, so reports are byte-identical
///                across --jobs values  (default: no reports)
///
/// Phased-workload parameters (workload=phased only; each is a sweep axis):
///   wconfig      path to a §8 workload config file   (default: a built-in
///                three-phase template over the platform's SI library)
///   wl_seed      generator seed                      (default point.seed)
///   wl_tasks     task count override                 (default: config's)
///   wl_events    per-phase event-count override      (default: config's)
///   wl_skew      zipfian theta of the task chooser, in [0,1); 0 selects
///                the uniform chooser; overrides per-phase task choosers
///   wl_rate      multiplier applied to every phase's arrival-rate ramp
///
/// Generated-workload parameters (workload=generated; wl_seed/wl_tasks/
/// wl_events/wl_skew/wl_rate as above, plus):
///   wl_phases    sliding-hot-window phase count      (default 3)
///
/// Synthetic-library axes (any one of them makes the point run on a
/// per-point isa::LibraryGenerator library instead of the Platform
/// snapshot; requires workload=generated or workload=phased):
///   lib_seed     generator seed                      (default point.seed)
///   lib_atoms    rotatable atom count                (default 4)
///   lib_static   static atom count                   (default 2)
///   lib_sis      special-instruction count           (default 6)
///   lib_shape    chains | flat | mixed               (default mixed)
///   lib_mol_min  min molecules per SI                (default 2)
///   lib_mol_max  max molecules per SI                (default 8)
///   lib_bitstream  bitstream-size distribution spec, e.g.
///                "uniform:40000,70000" | "lognormal:10.8,0.3" |
///                "pareto:30000,2.5"    (default uniform:40000,70000)
///   lib_speedup  hw-speedup distribution spec        (default lognormal:3,0.5)
///   lib_max_count per-atom molecule determinant cap  (default 4)
///
/// Reported metrics: cycles, rotations, si_hw, si_sw, energy_nj,
/// reallocations, selector_plans, then hw_<SI>/sw_<SI> per invoked SI.
/// Points naming a fault axis (fault_p / fault_poison / fault_degrade)
/// additionally report rotations_failed, rotation_retries, acs_quarantined;
/// fault-free points keep the exact pre-fault column set.
///
/// `sim_config_for` is split out so batch drivers can validate a whole plan
/// (factory keys, driving spellings, numeric ranges) up front — a typo in a
/// grid axis fails before any worker spawns, not deep inside point 37.

#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/sim/simulator.hpp"

namespace rispp::exp {

/// Identifies the standard evaluator (and its metric-set revision) in shard
/// manifests: rispp_merge refuses to combine rows produced by different
/// evaluators.
inline constexpr const char* kSimEvaluatorId = "rispp.sim_eval/1";

/// Builds (and range-checks) the SimConfig a point requests. Throws
/// util::Error subclasses on unknown policy keys / driving spellings.
sim::SimConfig sim_config_for(const SweepPoint& point);

/// Validates every point of a sweep against the standard evaluator's
/// parameter space without running anything — and, since it walks the plan
/// with Sweep::visit, without materializing it (validating a million-point
/// grid is O(1) memory; `rispp_sweep --dry-run` rides on this).
void validate_sim_sweep(const Sweep& sweep);

/// The standard evaluator (a PointFn).
PointMetrics run_sim_point(const Platform& platform, const SweepPoint& point);

/// Convenience: validate_sim_sweep + Runner{jobs}.run(run_sim_point).
ResultTable run_sim_sweep(std::shared_ptr<const Platform> platform,
                          const Sweep& sweep, unsigned jobs = 1);

/// Sink-driven variant: validates, then streams the sweep view into `sink`
/// (see Runner::run for the ordering contract and RunOptions for
/// resume/max_points). `reorder_window` is RunnerConfig::reorder_window
/// (0 = the default 4x-jobs window).
void run_sim_sweep_into(std::shared_ptr<const Platform> platform,
                        const Sweep& sweep, unsigned jobs, ResultSink& sink,
                        const Runner::RunOptions& opts = Runner::RunOptions(),
                        std::size_t reorder_window = 0);

}  // namespace rispp::exp
