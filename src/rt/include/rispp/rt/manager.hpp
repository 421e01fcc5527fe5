#pragma once
/// \file manager.hpp
/// \brief The RISPP run-time manager (paper §5): monitors forecasts and SI
/// executions, selects Molecules, schedules rotations, and answers every SI
/// invocation with the best currently-possible execution.
///
/// The manager implements the three run-time tasks of §5:
///  (a) monitoring FCs and SIs to fine-tune the compile-time profile values,
///  (b) selecting/composing Molecules for a subset of the forecasted SIs,
///  (c) scheduling rotations and replacing Atoms.
///
/// Executions never block on hardware: an SI whose Molecule is not (yet)
/// loaded runs its software Molecule, and upgrades to progressively faster
/// hardware Molecules as rotations complete (Fig 6, T1–T5).

#include <cstdint>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <vector>

#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/hw/reconfig_port.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/rt/container.hpp"
#include "rispp/rt/dispatch.hpp"
#include "rispp/rt/energy.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/rt/rotation.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/stats.hpp"

namespace rispp::rt {

struct RtConfig {
  unsigned atom_containers = 4;
  double clock_mhz = 100.0;
  hw::ReconfigPort port{};
  /// Fault model layered over the reconfiguration port (hw/fault.hpp).
  /// With the default none() model no RNG draw is ever made and behaviour
  /// is bit-identical to the fault-free run-time.
  hw::FaultModel faults = hw::FaultModel::none();
  /// Consecutive failed loads one Atom Container tolerates before it is
  /// quarantined (taken out of service for good; selection then plans
  /// around the reduced AC set).
  unsigned max_rotation_retries = 3;
  /// Base retry backoff after a failed load, in cycles: the container is
  /// blocked for retry_backoff_cycles << min(streak-1, 16) after its
  /// streak-th consecutive failure (capped exponential backoff, saturating
  /// at the largest cycle instead of wrapping).
  Cycle retry_backoff_cycles = 1000;
  /// EWMA factor for blending observed executions into the forecast
  /// expectations (monitoring task (a)); 0 disables learning.
  double learning_rate = 0.5;
  /// Power model for the energy meter (execution / rotation / leakage).
  PowerModel power{};
  /// Molecule selection policy, by factory key ("greedy", "exhaustive", or
  /// a custom registration — see policy.hpp).
  std::string selection_policy = "greedy";
  /// Rotation-victim replacement policy, by factory key ("lru", "mru",
  /// "round-robin", or a custom registration).
  std::string replacement_policy = "lru";
  /// Cancel queued (not yet started) transfers that a reallocation made
  /// stale — the port slot is wasted but the container frees immediately
  /// and the stale atom never loads. Default off (the prototype's
  /// fire-and-forget SelectMap feed); ablation in bench/ablation_replacement.
  bool cancel_stale_rotations = false;
  /// Cost-aware reallocation: rotate towards a new configuration only when
  /// its expected benefit (weighted cycles saved) exceeds factor × the
  /// rotation transfer cost. 0 = eager rotation (rotate whenever the
  /// selector finds any improvement). Prevents thrash when short-lived
  /// demands appear between releases; bench/ablation_monitoring shows the
  /// effect.
  double rotation_cost_factor = 0.0;
  /// Observability sink (non-owning). When set, the manager streams typed
  /// obs::Events (forecasts, rotations, evictions, executions, Molecule
  /// upgrades) through it — the kernel's only event record; when null,
  /// every emission site is one dead branch, so the disabled path costs
  /// nothing.
  obs::EventSink* sink = nullptr;
};

/// Validates an RtConfig before anything is built from it: unknown
/// selection/replacement factory keys throw util::Error (PreconditionError)
/// listing the registered keys, and the numeric knobs are range-checked.
/// RisppManager runs this at construction; batch drivers (exp::Runner) run
/// it once per sweep point *before* spawning workers, so a typo in a grid
/// axis fails the whole sweep up front instead of deep inside reallocate().
void validate(const RtConfig& cfg);

class RisppManager {
 public:
  /// Shares ownership of the (immutable) SI library: concurrent managers in
  /// different threads may hold the same snapshot, and the library cannot
  /// be destroyed while any of them is alive.
  RisppManager(std::shared_ptr<const isa::SiLibrary> lib, RtConfig cfg);

  /// --- forecast interface (§5a) -------------------------------------
  /// An FC for `si` fires: the SI is expected `expected_executions` times
  /// with the given probability. Triggers reallocation.
  void forecast(std::size_t si, double expected_executions, double probability,
                Cycle now, int task = kNoTask);

  /// The forecast states the SI "is no longer needed" *by this task*: that
  /// demand is dropped, its containers become replacement victims, and the
  /// remaining demands are reallocated (Fig 6, T2). Another task's demand
  /// for the same SI stays active.
  void forecast_release(std::size_t si, Cycle now, int task = kNoTask);

  /// Convenience: fire every point of an FC block from the compile-time
  /// plan, with run-time fine-tuned expectations.
  void on_fc_block(const forecast::FcBlock& block, Cycle now,
                   int task = kNoTask);

  /// --- execution interface ------------------------------------------
  struct ExecResult {
    std::uint32_t cycles = 0;
    bool hardware = false;
    const isa::MoleculeOption* molecule = nullptr;  ///< null for software
  };

  /// Executes one SI invocation at `now` and returns its latency. Updates
  /// monitoring statistics and container LRU state.
  ExecResult execute(std::size_t si, Cycle now, int task = kNoTask);

  /// Emits a host-generated event (the simulator's TaskSwitch) through the
  /// manager's emission batch, so host and manager events reach the sink in
  /// one correctly-ordered stream. No-op without a sink.
  void emit_host_event(const obs::Event& e) {
    if (batch_.enabled()) batch_.emit(e);
  }

  /// Delivers everything still buffered in the emission batch to the sink.
  /// The manager flushes on every reallocation (forecast / release / poll)
  /// and on destruction; hosts that read the sink between those points —
  /// tests driving execute() directly — call this first. See
  /// obs::EventBatch.
  void flush_events() { batch_.flush(); }

  /// Re-evaluates the allocation without a new forecast — used after
  /// rotations complete when a previous reallocation was blocked by
  /// in-flight transfers. When nothing changed since the cached plan
  /// (no forecast activity, no completed rotation) this is a cheap early
  /// return — the greedy selector does not re-run.
  void poll(Cycle now);

  /// Earliest cycle strictly after `t` at which polling can change the
  /// platform state: an in-flight rotation completes (cleanly or not) or a
  /// fault-backoff window expires and its container becomes targetable
  /// again. Event-driven hosts (sim::Simulator) poll only when `now`
  /// crosses this wakeup cycle instead of on every scheduling decision.
  std::optional<Cycle> next_wakeup(Cycle t) const {
    auto next = rotations_.next_completion_after(t);
    const auto unblock = containers_.next_unblock_after(t);
    if (unblock && (!next || *unblock < *next)) next = unblock;
    return next;
  }

  /// Bumped whenever the scheduling timeline changes — a rotation is
  /// booked, cancelled, or fails (failures also open backoff windows).
  /// While this value is unchanged and no poll has fired, a previously
  /// computed next_wakeup() answer stays valid: no completion or unblock
  /// point was added or removed. Event-driven hosts key their cached
  /// wakeup horizon on this instead of recomputing next_wakeup() on every
  /// scheduling decision (which walks bookings and containers).
  std::uint64_t state_generation() const { return state_generation_; }

  /// --- state inspection -----------------------------------------------
  atom::Molecule available_atoms(Cycle now);
  const atom::Molecule& committed_atoms() const {
    return containers_.committed_atoms();
  }
  const ContainerFile& containers() const { return containers_; }
  /// The policy objects driving selection/replacement (for introspection).
  const SelectionPolicy& selection_policy() const {
    return selector_.policy();
  }
  const ReplacementPolicy& replacement_policy() const {
    return replacer_.policy();
  }
  const util::Counters& counters() const { return counters_; }
  std::uint64_t rotations_performed() const {
    return rotations_.rotations_performed();
  }
  std::uint64_t rotations_cancelled() const {
    return rotations_.rotations_cancelled();
  }
  /// Active (not yet released) forecast demands, aggregated per SI across
  /// tasks (weights sum; the selector sees one demand per SI), in SI order.
  /// A copy of per-SI aggregates that forecast() and forecast_release()
  /// re-fold for their SI only.
  std::vector<ForecastDemand> active_demands() const;
  /// Expectation the monitor currently holds for an SI (compile-time value
  /// blended with observed behaviour); nullopt if never forecasted.
  std::optional<double> learned_expectation(std::size_t si) const;

  /// Energy spent so far (execution + rotation + leakage of loaded atoms).
  const EnergyMeter& energy() const { return energy_; }
  /// Total slices of the atoms currently loaded (or loading) in containers.
  /// O(1): the ContainerFile maintains the sum incrementally; the seed
  /// walked every container with a catalog lookup apiece on each call —
  /// and the energy meter asks on every single execute().
  std::uint64_t loaded_slices() const { return containers_.loaded_slices(); }

  const isa::SiLibrary& library() const { return *lib_; }
  /// The shared snapshot itself — hand this to sibling components (other
  /// managers, simulators, experiment runners) instead of a raw reference.
  const std::shared_ptr<const isa::SiLibrary>& library_ptr() const {
    return lib_;
  }
  const RtConfig& config() const { return cfg_; }

 private:
  /// The reallocation kernel, staged: plan (cached) → gate → cancel-stale →
  /// issue. `reallocate` owns the plan cache; the stages below are pure
  /// helpers over the cached plan.
  void reallocate(Cycle now);
  bool gate_passes(const std::vector<ForecastDemand>& demands) const;
  void cancel_stale(Cycle now);
  void issue(Cycle now);
  /// Retire every rotation whose transfer ended Failed/Poisoned by `now`:
  /// the container is emptied and backs off (or is quarantined), counters
  /// and events fire. Must run before ContainerFile::refresh so a poisoned
  /// load is never promoted to a usable Atom. A dead branch with the
  /// default none() fault model.
  void process_failures(Cycle now);
  /// Re-folds SI `si`'s run of active_ into merged_[si].
  void refold(std::size_t si);

  std::shared_ptr<const isa::SiLibrary> lib_;
  RtConfig cfg_;
  ContainerFile containers_;
  RotationScheduler rotations_;
  /// Devirtualized policy dispatch (rt/dispatch.hpp): built-in policies run
  /// by value with direct calls; custom registrations fall back to the
  /// factory's virtual product.
  SelectionDispatch selector_;
  ReplacementDispatch replacer_;
  EnergyMeter energy_;
  /// Emission buffer between the manager's hot paths and cfg_.sink: emit is
  /// a plain append, the sink sees whole runs via on_batch at reallocation
  /// boundaries / capacity / destruction. Order is preserved exactly.
  obs::EventBatch batch_;

  struct DemandState {
    ForecastDemand demand;
    /// executions_[si] when the forecast fired: the window has observed
    /// executions_[si] - execution_mark executions since.
    std::uint64_t execution_mark = 0;
  };
  /// Keyed by (SI index, forecasting task) — quasi-parallel tasks hold
  /// independent demands on the same SI.
  std::map<std::pair<std::size_t, int>, DemandState> active_;
  /// By SI: the aggregate of its active windows (see active_demands()),
  /// nullopt while it has none. Kept current by forecast/forecast_release.
  std::vector<std::optional<ForecastDemand>> merged_;
  /// By SI: execute() calls so far, the clock the window marks read.
  std::vector<std::uint64_t> executions_;
  std::map<std::size_t, double> learned_;  ///< EWMA over release cycles
  /// Last observed execution latency keyed per (SI, executing task) —
  /// detects the SW→HW→faster-HW transitions reported as MoleculeUpgraded
  /// events. Keying per task keeps one task's first observation from being
  /// mistaken for another task's upgrade. Maintained only while a sink is
  /// attached (its sole consumer).
  std::map<std::pair<std::size_t, int>, std::uint32_t> last_exec_cycles_;

  /// --- plan cache -----------------------------------------------------
  /// The selector re-runs only when the demand set changed (generation
  /// counter) or a rotation completed since the plan was computed.
  SelectionPlan plan_;
  std::uint64_t demand_generation_ = 0;
  std::uint64_t plan_generation_ = ~std::uint64_t{0};  ///< none cached yet
  Cycle plan_time_ = 0;
  /// A rotation failed since the cached plan was computed: the failed load
  /// must be re-issued (or planned around), so the plan is stale even
  /// though no generation bump or completion marks it so.
  bool failed_since_plan_ = false;

  /// --- execute() fast path --------------------------------------------
  /// Per-SI memo of the winning Molecule option (an index into options()
  /// and SiLibrary::rotatable_options()), keyed on the container file's
  /// usable-atom generation: between rotations the answer cannot change, so
  /// the common execute() re-checks one integer instead of scanning options.
  struct ExecMemo {
    std::uint64_t generation = ~std::uint64_t{0};
    std::optional<std::size_t> best;  ///< nullopt = software molecule
    bool valid = false;
  };
  std::vector<ExecMemo> exec_memo_;  ///< by SI index

  /// Bumped per booked / cancelled / failed rotation — see
  /// state_generation().
  std::uint64_t state_generation_ = 0;

  util::Counters counters_;
};

}  // namespace rispp::rt
