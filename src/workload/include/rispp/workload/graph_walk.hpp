#pragma once
/// \file graph_walk.hpp
/// \brief Graph-driven workload generation: closes the platform's loop from
/// the compile-time artifacts to the cycle simulator.
///
/// The paper's flow is: profile the application → insert Forecast points
/// into its BB graph (§4) → at run time, FCs fire as control flow passes
/// them (§5). This module executes exactly that: it walks a profiled
/// BBGraph as a Markov chain (profiled edge probabilities), and emits a
/// simulator trace in which every block contributes its body cycles and SI
/// invocations, and every FC block of the plan fires its forecasts.
///
/// The result: run_forecast_pass() output can be *executed*, not just
/// inspected — the AES end-to-end experiment (bench/aes_end_to_end) runs on
/// this, through the TraceSource seam (trace_source.hpp).

#include <cstdint>

#include "rispp/cfg/graph.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/sim/trace.hpp"

namespace rispp::workload {

struct WalkParams {
  std::uint64_t seed = 1;        ///< Markov-walk randomness (deterministic)
  std::uint64_t max_steps = 1'000'000;  ///< hard stop for cyclic graphs
  bool emit_forecasts = true;    ///< false → FC blocks are silent (ablation)
  /// Release every active forecast of an SI when the walk leaves its last
  /// usage region — approximated by emitting releases at sink blocks.
  bool release_at_sinks = true;
};

struct WalkStats {
  std::uint64_t steps = 0;            ///< blocks visited
  std::uint64_t si_invocations = 0;
  std::uint64_t forecasts = 0;
  bool reached_sink = false;          ///< walk ended at a block with no exits
  /// The walk was cut short: max_steps ran out before any sink was reached.
  /// Distinct from `!reached_sink` alone so callers can tell "the budget
  /// truncated a longer walk" from other non-sink terminations.
  bool truncated = false;
};

namespace detail {
/// Walks `g` from its entry and builds the corresponding trace. Adjacent
/// compute contributions are merged so the trace stays compact. Not a
/// public entry point: construct the walk through the unified producer seam,
/// `TraceSource::make_graph_walk(...)` (trace_source.hpp).
sim::Trace run_walk(const cfg::BBGraph& g, const forecast::FcPlan& plan,
                    const isa::SiLibrary& lib, const WalkParams& params,
                    WalkStats* stats);
}  // namespace detail

}  // namespace rispp::workload
