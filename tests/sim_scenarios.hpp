#pragma once
/// Task sets shared by the simulator tests: the Fig-6 scenario and two
/// many-task contention shapes. Each returns a task list, so the same
/// workload can be fed to sim::Simulator and to the reference driver.

#include <string>
#include <utility>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/sim/trace.hpp"

namespace sim_scenarios {

using rispp::sim::TaskDef;
using rispp::sim::Trace;
using rispp::sim::TraceOp;

/// The exact Fig-6 scenario of bench/fig06_runtime_scenario.cpp, labels and
/// all (two H.264 tasks; run it on six containers with quantum 25000). The
/// seed's recorded trace for it is checked in under tests/data/.
inline std::vector<TaskDef> fig06(const rispp::isa::SiLibrary& lib) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto si0 = lib.index_of("HT_2x2");
  const auto si1 = lib.index_of("HT_4x4");

  Trace a;
  a.push_back(TraceOp::label("T0: steady state — A forecasts SATD_4x4"));
  a.push_back(TraceOp::forecast(satd, 5000));
  for (int i = 0; i < 120; ++i) {
    a.push_back(TraceOp::compute(10000));
    a.push_back(TraceOp::si(satd, 50));
  }

  Trace b;
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

  std::vector<TaskDef> tasks;
  tasks.push_back({"A", std::move(a)});
  tasks.push_back({"B", std::move(b)});
  return tasks;
}

/// Mixed stress workload: `count` tasks, every fourth a short early
/// finisher, every seventh pure bookkeeping (forecast + label only), the
/// rest forecast→execute→release loops — a ragged done/runnable mix that
/// exercises ring unlinking at scale.
inline std::vector<TaskDef> stress(const rispp::isa::SiLibrary& lib,
                                   int count) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto dct = lib.index_of("DCT_4x4");
  std::vector<TaskDef> tasks;
  for (int t = 0; t < count; ++t) {
    Trace tr;
    if (t % 7 == 0) {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 50));
      tr.push_back(TraceOp::label("bookkeeping-only task"));
    } else if (t % 4 == 0) {
      tr.push_back(TraceOp::compute(500));
    } else {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 200));
      for (int i = 0; i < 5; ++i) {
        tr.push_back(TraceOp::compute(2000));
        tr.push_back(TraceOp::si(t % 2 ? satd : dct, 4));
      }
      tr.push_back(TraceOp::release(t % 2 ? satd : dct));
    }
    tasks.push_back({"t" + std::to_string(t), std::move(tr)});
  }
  return tasks;
}

/// bench/kernel_throughput's many-task contention shape: every fourth task
/// a short early finisher, the rest six forecast-annotated compute+SI
/// rounds (run it on six containers with quantum 25000).
inline std::vector<TaskDef> many_task(const rispp::isa::SiLibrary& lib,
                                      int count) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto dct = lib.index_of("DCT_4x4");
  std::vector<TaskDef> tasks;
  for (int t = 0; t < count; ++t) {
    Trace tr;
    if (t % 4 == 0) {
      tr.push_back(TraceOp::compute(500));
    } else {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 200));
      for (int i = 0; i < 6; ++i) {
        tr.push_back(TraceOp::compute(2000));
        tr.push_back(TraceOp::si(t % 2 ? satd : dct, 5));
      }
      tr.push_back(TraceOp::release(t % 2 ? satd : dct));
    }
    tasks.push_back({"t" + std::to_string(t), std::move(tr)});
  }
  return tasks;
}

/// Adds every task to `host` (a Simulator or a reference driver) in order.
template <class Host>
void add_all(Host& host, std::vector<TaskDef> tasks) {
  for (auto& t : tasks) host.add_task(std::move(t));
}

}  // namespace sim_scenarios
