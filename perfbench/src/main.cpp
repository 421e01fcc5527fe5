/// rispp_perfbench — the repository benchmark's binary.
///
///   rispp_perfbench --workload fig06|many-task|dse-sweep --seed N
///                   --seconds S --trace 0|1 [--size full|tiny]
///                   [--repo-root DIR] [--golden FILE] [--expected FILE]
///                   [--out-dir DIR] [--git REV]
///
/// --trace 0 sets the workload up 7 times (once at the tiny size; setup_s is
/// the median), runs timed units back to back on one thread for S seconds,
/// checks every op's output and prints the end-to-end metrics. --trace 1 is
/// the traced run: the layers' timing wrappers go in, then untraced and
/// traced units alternate for S seconds; it prints the per-layer metrics
/// and writes a Chrome trace of its spans. The last stdout line is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include <sched.h>

#include "perfbench.hpp"
#include "rispp/obs/json.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: rispp_perfbench --workload fig06|many-task|dse-sweep "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--repo-root DIR] [--golden FILE] [--expected FILE] "
               "[--out-dir DIR] [--git REV]\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "fig06") return make_fig06(opts);
  if (opts.workload == "many-task") return make_many_task(opts);
  if (opts.workload == "dse-sweep") return make_dse_sweep(opts);
  return nullptr;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// High-water mark of this process image's resident memory. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the parent's peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// What a timed loop measured. Untraced loops keep only the flat per-op
/// latencies (8 bytes an op) and running totals, so the benchmark's own
/// bookkeeping barely moves peak_rss_mib; traced loops keep whole units.
struct RunLog {
  std::vector<double> op_ms;  ///< every op of the units that ran, in order
  double seconds = 0, sim_cycles = 0;  ///< totals over the units that ran
  std::uint64_t units = 0, attempted = 0, failed = 0;
  std::vector<Unit> traced;
  /// Windows of about a second of timed units: the open one starts at
  /// op_ms[window_begin]; closed ones add median x seconds to p50_sum.
  std::size_t window_begin = 0;
  double window_s = 0, p50_sum = 0, p50_seconds = 0;

  void close_window() {
    if (window_begin < op_ms.size()) {
      p50_sum += window_s * median({op_ms.begin() + window_begin,
                                    op_ms.end()});
      p50_seconds += window_s;
    }
    window_begin = op_ms.size();
    window_s = 0;
  }

  /// Median op latency: the time-weighted mean of the windows' medians. On
  /// a shared host the op latency is bimodal, with a fast and a slow state
  /// that alternate every few seconds; the median of a whole run jumps
  /// between the two modes, while this moves with the share of time spent
  /// in each.
  double p50_ms() const { return p50_seconds > 0 ? p50_sum / p50_seconds : 0; }

  /// Simulated Mcycles per host second: all cycles over all host time. A
  /// total-over-total rate, not a median of per-unit rates: on a shared
  /// host unit times are multimodal, and a median jumps between the modes
  /// where the mean moves smoothly.
  double mcycles_per_s() const {
    return seconds > 0 ? sim_cycles / seconds / 1e6 : 0;
  }
};

/// Runs one unit and adds it to `log`. Returns its host seconds per
/// simulated cycle, or 0 when it threw. A unit that throws counts all its
/// ops as failed; the run goes on.
double run_once(Workload& wl, Tracer* tr, RunLog& log) {
  if (tr) tr->unit = log.units + 1;
  Unit u;
  try {
    u = wl.run_unit(tr);
  } catch (const std::exception& e) {
    std::cerr << "op failed: " << e.what() << "\n";
    u = Unit{};
    u.threw = true;
    u.failed = wl.ops_per_unit();
  }
  ++log.units;
  log.attempted += u.threw ? wl.ops_per_unit() : u.op_ms.size();
  log.failed += u.failed;
  if (!u.threw) {
    log.seconds += u.wall_s;
    log.sim_cycles += u.sim_cycles;
    log.op_ms.insert(log.op_ms.end(), u.op_ms.begin(), u.op_ms.end());
    log.window_s += u.wall_s;
    if (log.window_s >= 1.0) log.close_window();
  }
  const double s_per_cycle =
      !u.threw && u.sim_cycles > 0 ? u.wall_s / u.sim_cycles : 0.0;
  if (tr) log.traced.push_back(std::move(u));
  return s_per_cycle;
}

bool running(std::uint64_t start, std::uint64_t n, double seconds) {
  return n < 3 || static_cast<double>(now_ns() - start) / 1e9 < seconds;
}

/// Host time a single-threaded workload spends on one CPU before it moves
/// on to the next.
constexpr double kCpuTurnS = 1.0;

/// Runs untraced units back to back until `seconds` have passed (at least
/// three). A single-threaded workload takes the CPUs this process may use
/// in turn, about kCpuTurnS of timed host time on each. Left alone, the
/// scheduler keeps the thread on one vCPU for the whole run, and on a shared
/// host one vCPU's speed differs from another's by up to 19% at the same
/// moment; taking turns averages that out of each run. A multi-threaded
/// unit keeps the process's CPUs, which its workers inherit.
void timed_loop(Workload& wl, double seconds, RunLog& log) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (wl.single_threaded() &&
      sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  std::size_t turn = 0;
  double turn_start = -kCpuTurnS;
  const auto start = now_ns();
  for (std::uint64_t n = 0; running(start, n, seconds); ++n) {
    if (cpus.size() > 1 && log.seconds - turn_start >= kCpuTurnS) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[turn++ % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
      turn_start = log.seconds;
    }
    run_once(wl, nullptr, log);
  }
  if (cpus.size() > 1) sched_setaffinity(0, sizeof allowed, &allowed);
  log.close_window();
}

/// The traced run's loop: pairs of one untraced and one traced unit, the
/// order swapped from pair to pair, so that both arms see the same host.
/// Returns each pair's traced / untraced host time per simulated cycle.
std::vector<double> paired_loop(Workload& wl, double seconds, Tracer& tr,
                                RunLog& untraced, RunLog& traced) {
  std::vector<double> ratios;
  const auto start = now_ns();
  for (std::uint64_t n = 0; running(start, n, seconds); ++n) {
    double cost[2] = {0, 0};  // untraced, traced
    const bool traced_first = n % 2 == 1;
    for (const bool on : {traced_first, !traced_first}) {
      tr.clock.timing.store(on, std::memory_order_relaxed);
      cost[on] = run_once(wl, on ? &tr : nullptr, on ? traced : untraced);
    }
    tr.clock.timing.store(false, std::memory_order_relaxed);
    if (cost[0] > 0 && cost[1] > 0) ratios.push_back(cost[1] / cost[0]);
  }
  return ratios;
}

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
};

Metrics end_to_end(const RunLog& log, const std::vector<double>& setup_s) {
  const double rss = peak_rss_mib();  // before the quantiles copy op_ms
  const auto n = static_cast<std::uint64_t>(log.op_ms.size());
  const auto p = [&](double q) { return n ? quantile(log.op_ms, q) : 0.0; };
  return {
      {"sim_mcycles_per_s", log.mcycles_per_s(), "Mcycles/s", log.units},
      {"points_per_s", log.seconds > 0 ? static_cast<double>(n) / log.seconds
                                       : 0,
       "1/s", log.units},
      {"op_ms_p50", log.p50_ms(), "ms", n},
      {"op_ms_p90", p(0.9), "ms", n},
      {"setup_s", median(setup_s), "s",
       static_cast<std::uint64_t>(setup_s.size())},
      {"peak_rss_mib", rss, "MiB", 0},
      // About 1% of ops meet bursts of interference on a shared host, so
      // the p99 swings by a quarter between runs: reported, not gated.
      {"op_ms_p99", p(0.99), "ms", n, false},
  };
}

/// The per-layer ledger: means of the traced units' raw values, the
/// workload's once-per-run values, and the derived ratios.
Metrics per_layer(const RunLog& log, const LayerValues& once,
                  double untraced_mcps, const std::vector<double>& pairs) {
  LayerValues mean;
  double units = 0, wall_ms = 0;
  for (const auto& u : log.traced) {
    if (u.threw) continue;
    units += 1;
    wall_ms += u.wall_s * 1e3;
    for (const auto& [k, v] : u.layers) mean[k] += v;
  }
  if (units > 0) {
    for (auto& [k, v] : mean) v /= units;
    wall_ms /= units;
  }
  const auto at = [&](const char* k) {
    const auto it = mean.find(k);
    return it == mean.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const double self_ms = at("sim.run_ms") - at("rt.select.ms") -
                         at("rt.replace.ms") - at("obs.sink_ms");
  // The measured self times of one unit. The unit's own glue between the
  // timed calls, and on a sweep pass the runner's work between its spans,
  // is what stays unaccounted. A sweep pass lasts jobs x wall.
  const double accounted =
      at("workload.gen_ms") + at("sim.build_ms") + self_ms +
      at("rt.select.ms") + at("rt.replace.ms") + at("obs.sink_ms") +
      at("obs.finalize_ms") + at("obs.report_ms") + at("exp.point_self_ms") +
      at("exp.gate_wait_ms") + at("exp.sink_flush_ms") +
      at("exp.edge_idle_ms");
  const double unit_ms =
      at("exp.jobs") > 0 ? at("exp.jobs") * wall_ms : wall_ms;
  const double traced_mcps = log.mcycles_per_s();
  for (const auto& [k, v] : once) mean[k] = v;

  return {
      {"workload.gen_ms", at("workload.gen_ms"), "ms"},
      {"workload.trace_ops", at("workload.trace_ops"), "count"},
      {"rt.select.calls", at("rt.select.calls"), "count"},
      {"rt.select.ms", at("rt.select.ms"), "ms"},
      {"rt.select.us_per_call",
       1e3 * ratio(at("rt.select.ms"), at("rt.select.calls")), "us"},
      {"rt.plan_cache_hit_ratio",
       at("rt.reallocations") > 0
           ? 1.0 - at("rt.selector_plans") / at("rt.reallocations")
           : 0.0,
       "ratio"},
      {"rt.select.useful_ratio",
       ratio(at("rt.select.useful"), at("rt.select.calls")), "ratio"},
      {"rt.replace.calls", at("rt.replace.calls"), "count"},
      {"rt.replace.ms", at("rt.replace.ms"), "ms"},
      {"rt.si_exec", at("rt.si_exec"), "count"},
      {"rt.rotations", at("rt.rotations"), "count"},
      {"rt.rotation_retries", at("rt.rotation_retries"), "count"},
      {"sim.run_ms", at("sim.run_ms"), "ms"},
      {"sim.self_ms", self_ms, "ms"},
      {"sim.build_ms", at("sim.build_ms"), "ms"},
      {"sim.ns_per_si", 1e6 * ratio(self_ms, at("rt.si_exec")), "ns"},
      {"sim.task_switches", at("sim.task_switches"), "count"},
      {"obs.events", at("obs.events"), "count"},
      {"obs.events_per_mcycle",
       ratio(at("obs.events"), at("sim.cycles") / 1e6), "1/Mcycle"},
      {"obs.sink_ms", at("obs.sink_ms"), "ms"},
      {"obs.finalize_ms", at("obs.finalize_ms"), "ms"},
      {"obs.report_ms", at("obs.report_ms"), "ms"},
      {"exp.point_eval_ms", at("exp.point_eval_ms"), "ms"},
      {"exp.point_self_ms", at("exp.point_self_ms"), "ms"},
      {"exp.worker_util", at("exp.worker_util"), "ratio"},
      {"exp.idle_ms", at("exp.idle_ms"), "ms"},
      {"exp.edge_idle_ms", at("exp.edge_idle_ms"), "ms"},
      {"exp.gate_waits", at("exp.gate_waits"), "count"},
      {"exp.gate_wait_ms", at("exp.gate_wait_ms"), "ms"},
      {"exp.sink_flush_ms", at("exp.sink_flush_ms"), "ms"},
      {"exp.max_reorder_buffered", at("exp.max_reorder_buffered"), "count"},
      {"exp.validate_ms", at("exp.validate_ms"), "ms"},
      {"trace.untraced_mcycles_per_s", untraced_mcps, "Mcycles/s"},
      {"trace.traced_mcycles_per_s", traced_mcps, "Mcycles/s"},
      {"trace.overhead_pct", pairs.empty() ? 0.0 : 100.0 * (median(pairs) - 1),
       "%", static_cast<std::uint64_t>(pairs.size())},
      {"trace.accounted_ratio", ratio(accounted, unit_ms), "ratio"},
  };
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string provenance(const Options& opts) {
  using rispp::obs::json::escape;
  std::ostringstream o;
  o << "{\"workload\":\"" << escape(opts.workload) << "\",\"seed\":"
    << opts.seed << ",\"seconds\":" << number(opts.seconds)
    << ",\"trace\":" << (opts.trace ? 1 : 0) << ",\"size\":\""
    << escape(opts.size) << "\",\"jobs\":"
    << (opts.workload == "dse-sweep" ? opts.jobs : 1)
    << ",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":\"" << escape(PERFBENCH_COMPILER)
    << "\",\"build_type\":\"" << escape(PERFBENCH_BUILD_TYPE)
    << "\",\"git\":\"" << escape(opts.git) << "\"}";
  return o.str();
}

void report(const Options& opts, const Metrics& metrics, const Outcome& o,
            const std::vector<double>& op_ms) {
  const double error_rate =
      o.attempted ? static_cast<double>(o.failed) / o.attempted : 1.0;
  const auto prov = provenance(opts);
  std::cout << "provenance " << prov << "\n";
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit;
    if (m.samples) std::cout << "  (n=" << m.samples << ")";
    std::cout << "\n";
  }
  std::cout << "  error_rate = " << number(error_rate) << " ratio  ("
            << o.failed << " failed / " << o.attempted << " attempted)\n";

  std::ostringstream metrics_json, file_metrics;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    const auto sep = i ? "," : "";
    if (m.listed)
      metrics_json << (metrics_json.tellp() > 0 ? "," : "") << "\"" << m.name
                   << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
                   << m.unit << "\"}";
    file_metrics << sep << "\n    \"" << m.name
                 << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
                 << m.unit << "\",\"samples\":" << m.samples << "}";
  }
  const auto path = opts.out_dir + "/" + opts.workload + ".seed" +
                    std::to_string(opts.seed) + ".trace" +
                    (opts.trace ? "1" : "0") + ".json";
  std::ofstream f(path, std::ios::binary);
  f << "{\n  \"provenance\": " << prov << ",\n  \"attempted\": "
    << o.attempted << ",\n  \"failed\": " << o.failed
    << ",\n  \"error_rate\": " << number(error_rate) << ",\n  \"metrics\": {"
    << file_metrics.str() << "\n  },\n  \"op_ms\": [";
  // Raw samples, for looking at a run's distribution after the fact.
  for (std::size_t i = 0; i < op_ms.size(); ++i)
    f << (i ? "," : "") << number(op_ms[i]);
  f << "]\n}\n";
  std::cout << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << o.attempted << ", \"failed\": "
            << o.failed << ", \"metrics\": {" << metrics_json.str() << "}}"
            << std::endl;
}

int run(Options opts) {
  if (!make_workload(opts)) return usage();
  opts.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::filesystem::create_directories(opts.out_dir);

  if (!opts.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> wl;
    for (int k = 0, setups = opts.size == "tiny" ? 1 : 7; k < setups; ++k) {
      wl.reset();
      const auto t0 = now_ns();
      wl = make_workload(opts);
      wl->setup(nullptr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    RunLog log;
    timed_loop(*wl, opts.seconds, log);
    const Outcome outcome{log.attempted, wl->verify(log.attempted, log.failed)};
    if (!wl->digest().empty())
      std::cout << "output digest " << wl->digest() << "\n";
    report(opts, end_to_end(log, setup_s), outcome, log.op_ms);
    return 0;
  }

  // The timing wrappers capture the tracer, so it outlives every simulator.
  static Tracer tracer;
  auto wl = make_workload(opts);
  wl->setup(&tracer);
  register_timing_policies(tracer.clock);
  RunLog untraced, traced;
  const auto pairs = paired_loop(*wl, opts.seconds, tracer, untraced, traced);
  const auto attempted = untraced.attempted + traced.attempted;
  const Outcome outcome{
      attempted, wl->verify(attempted, untraced.failed + traced.failed)};
  const auto trace_path = opts.out_dir + "/" + opts.workload + ".trace.json";
  tracer.log.write_chrome_trace(trace_path);
  std::cout << "chrome trace " << trace_path << " ("
            << tracer.log.spans().size() << " spans)\n";
  report(opts,
         per_layer(traced, wl->run_layers(), untraced.mcycles_per_s(), pairs),
         outcome, traced.op_ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opts;
  opts.seed = 1;
  bool golden_set = false, expected_set = false, out_set = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") opts.workload = value;
    else if (flag == "--seed") opts.seed = std::stoull(value);
    else if (flag == "--seconds") opts.seconds = std::stod(value);
    else if (flag == "--trace") opts.trace = value != "0";
    else if (flag == "--size") opts.size = value;
    else if (flag == "--repo-root") opts.repo_root = value;
    else if (flag == "--golden") opts.golden = value, golden_set = true;
    else if (flag == "--expected") opts.expected = value, expected_set = true;
    else if (flag == "--out-dir") opts.out_dir = value, out_set = true;
    else if (flag == "--git") opts.git = value;
    else return usage();
  }
  if (argc % 2 == 0 || (opts.size != "full" && opts.size != "tiny"))
    return usage();
  if (!golden_set)
    opts.golden = opts.repo_root + "/tests/data/fig06_report_golden.json";
  if (!expected_set) opts.expected = opts.repo_root + "/perfbench/expected.json";
  if (!out_set) opts.out_dir = opts.repo_root + "/.bench_build/perfbench-out";
  return run(opts);
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
