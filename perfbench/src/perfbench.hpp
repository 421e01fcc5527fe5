#pragma once
/// \file perfbench.hpp
/// \brief Shared pieces of the repository benchmark: options, the metric
/// ledger, the traced run's span log and layer clocks, and the interface
/// every workload implements.
///
/// The benchmark drives the library only through its public headers. The
/// untraced run measures end-to-end metrics; the traced run (a separate
/// process, `--trace 1`) times calls into each layer from here, so nothing
/// inside the program is instrumented for it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rispp::rt {
class RisppManager;
}

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::uint64_t now_ns();

inline double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 36;
  bool trace = false;
  /// "full" (the measured sizes) or "tiny" (the self-test sizes).
  std::string size = "full";
  std::string repo_root = ".";
  std::string golden;    ///< fig06 golden run report
  std::string expected;  ///< digests recorded for the default seed
  std::string out_dir;   ///< result files and the Chrome trace
  std::string git = "unknown";
  unsigned jobs = 1;  ///< dse-sweep workers: min(4, nproc)
};

/// One named value with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = not a sampled statistic
  /// False for values that are printed and written to the run file but are
  /// not among BENCHMARK.json's metrics (too noisy to gate on).
  bool listed = true;
};
using Metrics = std::vector<Metric>;

/// Host time spent in the layers the traced run wraps from outside:
/// selection and replacement (timing policies registered under the built-in
/// factory keys) and event delivery to the Profiler (a counting sink in
/// front of it). Written concurrently by sweep workers, hence atomics.
/// While `timing` is false the wrappers only delegate, so the traced run can
/// interleave untraced units with the same (virtual) dispatch as traced ones.
struct LayerClock {
  struct Snapshot {
    std::uint64_t select_calls = 0, select_ns = 0, select_useful = 0;
    std::uint64_t replace_calls = 0, replace_ns = 0;
    std::uint64_t events = 0, sink_ns = 0, task_switches = 0;
    Snapshot operator-(const Snapshot& o) const;
  };

  std::atomic<std::uint64_t> select_calls{0}, select_ns{0}, select_useful{0};
  std::atomic<std::uint64_t> replace_calls{0}, replace_ns{0};
  std::atomic<std::uint64_t> events{0}, sink_ns{0}, task_switches{0};
  std::atomic<bool> timing{false};

  Snapshot snapshot() const;
};

/// Re-registers the factory keys "greedy", "exhaustive", "lru" and "mru"
/// with wrappers that delegate to the built-in classes and charge their
/// time to `clock` while it is timing. Rows stay identical; dispatch moves to
/// the virtual arm for the rest of the process, traced or not.
void register_timing_policies(LayerClock& clock);

/// Spans of the traced run, kept in memory and written once at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0, end_ns = 0;
    std::uint32_t pid = 1;  ///< 1 = benchmark spans, 2 = exp telemetry
    std::uint32_t tid = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 = root
    std::uint64_t unit = 0;    ///< timed unit (op or pass) it belongs to
  };

  /// Opens a span now; close() stamps its end.
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t unit);
  void close(std::int64_t id);
  std::int64_t add(Span s);
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes a Chrome-trace JSON document (opens in Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer raw values of one traced unit, keyed by metric name (times in
/// ms, counts as counts). The benchmark averages them over the traced units
/// and derives the ratios; keys a workload has no use for read as 0.
using LayerValues = std::map<std::string, double>;

/// What the traced run carries into a workload.
struct Tracer {
  LayerClock clock;
  SpanLog log;
  std::uint64_t unit = 0;  ///< index of the unit being timed
  LayerClock::Snapshot mark;

  void begin_unit() { mark = clock.snapshot(); }
  /// Adds the layer-clock deltas since begin_unit() to `v`.
  void end_unit(LayerValues& v) const;

  /// Records `fn()` as span `name` under `parent`; returns its length in ms.
  template <class F>
  double time(const char* name, std::int64_t parent, F&& fn) {
    const auto id = log.open(name, parent, unit);
    fn();
    log.close(id);
    const auto& s = log.spans()[static_cast<std::size_t>(id)];
    return ms_between(s.start_ns, s.end_ns);
  }
};

/// One timed unit: a single op, or one pass over the grid for dse-sweep.
struct Unit {
  bool threw = false;
  double wall_s = 0;
  double sim_cycles = 0;       ///< simulated cycles the unit covered
  std::vector<double> op_ms;   ///< host latency of each op in the unit
  std::uint64_t failed = 0;    ///< ops whose output check failed inline
  LayerValues layers;          ///< traced runs only
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Platform and library build, input generation, plan validation and one
  /// warm-up op: everything setup_s measures. `tr` is set in traced runs.
  virtual void setup(Tracer* tr) = 0;
  /// Runs one timed unit; throws only when the whole unit failed.
  virtual Unit run_unit(Tracer* tr) = 0;
  virtual std::size_t ops_per_unit() const = 0;
  /// False when a unit runs on several threads of its own.
  virtual bool single_threaded() const { return true; }
  /// Checks that need the whole run (reference passes, recorded digests).
  /// Returns the run's failed-op count, given the inline count so far.
  virtual std::uint64_t verify(std::uint64_t attempted,
                               std::uint64_t failed) = 0;
  /// Per-layer values measured once per run rather than per unit (set-up
  /// time, high-water marks); they replace the per-unit means.
  virtual LayerValues run_layers() const { return {}; }
  /// Deterministic output digest of the last verified run (for recording).
  virtual std::string digest() const { return {}; }
};

std::unique_ptr<Workload> make_fig06(const Options& opts);
std::unique_ptr<Workload> make_many_task(const Options& opts);
std::unique_ptr<Workload> make_dse_sweep(const Options& opts);

/// Adds the manager's work counters (reallocations, selector plans, SI
/// executions, rotations, retries) to `v`.
void add_manager_counters(const rispp::rt::RisppManager& m, LayerValues& v);

/// The whole file as bytes; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// FNV-1a over `text`, continuing from `h`.
std::uint64_t fnv1a(const std::string& text,
                    std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

/// The digest recorded in the expected file for (workload, size) at the
/// default seed, or "" when there is none (other seeds, or not recorded).
std::string recorded_digest(const Options& opts);

/// Linear-interpolated quantile (q in [0,1]) of `v`; v must be non-empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
