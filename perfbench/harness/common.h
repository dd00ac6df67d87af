// Shared harness machinery: the clock, sample statistics, the seeded input
// generator, the in-memory span tracer, the timed-loop schedule and the
// outcome a workload run hands back.
//
// Everything here lives outside the library on purpose: the benchmark
// drives inflog only through its public API, so a change to the library
// can never change how the benchmark measures it.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds.
int64_t NowNs();

/// Milliseconds elapsed since `start_ns`.
double MsSince(int64_t start_ns);

/// One timed quantity's samples.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// SplitMix64. The harness owns its generator so that the generated
/// inputs depend only on the seed, never on library code under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// In-memory span recorder for the traced run. A span records its name,
/// start, end, parent span and operation id; spans stay in memory and are
/// written out once, when the run ends. When disabled every call is one
/// branch, which is how untraced operations of a traced run are timed.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< Index of the enclosing span, -1 for a root.
    uint32_t op;     ///< Operation id shared by every span of one op.
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(uint32_t op) { op_ = op; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int32_t Begin(const char* name);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per operation, the summed duration (ms) of the spans named `name`;
  /// one sample per operation that recorded such a span.
  Samples PerOpTotalMs(std::string_view name) const;
  /// One sample (ms) per span named `name`.
  Samples PerCallMs(std::string_view name) const;
  /// Median over root spans named `root` of the share of the span's
  /// duration covered by its direct children.
  double MedianChildCoverage(std::string_view root) const;
  /// Writes the spans as a Chrome trace-event file (loadable in Perfetto
  /// or chrome://tracing), plus a per-name summary with self times.
  bool WriteTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Decides when the measured loop ends and when the next cold set-up,
/// spread evenly through the measured window, is due.
class Schedule {
 public:
  Schedule(double seconds, size_t setups, size_t min_ops);
  /// True once the window is over and at least min_ops ran, or at the
  /// hard cap of four windows, so a much slower program still ends the
  /// run in bounded time.
  bool Done(size_t ops) const;
  /// True once per 1/setups of the window.
  bool SetupDue();

 private:
  int64_t start_ns_;
  double seconds_;
  size_t setups_;
  size_t min_ops_;
  size_t setups_done_ = 0;
};

/// Result of one workload run, before the shared end-to-end fields.
struct Outcome {
  uint64_t attempted = 0;  ///< Timed operations attempted.
  uint64_t failed = 0;     ///< Of those, failed or wrong.
  bool setup_ok = true;    ///< Every set-up check passed.
  std::vector<std::string> errors;  ///< First failure messages.
  Samples setup_s;   ///< Cold set-ups.
  Samples op_ms;     ///< The workload's answer operation.
  Samples round_ms;  ///< One closed-loop round.
  /// Per-layer metrics this workload measures (the rest report 0).
  std::map<std::string, double> layer;
  /// Traced runs: the traced operations, and the untraced ones between.
  Samples traced_op_ms;
  Samples plain_op_ms;
  Samples plain_round_ms;
  double child_coverage = 0;
  /// Context fields (JSON-encoded values): sizes and configuration.
  std::map<std::string, std::string> context;
  /// Counts that must repeat exactly across runs at one seed (decimal).
  std::map<std::string, std::string> fingerprint;

  /// Records one timed operation and the round it belongs to; in a traced
  /// run (`trace_run`), `traced` says whether its spans were recorded.
  void AddOp(double op, double round, bool trace_run, bool traced);
  /// Records a failed set-up check (marks the run incorrect).
  void SetupFail(const std::string& message);
  /// Records a failed timed operation (counts against ok_rate).
  void OpFail(const std::string& message);
};

/// Command-line options of the harness.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string source_digest = "unknown";
};

/// Fixed memory-bound loop (a hash-table build and probe larger than the
/// per-core caches): p10 and p50 of its per-repetition time, in ms.
struct DriftProbe {
  double p10_ms = 0;
  double p50_ms = 0;
};
DriftProbe RunDriftProbe(bool smoke);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
std::string CpuModel();

/// JSON helpers: a shortest round-trip number and an escaped string.
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
