// The four benchmark workloads. Each is a closed loop with one client:
// the next operation is issued when the previous one returns. Each runs a
// fixed, seeded sequence of operations, verifies every timed operation
// outside its timed interval, and fills an Outcome.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <string>

#include "perfbench/harness/common.h"
#include "src/base/status.h"
#include "src/core/engine.h"
#include "src/eval/executor.h"

namespace perfbench {

/// `batch` (parallel = false) and `batch-par` (parallel = true).
Outcome RunBatch(const Options& options, bool parallel, Tracer* tracer);
Outcome RunServe(const Options& options, Tracer* tracer);
Outcome RunGrounded(const Options& options, Tracer* tracer);

/// Loads `program` and `facts` into a fresh engine through the parsers
/// the CLI uses, under ast.* spans when tracing.
inflog::Status LoadEngine(const std::string& program,
                          const std::string& facts, Tracer* tracer,
                          inflog::Engine* engine);

/// Times one set-up (`setup` returns its status) as an operation of its
/// own, traced in traced runs, and adds it to out->setup_s.
template <typename SetupFn>
inflog::Status TimeSetup(SetupFn&& setup, bool trace, Tracer* tracer,
                         uint32_t* setup_op, Outcome* out) {
  tracer->set_enabled(trace);
  tracer->set_op((*setup_op)++);
  const int64_t start = NowNs();
  inflog::Status status = [&] {
    ScopedSpan span(tracer, "setup");
    return setup();
  }();
  out->setup_s.Add(MsSince(start) / 1e3);
  tracer->set_enabled(false);
  return status;
}

/// Runs cold set-ups at one spread point of the window: at least one, and
/// more until 60 ms have been spent, each freed before the next starts.
/// `setup` builds and drops one instance and returns its status.
template <typename SetupFn>
void TimeColdSetups(SetupFn&& setup, bool trace, Tracer* tracer,
                    uint32_t* setup_op, Outcome* out) {
  const int64_t point_start = NowNs();
  for (int rep = 0; rep < 50 && (rep == 0 || MsSince(point_start) < 60);
       ++rep) {
    const inflog::Status status =
        TimeSetup(setup, trace, tracer, setup_op, out);
    if (!status.ok()) out->SetupFail("cold set-up: " + status.ToString());
  }
}

/// Copies the executor counters of one evaluation (or of the updates of
/// a window) into the eval/opt per-layer metrics.
void AddExecutorLayer(const inflog::EvalStats& stats, double per,
                      Outcome* out);

/// Adds the deterministic executor counters to the fingerprint.
void AddExecutorFingerprint(const inflog::EvalStats& stats,
                            const std::string& prefix, Outcome* out);

/// Timed-loop sizing shared by the workloads: the number of cold set-ups
/// spread through a run and the minimum samples per timed operation.
inline constexpr size_t kSpreadSetups = 10;
inline constexpr size_t kMinSamples = 100;
/// Operation ids of cold set-ups start here, apart from measured ops.
inline constexpr uint32_t kSetupOpBase = 1u << 30;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
