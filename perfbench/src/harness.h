#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the perfbench workloads: options, the monotonic
// clock, exact percentiles over raw samples, the in-memory span tracer
// of the traced mode, and the result record main() prints.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/exposition.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // When > 0 the measured phase stops after this many ops instead of
  // after `seconds` (the self-test uses it so counts repeat exactly).
  int64_t max_ops = 0;
  std::string rtpd_path;   // serve only
  std::string trace_out;   // traced mode: where the spans are written
  std::string scratch_dir; // sockets and other run-time files
};

int64_t NowNs();
double NsToMs(int64_t ns);

// VmHWM of /proc/<pid>/status ("self" for this process), in MiB.
double PeakRssMiB(const std::string& pid = "self");

// Exact percentile (linear interpolation between order statistics) of
// the raw samples; sorts `samples` in place.
double Percentile(std::vector<double>* samples, double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool checks_passed = true;  // correctness checks outside the per-op ones
  std::vector<Metric> metrics;
  // Free-form JSON object with sample counts and other run details,
  // printed on the line before the result.
  std::string detail_json = "{}";

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Latency summary of one run's raw per-op samples (milliseconds).
struct LatencySummary {
  size_t samples = 0;
  double p50_ms = 0;
  double p90_ms = 0;
};
LatencySummary Summarize(std::vector<double> samples_ms);

// The end-to-end metric set every workload reports untraced.
void AddEndToEnd(Result* result, double setup_s, int64_t ops,
                 double wall_s, const LatencySummary& latency,
                 double peak_rss_mib);

// Median of fresh set-ups: calls `setup` `repeats` times and returns the
// median wall time of one call in seconds. The last state is kept in
// `*state`; each earlier one is destroyed outside the timed call.
template <typename T, typename Fn>
double MedianSetupSeconds(int repeats, Fn&& setup, T* state) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    int64_t start = NowNs();
    T fresh = setup();
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
    *state = std::move(fresh);
  }
  return Percentile(&times, 0.5);
}

// Moves the calling thread round-robin over the CPUs it may run on, one
// CPU per kStepNs, and restores its affinity on destruction. The host's
// CPUs change speed independently of each other over seconds to minutes;
// a single-threaded run that stayed on one CPU would measure that CPU.
// Rotating makes it sample them all, as the multi-threaded serve workload
// does by itself.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Called between ops: steps to the next CPU once kStepNs have passed.
  void MaybeStep();

 private:
  static constexpr int64_t kStepNs = 250'000'000;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t last_step_ns_ = 0;
};

// In-memory spans of the traced mode. Spans nest (single thread): Begin
// makes the innermost open span the parent. Written out at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled, int tid = 1) : enabled_(enabled), tid_(tid) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int64_t op);
  void End(int span);

  // Sum of the self times (duration minus the time covered by child
  // spans) of every span named `name`, in milliseconds.
  double SelfTimeMs(const std::string& name) const;
  // Total duration of every span named `name`.
  double TotalMs(const std::string& name) const;

  // Chrome trace-event JSON array ("ph":"X"), one event per span of
  // every tracer, one trace thread per tracer.
  static bool WriteJson(const std::string& path,
                        const std::vector<const Tracer*>& tracers);
  bool WriteJson(const std::string& path) const {
    return WriteJson(path, {this});
  }

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t op;
  };
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer),
        span_(tracer->enabled() ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (span_ >= 0) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

// Counter delta by name from an obs::SnapshotDelta (0 when absent).
uint64_t CounterIn(const rtp::obs::MetricsSnapshot& delta,
                   const std::string& name);

// Workload entry points. Each returns false (after printing why to
// stderr) when the run could not be carried out at all.
bool RunCriterion(const Options& options, Result* result);
bool RunUpdateStream(const Options& options, Result* result);
bool RunServe(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
