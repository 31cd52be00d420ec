// Shared pieces of the repo benchmark program: command-line arguments, the
// result document, order statistics, and trace-span accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace taserbench {

namespace obs = taser::obs;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;        ///< self-test sizes (seconds of work, not minutes)
  std::string workdir = ".";  ///< scratch files (checkpoints) go here
};

/// One run's output: every metric with its unit, the correctness checks,
/// and free-form notes. Serialized as one JSON object on the last line of
/// stdout; taserbench/run.py turns it into the benchmark's result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A failed check makes the run incorrect; `detail` says what was seen.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void note(const std::string& name, const std::string& value);
  void note(const std::string& name, double value);
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool all_checks_ok() const;
  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks_;
  std::map<std::string, std::string> notes_;  ///< values are JSON literals
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// Linear-interpolated quantile q in [0, 1] of `v` (copied and sorted).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Seconds on the steady clock since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Self-time accounting over the spans under a set of root spans.
///
/// A span's self time is its duration minus the part of its interval that
/// its child spans cover. Summed over a root's tree, the self times add up
/// to the root's duration exactly when children nest inside their parents;
/// the root's own self time is the part no layer span claims, reported as
/// the unattributed remainder.
struct SpanBreakdown {
  std::map<std::string, double> self_ms;   ///< per layer span name, summed
  std::map<std::string, double> total_ms;  ///< per layer span name, summed durations
  std::map<std::string, std::int64_t> calls;
  double roots_ms = 0;      ///< summed root durations (traced end-to-end time)
  double remainder_ms = 0;  ///< summed root self time
  double attributed_ms = 0; ///< summed self time of every non-root span
  std::int64_t roots = 0;

  double self(const std::string& name) const;
  double total(const std::string& name) const;
};

/// Walks the spans recorded since the last clear and accounts every tree
/// rooted at a span named `root_name`.
SpanBreakdown breakdown(const std::string& root_name);

/// Durations (ms) of every collected span named `name`.
std::vector<double> span_durations_ms(const std::string& name);

/// Adds the reconciliation and tracing-overhead metrics for one traced
/// blocking path. `untraced_ms` / `traced_ms` are the same operation timed
/// with tracing off and on, alternated so drift affects both alike.
void report_reconciliation(Report& r, const SpanBreakdown& b,
                           const std::vector<double>& untraced_ms,
                           const std::vector<double>& traced_ms);

/// Set-ups an untraced run times before its timed work and again after it,
/// so that one slow stretch of the host moves only some of them; the run
/// reports the median of all as setup_s.
inline constexpr int kSetupRepeats = 6;

/// Unattributed remainder allowed on a traced blocking path, as a share of
/// its traced end-to-end time.
inline constexpr double kReconcileTolerance = 0.05;

// Workload entry points (train.cpp / serve.cpp).
void run_train(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace taserbench
