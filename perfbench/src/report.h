// Run plumbing shared by the workloads: options, the metric report and
// its JSON result line, the build guard, host provenance, the SIGINT
// flag, process resource readings and the span log of traced runs.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_binary;  // qrank_worker, for query-sharded
  std::string scratch_dir;    // private temp dirs and trace files go here
};

/// What a run measured. End-to-end metrics go to the result line of an
/// untraced run, per-layer metrics to that of a traced run; `notes` are
/// printed for the reader only.
class Report {
 public:
  /// A metric of the result line. `n` is its sample count (0 = not a
  /// sampled quantity).
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t n = 0);
  /// A timing summary printed as median, supported tail and n under
  /// the report-level name `name`.
  void Timing(const std::string& name, const Summary& s,
              const std::string& unit);
  void Note(const std::string& line);

  /// Fails the run (correct = false) with a reason.
  void Fail(const std::string& reason);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  std::vector<std::string> Names() const;

  /// Prints the notes, metrics and failures, then the result line.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
    uint64_t n;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// "q1 / median / q3" of a sample, for notes.
std::string Quartiles(std::vector<double> samples);

/// Reports a query workload's end-to-end metrics from its windows:
/// `clients` describes the closed loop, `rate_per_s` the open loop.
void ReportQueryFigures(const WindowFigures& w, const std::vector<double>& setup_s,
                        double peak_rss_mib, const std::string& clients,
                        double rate_per_s, Report* report);

/// Empty when this build may report numbers; otherwise why not
/// (audit level, sanitizer, assertions on).
std::string BuildGuardViolation();

/// One-line JSON stamp: CPU model, nproc, SIMD dispatch level, commit
/// (from PERFBENCH_COMMIT when the checkout is not a git repository),
/// workload and seed.
std::string Provenance(const RunOptions& options);

/// SIGINT/SIGTERM latch. Workload loops poll Interrupted() and unwind,
/// so every resource is released by its destructor.
void InstallInterruptHandler();
bool Interrupted();
/// Registers a child for the signal handler to terminate at once (the
/// regular teardown still reaps it). Unregister after reaping.
void RegisterChild(pid_t pid);
void UnregisterChild(pid_t pid);

/// CPU seconds (user + system) of this process so far, all threads.
double SelfCpuSeconds();
/// Voluntary + involuntary context switches of this process so far.
uint64_t SelfContextSwitches();
/// Peak resident set of this process, MiB.
double SelfPeakRssMiB();
/// CPU seconds and peak RSS (MiB) of another process, from /proc.
double ProcessCpuSeconds(pid_t pid);
double ProcessPeakRssMiB(pid_t pid);

/// A private directory under `parent`, removed with its contents on
/// destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Spans of a traced run: one per call into a layer, sharing the id of
/// the operation (query or generation) that caused it. Each recording
/// thread owns one log; logs are merged and written when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* parent;  // the enclosing operation's span name
    uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanLog(size_t capacity = 1 << 18) { spans_.reserve(capacity); }

  void Add(const char* name, const char* parent, uint64_t op,
           Clock::time_point start, Clock::time_point end) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({name, parent, op, start, end});
    } else {
      ++dropped_;
    }
  }

  void Append(const SpanLog& other);

  /// Durations of every span named `name`, in `unit_per_second` units.
  std::vector<double> Durations(const std::string& name,
                                double unit_per_second) const;

  /// Median duration of spans named `name` (0 when none were recorded).
  double MedianOf(const std::string& name, double unit_per_second) const {
    return Median(Durations(name, unit_per_second));
  }

  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Writes the spans as TSV (name, parent, op, start_ns, dur_ns),
  /// start times relative to `origin`.
  bool WriteTsv(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Cost of recording one span, measured where the benchmark runs (ns).
double CalibrateSpanCostNs();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
