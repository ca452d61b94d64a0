#include "report.h"

#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/simd.h"

namespace perfbench {

namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A percentile label: 99.9, not 99.900000000000006.
std::string QuantileLabel(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::atomic<bool> g_interrupted{false};
constexpr int kMaxChildren = 64;
volatile sig_atomic_t g_children[kMaxChildren] = {};

extern "C" void OnInterrupt(int /*signo*/) {
  g_interrupted.store(true);
  for (int i = 0; i < kMaxChildren; ++i) {
    const pid_t pid = static_cast<pid_t>(g_children[i]);
    if (pid > 0) kill(pid, SIGTERM);
  }
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, uint64_t n) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Value{value, unit, n};
}

void Report::Timing(const std::string& name, const Summary& s,
                    const std::string& unit) {
  std::ostringstream line;
  line << name << ": p50 " << FormatNumber(s.p50) << " " << unit;
  if (s.tail_q > 0.0) {
    line << ", " << QuantileLabel(s.tail_q) << " "
         << FormatNumber(s.tail) << " " << unit;
  } else {
    line << ", no tail percentile has " << kMinBeyond << " samples beyond it";
  }
  line << ", n=" << s.n;
  Note(line.str());
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const auto& entry : metrics_) names.push_back(entry.first);
  return names;
}

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  for (const auto& [name, v] : metrics_) {
    std::printf("metric %-32s %s %s", name.c_str(),
                FormatNumber(v.value).c_str(), v.unit.c_str());
    if (v.n > 0) std::printf("  (n=%" PRIu64 ")", v.n);
    std::printf("\n");
  }
  for (const std::string& f : failures_) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("failed_frac %s (%" PRIu64 " of %" PRIu64 " ops)\n",
              FormatNumber(attempted == 0 ? 1.0
                                          : static_cast<double>(failed) /
                                                static_cast<double>(attempted))
                  .c_str(),
              failed, attempted);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(name);
    json += "\": {\"value\": ";
    json += FormatNumber(v.value);
    json += ", \"unit\": \"";
    json += JsonEscape(v.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

namespace {

/// "p50 X, p99 Y, p<tail> Z <unit> (median of W windows, n=N)": each
/// figure the median over windows of that window's percentile; the tail
/// is the highest percentile every window supports.
std::string WindowedTiming(const std::vector<Summary>& windows,
                           const std::string& unit) {
  std::vector<double> p50;
  std::vector<double> p99;
  uint64_t n = 0;
  size_t supported = kLadderSize;
  for (const Summary& s : windows) {
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    n += s.n;
    size_t k = 0;
    while (k < kLadderSize && s.ladder[k] > 0.0) ++k;
    supported = std::min(supported, k);
  }
  std::ostringstream out;
  out << "p50 " << FormatNumber(Median(p50)) << ", p99 "
      << FormatNumber(Median(p99)) << " " << unit;
  if (supported > 0) {
    std::vector<double> tail;
    for (const Summary& s : windows) tail.push_back(s.ladder[supported - 1]);
    out << "; highest percentile with " << kMinBeyond
        << " samples beyond it in every window: "
        << QuantileLabel(kLadder[supported - 1]) << " "
        << FormatNumber(Median(tail)) << " " << unit;
  }
  out << " (median of " << windows.size() << " windows, n=" << n << ")";
  return out.str();
}

}  // namespace

std::string Quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return FormatNumber(Percentile(samples, 0.25)) + " / " +
         FormatNumber(Percentile(samples, 0.5)) + " / " +
         FormatNumber(Percentile(samples, 0.75));
}

void ReportQueryFigures(const WindowFigures& w,
                        const std::vector<double>& setup_s,
                        double peak_rss_mib, const std::string& clients,
                        double rate_per_s, Report* report) {
  const double qps = QuietHigh(w.slice_rates);
  const double latency = QuietLow(w.slice_p50_us);
  report->Metric("ops_per_s", qps, "1/s", w.closed_ops);
  report->Metric("latency_us", latency, "us", w.closed_ops);
  report->Metric("cpu_us_per_op", QuietLow(w.cpu_us_per_op), "us",
                 w.closed_ops);
  report->Metric("peak_rss_mb", peak_rss_mib, "MiB");
  report->Metric("setup_s", Median(setup_s), "s", setup_s.size());
  std::ostringstream windows;
  windows << w.ops_per_s.size() << " windows; per-window qps";
  for (const double v : w.ops_per_s) windows << " " << FormatNumber(v);
  windows << "; per-window closed-loop p50 us";
  for (const double v : w.closed_p50_us) windows << " " << FormatNumber(v);
  windows << "; per-window open-loop p50 / p99 us";
  for (const Summary& s : w.open) {
    windows << " " << FormatNumber(s.p50) << "/" << FormatNumber(s.p99);
  }
  report->Note(windows.str());
  report->Note("cpu_us_per_op: 10th percentile of " +
               std::to_string(w.cpu_us_per_op.size()) +
               " closed-loop windows; quartiles " +
               Quartiles(w.cpu_us_per_op));
  report->Note("query_qps " + FormatNumber(qps) + " 1/s (closed loop, " +
               clients + ", 90th percentile of " +
               std::to_string(w.slice_rates.size()) +
               " 20-ms slices, n=" + std::to_string(w.closed_ops) +
               "); slice quartiles " + Quartiles(w.slice_rates));
  report->Note("query_p50_us " + FormatNumber(latency) +
               " us (closed loop, per-query wall time: 10th percentile of " +
               std::to_string(w.slice_p50_us.size()) +
               " per-slice medians); slice quartiles " +
               Quartiles(w.slice_p50_us));
  report->Note("query_latency_us (open loop, " + FormatNumber(rate_per_s) +
               "/s Poisson, from due time): " + WindowedTiming(w.open, "us"));
  report->Note("load.gen_late_us: " + WindowedTiming(w.late, "us"));
  for (const Summary& s : w.open) {
    if (!s.p99_ok) {
      report->Fail("an open-loop window had too few samples for a p99");
      break;
    }
  }
}

std::string BuildGuardViolation() {
#ifndef QRANK_AUDIT_LEVEL
#error "QRANK_AUDIT_LEVEL must be defined by the build"
#endif
#if QRANK_AUDIT_LEVEL != 0
  return "QRANK_AUDIT_LEVEL is not 0";
#endif
#if !defined(NDEBUG)
  return "assertions are on (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  if (std::string(PERFBENCH_SANITIZE).size() > 0) {
    return std::string("built with QRANK_SANITIZE=") + PERFBENCH_SANITIZE;
  }
  return "";
}

std::string Provenance(const RunOptions& options) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << JsonEscape(cpu) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"simd\": \""
      << qrank::SimdLevelName(qrank::DetectSimdLevel()) << "\", \"commit\": \""
      << JsonEscape(commit != nullptr ? commit : "unknown")
      << "\", \"workload\": \"" << JsonEscape(options.workload)
      << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << FormatNumber(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return out.str();
}

void InstallInterruptHandler() {
  struct sigaction action = {};
  action.sa_handler = OnInterrupt;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

bool Interrupted() { return g_interrupted.load(std::memory_order_relaxed); }

void RegisterChild(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == 0) {
      g_children[i] = pid;
      return;
    }
  }
}

void UnregisterChild(pid_t pid) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] == pid) g_children[i] = 0;
  }
}

double SelfCpuSeconds() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

uint64_t SelfContextSwitches() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double SelfPeakRssMiB() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

TempDir::TempDir(const std::string& parent) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string tmpl = parent + "/run.XXXXXX";
  if (mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
}

TempDir::~TempDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void SpanLog::Append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  dropped_ += other.dropped_;
}

std::vector<double> SpanLog::Durations(const std::string& name,
                                       double unit_per_second) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(std::chrono::duration<double>(s.end - s.start).count() *
                    unit_per_second);
    }
  }
  return out;
}

bool SpanLog::WriteTsv(const std::string& path,
                       Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tparent\top\tstart_ns\tdur_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(
        f, "%s\t%s\t%" PRIu64 "\t%lld\t%lld\n", s.name, s.parent, s.op,
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(s.start -
                                                                 origin)
                .count()),
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(s.end -
                                                                 s.start)
                .count()));
  }
  return std::fclose(f) == 0;
}

double CalibrateSpanCostNs() {
  constexpr int kSpans = 1 << 16;
  SpanLog log(kSpans);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    const Clock::time_point s = Clock::now();
    log.Add("calibrate", "calibrate", static_cast<uint64_t>(i), s,
            Clock::now());
  }
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         kSpans;
}

}  // namespace perfbench
