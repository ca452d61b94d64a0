// perfbench: one benchmark command for the repository's three paths.
//
//   perfbench --workload query-sharded|query-local|ingest-stream
//             --seed N --seconds S --trace 0|1
//             --worker PATH/qrank_worker --scratch DIR
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics and the tracing overhead.
// Either way the last line of stdout is the JSON result, after a human-
// readable report that carries the provenance stamp, each timing's
// median, supported tail percentile and sample count, and every output
// check. Normally launched through run.py, which builds this binary.
//
// Exit status: 0 = result printed and every check passed; 1 = result
// printed with failed checks; 2 = usage; 3 = build guard refused to
// report; 130 = interrupted (no result).

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"latency_us", "us"}, {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MiB"},
};

// Every traced run reports all of these; a layer the workload does not
// exercise reads 0 (that layer did no work in that workload).
constexpr MetricSpec kPerLayer[] = {
    {"dist.coord_topk_us", "us"},
    {"dist.rtt_us", "us"},
    {"dist.fanout_self_us", "us"},
    {"dist.encode_ns", "ns"},
    {"dist.decode_ns", "ns"},
    {"dist.worker_engine_us", "us"},
    {"dist.coord_cpu_us_per_query", "us"},
    {"dist.worker_cpu_us_per_query", "us"},
    {"dist.coord_csw_per_query", "count"},
    {"dist.hedges_per_kq", "count"},
    {"dist.degraded", "count"},
    {"serve.topk_global_ns", "ns"},
    {"serve.topk_blend_ns", "ns"},
    {"serve.topk_site_ns", "ns"},
    {"serve.topk_explore_ns", "ns"},
    {"serve.publish_us", "us"},
    {"serve.bundle_load_ms", "ms"},
    {"serve.publish_ordered_ms", "ms"},
    {"ingest.flush_ms", "ms"},
    {"ingest.queue_wait_ms", "ms"},
    {"ingest.batch_events", "count"},
    {"ingest.coalesce_ratio", "ratio"},
    {"graph.apply_ms", "ms"},
    {"graph.frontier_ms", "ms"},
    {"rank.solve_ms", "ms"},
    {"rank.iterations", "count"},
    {"rank.node_updates", "count"},
    {"core.estimate_ms", "ms"},
    {"core.export_ms", "ms"},
    {"ingest.replay_stage_sum_ms", "ms"},
    {"ingest.svc_stage_sum_ms", "ms"},
    {"ingest.svc_apply_p50_ms", "ms"},
    {"ingest.svc_solve_p50_ms", "ms"},
    {"ingest.svc_estimate_p50_ms", "ms"},
    {"ingest.svc_export_p50_ms", "ms"},
    {"ingest.svc_publish_p50_ms", "ms"},
    {"ingest.rejected", "count"},
    {"load.latency_p50_us", "us"},
    {"load.latency_p99_us", "us"},
    {"load.gen_late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload query-sharded|query-local|"
               "ingest-stream --seed N --seconds S --trace 0|1 "
               "--worker PATH --scratch DIR\n");
  return 2;
}

int Run(int argc, char** argv) {
  RunOptions options;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage();
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--worker") {
      options.worker_binary = value;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if ((trace != "0" && trace != "1") || !(options.seconds > 0.0) ||
      options.scratch_dir.empty()) {
    return Usage();
  }
  options.trace = trace == "1";

  void (*workload)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "query-sharded") {
    if (options.worker_binary.empty()) return Usage();
    workload = RunQuerySharded;
  } else if (options.workload == "query-local") {
    workload = RunQueryLocal;
  } else if (options.workload == "ingest-stream") {
    workload = RunIngestStream;
  } else {
    return Usage();
  }

  const std::string violation = BuildGuardViolation();
  if (!violation.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 violation.c_str());
    return 3;
  }

  InstallInterruptHandler();
  std::printf("provenance %s\n", Provenance(options).c_str());
  std::fflush(stdout);
  Report report;
  workload(options, &report);
  if (Interrupted()) {
    std::fprintf(stderr, "perfbench: interrupted\n");
    return 130;
  }

  std::set<std::string> expected;
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) {
      expected.insert(m.name);
      if (!report.Has(m.name)) report.Metric(m.name, 0.0, m.unit);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      expected.insert(m.name);
      if (!report.Has(m.name)) {
        report.Fail(std::string("metric ") + m.name + " was not measured");
      }
    }
  }
  for (const std::string& name : report.Names()) {
    if (expected.count(name) == 0) {
      report.Fail("metric " + name + " is not declared");
    }
  }
  if (report.attempted == 0) report.Fail("no operation was attempted");
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
