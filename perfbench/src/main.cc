// The repository benchmark program. perfbench/run.py builds and runs it:
//
//   perfbench --workload <serve_read|serve_mixed|crossmatch> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir> [--trace-out <file>]
//
// Prints the host signature, one line per correctness check, one line per
// metric (name, value, unit, sample count), and last one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// An untraced run's metrics are the end-to-end set every workload shares;
// a traced run's are the per-layer set. Exits 1 when any check fails and
// 2 when the run could not be carried out.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by every workload. Each maps to the
// workload's own primary metric: reads on the serve workloads, the join
// call on crossmatch. The read p99 is printed but not among them: on a
// shared host it moved by up to 3x between runs of the same code.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
};

const std::map<std::string, std::map<std::string, std::string>>& EndToEndSources() {
  static const auto* sources = new std::map<std::string, std::map<std::string, std::string>>{
      {"serve_read", {{"ops_per_s", "read_qps"}, {"op_p50_ms", "read_p50_ms"}}},
      {"serve_mixed", {{"ops_per_s", "read_qps"}, {"op_p50_ms", "read_p50_ms"}}},
      {"crossmatch", {{"ops_per_s", "join_points_per_s"}, {"op_p50_ms", "join_call_p50_ms"}}},
  };
  return *sources;
}

constexpr MetricSpec kPerLayer[] = {
    {"server.roundtrip_us", "us"},
    {"server.residual_us", "us"},
    {"server.bytes_per_request", "bytes"},
    {"server.busy", "count"},
    {"engine.view_pin_us", "us"},
    {"engine.count_us", "us"},
    {"engine.range_us", "us"},
    {"engine.box_us", "us"},
    {"engine.knn_us", "us"},
    {"engine.shards_per_query", "count"},
    {"engine.apply_ms", "ms"},
    {"index.leaf_pages_per_query", "pages"},
    {"index.internal_pages_per_query", "pages"},
    {"index.points_scanned_per_query", "count"},
    {"index.efficiency", "ratio"},
    {"index.materialized_rows_per_count", "count"},
    {"decompose.elements_per_query", "count"},
    {"decompose.classify_calls_per_query", "count"},
    {"storage.pager_reads_per_query", "count"},
    {"storage.read_miss_ratio", "ratio"},
    {"storage.wal_syncs_per_commit", "count"},
    {"storage.wal_group_size_mean", "commits"},
    {"storage.wal_bytes_per_op", "bytes"},
    {"storage.snapshot_epoch_lag_mean", "epochs"},
    {"storage.checkpoint_ms", "ms"},
    {"recovery.pages_redone", "pages"},
    {"recovery.log_bytes", "bytes"},
    {"join.call_s", "s"},
    {"join.candidate_pairs", "count"},
    {"join.pairs", "count"},
    {"join.candidate_ratio", "ratio"},
    {"join.sort_pages", "pages"},
    {"join.sort_runs", "count"},
    {"threadpool.task_ms_p50", "ms"},
    {"trace.overhead_frac", "ratio"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_read|serve_mixed|crossmatch> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (EndToEndSources().count(args.workload) == 0) Usage("unknown workload");
  if (args.seconds < 1) Usage("--seconds must be at least 1");
  if (args.workdir.empty()) Usage("--workdir is required");
  args.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  return args;
}

int Main(int argc, char** argv) {
  const RunArgs args = ParseArgs(argc, argv);
  std::printf("host nproc=%d hardware_concurrency=%u cpu=\"%s\" compiler=\"%s\" "
              "build_type=%s\n",
              args.nproc, std::thread::hardware_concurrency(), CpuModel().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("run workload=%s seed=%llu seconds=%d trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    if (args.workload == "crossmatch") {
      RunCrossmatch(args, &report);
    } else {
      RunServe(args, args.workload == "serve_mixed", &report);
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 2;
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  report.Add("error_rate",
             report.attempted() == 0
                 ? 0.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()),
             "ratio", report.attempted());

  std::string metrics;
  const auto emit = [&metrics](const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) {
      if (report.Has(m.name) && report.Unit(m.name) != m.unit) {
        std::fprintf(stderr, "perfbench: %s reported in %s, expected %s\n", m.name,
                     report.Unit(m.name).c_str(), m.unit);
        return 2;
      }
      // A layer this workload does not reach did no work: 0.
      emit(m.name, report.Value(m.name), m.unit);
    }
  } else {
    const auto& sources = EndToEndSources().at(args.workload);
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = sources.find(m.name);
      const std::string source = it == sources.end() ? m.name : it->second;
      if (!report.Has(source)) {
        std::fprintf(stderr, "perfbench: %s was not measured\n", source.c_str());
        return 2;
      }
      emit(m.name, report.Value(source), m.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
