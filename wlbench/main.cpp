// wlbench: one run of one workload against the WiLocator serving stack.
//
//   wlbench --workload <uplink_replay|noisy_library>
//           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//           --corpus <file>
//   wlbench --make-corpus --seed <n> --corpus <file>
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer ledger with --trace 1. run.py builds
// this binary and wraps it; see README.md in this directory.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <iostream>

#include "workloads.hpp"

namespace {

using namespace wlbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool make_corpus = false;
  std::filesystem::path work_dir = ".bench_build";
  std::filesystem::path corpus;  ///< scan cache of the seed
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("wlbench: missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload")
      a.workload = value();
    else if (k == "--seed")
      a.seed = std::stoull(value());
    else if (k == "--seconds")
      a.seconds = std::stod(value());
    else if (k == "--trace")
      a.trace = value() == "1";
    else if (k == "--work-dir")
      a.work_dir = value();
    else if (k == "--corpus")
      a.corpus = value();
    else if (k == "--make-corpus")
      a.make_corpus = true;
    else
      throw Error("wlbench: unknown argument " + k);
  }
  return a;
}

RunResult run_workload(const std::string& name, const Context& ctx) {
  if (name == "uplink_replay") return run_uplink_replay(ctx);
  if (name == "noisy_library") return run_noisy_library(ctx);
  throw Error("wlbench: unknown workload " + name);
}

void print_metric_json(std::ostream& out, const std::string& name, double v,
                       const std::string& unit, bool first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
      << ", \"unit\": \"" << unit << "\"}";
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"net.http.parse_ns_per_req", "ns"},
      {"net.json.decode_ns_per_scan", "ns"},
      {"net.service.post_us_per_batch", "us"},
      {"net.service.read_hit_ns", "ns"},
      {"net.service.read_pinned_us", "us"},
      {"net.socket_share", "share"},
      {"core.ingest_engine.handoff_us_p50", "us"},
      {"core.ingest_engine.handoff_us_p99", "us"},
      {"core.ingest_engine.queue_depth_max", "count"},
      {"svd.locate_exact_ns", "ns"},
      {"svd.locate_fallback_ns", "ns"},
      {"svd.fallback_share", "share"},
      {"core.tracker.ingest_ns_per_scan", "ns"},
      {"core.ingest_guard.accept_ratio", "share"},
      {"core.ingest_guard.degraded_fixes", "count"},
      {"core.travel_time.add_recent_ns", "ns"},
      {"core.arrival_table.refresh_us", "us"},
      {"core.arrival_table.refreshes_per_kscan", "count"},
      {"core.predictor.eta_us", "us"},
      {"core.persist.prepare_ms", "ms"},
      {"core.persist.commit_ms", "ms"},
      {"core.persist.journal_append_ns", "ns"},
      {"core.persist.checkpoint_bytes", "bytes"},
      {"core.persist.checkpoints_per_run", "count"},
      {"ledger.unexplained_share", "share"},
      {"trace.overhead_share", "share"},
  };
  return units;
}

void print_report(const std::string& title, const RunResult& r) {
  std::cout << "== " << title << " ==\n";
  for (const auto& [name, m] : r.metrics)
    std::cout << "  " << name << " = " << m.value << " " << m.unit << "\n";
  for (const auto& [k, v] : r.notes)
    std::cout << "  " << k << ": " << v << "\n";
  std::cout << "  operations attempted / failed: " << r.attempted << " / "
            << r.failed << "\n";
  for (const auto& f : r.check_failures)
    std::cout << "  CHECK FAILED: " << f << "\n";
  if (r.check_failures.empty()) std::cout << "  correctness checks: all pass\n";
}

int run(const Args& args) {
  const auto corpus = load_corpus(args.seed, args.corpus);
  if (args.make_corpus) {
    std::cout << "corpus seed " << args.seed << ": " << corpus->stream.size()
              << " scans over " << corpus->day.size() << " trips\n";
    return 0;
  }
  const std::vector<core::ScanSubmission> noisy =
      args.workload == "noisy_library" ? noisy_stream(*corpus)
                                       : std::vector<core::ScanSubmission>{};
  const auto& stream =
      args.workload == "noisy_library" ? noisy : corpus->stream;
  const auto run_dir =
      args.work_dir / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(run_dir);
  std::cout << "workload " << args.workload << ", seed " << args.seed << ": "
            << stream.size() << " scans over " << corpus->day.size()
            << " trips\n";

  RunResult result;
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    SpanRecorder off(false);
    result = run_workload(args.workload,
                          {*corpus, stream, run_dir, args.seconds, off});
    print_report(args.workload, result);
    metrics = result.metrics;
  } else {
    // Untraced and traced halves of the same run: their difference is
    // the tracing overhead. End-to-end metrics never come from here.
    SpanRecorder off(false);
    const RunResult plain = run_workload(
        args.workload, {*corpus, stream, run_dir, args.seconds / 2, off});
    SpanRecorder spans(true);
    const Context traced_ctx{*corpus, stream, run_dir, args.seconds / 2,
                             spans};
    result = run_workload(args.workload, traced_ctx);
    print_report(args.workload + " (traced)", result);
    std::vector<std::string> table;
    auto layers = run_ledger(traced_ctx, args.workload, result, table);
    const double base = plain.layer.e2e_ns_per_scan;
    layers["trace.overhead_share"] =
        base > 0 ? (result.layer.e2e_ns_per_scan - base) / base : 0.0;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.check_failures.insert(result.check_failures.end(),
                                 plain.check_failures.begin(),
                                 plain.check_failures.end());

    std::cout << "== per-layer ledger (" << args.workload << ") ==\n";
    for (const auto& [name, unit] : layer_units()) {
      metrics[name] = {layers[name], unit};
      std::cout << "  " << name << " = " << layers[name] << " " << unit << "\n";
    }
    for (const auto& line : table) std::cout << line << "\n";
    std::cout << "  tracing overhead (e2e ns/scan traced vs untraced): "
              << 100.0 * layers["trace.overhead_share"] << "%\n";
    std::cout << "== span self time (client + ledger spans) ==\n";
    for (const auto& [name, v] : spans.self_time())
      std::cout << "  " << name << ": n=" << v.first
                << " self_ms=" << v.second * 1e-6 << "\n";
    const auto trace_path = args.work_dir / "traces" /
                            (args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl");
    spans.write_jsonl(trace_path);
    std::cout << "  spans written: " << spans.size() << " to "
              << trace_path.string() << "\n";
  }
  std::filesystem::remove_all(run_dir);

  const bool correct = result.check_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    print_metric_json(std::cout, name, m.value, m.unit, first);
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.make_corpus && args.workload.empty())
      throw Error("wlbench: --workload is required");
    if (args.corpus.empty()) throw Error("wlbench: --corpus is required");
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
