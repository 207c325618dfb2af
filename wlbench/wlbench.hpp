// Shared types of the wlbench binary: the seeded corpus, the server
// set-up every workload measures, client-side spans, and the metric
// sink the final JSON line is printed from.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"  // bench::LiveTrip, prediction_samples
#include "core/server.hpp"
#include "net/service.hpp"

namespace wlbench {

using namespace wiloc;

// -- clocks and samples ----------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Linear-interpolated quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Arithmetic mean (0 when empty).
double mean(const std::vector<double>& values);

// -- host speed ----------------------------------------------------------------

/// The shared host's speed drifts by up to 2x over minutes, because other
/// tenants contend for its memory system (steal time stays under 3%, so
/// CPU time drifts too). Timings of the program are therefore scaled to a
/// nominal host speed, measured by a fixed probe that belongs to the
/// benchmark, not the program: a timing t taken while the probe's median
/// time is p is reported as t * (kNominalProbeUs / p)^kProbeExponent.
/// The probe runs only while no program thread runs, so the program
/// cannot slow it.

/// One probe: 20,000 rounds of integer hashing, a lookup in a 256 KiB
/// table and a square root, with the table flushed from the caches
/// first. Returns its wall time in us. A probe whose table stayed cached
/// held its time within 5% while the program slowed by a third; the
/// flushed one follows the program.
double host_probe_us();
/// The speed every scaled timing is reported at: about the probe's
/// time on the reference host (a 4-vCPU Xeon VM).
constexpr double kNominalProbeUs = 250.0;
/// How much more the program slows than the probe: over 23 noisy_library
/// runs (4 seeds) the log of the run's ingest time against the log of its
/// probe median had slope 1.48-1.55 (correlation 0.97). With 1.5 the
/// runs of one seed varied by 2-3% (coefficient of variation), with 1 by
/// 3-5%, unscaled by 8-16%.
constexpr double kProbeExponent = 1.5;
/// 40 probes in a row (about 10 ms), for the gaps between served runs.
std::vector<double> probe_burst();
/// (kNominalProbeUs / median(probe_us))^kProbeExponent: multiply a time
/// by it, divide a rate by it. Throws when there is no sample.
double host_scale(const std::vector<double>& probe_us);

// -- corpus ------------------------------------------------------------------

/// Everything a run feeds the system, generated from the workload seed:
/// the corridor city (fixed), two history days of ground-truth segment
/// times, and one live day of crowd-sensed scans with its ground truth.
struct Corpus {
  std::uint64_t seed = 0;
  sim::City city;
  std::vector<core::TravelObservation> history;  ///< 2 days, ground truth
  std::vector<bench::LiveTrip> day;              ///< live day + scans
  /// The live day's submissions in global time order (stable by trip).
  std::vector<core::ScanSubmission> stream;

  const roadnet::BusRoute& route_of(const bench::LiveTrip& trip) const {
    return city.routes[trip.record.route.index()];
  }
};

/// Loads the corpus of `seed`, generating the expensive crowd scans and
/// caching them in `cache` when that file is absent. The caller names
/// the file after the sources the scans come from, so a changed
/// generator never reads stale scans. Throws on an unreadable cache.
std::unique_ptr<Corpus> load_corpus(std::uint64_t seed,
                                    const std::filesystem::path& cache);

/// The live stream with 15% of every FaultInjector fault class applied
/// per trip, interleaved across trips in arrival order.
std::vector<core::ScanSubmission> noisy_stream(const Corpus& corpus);

/// Splits a stream into consecutive batches of at most `size`.
std::vector<std::vector<core::ScanSubmission>> batches_of(
    const std::vector<core::ScanSubmission>& stream, std::size_t size);

// -- server set-up -----------------------------------------------------------

struct SetupOptions {
  std::size_t workers = 0;
  double min_refresh_wall_s = 0.0;
  std::filesystem::path state_dir;  ///< empty = persistence off
  bool serve = false;               ///< start a WiLocatorService
  /// Engine handoff latency histogram (engine.latency_us); traced runs
  /// only, since it costs a clock read per scan.
  bool record_latency = false;
};

/// A trained server with every live trip registered and, optionally, a
/// started service. Construction is what `setup_s` times.
struct System {
  std::unique_ptr<core::WiLocatorServer> server;
  std::unique_ptr<net::WiLocatorService> service;
  double setup_raw_s = 0.0;  ///< wall time of set-up
  double setup_s = 0.0;      ///< scaled to nominal host speed
  /// Host-speed probes taken before set-up (and after, by finish_probe).
  std::vector<double> probe_us;

  System(const Corpus& corpus, const SetupOptions& options);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Stops the service (drain + final checkpoint) if one runs.
  void stop();
  /// Stops the service, probes the host again and returns the scale of
  /// the run between the two probe bursts (see host_scale).
  double finish_probe();
};

// -- spans -------------------------------------------------------------------

/// One client-side span: a request or an in-process ledger call.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 = root
  std::uint64_t request = 0;
};

/// In-memory span store; disabled recorders cost one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (-1 when disabled).
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::uint64_t request = 0);
  void end(std::int64_t id);
  /// Records a finished span.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::uint64_t request);
  /// Self time per span name (duration minus the children's union), ns.
  std::map<std::string, std::pair<std::uint64_t, double>> self_time() const;
  void write_jsonl(const std::filesystem::path& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// -- results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What the per-layer ledger takes from the workload run itself. Zero
/// where the workload has no such layer (no sockets, no engine, ...).
struct LedgerInputs {
  double e2e_ns_per_scan = 0.0;  ///< the cost per scan it reconciles
  double client_post_ms = 0.0;   ///< client POST p50
  double handoff_us_p50 = 0.0;   ///< engine.latency_us (traced runs)
  double handoff_us_p99 = 0.0;
  double queue_depth_max = 0.0;  ///< engine.queue_depth
  double checkpoints = 0.0;      ///< background checkpoints, all runs
  double refreshes = 0.0;        ///< arrival refreshes, all runs
  double scans = 0.0;            ///< scans ingested, all runs
  double runs = 0.0;
};

/// What a workload hands back to main: metrics, operation counts and
/// the work counts printed beside every throughput.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< correctness checks
  std::vector<std::pair<std::string, std::string>> notes;  ///< printed
  LedgerInputs layer;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// Positioning error (m) of every fix the server produced for the day.
std::vector<double> position_errors(const core::WiLocatorServer& server,
                                    const Corpus& corpus);
/// Fig. 8b protocol over every fourth trip of the day with the server's
/// predictor (s).
std::vector<double> eta_errors(const core::WiLocatorServer& server,
                               const Corpus& corpus);

/// A request for WiLocatorService::handle, without a socket.
net::HttpRequest make_request(std::string method, const std::string& target,
                              std::string body = {});

/// Peak growth of this process's resident set above the level at
/// construction, sampled every 5 ms on a background thread. Freed heap is
/// returned to the system first, so the baseline is what is live.
class RssGrowth {
 public:
  RssGrowth();
  ~RssGrowth() { stop_mb(); }
  RssGrowth(const RssGrowth&) = delete;
  RssGrowth& operator=(const RssGrowth&) = delete;

  /// Stops sampling (idempotent) and returns the peak growth, MB.
  double stop_mb();

 private:
  std::int64_t baseline_ = 0;
  std::int64_t peak_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace wlbench
