// The two workloads. Each returns every end-to-end metric measured on
// its own traffic, plus the correctness verdicts and work counts.

#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <thread>
#include <unordered_map>

#include "core/arrival_table.hpp"
#include "net/http_client.hpp"
#include "net/load_driver.hpp"  // encode_scan_batch, decode_scan_batch

namespace wlbench {

namespace {

constexpr std::size_t kHttpBatch = 64;
constexpr std::size_t kLibraryBatch = 512;
constexpr double kFreshnessTimeoutS = 1.0;
/// Fewest repetitions of a workload's work in one run, so every timing
/// is the best or the mean of at least three.
constexpr std::size_t kMinRepeats = 3;

std::string arrival_target(roadnet::TripId trip, std::size_t stop) {
  return "/v1/arrival?trip=" + std::to_string(trip.value()) +
         "&stop=" + std::to_string(stop);
}

/// The numeric "now" field of an arrival body, as its exact text.
std::optional<std::string> now_field(const std::string& body) {
  const auto at = body.find("\"now\":");
  if (at == std::string::npos) return std::nullopt;
  const auto from = at + 6;
  const auto to = body.find_first_of(",}", from);
  if (to == std::string::npos) return std::nullopt;
  return body.substr(from, to - from);
}

/// A freshness target: the trip's snapshot `now` must reach `t`.
struct Probe {
  roadnet::TripId trip{};
  SimTime t = 0.0;
};

/// Pre-encoded POST bodies plus what each batch carries.
struct EncodedBatch {
  std::string body;
  std::size_t scans = 0;
  /// A trip of the batch whose posting releases a scan from the ingest
  /// guard's reorder buffer, with the newest released scan's time.
  std::optional<Probe> probe;
};

/// Encodes consecutive batches of one per-trip-ordered stream. The
/// guard holds a trip's newest `reorder_depth` scans back until later
/// scans of the trip arrive, so a batch can only publish what it
/// releases; the probe names the batch's last-seen trip that releases
/// one.
std::vector<EncodedBatch> encode(
    const std::vector<std::vector<core::ScanSubmission>>& batches) {
  const std::size_t depth = core::IngestGuardParams{}.reorder_depth;
  std::unordered_map<roadnet::TripId, std::vector<SimTime>> times;
  std::vector<EncodedBatch> out;
  out.reserve(batches.size());
  for (const auto& batch : batches) {
    EncodedBatch e;
    e.body = net::encode_scan_batch(batch);
    e.scans = batch.size();
    for (const auto& sub : batch) times[sub.trip].push_back(sub.scan.time);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      const auto& seen = times[it->trip];
      if (seen.size() > depth) {
        e.probe = Probe{it->trip, seen[seen.size() - 1 - depth]};
        break;
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

/// What the server saw: the decoded bodies, in the order given.
std::vector<core::ScanSubmission> decoded(
    const std::vector<const EncodedBatch*>& batches) {
  std::vector<core::ScanSubmission> out;
  for (const EncodedBatch* b : batches) {
    std::string error;
    auto subs = net::decode_scan_batch(b->body, &error);
    if (!subs.has_value()) throw Error("wlbench: recorded body: " + error);
    out.insert(out.end(), subs->begin(), subs->end());
  }
  return out;
}

/// Freshness: time from a POST ack until a GET for a probed trip of that
/// batch returns a body whose `now` reached the probe's scan time. One
/// probe connection polls every pending sample in turn, so samples
/// overlap instead of being dropped while one waits. A sample still
/// stale after the time-out is kept at its elapsed time (over 1 s) and
/// counted in `timeouts`: the table keeps the answers of a trip whose
/// estimated position did not move, `now` included, so a bus whose fix
/// stalls serves an old `now` although every GET succeeds.
class FreshnessProber {
 public:
  FreshnessProber(std::uint16_t port, const Corpus& corpus,
                  SpanRecorder& spans, std::int64_t parent)
      : client_("127.0.0.1", port), spans_(spans), parent_(parent) {
    for (const bench::LiveTrip& trip : corpus.day)
      last_stop_[trip.record.id] = corpus.route_of(trip).stop_count() - 1;
    thread_ = std::thread([this] { loop(); });
  }
  ~FreshnessProber() { finish(); }
  FreshnessProber(const FreshnessProber&) = delete;
  FreshnessProber& operator=(const FreshnessProber&) = delete;

  void offer(const Probe& p, std::int64_t ack_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    offered_.push_back({p.trip, p.t, ack_ns});
    cv_.notify_one();
  }

  /// Resolves every pending sample (fresh or timed out), then joins.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> freshness_ms;
  std::vector<double> read_us;
  std::uint64_t timeouts = 0;
  std::uint64_t failed = 0;

 private:
  struct Sample {
    roadnet::TripId trip;
    SimTime t;
    std::int64_t ack_ns;
  };

  void loop() {
    std::vector<Sample> pending;
    for (std::uint64_t poll = 0;; ++poll) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (pending.empty())
          cv_.wait(lock, [&] { return !offered_.empty() || stopping_; });
        pending.insert(pending.end(), offered_.begin(), offered_.end());
        offered_.clear();
        if (pending.empty()) return;
      }
      std::erase_if(pending,
                    [&](const Sample& s) { return resolved(s, poll); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// One poll for the sample; true once it is fresh, timed out or failed.
  bool resolved(const Sample& s, std::uint64_t poll) {
    const std::int64_t t0 = now_ns();
    net::ClientResponse r;
    try {
      r = client_.get(arrival_target(s.trip, last_stop_.at(s.trip)));
    } catch (const std::exception&) {
      ++failed;
      return true;
    }
    const std::int64_t t1 = now_ns();
    spans_.add("client.GET /v1/arrival (freshness)", t0, t1, parent_, poll);
    read_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (r.status == 200) {
      const auto now = now_field(r.body);
      if (now.has_value() && std::strtod(now->c_str(), nullptr) >= s.t) {
        freshness_ms.push_back(static_cast<double>(t1 - s.ack_ns) * 1e-6);
        return true;
      }
    } else if (r.status != 404) {
      ++failed;
      return true;
    }
    if (t1 - s.ack_ns > static_cast<std::int64_t>(kFreshnessTimeoutS * 1e9)) {
      freshness_ms.push_back(static_cast<double>(t1 - s.ack_ns) * 1e-6);
      ++timeouts;
      return true;
    }
    return false;
  }

  net::HttpClient client_;
  SpanRecorder& spans_;
  std::int64_t parent_;
  std::unordered_map<roadnet::TripId, std::size_t> last_stop_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Sample> offered_;
  bool stopping_ = false;
  std::thread thread_;
};

/// Adds the prober's polls to the run's operations and its failed polls
/// to the failures; no freshness sample fails a check.
void count_freshness(const FreshnessProber& prober, RunResult& out) {
  out.attempted += prober.read_us.size() + prober.failed;
  out.failed += prober.failed;
  out.check(!prober.freshness_ms.empty(), "no freshness sample");
}

/// Work counts the server did while serving, printed beside throughput.
struct WorkCounts {
  std::uint64_t refreshes = 0;
  double epoch = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  double handoff_p50_us = 0.0;
  double handoff_p99_us = 0.0;
  double queue_depth_max = 0.0;

  void take(const System& sys, const std::filesystem::path& state_dir) {
    const obs::Snapshot snap = sys.server->metrics_snapshot();
    refreshes += snap.counter("arrival_cache.rebuilds");
    epoch = snap.gauge("arrival_cache.epoch");
    if (sys.service != nullptr)
      checkpoints += sys.service->background_checkpoints();
    std::error_code ec;
    const auto bytes =
        std::filesystem::file_size(state_dir / "state.snapshot", ec);
    if (!ec) checkpoint_bytes = bytes;
    if (const auto* h = snap.histogram("engine.latency_us");
        h != nullptr && !h->empty()) {
      handoff_p50_us = h->quantile(0.5);
      handoff_p99_us = h->quantile(0.99);
    }
    if (const auto* h = snap.histogram("engine.queue_depth");
        h != nullptr && !h->empty()) {
      const double width =
          (h->hi - h->lo) / static_cast<double>(h->counts.size());
      for (std::size_t i = 0; i < h->counts.size(); ++i)
        if (h->counts[i] != 0)
          queue_depth_max = std::max(
              queue_depth_max, h->lo + static_cast<double>(i + 1) * width);
    }
  }

  void report(RunResult& out, std::size_t runs) const {
    out.note("work: arrival refreshes", std::to_string(refreshes));
    out.note("work: snapshot epoch at end", std::to_string(epoch));
    out.note("work: background checkpoints", std::to_string(checkpoints));
    out.note("work: checkpoint bytes", std::to_string(checkpoint_bytes));
    out.note("work: service runs", std::to_string(runs));
  }
};

/// Final position of every trip; the determinism and serial-equivalence
/// checks compare these.
struct Outcome {
  std::unordered_map<roadnet::TripId, std::optional<double>> position;
};

Outcome outcome_of(const core::WiLocatorServer& server, const Corpus& corpus) {
  Outcome o;
  for (const bench::LiveTrip& trip : corpus.day)
    o.position[trip.record.id] = server.position(trip.record.id);
  return o;
}

std::size_t position_mismatches(const Outcome& a, const Outcome& b) {
  std::size_t n = 0;
  for (const auto& [trip, pos] : a.position) {
    const auto it = b.position.find(trip);
    if (it == b.position.end() || it->second != pos) ++n;
  }
  return n;
}

void flush_all(core::WiLocatorServer& server, const Corpus& corpus) {
  for (const bench::LiveTrip& trip : corpus.day)
    server.flush_trip(trip.record.id);
}

/// Serial in-process replay (workers=0, persistence off, refresh per
/// batch) of `stream` in 512-scan batches: the reference the served
/// result must equal, and the run's library throughput.
///
/// Single-threaded in-process work repeats exactly, so host contention
/// is all that differs between its repetitions. Its throughput is the
/// fastest repetition's, after scaling: on noisy_library, over four sets
/// of 5-10 seeds, that spread 0.01-0.12 where the median over
/// repetitions spread 0.02-0.14.
struct Reference {
  Outcome unflushed;
  double scans_per_s = 0.0;
};

Reference serial_reference(const Corpus& corpus,
                           const std::vector<core::ScanSubmission>& stream) {
  const auto batches = batches_of(stream, kLibraryBatch);
  Reference out;
  // The host is probed after every batch (workers=0: no program thread
  // runs then).
  for (std::size_t r = 0; r < kMinRepeats; ++r) {
    System ref(corpus, {});
    std::vector<double> probes;
    double busy = 0.0;
    for (const auto& batch : batches) {
      const double t0 = now_s();
      ref.server->ingest_batch(batch);
      busy += now_s() - t0;
      probes.push_back(host_probe_us());
    }
    out.scans_per_s =
        std::max(out.scans_per_s, static_cast<double>(stream.size()) /
                                      (busy * host_scale(probes)));
    if (r == 0) out.unflushed = outcome_of(*ref.server, corpus);
  }
  return out;
}

/// Rider reads against the idle service after a replay: 5,000 snapshot
/// GET /v1/arrival through WiLocatorService::handle, in-process. The
/// 5,000 are made in twelve passes, two at a time 25 ms apart, and each
/// request's fastest pass is kept. A 0.5 us call timed one at a time
/// carries every interrupt that lands on it, and the host switches
/// between two speeds for it within a replay (about 0.5 and 0.8 us on
/// the reference host, on the same vCPU, tens of ms apart). Failed calls
/// are counted in `failed`.
/// Over loopback the tail of an idle read is the host's wake-up jitter,
/// which swung p99 from 76 to 272 us between runs on a shared 4-core VM.
std::vector<double> idle_read_probe(System& sys, const Corpus& corpus,
                                    SpanRecorder& spans, std::int64_t parent,
                                    std::size_t& attempted,
                                    std::size_t& failed) {
  const auto snap = sys.server->arrival_snapshot();
  std::vector<net::HttpRequest> requests;
  for (const bench::LiveTrip& trip : corpus.day)
    if (snap != nullptr && snap->find(trip.record.id) != nullptr)
      requests.push_back(make_request("GET", arrival_target(
          trip.record.id, corpus.route_of(trip).stop_count() - 1)));
  std::vector<double> us;
  if (requests.empty()) return us;
  us.assign(5000, std::numeric_limits<double>::infinity());
  for (int pass = 0; pass < 12; ++pass) {
    if (pass % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    for (std::size_t i = 0; i < us.size(); ++i) {
      const std::int64_t a = now_ns();
      const auto r = sys.service->handle(requests[i % requests.size()]);
      const std::int64_t b = now_ns();
      spans.add("service.handle GET /v1/arrival (idle)", a, b, parent, i);
      us[i] = std::min(us[i], static_cast<double>(b - a) * 1e-3);
      ++attempted;
      if (r.status != 200) ++failed;
    }
  }
  return us;
}

/// Snapshot bodies sampled over HTTP while the service is idle (the
/// checkpoint poll has flushed pending arrivals).
struct ServedBody {
  roadnet::TripId trip;
  std::size_t stop = 0;
  std::string body;
};

std::vector<ServedBody> sample_snapshot_bodies(System& sys,
                                               const Corpus& corpus,
                                               RunResult& out) {
  net::HttpClient client("127.0.0.1", sys.service->port());
  std::vector<ServedBody> served;
  std::size_t round_trip_differs = 0;
  for (std::size_t i = 0; i < corpus.day.size() && served.size() < 32;
       i += std::max<std::size_t>(1, corpus.day.size() / 64)) {
    const bench::LiveTrip& trip = corpus.day[i];
    const std::size_t stop = corpus.route_of(trip).stop_count() - 1;
    const std::string target = arrival_target(trip.record.id, stop);
    const auto hit = client.get(target);
    if (hit.status != 200 || hit.headers.count("X-Cache") == 0) continue;
    served.push_back({trip.record.id, stop, hit.body});
    // The rider-visible round trip: pin the `now` text the body carries.
    const auto now = now_field(hit.body);
    if (now.has_value() && client.get(target + "&now=" + *now).body != hit.body)
      ++round_trip_differs;
  }
  out.note("pinned-now round trip (served now text)",
           std::to_string(served.size() - round_trip_differs) + "/" +
               std::to_string(served.size()) + " bodies equal");
  return served;
}

/// DESIGN section 13: a snapshot body equals the slow-path
/// encode_arrival_json at the same (exact) now. Run after stop().
void check_snapshot_parity(const System& sys,
                           const std::vector<ServedBody>& served,
                           RunResult& out) {
  const auto snap = sys.server->arrival_snapshot();
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  for (const ServedBody& s : served) {
    const core::TripArrivals* ta =
        snap != nullptr ? snap->find(s.trip) : nullptr;
    if (ta == nullptr || s.stop >= ta->body.size() ||
        ta->body[s.stop] != s.body)
      continue;  // the snapshot moved since it was served
    const auto eta = sys.server->eta(s.trip, s.stop, ta->now);
    ++compared;
    const std::string slow =
        eta.has_value()
            ? core::encode_arrival_json(s.trip, s.stop, ta->now, *eta)
            : std::string("(no eta)");
    if (slow != s.body) {
      if (++mismatched == 1)
        out.note("snapshot parity first mismatch", s.body + " vs " + slow);
    }
  }
  out.note("snapshot parity (served body vs slow path, exact now)",
           std::to_string(compared - mismatched) + "/" +
               std::to_string(compared) + " bodies equal");
  out.check(compared > 0, "snapshot parity: no served body to compare");
  out.check(mismatched == 0,
            "snapshot parity: " + std::to_string(mismatched) + " of " +
                std::to_string(compared) +
                " served snapshot bodies differ from the slow path");
}

void accuracy(const core::WiLocatorServer& server, const Corpus& corpus,
              RunResult& out) {
  const auto pos = position_errors(server, corpus);
  const auto eta = eta_errors(server, corpus);
  out.check(!pos.empty() && !eta.empty(), "no accuracy sample");
  out.set("position_err_p50_m", median(pos), "m");
  out.set("eta_err_p50_s", median(eta), "s");
  out.note("accuracy samples",
           std::to_string(pos.size()) + " fixes, " +
               std::to_string(eta.size()) + " ETA queries");
}

/// Checks shared by the served workloads, after the service stopped, and
/// the accuracy of the served day. The served system is released before
/// the serial reference replays, so one server is alive at a time.
void check_served(std::unique_ptr<System> sys, const Corpus& corpus,
                  const std::vector<core::ScanSubmission>& seen,
                  std::uint64_t acked, RunResult& out) {
  const Outcome served = outcome_of(*sys->server, corpus);
  flush_all(*sys->server, corpus);
  const core::IngestStats stats = sys->server->ingest_stats();
  out.check(stats.accounted(), "IngestStats::accounted() is false");
  out.check(stats.accepted + stats.rejected_total() == acked,
            "accepted + rejected (" +
                std::to_string(stats.accepted + stats.rejected_total()) +
                ") != acked scans (" + std::to_string(acked) + ")");
  accuracy(*sys->server, corpus, out);
  sys.reset();
  const Reference ref = serial_reference(corpus, seen);
  const std::size_t mism = position_mismatches(served, ref.unflushed);
  out.note("serial replay positions",
           std::to_string(served.position.size() - mism) + "/" +
               std::to_string(served.position.size()) + " trips equal");
  out.check(mism == 0, "served positions differ from the serial replay for " +
                           std::to_string(mism) + " trips");
  out.set("library_scans_per_s", ref.scans_per_s, "1/s");
}

/// Prints the host scale of each run, so every unscaled time can be
/// recovered from the report.
void note_scales(RunResult& out, const std::vector<double>& scales) {
  std::string text;
  for (const double s : scales) text += std::to_string(s) + " ";
  out.note("host scale per run (nominal probe / measured probe)", text);
}

/// Extra set-ups so setup_s is a median of at least five.
void pad_setups(const Corpus& corpus, SetupOptions options,
                std::vector<double>& setups) {
  while (setups.size() < 5) {
    if (!options.state_dir.empty())
      options.state_dir += "-pad" + std::to_string(setups.size());
    System sys(corpus, options);
    setups.push_back(sys.setup_s);
    sys.stop();
    if (!options.state_dir.empty())
      std::filesystem::remove_all(options.state_dir);
  }
}

}  // namespace

SetupOptions served_options(const Context& ctx, const std::string& tag) {
  SetupOptions o;
  o.workers = 2;
  // Arrival refreshes take 10-20 ms here. With bench_http's 20 ms
  // coalescing they filled 60-90% of the HTTP loop, so closed-loop
  // throughput swung 17k-44k scans/s with the shared host's speed; at
  // 50 ms they take about a third and the swing shrinks.
  o.min_refresh_wall_s = 0.05;
  o.state_dir = ctx.work_dir / ("state-" + tag);
  o.serve = true;
  o.record_latency = ctx.spans.enabled();
  return o;
}

// ---------------------------------------------------------------------------
// uplink_replay: closed-loop replay of the day, 2 POST connections.

RunResult run_uplink_replay(const Context& ctx) {
  const Corpus& corpus = ctx.corpus;
  RunResult out;

  // Trips sharded per connection keep per-trip order.
  std::vector<std::vector<core::ScanSubmission>> shard(2);
  for (const auto& sub : corpus.stream)
    shard[sub.trip.value() % 2].push_back(sub);
  std::vector<std::vector<EncodedBatch>> bodies;
  for (const auto& s : shard)
    bodies.push_back(encode(batches_of(s, kHttpBatch)));
  std::vector<const EncodedBatch*> all;
  for (const auto& conn : bodies)
    for (const auto& b : conn) all.push_back(&b);
  // The reference sees the day in global time order; per-trip order is
  // the same as on either connection.
  std::vector<core::ScanSubmission> seen = decoded(all);
  std::stable_sort(seen.begin(), seen.end(), [](const auto& a, const auto& b) {
    return a.scan.time < b.scan.time;
  });
  RssGrowth rss;

  // Per replay, scaled to nominal host speed by the probes taken before
  // its set-up and after its stop; the mean over replays is reported. A
  // replay's rate also moves with its threads' scheduling, both ways: over
  // five sets of 5-10 seeds the mean spread 0.04-0.12, the median
  // 0.05-0.18 and the fastest replay 0.12-0.21.
  // The idle reads are the exception: a 0.5 us cache-resident call does
  // not follow the memory-bound probe, and its speed switches between two
  // levels whatever the probe says, so the fastest replay's figures are
  // reported, unscaled.
  std::vector<double> setups, scales, rates, post_p50, read_p50, read_p99;
  std::vector<double> post_ms, fresh_ms;
  std::uint64_t fresh_timeouts = 0;
  std::uint64_t total_acked = 0;
  double total_wall = 0.0;
  std::size_t poll_count = 0;
  WorkCounts work;
  std::size_t runs = 0;
  // Replays and the checks on the first one count toward --seconds.
  double measured = 0.0;
  do {
    const double rep_start = now_s();
    const SetupOptions options =
        served_options(ctx, "uplink" + std::to_string(runs));
    auto sys = std::make_unique<System>(corpus, options);
    setups.push_back(sys->setup_s);
    const std::int64_t root = ctx.spans.begin("workload.uplink_replay");
    FreshnessProber prober(sys->service->port(), corpus, ctx.spans, root);

    std::atomic<std::uint64_t> acked{0}, attempted{0}, failed{0};
    std::vector<std::vector<double>> lat(bodies.size());
    const std::int64_t t0 = now_ns();
    std::vector<std::thread> conns;
    for (std::size_t c = 0; c < bodies.size(); ++c) {
      conns.emplace_back([&, c] {
        net::HttpClient client("127.0.0.1", sys->service->port());
        std::uint64_t i = 0;
        for (const EncodedBatch& b : bodies[c]) {
          ++attempted;
          const std::int64_t a = now_ns();
          bool ok = false;
          try {
            const auto r = client.post("/v1/scans", b.body);
            ok = r.status == 200 &&
                 r.body.find("\"enqueued\":" + std::to_string(b.scans)) !=
                     std::string::npos;
          } catch (const std::exception&) {
          }
          const std::int64_t e = now_ns();
          ctx.spans.add("client.POST /v1/scans", a, e, root, i);
          if (!ok) {
            ++failed;
            continue;
          }
          acked += b.scans;
          lat[c].push_back(static_cast<double>(e - a) * 1e-6);
          // A different 1-in-16 subset of batches on each replay, so the
          // samples cover the whole day rather than 16 fixed positions.
          if (++i % 16 == runs % 16 && b.probe.has_value())
            prober.offer(*b.probe, e);
        }
      });
    }
    for (auto& t : conns) t.join();
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    prober.finish();

    total_acked += acked.load();
    total_wall += wall;
    std::vector<double> replay_ms;
    for (const auto& l : lat) replay_ms.insert(replay_ms.end(), l.begin(), l.end());
    post_ms.insert(post_ms.end(), replay_ms.begin(), replay_ms.end());
    poll_count += prober.read_us.size();
    fresh_ms.insert(fresh_ms.end(), prober.freshness_ms.begin(),
                    prober.freshness_ms.end());
    fresh_timeouts += prober.timeouts;
    out.attempted += attempted;
    out.failed += failed;
    count_freshness(prober, out);

    // Quiescent now: the checkpoint poll flushes pending arrivals.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::size_t idle_attempted = 0, idle_failed = 0;
    const auto idle_us = idle_read_probe(*sys, corpus, ctx.spans, root,
                                         idle_attempted, idle_failed);
    ctx.spans.end(root);
    out.check(!idle_us.empty(), "no idle read answered");
    out.attempted += idle_attempted;
    out.failed += idle_failed;
    std::vector<ServedBody> served;
    if (runs == 0) served = sample_snapshot_bodies(*sys, corpus, out);
    const double scale = sys->finish_probe();
    scales.push_back(scale);
    rates.push_back(static_cast<double>(acked.load()) / (wall * scale));
    post_p50.push_back(quantile(replay_ms, 0.5) * scale);
    read_p50.push_back(quantile(idle_us, 0.5));
    read_p99.push_back(quantile(idle_us, 0.99));
    work.take(*sys, options.state_dir);
    if (runs == 0) {
      check_snapshot_parity(*sys, served, out);
      check_served(std::move(sys), corpus, seen, acked.load(), out);
    }
    sys.reset();
    std::filesystem::remove_all(options.state_dir);
    measured += now_s() - rep_start;
    ++runs;
  } while (runs < kMinRepeats || measured < ctx.seconds);

  pad_setups(corpus, served_options(ctx, "uplink-setup"), setups);
  out.set("peak_rss_mb", rss.stop_mb(), "MB");

  out.set("setup_s", median(setups), "s");
  out.set("ingest_scans_per_s", mean(rates), "1/s");
  out.set("post_p50_ms", mean(post_p50), "ms");
  out.note("post_p99_ms, unscaled (printed, not a bounded metric)",
           std::to_string(quantile(post_ms, 0.99)));
  out.set("read_p50_us", *std::min_element(read_p50.begin(), read_p50.end()),
          "us");
  out.set("read_p99_us", *std::min_element(read_p99.begin(), read_p99.end()),
          "us");
  out.set("freshness_mean_ms", mean(fresh_ms), "ms");
  out.set("freshness_p90_ms", quantile(fresh_ms, 0.9), "ms");
  out.note("POST samples", std::to_string(post_ms.size()));
  out.note("idle reads per replay (in-process, 12 passes) / freshness polls",
           "5000 / " + std::to_string(poll_count));
  out.note("freshness samples / time-outs",
           std::to_string(fresh_ms.size()) + " / " +
               std::to_string(fresh_timeouts));
  work.report(out, runs);
  std::string per_replay;
  for (const double r : rates) per_replay += std::to_string(r) + " ";
  out.note("scans/s per replay (scaled)", per_replay);
  std::string reads;
  for (const double r : read_p50) reads += std::to_string(r) + " ";
  out.note("idle read p50 us per replay (the metric is the fastest)", reads);
  note_scales(out, scales);
  out.layer = {
      .e2e_ns_per_scan = 1e9 * total_wall / static_cast<double>(total_acked),
      .client_post_ms = quantile(post_ms, 0.5),
      .handoff_us_p50 = work.handoff_p50_us,
      .handoff_us_p99 = work.handoff_p99_us,
      .queue_depth_max = work.queue_depth_max,
      .checkpoints = static_cast<double>(work.checkpoints),
      .refreshes = static_cast<double>(work.refreshes),
      .scans = static_cast<double>(corpus.stream.size() * runs),
      .runs = static_cast<double>(runs)};
  return out;
}

// ---------------------------------------------------------------------------
// noisy_library: the faulty day through ingest_batch, no sockets.

RunResult run_noisy_library(const Context& ctx) {
  const Corpus& corpus = ctx.corpus;
  RunResult out;
  const auto batches = batches_of(ctx.stream, kLibraryBatch);
  std::unordered_map<roadnet::TripId, std::size_t> last_stop;
  for (const bench::LiveTrip& trip : corpus.day)
    last_stop[trip.record.id] = corpus.route_of(trip).stop_count() - 1;
  RssGrowth rss;

  // Per run, scaled to nominal host speed by the probes taken after each
  // batch (workers=0 and persistence off: no program thread runs then);
  // the fastest run of each timing is reported (see serial_reference).
  std::vector<double> setups, scales, rates, post_p50, post_p99;
  std::vector<double> read_p50, read_p99, fresh_mean, fresh_p90;
  std::size_t reads = 0, fresh_count = 0;
  double busy_total = 0.0;  // unscaled, for the ledger
  std::uint64_t refreshes = 0;
  std::uint64_t no_fix = 0;
  std::size_t runs = 0;
  std::optional<Outcome> first;
  std::unique_ptr<System> last;
  Rng rng(corpus.seed * 17 + 3);
  const double start = now_s();
  do {
    last.reset();
    auto sys = std::make_unique<System>(corpus, SetupOptions{});
    setups.push_back(sys->setup_s);
    core::WiLocatorServer& server = *sys->server;
    const std::int64_t root = ctx.spans.begin("workload.noisy_library");
    struct Pending {
      SimTime t;
      std::int64_t ack_ns;
    };
    std::vector<Pending> pending;
    std::vector<double> batch_ms, eta_us, fresh_ms, probes;
    double busy = 0.0;
    for (std::size_t k = 0; k < batches.size(); ++k) {
      const auto& batch = batches[k];
      ++out.attempted;
      const std::int64_t a = now_ns();
      const core::BatchIngestResult r = server.ingest_batch(batch);
      const std::int64_t e = now_ns();
      ctx.spans.add("lib.ingest_batch", a, e, root, k);
      if (r.enqueued != batch.size()) ++out.failed;
      busy += static_cast<double>(e - a) * 1e-9;
      batch_ms.push_back(static_cast<double>(e - a) * 1e-6);

      const auto snap = server.arrival_snapshot();
      const SimTime snap_now = snap != nullptr ? snap->now : 0.0;
      std::erase_if(pending, [&](const Pending& p) {
        if (snap_now < p.t) return false;
        fresh_ms.push_back(static_cast<double>(now_ns() - p.ack_ns) * 1e-6);
        return true;
      });
      const auto& probe = batch[pick(rng, batch.size())];
      SimTime newest = probe.scan.time;
      for (const auto& sub : batch)
        if (sub.trip == probe.trip) newest = std::max(newest, sub.scan.time);
      // A sample resolves once a later batch is in. The last batch has
      // none, and its (possibly clock-skewed) newest scan may lie beyond
      // every time the server ever sees.
      if (k + 1 < batches.size()) pending.push_back({newest, e});

      // Rider queries from the library: Eq. 9 for trips of this batch
      // that have a fix (the service answers the others 404).
      for (int q = 0; q < 32; ++q) {
        const auto& sub = batch[pick(rng, batch.size())];
        if (!server.position(sub.trip).has_value()) {
          ++no_fix;
          continue;
        }
        ++out.attempted;
        const std::int64_t ra = now_ns();
        const auto eta =
            server.eta(sub.trip, last_stop.at(sub.trip), snap_now);
        const std::int64_t rb = now_ns();
        ctx.spans.add("lib.eta", ra, rb, root, k);
        if (eta.has_value())
          eta_us.push_back(static_cast<double>(rb - ra) * 1e-3);
        else
          ++out.failed;
      }

      // The probe's own time does not count toward pending freshness.
      probes.push_back(host_probe_us());
      for (Pending& p : pending)
        p.ack_ns += static_cast<std::int64_t>(probes.back() * 1e3);
    }
    ctx.spans.end(root);
    // A sample the snapshot never caught up with failed.
    out.failed += pending.size();
    out.check(!eta_us.empty() && !fresh_ms.empty(),
              "no eta read or freshness sample");
    const double scale = host_scale(probes);
    scales.push_back(scale);
    rates.push_back(static_cast<double>(ctx.stream.size()) / (busy * scale));
    busy_total += busy;
    post_p50.push_back(quantile(batch_ms, 0.5) * scale);
    post_p99.push_back(quantile(batch_ms, 0.99) * scale);
    read_p50.push_back(quantile(eta_us, 0.5) * scale);
    read_p99.push_back(quantile(eta_us, 0.99) * scale);
    fresh_mean.push_back(mean(fresh_ms) * scale);
    fresh_p90.push_back(quantile(fresh_ms, 0.9) * scale);
    reads += eta_us.size();
    fresh_count += fresh_ms.size();
    refreshes += server.metrics_snapshot().counter("arrival_cache.rebuilds");
    const Outcome now = outcome_of(server, corpus);
    if (!first.has_value()) {
      first = now;
    } else {
      const std::size_t mism = position_mismatches(*first, now);
      out.check(mism == 0, "repeat run positions differ for " +
                               std::to_string(mism) + " trips");
    }
    ++runs;
    last = std::move(sys);
  } while (runs < kMinRepeats || now_s() - start < ctx.seconds);

  flush_all(*last->server, corpus);
  const core::IngestStats stats = last->server->ingest_stats();
  out.check(stats.accounted(), "IngestStats::accounted() is false");
  out.check(stats.accepted + stats.rejected_total() == ctx.stream.size(),
            "accepted + rejected != submitted scans");
  out.check(stats.submitted == ctx.stream.size(),
            "server submitted count != scans fed");
  accuracy(*last->server, corpus, out);
  last.reset();
  pad_setups(corpus, SetupOptions{}, setups);
  out.set("peak_rss_mb", rss.stop_mb(), "MB");

  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const double rate = *std::max_element(rates.begin(), rates.end());
  out.set("setup_s", median(setups), "s");
  out.set("ingest_scans_per_s", rate, "1/s");
  out.set("library_scans_per_s", rate, "1/s");
  out.set("post_p50_ms", best(post_p50), "ms");
  out.note("post_p99_ms (printed, not a bounded metric)",
           std::to_string(best(post_p99)));
  out.set("read_p50_us", best(read_p50), "us");
  out.set("read_p99_us", best(read_p99), "us");
  out.set("freshness_mean_ms", best(fresh_mean), "ms");
  out.set("freshness_p90_ms", best(fresh_p90), "ms");
  out.note("scans per run (15% faults)", std::to_string(ctx.stream.size()));
  out.note("ingest_batch samples", std::to_string(batches.size() * runs));
  out.note("eta read samples / skipped (trip without a fix)",
           std::to_string(reads) + " / " + std::to_string(no_fix));
  out.note("freshness samples", std::to_string(fresh_count));
  out.note("guard accepted / rejected / degraded fixes",
           std::to_string(stats.accepted) + " / " +
               std::to_string(stats.rejected_total()) + " / " +
               std::to_string(stats.degraded_fixes));
  out.note("work: arrival refreshes", std::to_string(refreshes));
  out.note("work: library runs", std::to_string(runs));
  std::string per_run;
  for (const double r : rates) per_run += std::to_string(r) + " ";
  out.note("scans/s per run (scaled)", per_run);
  note_scales(out, scales);
  out.layer.e2e_ns_per_scan =
      1e9 * busy_total / static_cast<double>(ctx.stream.size() * runs);
  out.layer.refreshes = static_cast<double>(refreshes);
  out.layer.scans = static_cast<double>(ctx.stream.size() * runs);
  out.layer.runs = static_cast<double>(runs);
  return out;
}

}  // namespace wlbench
