// Per-layer ledger: the run's corpus replayed through each layer's
// public functions, one layer at a time, timed from outside. No tracing
// lives in the library; every number here is the benchmark timing its
// own calls (one span per layer replay, one child span per chunk).

#include <cmath>
#include <sstream>
#include <unordered_map>

#include "core/arrival_table.hpp"
#include "core/persist.hpp"
#include "core/tracker.hpp"
#include "net/http.hpp"
#include "net/load_driver.hpp"
#include "svd/route_svd.hpp"
#include "workloads.hpp"

namespace wlbench {

namespace {

constexpr std::size_t kChunk = 512;

/// Times `fn(i)` for i in [0, n), one child span per chunk of calls.
template <typename Fn>
std::vector<double> timed(SpanRecorder& spans, const std::string& name,
                          std::size_t n, Fn&& fn) {
  std::vector<double> ns;
  ns.reserve(n);
  const std::int64_t root = spans.begin("ledger." + name);
  std::int64_t chunk_start = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = now_ns();
    fn(i);
    const std::int64_t b = now_ns();
    ns.push_back(static_cast<double>(b - a));
    if ((i + 1) % kChunk == 0 || i + 1 == n) {
      spans.add(name + ".chunk", chunk_start, b, root, i / kChunk);
      chunk_start = now_ns();
    }
  }
  spans.end(root);
  return ns;
}

std::string wire_post(const std::string& body) {
  return "POST /v1/scans HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string fmt(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

}  // namespace

std::map<std::string, double> run_ledger(const Context& ctx,
                                         const std::string& workload,
                                         const RunResult& run,
                                         std::vector<std::string>& table) {
  const Corpus& corpus = ctx.corpus;
  SpanRecorder& spans = ctx.spans;
  std::map<std::string, double> m;
  const LedgerInputs& in = run.layer;
  const double scans_per_batch = 64.0;
  const auto batches64 = batches_of(ctx.stream, 64);
  std::vector<std::string> bodies;
  bodies.reserve(batches64.size());
  for (const auto& b : batches64) bodies.push_back(net::encode_scan_batch(b));
  std::unordered_map<roadnet::TripId, const bench::LiveTrip*> trips;
  for (const bench::LiveTrip& trip : corpus.day) trips[trip.record.id] = &trip;

  // ---- net: HTTP parse (the workload's requests) and scan decode.
  std::vector<std::string> wires;
  for (const std::string& body : bodies) wires.push_back(wire_post(body));
  std::size_t parsed = 0;
  const auto parse_ns = timed(spans, "net.http.parse", wires.size(),
                              [&](std::size_t i) {
                                net::RequestParser parser;
                                parser.feed(wires[i]);
                                parsed += parser.take_request().has_value();
                              });
  m["net.http.parse_ns_per_req"] = median(parse_ns);

  const auto decode_ns = timed(spans, "net.json.decode", bodies.size(),
                               [&](std::size_t i) {
                                 std::string error;
                                 net::decode_scan_batch(bodies[i], &error);
                               });
  m["net.json.decode_ns_per_scan"] = median(decode_ns) / scans_per_batch;

  // ---- net.service: WiLocatorService::handle in-process, in the served
  // configuration (the client latency minus this is the socket share),
  // then reads and checkpoints.
  {
    SetupOptions o = served_options(ctx, "ledger");
    o.serve = false;
    System sys(corpus, o);
    net::WiLocatorService service(*sys.server);
    const auto post_ns =
        timed(spans, "net.service.post", bodies.size(), [&](std::size_t i) {
          service.handle(make_request("POST", "/v1/scans", bodies[i]));
        });
    m["net.service.post_us_per_batch"] = median(post_ns) * 1e-3;

    sys.server->drain();
    sys.server->flush_arrivals();
    std::vector<std::string> hit_targets;
    std::vector<std::string> pinned_targets;
    const auto snap = sys.server->arrival_snapshot();
    for (const bench::LiveTrip& trip : corpus.day) {
      if (snap == nullptr || snap->find(trip.record.id) == nullptr) continue;
      const std::string t =
          "/v1/arrival?trip=" + std::to_string(trip.record.id.value()) +
          "&stop=" + std::to_string(corpus.route_of(trip).stop_count() - 1);
      hit_targets.push_back(t);
      pinned_targets.push_back(t + "&now=" + core::json_num(snap->now));
    }
    std::vector<double> hit_ns, pinned_ns;
    for (int round = 0; round < 20 && !hit_targets.empty(); ++round) {
      const auto h = timed(spans, "net.service.read_hit", hit_targets.size(),
                           [&](std::size_t i) {
                             service.handle(
                                 make_request("GET", hit_targets[i]));
                           });
      hit_ns.insert(hit_ns.end(), h.begin(), h.end());
    }
    for (int round = 0; round < 3 && !pinned_targets.empty(); ++round) {
      const auto p =
          timed(spans, "net.service.read_pinned", pinned_targets.size(),
                [&](std::size_t i) {
                  service.handle(make_request("GET", pinned_targets[i]));
                });
      pinned_ns.insert(pinned_ns.end(), p.begin(), p.end());
    }
    m["net.service.read_hit_ns"] = median(hit_ns);
    m["net.service.read_pinned_us"] = median(pinned_ns) * 1e-3;

    // core.persist: two-phase checkpoint, prepare is what the service
    // takes under its lock.
    std::vector<double> prepare_ns, commit_ns;
    double bytes = 0.0;
    const auto root = spans.begin("ledger.core.persist.checkpoint");
    for (int k = 0; k < 5; ++k) {
      const std::int64_t a = now_ns();
      auto prepared = sys.server->prepare_checkpoint();
      const std::int64_t b = now_ns();
      bytes = static_cast<double>(prepared.body.size());
      sys.server->commit_prepared(std::move(prepared));
      const std::int64_t c = now_ns();
      spans.add("core.persist.prepare", a, b, root, k);
      spans.add("core.persist.commit", b, c, root, k);
      prepare_ns.push_back(static_cast<double>(b - a));
      commit_ns.push_back(static_cast<double>(c - b));
    }
    spans.end(root);
    m["core.persist.prepare_ms"] = median(prepare_ns) * 1e-6;
    m["core.persist.commit_ms"] = median(commit_ns) * 1e-6;
    m["core.persist.checkpoint_bytes"] = bytes;
  }
  std::filesystem::remove_all(ctx.work_dir / "state-ledger");

  // ---- svd: RouteSvd::locate on the recorded rankings, classified by
  // the index's own LocateMetrics counters.
  obs::Registry registry;
  svd::LocateMetrics lm;
  lm.fast_path_hits = &registry.counter("exact");
  lm.fallback_hits = &registry.counter("fallback");
  lm.misses = &registry.counter("miss");
  std::unordered_map<roadnet::RouteId, std::unique_ptr<svd::RouteSvd>> index;
  const auto aps = corpus.city.ap_snapshot();
  for (const auto& route : corpus.city.routes) {
    auto idx = std::make_unique<svd::RouteSvd>(route, aps,
                                               *corpus.city.rf_model);
    idx->set_metrics(lm);
    index[route.id()] = std::move(idx);
  }
  struct Ranked {
    roadnet::RouteId route;
    std::vector<rf::ApId> ranking;
  };
  std::vector<Ranked> rankings;
  for (const auto& sub : ctx.stream) {
    const auto it = trips.find(sub.trip);
    if (it == trips.end()) continue;
    rf::WifiScan clean;
    clean.time = sub.scan.time;
    for (const auto& r : sub.scan.readings)
      if (std::isfinite(r.rssi_dbm)) clean.readings.push_back(r);
    for (auto& ranking : svd::expand_tied_rankings(clean))
      rankings.push_back({it->second->record.route, std::move(ranking)});
  }
  std::vector<double> exact_ns, fallback_ns;
  {
    const std::int64_t root = spans.begin("ledger.svd.locate");
    std::int64_t chunk_start = now_ns();
    for (std::size_t i = 0; i < rankings.size(); ++i) {
      const std::uint64_t e0 = lm.fast_path_hits->value();
      const std::uint64_t f0 = lm.fallback_hits->value();
      const std::int64_t a = now_ns();
      index.at(rankings[i].route)->locate(rankings[i].ranking);
      const double ns = static_cast<double>(now_ns() - a);
      if (lm.fast_path_hits->value() != e0) exact_ns.push_back(ns);
      if (lm.fallback_hits->value() != f0) fallback_ns.push_back(ns);
      if ((i + 1) % kChunk == 0 || i + 1 == rankings.size()) {
        spans.add("svd.locate.chunk", chunk_start, now_ns(), root, i / kChunk);
        chunk_start = now_ns();
      }
    }
    spans.end(root);
  }
  const double located = static_cast<double>(
      lm.fast_path_hits->value() + lm.fallback_hits->value() +
      lm.misses->value());
  m["svd.locate_exact_ns"] = median(exact_ns);
  m["svd.locate_fallback_ns"] = median(fallback_ns);
  m["svd.fallback_share"] =
      located > 0 ? static_cast<double>(lm.fallback_hits->value()) / located
                  : 0.0;

  // ---- core: tracker (guard-free, time-ordered per trip), travel-time
  // store, predictor, arrival refresh and the journal.
  // Refreshes only when flush_arrivals() forces one.
  SetupOptions manual_refresh;
  manual_refresh.min_refresh_wall_s = 1e9;
  System core_sys(corpus, manual_refresh);
  core::WiLocatorServer& server = *core_sys.server;
  std::unordered_map<roadnet::RouteId, std::unique_ptr<core::SvdPositioner>>
      positioners;
  for (const auto& route : corpus.city.routes)
    positioners[route.id()] =
        std::make_unique<core::SvdPositioner>(server.index_for(route.id()));
  std::unordered_map<roadnet::TripId, std::unique_ptr<core::BusTracker>>
      trackers;
  std::unordered_map<roadnet::TripId, SimTime> last_time;
  std::vector<const core::ScanSubmission*> ordered;
  for (const auto& sub : ctx.stream) {
    const auto it = trips.find(sub.trip);
    if (it == trips.end()) continue;
    const auto seen = last_time.find(sub.trip);
    if (seen != last_time.end() && sub.scan.time <= seen->second) continue;
    bool clean = !sub.scan.readings.empty();
    for (const auto& r : sub.scan.readings)
      clean = clean && std::isfinite(r.rssi_dbm);
    if (!clean) continue;
    last_time[sub.trip] = sub.scan.time;
    ordered.push_back(&sub);
    if (trackers.count(sub.trip) == 0) {
      const auto& route = corpus.route_of(*it->second);
      trackers[sub.trip] = std::make_unique<core::BusTracker>(
          route, *positioners.at(route.id()));
    }
  }
  struct FixAt {
    const roadnet::BusRoute* route;
    double offset;
    SimTime time;
  };
  std::vector<FixAt> fixes;
  std::vector<core::TravelObservation> observations;
  const auto track_ns =
      timed(spans, "core.tracker.ingest", ordered.size(), [&](std::size_t i) {
        const auto& sub = *ordered[i];
        auto& tracker = *trackers.at(sub.trip);
        if (const auto fix = tracker.ingest(sub.scan); fix.has_value())
          fixes.push_back({&tracker.route(), fix->route_offset, fix->time});
      });
  for (auto& [trip, tracker] : trackers)
    for (const auto& obs : tracker->drain_segments())
      observations.push_back(obs);
  m["core.tracker.ingest_ns_per_scan"] = median(track_ns);

  const auto add_ns = timed(spans, "core.travel_time.add_recent",
                            observations.size(), [&](std::size_t i) {
                              server.store().add_recent(observations[i]);
                            });
  m["core.travel_time.add_recent_ns"] = median(add_ns);

  const std::size_t eta_n = std::min<std::size_t>(fixes.size(), 20000);
  const std::size_t eta_step = std::max<std::size_t>(1, fixes.size() / 20000);
  const auto eta_ns =
      timed(spans, "core.predictor.predict_arrival", eta_n, [&](std::size_t i) {
        const FixAt& f = fixes[i * eta_step];
        server.predictor().predict_arrival(*f.route, f.offset, f.time,
                                           f.route->stop_count() - 1);
      });
  m["core.predictor.eta_us"] = median(eta_ns) * 1e-3;

  // Arrival refresh: a fresh server fed the stream through ingest_batch
  // in 512-scan batches, with the refresh forced after each batch.
  {
    System refresh_sys(corpus, manual_refresh);
    core::WiLocatorServer& rs = *refresh_sys.server;
    const auto batches512 = batches_of(ctx.stream, 512);
    // Prime the coalescing window: a flush with nothing pending leaves
    // the window open, so the next publish would refresh inside
    // ingest_batch. An empty batch after the first flush closes it; from
    // then on every refresh happens in the timed flush_arrivals().
    if (!batches512.empty()) {
      rs.ingest_batch(batches512[0]);
      rs.flush_arrivals();
      rs.ingest_batch({});
    }
    const std::int64_t root = spans.begin("ledger.core.arrival_table");
    std::vector<double> refresh_ns;
    for (std::size_t k = 1; k < batches512.size(); ++k) {
      const std::int64_t a = now_ns();
      rs.ingest_batch(batches512[k]);
      const std::int64_t b = now_ns();
      rs.flush_arrivals();
      const std::int64_t c = now_ns();
      spans.add("core.ingest_batch", a, b, root, k);
      spans.add("core.arrival_table.refresh", b, c, root, k);
      refresh_ns.push_back(static_cast<double>(c - b));
    }
    spans.end(root);
    m["core.arrival_table.refresh_us"] = median(refresh_ns) * 1e-3;
    const core::IngestStats stats = rs.ingest_stats();
    m["core.ingest_guard.accept_ratio"] =
        stats.submitted > 0 ? static_cast<double>(stats.accepted) /
                                  static_cast<double>(stats.submitted)
                            : 0.0;
    m["core.ingest_guard.degraded_fixes"] =
        static_cast<double>(stats.degraded_fixes);
  }
  const double scans = in.scans;
  m["core.arrival_table.refreshes_per_kscan"] =
      scans > 0 ? 1000.0 * in.refreshes / scans : 0.0;

  {
    core::PersistenceConfig pc;
    pc.dir = (ctx.work_dir / "state-journal").string();
    std::filesystem::remove_all(pc.dir);
    core::StatePersistence persist(pc);
    const auto append_ns = timed(spans, "core.persist.journal_append",
                                 observations.size(), [&](std::size_t i) {
                                   persist.append(
                                       core::JournalRecord::recent_obs,
                                       observations[i]);
                                 });
    m["core.persist.journal_append_ns"] = median(append_ns);
  }
  std::filesystem::remove_all(ctx.work_dir / "state-journal");

  // ---- values measured on the workload run itself.
  m["core.ingest_engine.handoff_us_p50"] = in.handoff_us_p50;
  m["core.ingest_engine.handoff_us_p99"] = in.handoff_us_p99;
  m["core.ingest_engine.queue_depth_max"] = in.queue_depth_max;
  m["core.persist.checkpoints_per_run"] =
      in.runs > 0 ? in.checkpoints / in.runs : 0.0;
  const double client_post_us = in.client_post_ms * 1e3;
  m["net.socket_share"] =
      client_post_us > 0
          ? std::max(0.0,
                     (client_post_us - m["net.service.post_us_per_batch"]) /
                         client_post_us)
          : 0.0;

  // ---- reconciliation: stage costs per scan vs. the e2e cost per scan.
  const double obs_per_scan =
      ordered.empty() ? 0.0
                      : static_cast<double>(observations.size()) /
                            static_cast<double>(ordered.size());
  const double refresh_per_scan = m["core.arrival_table.refreshes_per_kscan"] /
                                  1000.0;
  const double ckpt_per_scan = scans > 0 ? in.checkpoints / scans : 0.0;
  std::vector<std::pair<std::string, double>> rows;
  const bool served = workload != "noisy_library";
  if (served) {
    rows.push_back({"net.http.parse (per scan)",
                    m["net.http.parse_ns_per_req"] / scans_per_batch});
    rows.push_back({"net.json.decode", m["net.json.decode_ns_per_scan"]});
  }
  rows.push_back({"core.tracker.ingest (guard-free: locate + filter)",
                  m["core.tracker.ingest_ns_per_scan"]});
  rows.push_back({"core.travel_time.add_recent",
                  m["core.travel_time.add_recent_ns"] * obs_per_scan});
  rows.push_back({"core.arrival_table.refresh",
                  m["core.arrival_table.refresh_us"] * 1e3 * refresh_per_scan});
  if (served) {
    rows.push_back({"core.persist.journal_append",
                    m["core.persist.journal_append_ns"] * obs_per_scan});
    const double checkpoint_ms =
        m["core.persist.prepare_ms"] + m["core.persist.commit_ms"];
    rows.push_back({"core.persist.checkpoint (prepare + commit)",
                    checkpoint_ms * 1e6 * ckpt_per_scan});
  }
  double sum = 0.0;
  for (const auto& [name, ns] : rows) sum += ns;
  const double e2e = in.e2e_ns_per_scan;
  m["ledger.unexplained_share"] = e2e > 0 ? (e2e - sum) / e2e : 0.0;

  table.push_back("ledger (ns per scan; e2e = wall time per scan)");
  for (const auto& [name, ns] : rows)
    table.push_back("  " + name + ": " + fmt(ns));
  table.push_back("  sum of stages: " + fmt(sum));
  table.push_back("  end-to-end: " + fmt(e2e));
  table.push_back("  unexplained: " + fmt(e2e - sum) + " (" +
                  fmt(100.0 * m["ledger.unexplained_share"]) + "%)");
  table.push_back("  (locate alone, inside tracker: exact " +
                  fmt(m["svd.locate_exact_ns"]) + " ns, fallback " +
                  fmt(m["svd.locate_fallback_ns"]) + " ns; parsed " +
                  std::to_string(parsed) + " requests)");
  return m;
}

}  // namespace wlbench
