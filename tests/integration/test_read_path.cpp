// The lock-free rider read path over HTTP (DESIGN.md §13): snapshot
// fast-path hits with X-Cache/X-Epoch, byte parity with the pinned-now
// slow path, epoch advancement as ingest changes remaining segments,
// degraded-mode precedence (fresh snapshot before last-good bodies),
// the bounded last-good LRU, and the zero-lock guarantee under a
// concurrent ingest + read load (runs under TSan in CI via the Http*
// regex).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../helpers.hpp"
#include "net/json.hpp"
#include "net/load_driver.hpp"
#include "net/service.hpp"
#include "sim/bus_trip.hpp"

namespace wiloc::net {
namespace {

using roadnet::TripId;

struct ReadPathFixture {
  wiloc::testing::MiniCity city;
  sim::TrafficModel traffic{31};
  core::WiLocatorServer server;

  ReadPathFixture()
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots()) {}

  explicit ReadPathFixture(const core::ServerConfig& config)
      : server({&city.route_a(), &city.route_b()}, city.ap_snapshot(),
               city.model, DaySlots::paper_five_slots(), config) {}

  void train(int days = 2) {
    Rng rng(55);
    std::uint32_t trip_id = 1000;
    for (int day = 0; day < days; ++day) {
      for (std::size_t r = 0; r < city.routes.size(); ++r) {
        for (double tod = hms(7); tod < hms(20); tod += 1800.0) {
          const auto trip = sim::simulate_trip(
              TripId(trip_id++), city.routes[r], city.profiles[r], traffic,
              at_day_time(day, tod), rng);
          for (const auto& seg : trip.segments) {
            if (seg.travel_time() <= 0.0) continue;
            server.load_history({city.routes[r].edges()[seg.edge_index],
                                 city.routes[r].id(), seg.exit,
                                 seg.travel_time()});
          }
        }
      }
    }
    server.finalize_history();
  }

  std::vector<sim::ScanReport> live_reports(TripId id, double day_time,
                                            std::size_t r = 0) {
    Rng rng(77);
    const auto trip =
        sim::simulate_trip(id, city.routes[r], city.profiles[r], traffic,
                           at_day_time(5, day_time), rng);
    const rf::Scanner scanner;
    return sim::sense_trip(trip, city.routes[r], city.aps, city.model,
                           scanner, rng);
  }
};

/// Posts `reports[first, last)` as /v1/scans JSON batches of 50.
void post_scans(WiLocatorService& service,
                const std::vector<sim::ScanReport>& reports,
                std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; i += 50) {
    std::vector<core::ScanSubmission> batch;
    for (std::size_t j = i; j < std::min(i + 50, last); ++j)
      batch.push_back({reports[j].trip, reports[j].scan});
    const HttpResponse resp = service.handle(
        {.method = "POST", .path = "/v1/scans",
         .body = encode_scan_batch(batch)});
    ASSERT_EQ(resp.status, 200) << resp.body;
  }
}

HttpRequest arrival_get(const std::string& trip_or_route,
                        const std::string& id, const std::string& stop) {
  HttpRequest req{.method = "GET", .path = "/v1/arrival"};
  req.query = {{trip_or_route, id}, {"stop", stop}};
  return req;
}

TEST(HttpReadPath, SnapshotServesRiderReadsWithoutLocks) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_FALSE(reports.empty());
  post_scans(service, reports, 0, reports.size());

  // Trip-level rider poll: pre-encoded bytes, no locks, tagged headers.
  const HttpResponse hit = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  ASSERT_EQ(hit.headers.count("X-Cache"), 1u);
  EXPECT_EQ(hit.headers.at("X-Cache"), "hit");
  ASSERT_EQ(hit.headers.count("X-Epoch"), 1u);
  const auto doc = parse_json(hit.body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_number("trip").value_or(-1), 5.0);
  EXPECT_EQ(doc->get_number("stop").value_or(-1), 3.0);
  EXPECT_GT(doc->get_number("eta_s").value_or(-1), 0.0);

  // Route-level poll rides the materialized best-trip index.
  const HttpResponse by_route =
      service.handle(arrival_get("route", "0", "3"));
  ASSERT_EQ(by_route.status, 200) << by_route.body;
  EXPECT_EQ(by_route.headers.at("X-Cache"), "hit");
  EXPECT_EQ(by_route.body, hit.body);  // only trip 5 is active

  // Traffic map without `now`: the same snapshot's pre-encoded body.
  const HttpResponse map =
      service.handle({.method = "GET", .path = "/v1/traffic-map"});
  ASSERT_EQ(map.status, 200);
  EXPECT_EQ(map.headers.at("X-Cache"), "hit");
  const auto map_doc = parse_json(map.body);
  ASSERT_TRUE(map_doc.has_value());
  EXPECT_EQ(map_doc->get("segments")->as_array()->size(), 6u);

  const auto snap = f.server.metrics_snapshot();
  EXPECT_GE(snap.counter("arrival_cache.hits"), 3u);
  EXPECT_EQ(snap.counter("http.read_slow_path"), 0u);
  EXPECT_EQ(snap.counter("http.degraded_reads"), 0u);
  EXPECT_GE(snap.counter("arrival_cache.rebuilds"), 1u);
}

/// The text of the body's "now" field, exactly as served.
std::string served_now_text(const std::string& body) {
  const std::string key = "\"now\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  return body.substr(begin, body.find(',', begin) - begin);
}

TEST(HttpReadPath, PinnedNowSlowPathMatchesSnapshotBytes) {
  // A rider that echoes the served `now` text back must get the
  // materialized bytes again through the locked prediction chain: for
  // every stop of every tracked trip, after every publish. json_num
  // prints the shortest text that reads back to the same double, so the
  // echoed value is exactly the one the snapshot was computed at.
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  for (const char* trip : {R"({"trip":5,"route":0})", R"({"trip":6,"route":0})",
                           R"({"trip":7,"route":1})"})
    ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                              .body = trip})
                  .status,
              200);
  auto reports = f.live_reports(TripId(5), hms(9));
  for (const auto& more : {f.live_reports(TripId(6), hms(9, 7), 0),
                           f.live_reports(TripId(7), hms(9, 3), 1)})
    reports.insert(reports.end(), more.begin(), more.end());
  std::stable_sort(reports.begin(), reports.end(),
                   [](const auto& a, const auto& b) {
                     return a.scan.time < b.scan.time;
                   });

  std::size_t compared = 0;
  std::size_t mismatched = 0;
  std::set<std::uint64_t> epochs;
  for (std::size_t i = 0; i < reports.size(); i += 2) {
    post_scans(service, reports, i, std::min(i + 2, reports.size()));
    const auto snap = f.server.arrival_snapshot();
    if (snap == nullptr) continue;
    epochs.insert(snap->epoch);
    for (const auto& [trip, arrivals] : snap->trips) {
      for (std::size_t stop = 0; stop < arrivals->body.size(); ++stop) {
        const std::string trip_s = std::to_string(trip.value());
        const std::string stop_s = std::to_string(stop);
        const HttpResponse hit =
            service.handle(arrival_get("trip", trip_s, stop_s));
        ASSERT_EQ(hit.status, 200) << hit.body;
        ASSERT_EQ(hit.headers.count("X-Cache"), 1u);
        HttpRequest pinned = arrival_get("trip", trip_s, stop_s);
        pinned.query["now"] = served_now_text(hit.body);
        const HttpResponse slow = service.handle(pinned);
        ASSERT_EQ(slow.status, 200) << slow.body;
        EXPECT_EQ(slow.headers.count("X-Cache"), 0u);
        ++compared;
        if (slow.body != hit.body && ++mismatched <= 3)
          ADD_FAILURE() << "snapshot " << hit.body << "\nslow path "
                        << slow.body;
      }
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << compared << " over "
                            << reports.size() << " scans";
  EXPECT_GE(epochs.size(), 10u) << reports.size() << " scans";
  EXPECT_GE(compared, 300u);
  // A pinned `now` is a computation request, not a slow-path miss.
  EXPECT_EQ(f.server.metrics_snapshot().counter("http.read_slow_path"), 0u);
}

TEST(HttpReadPath, RouteLevelNextBusIsShortOfTheStop) {
  // GET /v1/arrival?route=R&stop=S names the next bus to reach S: a
  // trip already past S answers eta 0 for it and must not win, on the
  // snapshot path and on the pinned-now slow path alike; with no trip
  // short of S both paths answer 404.
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  for (const char* id : {"5", "6"}) {
    const std::string body = std::string(R"({"route":0,"trip":)") + id + "}";
    ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                              .body = body})
                  .status,
              200);
  }
  // Route A's stops sit at 0, 700, 1400 and 2000 m. Trip 5 goes past
  // stop 1; trip 6, seven minutes behind, stays short of it.
  const auto ahead = f.live_reports(TripId(5), hms(9));
  const auto behind = f.live_reports(TripId(6), hms(9, 7));
  const auto offset = [&](std::uint32_t trip) {
    return f.server.position(TripId(trip)).value_or(-1.0);
  };
  for (std::size_t i = 0; i < ahead.size() && offset(5) < 900.0; ++i)
    post_scans(service, ahead, i, i + 1);
  for (std::size_t i = 0; i < behind.size() && offset(6) < 100.0; ++i)
    post_scans(service, behind, i, i + 1);
  ASSERT_GT(offset(5), 700.0);
  ASSERT_LT(offset(5), 1400.0);
  ASSERT_GT(offset(6), 0.0);
  ASSERT_LT(offset(6), 700.0);

  // Trip 5 itself still answers for the stop it passed: eta 0.
  const HttpResponse passed = service.handle(arrival_get("trip", "5", "1"));
  ASSERT_EQ(passed.status, 200) << passed.body;
  EXPECT_EQ(parse_json(passed.body)->get_number("eta_s").value_or(-1), 0.0);

  const HttpResponse hit = service.handle(arrival_get("route", "0", "1"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  EXPECT_EQ(hit.headers.count("X-Cache"), 1u);
  EXPECT_EQ(parse_json(hit.body)->get_number("trip").value_or(-1), 6.0)
      << hit.body;
  EXPECT_GT(parse_json(hit.body)->get_number("eta_s").value_or(-1), 0.0);
  HttpRequest pinned = arrival_get("route", "0", "1");
  pinned.query["now"] = served_now_text(hit.body);
  const HttpResponse slow = service.handle(pinned);
  ASSERT_EQ(slow.status, 200) << slow.body;
  EXPECT_EQ(slow.headers.count("X-Cache"), 0u);
  EXPECT_EQ(slow.body, hit.body);

  // Stop 2 is ahead of both; trip 5 is nearer and arrives first.
  const HttpResponse next = service.handle(arrival_get("route", "0", "2"));
  ASSERT_EQ(next.status, 200) << next.body;
  EXPECT_EQ(parse_json(next.body)->get_number("trip").value_or(-1), 5.0);

  // Both trips are past stop 0: no next bus, on either path. The
  // snapshot answers that 404 itself, without the lock.
  const auto slow_reads = [&] {
    return f.server.metrics_snapshot().counter("http.read_slow_path");
  };
  const std::uint64_t slow_before = slow_reads();
  const HttpResponse none = service.handle(arrival_get("route", "0", "0"));
  EXPECT_EQ(none.status, 404) << none.body;
  EXPECT_EQ(none.headers.count("X-Cache"), 1u);
  EXPECT_EQ(slow_reads(), slow_before);
  HttpRequest none_pinned = arrival_get("route", "0", "0");
  none_pinned.query["now"] = served_now_text(hit.body);
  const HttpResponse none_slow = service.handle(none_pinned);
  EXPECT_EQ(none_slow.status, 404);
  EXPECT_EQ(none_slow.body, none.body);
  // A stop past the route's last one is no snapshot answer: the slow
  // path decides (a bad stop).
  EXPECT_EQ(service.handle(arrival_get("route", "0", "9")).status, 400);
  EXPECT_EQ(slow_reads(), slow_before + 1);
}

TEST(HttpReadPath, EpochAdvancesWithRemainingSegmentEvidence) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);

  post_scans(service, reports, 0, reports.size() / 2);
  const HttpResponse early = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(early.status, 200) << early.body;
  ASSERT_EQ(early.headers.count("X-Epoch"), 1u);
  const std::uint64_t e1 = std::stoull(early.headers.at("X-Epoch"));

  // The second half of the trip: the bus moves and fresh traversals
  // land on the store, so the cached answer must be re-materialized at
  // a later epoch with different bytes.
  post_scans(service, reports, reports.size() / 2, reports.size());
  const HttpResponse late = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(late.status, 200) << late.body;
  const std::uint64_t e2 = std::stoull(late.headers.at("X-Epoch"));
  EXPECT_GT(e2, e1);
  EXPECT_NE(late.body, early.body);
  EXPECT_GE(f.server.metrics_snapshot().counter("arrival_cache.invalidations"),
            1u);
}

TEST(HttpReadPath, ForcedDegradedServesSnapshotBeforeLastGood) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  post_scans(service, reports, 0, reports.size());

  service.set_degraded(true);
  // No-`now` reads keep getting the *fresh* materialized answer: the
  // snapshot outranks the stale last-good cache in the degraded ladder.
  const HttpResponse fresh = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(fresh.status, 200) << fresh.body;
  EXPECT_EQ(fresh.headers.at("X-Cache"), "hit");
  EXPECT_EQ(fresh.headers.count("X-Degraded"), 0u);
  EXPECT_EQ(f.server.metrics_snapshot().counter("http.degraded_reads"), 0u);

  // A pinned-`now` read cannot use the snapshot; with no last-good body
  // for that exact target it sheds instead of touching the engine.
  HttpRequest pinned = arrival_get("trip", "5", "3");
  pinned.query["now"] = "123456";
  const HttpResponse shed = service.handle(pinned);
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.headers.count("Retry-After"), 1u);
}

TEST(HttpReadPath, CoalescedRefreshStaysPendingUntilFlushed) {
  core::ServerConfig config;
  config.arrival.min_refresh_wall_s = 3600.0;  // never within this test
  ReadPathFixture f(config);
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);

  // The first post-finalize refresh is always allowed; everything after
  // it coalesces, so the snapshot stays pinned at the first half.
  post_scans(service, reports, 0, reports.size() / 2);
  const auto first = f.server.arrival_snapshot();
  ASSERT_NE(first, nullptr);
  post_scans(service, reports, reports.size() / 2, reports.size());
  EXPECT_EQ(f.server.arrival_snapshot(), first);
  const auto mid = f.server.metrics_snapshot();
  EXPECT_EQ(mid.counter("arrival_cache.rebuilds"), 1u);

  // Rider reads keep hitting the (stale-by-a-window) snapshot.
  const HttpResponse hit = service.handle(arrival_get("trip", "5", "3"));
  ASSERT_EQ(hit.status, 200) << hit.body;
  EXPECT_EQ(hit.headers.at("X-Cache"), "hit");

  // flush_arrivals (what the service checkpoint poll calls) publishes
  // the deferred work: positions from the later batches land at once.
  f.server.flush_arrivals();
  const auto flushed = f.server.arrival_snapshot();
  ASSERT_NE(flushed, nullptr);
  EXPECT_NE(flushed, first);
  EXPECT_GT(flushed->find(TripId(5))->offset, first->find(TripId(5))->offset);
  const auto end = f.server.metrics_snapshot();
  EXPECT_EQ(end.counter("arrival_cache.rebuilds"), 2u);
}

TEST(HttpReadPath, NoOpFlushKeepsCoalescingWindow) {
  // A flush with nothing pending must not reopen the coalescing window:
  // the next publish inside the window still waits for a real flush.
  core::ServerConfig config;
  config.arrival.min_refresh_wall_s = 10.0;
  ReadPathFixture f(config);
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);

  post_scans(service, reports, 0, reports.size() / 2);  // refreshes
  const auto first = f.server.arrival_snapshot();
  ASSERT_NE(first, nullptr);
  f.server.flush_arrivals();  // nothing pending: a no-op
  EXPECT_EQ(f.server.arrival_snapshot(), first);
  post_scans(service, reports, reports.size() / 2, reports.size());
  EXPECT_EQ(f.server.arrival_snapshot()->epoch, first->epoch);
  EXPECT_EQ(f.server.metrics_snapshot().counter("arrival_cache.rebuilds"),
            1u);

  f.server.flush_arrivals();  // pending work: publishes at once
  EXPECT_GT(f.server.arrival_snapshot()->epoch, first->epoch);
  EXPECT_EQ(f.server.metrics_snapshot().counter("arrival_cache.rebuilds"),
            2u);
}

TEST(HttpReadPath, LastGoodCacheIsLruBounded) {
  ReadPathFixture f;
  f.train();
  ServiceOptions options;
  options.read_cache_entries = 2;
  WiLocatorService service(f.server, options);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  post_scans(service, reports, 0, reports.size());

  // Three distinct pinned-`now` targets through the slow path: the
  // two-entry LRU must evict the first.
  const std::string now = std::to_string(reports.back().scan.time);
  std::vector<HttpRequest> targets;
  for (int stop = 1; stop <= 3; ++stop) {
    HttpRequest req = arrival_get("trip", "5", std::to_string(stop));
    req.query["now"] = now;
    // The socket parser fills `target`; in-process requests must, too —
    // it is the last-good cache key.
    req.target =
        "/v1/arrival?trip=5&stop=" + std::to_string(stop) + "&now=" + now;
    targets.push_back(req);
    ASSERT_EQ(service.handle(req).status, 200);
  }
  EXPECT_GE(f.server.metrics_snapshot().counter(
                "http.degraded_cache_evictions"),
            1u);

  service.set_degraded(true);
  // stop=1 was evicted: degraded read misses and sheds.
  EXPECT_EQ(service.handle(targets[0]).status, 503);
  // stop=3 is still cached: served stale-tagged.
  const HttpResponse stale = service.handle(targets[2]);
  ASSERT_EQ(stale.status, 200) << stale.body;
  EXPECT_EQ(stale.headers.count("X-Degraded"), 1u);
  const auto snap = f.server.metrics_snapshot();
  EXPECT_GE(snap.counter("http.degraded_read_misses"), 1u);
  EXPECT_GE(snap.counter("http.degraded_reads"), 1u);
}

TEST(HttpReadPath, ConcurrentIngestAndReadsStayLockFree) {
  ReadPathFixture f;
  f.train();
  WiLocatorService service(f.server);
  ASSERT_EQ(service.handle({.method = "POST", .path = "/v1/trips",
                            .body = R"({"trip":5,"route":0})"})
                .status,
            200);
  const auto reports = f.live_reports(TripId(5), hms(9));
  ASSERT_GT(reports.size(), 20u);
  // Warm the snapshot so every rider read below can be a pure hit.
  const std::size_t half = reports.size() / 2;
  post_scans(service, reports, 0, half);

  constexpr std::size_t kReadsPerThread = 300;
  std::atomic<std::size_t> readers_done{0};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = 0; i < kReadsPerThread; ++i) {
        const HttpRequest req =
            (i + static_cast<std::size_t>(r)) % 2 == 0
                ? arrival_get("trip", "5", "3")
                : HttpRequest{.method = "GET", .path = "/v1/traffic-map"};
        const HttpResponse resp = service.handle(req);
        reads.fetch_add(1, std::memory_order_relaxed);
        if (resp.status != 200)
          failures.fetch_add(1, std::memory_order_relaxed);
        else if (resp.headers.count("X-Cache") != 0)
          hits.fetch_add(1, std::memory_order_relaxed);
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }
  // The writer keeps ingesting (and republishing snapshots) while the
  // readers poll — the race TSan watches. Re-posting the tail batches
  // is valid traffic (the ingest guard drops duplicates) and keeps the
  // writer holding and releasing the service lock for the whole race.
  for (int round = 0;
       round < 1000 && readers_done.load(std::memory_order_acquire) < 2;
       ++round)
    post_scans(service, reports, half, reports.size());
  for (auto& t : readers) t.join();

  EXPECT_EQ(reads.load(), 2 * kReadsPerThread);
  EXPECT_EQ(failures.load(), 0u);
  // Every read was a snapshot hit: zero lock acquisitions, zero
  // degraded fallbacks, zero slow-path trips on the rider path.
  EXPECT_EQ(hits.load(), reads.load());
  const auto snap = f.server.metrics_snapshot();
  EXPECT_EQ(snap.counter("http.degraded_reads"), 0u);
  EXPECT_EQ(snap.counter("http.read_slow_path"), 0u);
}

}  // namespace
}  // namespace wiloc::net
