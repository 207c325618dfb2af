// The materialized rider read path: segment-update epochs in the
// travel-time store, incremental (trip, stop) invalidation, pre-encoded
// body parity with the slow-path predictor chain, the route-level
// best-trip index, and the cross-midnight wrapped-slot case.
#include "core/arrival_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "../helpers.hpp"
#include "core/predictor.hpp"
#include "core/traffic_map.hpp"
#include "core/travel_time.hpp"
#include "util/binio.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;
using roadnet::TripId;

TEST(TravelTimeEpochs, PerEdgeBumpsAndWholeStoreFloors) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  const EdgeId e0(0), e1(1);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.edge_epoch(e0), 0u);

  store.add_history({e0, RouteId(0), at_day_time(0, hms(9)), 60.0});
  EXPECT_GT(store.edge_epoch(e0), 0u);
  EXPECT_EQ(store.edge_epoch(e1), 0u);  // untouched edge stays at 0

  // finalize is a whole-store invalidation: the floor covers edges that
  // never saw an observation.
  const std::uint64_t before_finalize = store.epoch();
  store.finalize_history();
  EXPECT_GT(store.edge_epoch(e1), before_finalize);
  EXPECT_GT(store.edge_epoch(e0), before_finalize);

  // A recent bumps its edge; an exact duplicate is dropped and must NOT
  // bump (journal replay cannot look like fresh evidence).
  const TravelObservation obs{e0, RouteId(0), at_day_time(1, hms(9)), 61.0};
  EXPECT_TRUE(store.add_recent(obs));
  const std::uint64_t after_recent = store.edge_epoch(e0);
  EXPECT_GT(after_recent, store.edge_epoch(e1));
  EXPECT_FALSE(store.add_recent(obs));
  EXPECT_EQ(store.edge_epoch(e0), after_recent);

  // prune_recent bumps only edges that actually dropped something.
  const SimTime t = at_day_time(1, hms(9));
  EXPECT_TRUE(store.add_recent({e1, RouteId(0), t + 600.0, 55.0}));
  const std::uint64_t e0_before = store.edge_epoch(e0);
  const std::uint64_t e1_before = store.edge_epoch(e1);
  store.prune_recent(t + 900.0, /*window_s=*/600.0);  // cutoff t+300
  EXPECT_GT(store.edge_epoch(e0), e0_before);   // its recent aged out
  EXPECT_EQ(store.edge_epoch(e1), e1_before);   // its recent survived

  // restore counts as "everything changed" in the restored-into store.
  BinWriter w;
  store.save(w);
  TravelTimeStore other(DaySlots::paper_five_slots());
  const std::uint64_t other_before = other.epoch();
  BinReader r(w.bytes());
  other.restore(r);
  EXPECT_GT(other.edge_epoch(EdgeId(99)), other_before);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Deterministic learned state over the MiniCity routes: constant
/// per-edge travel times across every slot, so predictions are stable
/// until the test injects fresh evidence.
struct TableFixture {
  wiloc::testing::MiniCity city;
  TravelTimeStore store;
  std::unique_ptr<ArrivalPredictor> predictor;
  std::unique_ptr<TrafficMapBuilder> traffic;
  std::unique_ptr<ArrivalTable> table;
  std::vector<EdgeId> all_edges;
  std::unordered_map<std::uint32_t, std::optional<double>> offsets;

  explicit TableFixture(DaySlots slots = DaySlots::paper_five_slots())
      : store(std::move(slots)) {
    for (int day = 0; day < 2; ++day)
      for (double tod = 900.0; tod < 86400.0; tod += 1800.0)
        for (const auto& route : city.routes)
          for (const EdgeId edge : route.edges())
            store.add_history({edge, route.id(), at_day_time(day, tod),
                               60.0 + 7.0 * edge.value()});
    store.finalize_history();
    predictor = std::make_unique<ArrivalPredictor>(store);
    traffic = std::make_unique<TrafficMapBuilder>(store, *predictor);
    table = std::make_unique<ArrivalTable>(store, *predictor, *traffic);
    for (const auto& route : city.routes)
      for (const EdgeId edge : route.edges())
        if (std::find(all_edges.begin(), all_edges.end(), edge) ==
            all_edges.end())
          all_edges.push_back(edge);
    table->set_traffic_edges(all_edges);
  }

  ArrivalTable::PositionFn position_fn() {
    return [this](TripId trip) { return offsets[trip.value()]; };
  }
};

TEST(ArrivalTable, MaterializedBodiesMatchThePredictorChain) {
  // Route A, and a 21-stop route over the same edges (same learned
  // cells) with a trip id near the top of its range: multi-digit stop
  // indices, stops behind the bus (the copy-the-now shortcut, including
  // a bus standing on stop 10) and stops ahead, all in one buffer.
  TableFixture f;
  const auto& a = f.city.route_a();
  std::vector<roadnet::Stop> stops;
  for (int i = 0; i <= 20; ++i)
    stops.push_back({"s" + std::to_string(i), 100.0 * i});
  const roadnet::BusRoute dense(roadnet::RouteId(99), "dense", a.network(),
                                a.edges(), stops);
  struct Case {
    TripId trip;
    const roadnet::BusRoute* route;
    double offset;
    std::size_t first_ahead;
  };
  const Case cases[] = {{TripId(1), &a, 300.0, 1},
                        {TripId(4294967290u), &dense, 1000.0, 11}};
  const SimTime now = at_day_time(3, hms(9)) + 0.123456789;
  for (const Case& c : cases) {
    f.table->track(c.trip, c.route);
    f.offsets[c.trip.value()] = c.offset;
  }
  f.table->refresh(now, f.position_fn());

  const auto snap = f.table->snapshot();
  ASSERT_NE(snap, nullptr);
  for (const Case& c : cases) {
    const TripArrivals* t = snap->find(c.trip);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->first_ahead, c.first_ahead);
    ASSERT_EQ(t->body.size(), c.route->stop_count());
    for (std::size_t s = 0; s < c.route->stop_count(); ++s) {
      const SimTime expect =
          f.predictor->predict_arrival(*c.route, c.offset, now, s);
      EXPECT_EQ(bits(t->arrival[s]), bits(expect)) << "stop " << s;
      EXPECT_EQ(t->body[s], encode_arrival_json(c.trip, s, now, expect))
          << "stop " << s;
    }
  }
  // The traffic body matches a direct build at the same instant.
  EXPECT_EQ(snap->traffic_body,
            encode_traffic_map_json(f.traffic->build(f.all_edges, now)));
  EXPECT_EQ(snap->epoch, f.store.epoch());
}

TEST(ArrivalTable, RecomputesIffARemainingSegmentChanged) {
  TableFixture f;
  obs::Registry reg;
  ArrivalTableMetrics metrics;
  metrics.invalidations = &reg.counter("inv");
  metrics.rebuilds = &reg.counter("reb");
  f.table->set_metrics(metrics);

  const auto& route_a = f.city.route_a();
  SimTime now = at_day_time(3, hms(9));
  f.table->track(TripId(1), &route_a);
  f.offsets[1] = 900.0;  // on main edge 2 (800 m .. 1200 m)
  f.table->refresh(now, f.position_fn());
  const auto s1 = f.table->snapshot();
  const TripArrivals* a1 = s1->find(TripId(1));
  ASSERT_NE(a1, nullptr);

  // Evidence on an edge *behind* the bus: the entry's bytes survive
  // untouched (same immutable object) even though the snapshot itself
  // republished for the traffic body.
  now += 60.0;
  f.store.add_recent({route_a.edges()[0], route_a.id(), now, 90.0});
  f.table->refresh(now, f.position_fn());
  const auto s2 = f.table->snapshot();
  EXPECT_EQ(s2->find(TripId(1)), a1);
  EXPECT_EQ(reg.counter("inv").value(), 0u);

  // Evidence on another route's private edge (B's branch): untouched.
  now += 60.0;
  f.store.add_recent(
      {f.city.route_b().edges().back(), f.city.route_b().id(), now, 90.0});
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->find(TripId(1)), a1);
  EXPECT_EQ(reg.counter("inv").value(), 0u);

  // Evidence on a *remaining* segment of the trip's route: recomputed.
  now += 60.0;
  const EdgeId downstream = route_a.edges()[3];
  for (int i = 0; i < 3; ++i)
    f.store.add_recent(
        {downstream, route_a.id(), now + i, 140.0 + i});  // ~2x historical
  f.table->refresh(now, f.position_fn());
  const auto s3 = f.table->snapshot();
  const TripArrivals* a3 = s3->find(TripId(1));
  ASSERT_NE(a3, nullptr);
  EXPECT_NE(a3, a1);
  EXPECT_GT(a3->epoch, a1->epoch);
  EXPECT_GE(reg.counter("inv").value(), 1u);
  // The slowdown is ahead of the bus, so the last-stop answer moved.
  EXPECT_NE(a3->body.back(), a1->body.back());
  EXPECT_GT(a3->arrival.back(), a1->arrival.back());

  // Position movement alone also recomputes.
  f.offsets[1] = 950.0;
  f.table->refresh(now, f.position_fn());
  const TripArrivals* a4 = f.table->snapshot()->find(TripId(1));
  ASSERT_NE(a4, nullptr);
  EXPECT_NE(a4, a3);
  EXPECT_EQ(a4->offset, 950.0);

  // Losing the fix removes the trip from the next snapshot.
  f.offsets[1] = std::nullopt;
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->find(TripId(1)), nullptr);
  EXPECT_GT(reg.counter("reb").value(), 0u);
}

TEST(ArrivalTable, RouteBestIndexServesTheSoonestTrip) {
  TableFixture f;
  const auto& route_a = f.city.route_a();
  const SimTime now = at_day_time(3, hms(9));
  const std::size_t last = route_a.stop_count() - 1;
  f.table->track(TripId(1), &route_a);
  f.table->track(TripId(2), &route_a);
  f.offsets[1] = 300.0;
  f.offsets[2] = 1500.0;  // further along => arrives at the last stop first
  f.table->refresh(now, f.position_fn());

  const auto snap = f.table->snapshot();
  const TripArrivals* best = snap->best(route_a.id(), last);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->trip, TripId(2));
  EXPECT_LT(best->arrival[last], snap->find(TripId(1))->arrival[last]);
  // No trips on route B: the index answers nothing rather than rescanning.
  EXPECT_EQ(snap->best(f.city.route_b().id(), 0), nullptr);

  // The leader finishing hands the index to the remaining trip.
  f.table->drop(TripId(2));
  f.table->refresh(now, f.position_fn());
  const TripArrivals* next = f.table->snapshot()->best(route_a.id(), last);
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->trip, TripId(1));
}

TEST(ArrivalTable, RouteBestSkipsTripsPastTheStop) {
  // The next bus at a stop is one still short of it. A trip past the
  // stop carries arrival == now there, which must not win the
  // route-level query; a trip parked at the route end (old fix, old
  // baked-in now) must not become the answer for every stop.
  TableFixture f;
  const auto& route_a = f.city.route_a();  // stops at 0, 700, 1400, 2000
  const SimTime now = at_day_time(3, hms(9));
  f.table->track(TripId(1), &route_a);
  f.table->track(TripId(2), &route_a);
  f.offsets[1] = 900.0;  // past stop 1
  f.offsets[2] = 300.0;  // short of stop 1
  f.table->refresh(now, f.position_fn());

  auto snap = f.table->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->find(TripId(1))->arrival[1], now);  // behind: answers now
  const TripArrivals* at1 = snap->best(route_a.id(), 1);
  ASSERT_NE(at1, nullptr);
  EXPECT_EQ(at1->trip, TripId(2));
  // Both trips are short of stop 2; trip 1 is nearer and arrives first.
  ASSERT_NE(snap->best(route_a.id(), 2), nullptr);
  EXPECT_EQ(snap->best(route_a.id(), 2)->trip, TripId(1));
  // Both trips are past stop 0: no next bus there, and the snapshot
  // knows it (the route is indexed up to its last stop).
  EXPECT_EQ(snap->best(route_a.id(), 0), nullptr);
  EXPECT_TRUE(snap->indexes(route_a.id(), 0));
  // Past the last stop index: nothing, not an out-of-range read.
  EXPECT_EQ(snap->best(route_a.id(), route_a.stop_count()), nullptr);
  EXPECT_FALSE(snap->indexes(route_a.id(), route_a.stop_count()));
  EXPECT_FALSE(snap->indexes(f.city.route_b().id(), 0));

  // The origin: a bus standing at the first stop (offset 0) has left
  // it by the same rule, so no trip is ever the next bus at stop 0.
  f.offsets[2] = 0.0;
  f.table->refresh(now, f.position_fn());
  snap = f.table->snapshot();
  EXPECT_EQ(snap->find(TripId(2))->first_ahead, 1u);
  EXPECT_EQ(snap->best(route_a.id(), 0), nullptr);
  ASSERT_NE(snap->best(route_a.id(), 1), nullptr);
  EXPECT_EQ(snap->best(route_a.id(), 1)->trip, TripId(2));

  // A bus exactly at a stop is not short of it (stop_offset > offset is
  // the predictor's rule), so it is not the next bus there either.
  f.offsets[2] = 700.0;
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->best(route_a.id(), 1), nullptr);

  // Parked at the route end: behind every stop, the best for none.
  f.table->drop(TripId(2));
  f.offsets[1] = route_a.length();
  f.table->refresh(now, f.position_fn());
  snap = f.table->snapshot();
  ASSERT_NE(snap->find(TripId(1)), nullptr);
  for (std::size_t s = 0; s < route_a.stop_count(); ++s)
    EXPECT_EQ(snap->best(route_a.id(), s), nullptr) << "stop " << s;
}

TEST(ArrivalTable, OldSnapshotKeepsItsBestPointersAlive) {
  // route_best holds raw pointers that borrow from the snapshot's own
  // `trips`. A reader holding an old generation must be able to follow
  // them after the table has recomputed, dropped and republished (run
  // under ASan in CI: a dangling pointer is a use-after-free there).
  TableFixture f;
  const auto& route_a = f.city.route_a();
  SimTime now = at_day_time(3, hms(9));
  f.table->track(TripId(1), &route_a);
  f.table->track(TripId(2), &route_a);
  f.offsets[1] = 300.0;
  f.offsets[2] = 1500.0;
  f.table->refresh(now, f.position_fn());
  const auto old = f.table->snapshot();
  const std::size_t last = route_a.stop_count() - 1;
  const TripArrivals* best = old->best(route_a.id(), last);
  ASSERT_NE(best, nullptr);
  const std::string body(best->body[last]);
  const SimTime arrival = best->arrival[last];

  for (int i = 0; i < 5; ++i) {
    now += 30.0;
    f.offsets[1] = 350.0 + 40.0 * i;
    f.offsets[2] = 1550.0 + 40.0 * i;
    f.store.add_recent({route_a.edges()[4], route_a.id(), now, 150.0 + i});
    f.table->refresh(now, f.position_fn());
  }
  f.table->drop(TripId(2));
  f.table->drop(TripId(1));
  f.table->refresh(now, f.position_fn());
  EXPECT_EQ(f.table->snapshot()->best(route_a.id(), last), nullptr);

  // The old generation still answers exactly what it answered before.
  const TripArrivals* again = old->best(route_a.id(), last);
  ASSERT_EQ(again, best);
  EXPECT_EQ(again->trip, TripId(2));
  EXPECT_EQ(again->body[last], body);
  EXPECT_EQ(again->arrival[last], arrival);
  for (std::size_t s = 0; s < route_a.stop_count(); ++s) {
    if (const TripArrivals* b = old->best(route_a.id(), s); b != nullptr) {
      EXPECT_EQ(b, old->find(b->trip));
    }
  }
}

TEST(ArrivalTable, FlatBodiesAreByteIdenticalToEncodeArrivalJson) {
  // Direct encoder parity over the values the table never produces:
  // non-finite and signed-zero `now`, NaN and infinite arrivals, and
  // arrivals equal to `now` in value but not in bits.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> nows{0.0, -0.0, 1728000.5, 464412.345678912, -3.5};
  nows.insert(nows.end(), {1e300, inf, -inf, nan});
  Rng rng(13);
  std::string scratch;
  for (const double now : nows) {
    std::vector<SimTime> arrival;
    for (int s = 0; s < 20; ++s) {
      arrival.push_back(now);  // behind the bus
      arrival.push_back(now + rng.uniform(0.0, 3600.0));
      arrival.push_back(now == 0.0 ? -now : now * 2.0);  // -0 against +0
      arrival.push_back(s % 2 == 0 ? nan : inf);
      arrival.push_back(std::bit_cast<double>(rng()));
      arrival.push_back(std::nextafter(now, inf));
    }
    for (const TripId trip : {TripId(0), TripId(7), TripId(4294967295u)}) {
      const StopBodies b = encode_arrival_bodies(trip, now, arrival, scratch);
      ASSERT_EQ(b.size(), arrival.size());
      for (std::size_t s = 0; s < arrival.size(); ++s)
        ASSERT_EQ(b[s], encode_arrival_json(trip, s, now, arrival[s]))
            << "now " << now << " stop " << s;
    }
  }
  // A shorter trip after a longer one reuses the grown scratch buffer.
  const std::vector<SimTime> two{5.0, 9.5};
  const StopBodies small = encode_arrival_bodies(TripId(3), 5.0, two, scratch);
  ASSERT_EQ(small.size(), 2u);
  EXPECT_EQ(small[0], encode_arrival_json(TripId(3), 0, 5.0, 5.0));
  EXPECT_TRUE(small[0].ends_with(R"("arrival_time":5,"eta_s":0})"));
  EXPECT_EQ(small.back(), encode_arrival_json(TripId(3), 1, 5.0, 9.5));
  EXPECT_EQ(encode_arrival_bodies(TripId(3), 5.0, {}, scratch).size(), 0u);
}

TEST(ArrivalTable, TrafficBodyMatchesGolden) {
  // The served traffic-map bytes: segments sorted by edge id, json_num
  // numbers (non-finite -> null), the full range of the recent count.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::size_t many = std::numeric_limits<std::size_t>::max();
  TrafficMap map;
  map.time = 1728000.5;
  map.segments[EdgeId(12)] = {TrafficState::VerySlow, 0.1 + 0.2, 3, false};
  map.segments[EdgeId(3)] = {TrafficState::Normal, -0.125, 0, true};
  map.segments[EdgeId(7)] = {TrafficState::Unknown, 0.0, many, false};
  map.segments[EdgeId(4294967295u)] = {TrafficState::Slow, nan, 42, false};
  const std::string golden =
      R"({"t":1728000.5,"segments":[)"
      R"({"edge":3,"state":"normal","z":-0.125,"recent":0,"inferred":true},)"
      R"({"edge":7,"state":"unknown","z":0,"recent":18446744073709551615,)"
      R"("inferred":false},)"
      R"({"edge":12,"state":"very-slow","z":0.30000000000000004,"recent":3,)"
      R"("inferred":false},)"
      R"({"edge":4294967295,"state":"slow","z":null,"recent":42,)"
      R"("inferred":false}]})";
  EXPECT_EQ(encode_traffic_map_json(map), golden);
  EXPECT_EQ(encode_traffic_map_json(TrafficMap{}), R"({"t":0,"segments":[]})");
}

TEST(ArrivalTable, WrappedSlotCoversCrossMidnightInvalidation) {
  // Quiet hours [22:00 .. 06:00) form one cyclic slot: evidence landing
  // just after midnight must invalidate entries computed just before it
  // (same slot, same learned cell), not be filed under a different slot.
  TableFixture f(DaySlots::from_boundaries_wrapped({hms(6), hms(22)}));
  ASSERT_TRUE(f.store.slots().wraps());
  const SimTime before_midnight = at_day_time(3, hms(23, 30));
  const SimTime after_midnight = at_day_time(4, hms(0, 30));
  ASSERT_EQ(f.store.slots().slot_of(before_midnight),
            f.store.slots().slot_of(after_midnight));

  const auto& route_a = f.city.route_a();
  f.table->track(TripId(1), &route_a);
  f.offsets[1] = 900.0;
  f.table->refresh(before_midnight, f.position_fn());
  const auto s1 = f.table->snapshot();
  const TripArrivals* a1 = s1->find(TripId(1));
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->now, before_midnight);

  // A slowdown observed after the midnight wrap, on a remaining segment.
  const EdgeId downstream = route_a.edges()[3];
  for (int i = 0; i < 3; ++i)
    f.store.add_recent(
        {downstream, route_a.id(), after_midnight + i, 150.0 + i});
  f.table->refresh(after_midnight, f.position_fn());
  const TripArrivals* a2 = f.table->snapshot()->find(TripId(1));
  ASSERT_NE(a2, nullptr);
  EXPECT_NE(a2, a1);
  EXPECT_EQ(a2->now, after_midnight);
  EXPECT_GT(a2->arrival.back() - a2->now, a1->arrival.back() - a1->now);
}

TEST(ArrivalTable, DisabledTableNeverPublishes) {
  TableFixture f;
  ArrivalTableParams params;
  params.enabled = false;
  ArrivalTable off(f.store, *f.predictor, *f.traffic, params);
  off.track(TripId(1), &f.city.route_a());
  f.offsets[1] = 300.0;
  off.refresh(at_day_time(3, hms(9)), f.position_fn());
  EXPECT_EQ(off.snapshot(), nullptr);
}

TEST(JsonNum, ReadsBackToTheSameDouble) {
  // Shortest round-trip text: a client that echoes a served number (the
  // pinned-`now` read) hands back exactly the double that was served.
  Rng rng(12);
  std::vector<double> values{0.0,     -0.0,   1.0,    -1.0,   1728000.0,
                             1e15,    1e16,   1e300,  -1e300, 1e-5,
                             9.99e-6, 1e-300, 5e-324, 0.1,    1.0 / 3.0,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::lowest()};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.uniform(-1e7, 1e7));                   // times
    values.push_back(std::round(rng.uniform(-1e9, 1e9)));       // integers
    values.push_back(rng.uniform(1e15, 1e18));                  // > 1e15
    values.push_back(-rng.uniform(1e-9, 1e-5));                 // < 1e-5
    const double any = std::bit_cast<double>(rng());             // any bits
    if (std::isfinite(any)) values.push_back(any);
  }
  for (const double v : values) {
    const std::string text = json_num(v);
    double back = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), back);
    ASSERT_EQ(ec, std::errc{}) << text;
    ASSERT_EQ(ptr, text.data() + text.size()) << text;
    ASSERT_EQ(bits(back), bits(v)) << text;
  }
  EXPECT_EQ(json_num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_num(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonNum, ArrivalBodyLayout) {
  EXPECT_EQ(encode_arrival_json(TripId(4294967295u), 12, 1728000.5,
                                1728060.25),
            R"({"trip":4294967295,"stop":12,"now":1728000.5,)"
            R"("arrival_time":1728060.25,"eta_s":59.75})");
  EXPECT_EQ(encode_arrival_json(TripId(0), 0, 0.0,
                                std::numeric_limits<double>::quiet_NaN()),
            R"({"trip":0,"stop":0,"now":0,"arrival_time":null,)"
            R"("eta_s":null})");
}

}  // namespace
}  // namespace wiloc::core
