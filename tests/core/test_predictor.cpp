#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "util/obs.hpp"
#include "util/rng.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;

/// A straight 3-edge route plus a trained store: edge travel times are
/// 100 s (midday) / 150 s (AM rush) for route 0, and 120/180 for route 1
/// on the shared middle edge.
struct PredictorFixture {
  std::unique_ptr<roadnet::RoadNetwork> net =
      std::make_unique<roadnet::RoadNetwork>();
  std::vector<roadnet::BusRoute> routes;
  TravelTimeStore store{DaySlots::paper_five_slots()};

  PredictorFixture() {
    const auto a = net->add_node({0, 0});
    const auto b = net->add_node({1000, 0});
    const auto c = net->add_node({2000, 0});
    const auto d = net->add_node({3000, 0});
    std::vector<roadnet::EdgeId> edges{
        net->add_straight_edge(a, b, 12.5),
        net->add_straight_edge(b, c, 12.5),
        net->add_straight_edge(c, d, 12.5)};
    routes.emplace_back(
        roadnet::RouteId(0), "r0", *net, edges,
        std::vector<roadnet::Stop>{
            {"s0", 0.0}, {"s1", 1500.0}, {"s2", 3000.0}});

    for (int day = 0; day < 10; ++day) {
      for (unsigned e = 0; e < 3; ++e) {
        store.add_history(
            {EdgeId(e), RouteId(0), at_day_time(day, hms(12)), 100.0});
        store.add_history(
            {EdgeId(e), RouteId(0), at_day_time(day, hms(9)), 150.0});
        // A second route traverses the same edges, slower.
        store.add_history(
            {EdgeId(e), RouteId(1), at_day_time(day, hms(12)), 120.0});
      }
    }
    store.finalize_history();
  }

  const roadnet::BusRoute& route() const { return routes.front(); }
};

TEST(ArrivalPredictor, HistoricalMeanWithoutRecents) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  const auto tp = predictor.predict_segment_time(EdgeId(0), RouteId(0),
                                                 at_day_time(20, hms(12)));
  ASSERT_TRUE(tp.has_value());
  EXPECT_DOUBLE_EQ(*tp, 100.0);
}

TEST(ArrivalPredictor, SlotSelectsHistory) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  const auto rush = predictor.predict_segment_time(EdgeId(0), RouteId(0),
                                                   at_day_time(20, hms(9)));
  ASSERT_TRUE(rush.has_value());
  EXPECT_DOUBLE_EQ(*rush, 150.0);
}

TEST(ArrivalPredictor, RecentResidualsCorrectPrediction) {
  // Eq. 8: two recent buses ran +30 s over their historical means; the
  // next bus's prediction shifts by +30.
  PredictorFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 300.0, 130.0});
  f.store.add_recent({EdgeId(0), RouteId(1), now - 200.0, 150.0});
  const ArrivalPredictor predictor(f.store);
  const auto tp =
      predictor.predict_segment_time(EdgeId(0), RouteId(0), now);
  ASSERT_TRUE(tp.has_value());
  // Correction = +30 mean residual, shrunk by n/(n + 1.5) with n = 2.
  EXPECT_NEAR(*tp, 100.0 + 30.0 * 2.0 / 3.5, 1e-9);
}

TEST(ArrivalPredictor, CrossRouteDisabledIgnoresOtherRoutes) {
  PredictorFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(1), now - 200.0, 180.0});  // +60
  PredictorOptions opts;
  opts.cross_route = false;
  const ArrivalPredictor predictor(f.store, opts);
  const auto tp =
      predictor.predict_segment_time(EdgeId(0), RouteId(0), now);
  ASSERT_TRUE(tp.has_value());
  EXPECT_DOUBLE_EQ(*tp, 100.0);  // no same-route recents -> uncorrected
}

TEST(ArrivalPredictor, UseRecentDisabledIsSchedule) {
  PredictorFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 100.0, 160.0});
  PredictorOptions opts;
  opts.use_recent = false;
  const ArrivalPredictor predictor(f.store, opts);
  EXPECT_DOUBLE_EQ(
      *predictor.predict_segment_time(EdgeId(0), RouteId(0), now), 100.0);
}

TEST(ArrivalPredictor, CorrectionIsClamped) {
  PredictorFixture f;
  const SimTime now = at_day_time(20, hms(12));
  // An absurd recent (10x the mean) must not blow up the prediction.
  f.store.add_recent({EdgeId(0), RouteId(0), now - 100.0, 1000.0});
  const ArrivalPredictor predictor(f.store);
  const auto tp =
      predictor.predict_segment_time(EdgeId(0), RouteId(0), now);
  ASSERT_TRUE(tp.has_value());
  EXPECT_LE(*tp, 100.0 * 1.8 + 1e-9);
}

TEST(ArrivalPredictor, StaleRecentsAreIgnored) {
  PredictorFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 3.0 * 3600.0, 500.0});
  const ArrivalPredictor predictor(f.store);
  EXPECT_DOUBLE_EQ(
      *predictor.predict_segment_time(EdgeId(0), RouteId(0), now), 100.0);
}

TEST(ArrivalPredictor, UnknownRouteFallsBackToCrossRouteMean) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  // Route 9 has no history on edge 0; the cross-route slot mean (110)
  // is used.
  const auto tp = predictor.predict_segment_time(EdgeId(0), RouteId(9),
                                                 at_day_time(20, hms(12)));
  ASSERT_TRUE(tp.has_value());
  EXPECT_NEAR(*tp, 110.0, 1e-9);
}

TEST(ArrivalPredictor, ColdEdgeIsNullopt) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  EXPECT_FALSE(predictor
                   .predict_segment_time(EdgeId(9), RouteId(0),
                                         at_day_time(20, hms(12)))
                   .has_value());
}

TEST(ArrivalPredictor, TravelTimeChainsSegments) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  const SimTime noon = at_day_time(20, hms(12));
  // Full route: 3 edges x 100 s.
  EXPECT_NEAR(predictor.predict_travel_time(f.route(), 0.0, 3000.0, noon),
              300.0, 1e-6);
  // Half of edge 0 plus half of edge 1.
  EXPECT_NEAR(predictor.predict_travel_time(f.route(), 500.0, 1500.0, noon),
              100.0, 1e-6);
  // Fraction within one edge (Eq. 9's dr ratio).
  EXPECT_NEAR(predictor.predict_travel_time(f.route(), 100.0, 350.0, noon),
              25.0, 1e-6);
}

TEST(ArrivalPredictor, TravelTimeSlotBySlot) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  // Start 100 s before the AM-rush boundary (08:00): the first edge is
  // predicted in the pre-rush slot... which has no data, so it falls
  // back; edges predicted after crossing into rush use 150 s.
  // Simpler check: a trip entirely at 07:59:50 vs one at 09:00.
  const double rush =
      predictor.predict_travel_time(f.route(), 0.0, 3000.0,
                                    at_day_time(20, hms(9)));
  const double midday =
      predictor.predict_travel_time(f.route(), 0.0, 3000.0,
                                    at_day_time(20, hms(12)));
  EXPECT_NEAR(rush, 450.0, 1e-6);
  EXPECT_NEAR(midday, 300.0, 1e-6);
  // Starting at 09:55 (rush) with 150 s edges crosses into the midday
  // slot at 10:00: later edges use 100 s.
  const double straddle = predictor.predict_travel_time(
      f.route(), 0.0, 3000.0, at_day_time(20, hms(9, 55)));
  EXPECT_GT(straddle, 300.0);
  EXPECT_LT(straddle, 450.0);
}

TEST(ArrivalPredictor, EdgeStraddlingSlotBoundaryIsSplit) {
  // Regression: an edge whose traversal crosses a slot boundary used to
  // be priced entirely at its entry slot's rate. Entering edge 1 at
  // 09:58:20 — 100 s before rush ends — covers only 2/3 of the edge at
  // the 150 s rush rate before 10:00; the last third runs at the 100 s
  // midday rate. Eq. 9 therefore gives 100 + 100/3, not 150.
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  const double t = predictor.predict_travel_time(
      f.route(), 1000.0, 2000.0, at_day_time(20, hms(9, 58, 20.0)));
  EXPECT_NEAR(t, 100.0 + 100.0 / 3.0, 1e-6);
}

TEST(ArrivalPredictor, ColdSegmentsUseSpeedFallback) {
  TravelTimeStore empty(DaySlots::paper_five_slots());
  empty.finalize_history();
  const PredictorFixture f;  // only for the route geometry
  const ArrivalPredictor predictor(empty);
  // 3000 m at 12.5 m/s * 0.55 ~ 436 s.
  const double t = predictor.predict_travel_time(f.route(), 0.0, 3000.0,
                                                 at_day_time(0, hms(12)));
  EXPECT_NEAR(t, 3000.0 / (12.5 * 0.55), 1.0);
}

TEST(ArrivalPredictor, ArrivalAtStop) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  const SimTime noon = at_day_time(20, hms(12));
  const SimTime eta = predictor.predict_arrival(f.route(), 500.0, noon, 1);
  EXPECT_NEAR(eta - noon, 100.0, 1e-6);  // 1000 m of 100 s/km edges
  // A stop behind the bus: arrival is "now".
  EXPECT_DOUBLE_EQ(predictor.predict_arrival(f.route(), 2000.0, noon, 0),
                   noon);
}

TEST(ArrivalPredictor, RejectsReversedSpan) {
  const PredictorFixture f;
  const ArrivalPredictor predictor(f.store);
  EXPECT_THROW(
      predictor.predict_travel_time(f.route(), 2000.0, 1000.0, 0.0),
      ContractViolation);
}

TEST(ArrivalPredictor, WrappedNightSlotPricesThroughMidnight) {
  // Eq.-9 slot-splitting against a *wrapped* partition: day [06:00,
  // 22:00) at 100 s/edge, cyclic night [22:00..06:00) at 200 s/edge.
  const PredictorFixture f;  // geometry only
  TravelTimeStore store(
      DaySlots::from_boundaries_wrapped({hms(6), hms(22)}));
  for (int day = 0; day < 10; ++day)
    for (unsigned e = 0; e < 3; ++e) {
      store.add_history(
          {EdgeId(e), RouteId(0), at_day_time(day, hms(12)), 100.0});
      store.add_history(
          {EdgeId(e), RouteId(0), at_day_time(day, hms(23)), 200.0});
    }
  store.finalize_history();
  const ArrivalPredictor predictor(store);

  // Crossing midnight inside the wrapped slot is NOT a slot boundary:
  // the whole route runs at the night rate.
  EXPECT_NEAR(predictor.predict_travel_time(f.route(), 0.0, 3000.0,
                                            at_day_time(20, hms(23, 55))),
              600.0, 1e-6);
  // The small hours are still the same wrapped slot.
  EXPECT_NEAR(predictor.predict_travel_time(f.route(), 0.0, 3000.0,
                                            at_day_time(21, hms(1))),
              600.0, 1e-6);
  // The wrapped slot's *end* (06:00) does split: entering an edge 100 s
  // before it covers half at the 200 s night rate, the rest at 100 s.
  EXPECT_NEAR(
      predictor.predict_travel_time(f.route(), 1000.0, 2000.0,
                                    at_day_time(21, hms(5, 58, 20.0))),
      100.0 + 50.0, 1e-6);
  // And entering the night at 22:00: 80 s of day rate cover 0.8 of the
  // edge; the remaining 0.2 re-prices at the night rate.
  EXPECT_NEAR(
      predictor.predict_travel_time(f.route(), 1000.0, 2000.0,
                                    at_day_time(20, hms(21, 58, 40.0))),
      80.0 + 0.2 * 200.0, 1e-6);
}

/// A 9-edge route with irregular lengths (one edge 0.5 m long), stops
/// on edge boundaries and mid-edge, history in every slot of both the
/// paper and a wrapped partition (one edge left cold), and live recents
/// of two routes around every query time.
struct IrregularRoute {
  std::unique_ptr<roadnet::RoadNetwork> net =
      std::make_unique<roadnet::RoadNetwork>();
  std::unique_ptr<roadnet::BusRoute> route;
  std::vector<double> boundaries{0.0};

  IrregularRoute() {
    Rng rng(2016);
    std::vector<roadnet::EdgeId> edges;
    auto prev = net->add_node({0, 0});
    double x = 0.0;
    for (int e = 0; e < 9; ++e) {
      x += e == 5 ? 0.5 : rng.uniform(150.0, 900.0);
      const auto next = net->add_node({x, 0});
      edges.push_back(net->add_straight_edge(prev, next, 12.5));
      prev = next;
    }
    for (const auto id : edges)
      boundaries.push_back(boundaries.back() + net->edge(id).length());
    const double b = boundaries.back();
    std::vector<roadnet::Stop> stops{{"start", 0.0}};
    for (const double at :
         {boundaries[1] * 0.5, boundaries[2], boundaries[3] + 7.25,
          boundaries[5], boundaries[6], boundaries[6] + 0.25,
          (boundaries[7] + boundaries[8]) * 0.5, b - 1.0, b})
      stops.push_back({"s", at});
    route = std::make_unique<roadnet::BusRoute>(RouteId(0), "irregular",
                                                *net, edges, stops);
  }

  /// Trained over `slots`; edge 3 has no history (speed fallback).
  TravelTimeStore store(DaySlots slots, const std::vector<SimTime>& nows) {
    TravelTimeStore out(std::move(slots));
    Rng rng(7);
    for (int day = 0; day < 4; ++day)
      for (const double tod : {3.0, 4.0, 9.0, 12.0, 14.0, 18.5, 21.0, 23.0})
        for (std::size_t e = 0; e < route->edges().size(); ++e) {
          if (e == 3) continue;
          const EdgeId edge = route->edges()[e];
          const SimTime at = at_day_time(day, tod * 3600.0);
          out.add_history({edge, RouteId(0), at, rng.uniform(20.0, 200.0)});
          if (e % 2 == 0)
            out.add_history({edge, RouteId(1), at, rng.uniform(20.0, 200.0)});
        }
    out.finalize_history();
    for (const SimTime now : nows)
      for (const EdgeId edge : route->edges())
        for (int k = 0; k < 5; ++k)
          out.add_recent({edge, RouteId(k % 2 == 0 ? 0 : 1),
                          now - rng.uniform(0.0, 2400.0),
                          rng.uniform(15.0, 300.0)});
    return out;
  }

  /// Exact stop offsets, edge boundaries, their neighbours, offsets
  /// outside [0, length] and uniform draws.
  std::vector<double> offsets() const {
    const double length = route->length();
    std::vector<double> out{-250.0, -1e-9, length + 1e-9, length + 80.0};
    for (std::size_t s = 0; s < route->stop_count(); ++s) {
      const double at = route->stop_offset(s);
      out.insert(out.end(), {at, std::nextafter(at, -1e9),
                             std::nextafter(at, 1e9)});
    }
    for (const double at : boundaries)
      out.insert(out.end(), {at, std::nextafter(at, -1e9)});
    Rng rng(99);
    for (int i = 0; i < 40; ++i)
      out.push_back(rng.uniform(-100.0, length + 100.0));
    return out;
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(ArrivalPredictor, OnePassArrivalsAreBitIdenticalToPerStopCalls) {
  IrregularRoute r;
  // Query times whose horizons straddle slot boundaries (08:00, 10:00,
  // 18:00, 19:00 in the paper partition; 06:00 and 22:00 in the wrapped
  // one) or run through midnight inside the wrapped night slot.
  const std::vector<SimTime> paper_nows{
      at_day_time(20, hms(7, 58)), at_day_time(20, hms(9, 57, 30.0)),
      at_day_time(20, hms(12)), at_day_time(20, hms(17, 59)),
      at_day_time(20, hms(18, 58, 45.0)), at_day_time(20, hms(23, 58))};
  const std::vector<SimTime> wrapped_nows{
      at_day_time(20, hms(21, 58)), at_day_time(20, hms(23, 57)),
      at_day_time(21, hms(0, 1)), at_day_time(21, hms(5, 58, 30.0))};

  PredictorOptions no_recent;
  no_recent.use_recent = false;
  PredictorOptions same_route;
  same_route.cross_route = false;
  std::size_t compared = 0;
  for (const bool wrapped : {false, true}) {
    const auto& nows = wrapped ? wrapped_nows : paper_nows;
    const TravelTimeStore store = r.store(
        wrapped ? DaySlots::from_boundaries_wrapped({hms(6), hms(22)})
                : DaySlots::paper_five_slots(),
        nows);
    for (const PredictorOptions& options :
         {PredictorOptions{}, no_recent, same_route}) {
      const ArrivalPredictor predictor(store, options);
      for (const SimTime now : nows)
        for (const double offset : r.offsets()) {
          const std::vector<SimTime> all =
              predictor.predict_arrivals(*r.route, offset, now);
          ASSERT_EQ(all.size(), r.route->stop_count());
          for (std::size_t s = 0; s < all.size(); ++s) {
            const SimTime one =
                predictor.predict_arrival(*r.route, offset, now, s);
            ASSERT_EQ(bits(all[s]), bits(one))
                << "offset " << offset << " now " << now << " stop " << s
                << " wrapped " << wrapped << ": " << all[s] << " vs " << one;
            ++compared;
          }
        }
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST(ArrivalPredictor, OnePassArrivalsEvaluateEachSegmentOnce) {
  // predictor.predictions counts segment estimates: one walk over the
  // three edges serves all three stops, plus one estimate for the part
  // of edge 1 before the mid-edge stop (no slot boundary is crossed).
  const PredictorFixture f;
  ArrivalPredictor predictor(f.store);
  obs::Counter predictions;
  predictor.set_metrics({.predictions = &predictions});
  const SimTime noon = at_day_time(20, hms(12));
  const auto all = predictor.predict_arrivals(f.route(), 0.0, noon);
  EXPECT_EQ(predictions.value(), 4u);
  EXPECT_EQ(all[0], noon);
  EXPECT_NEAR(all[1] - noon, 150.0, 1e-9);
  EXPECT_NEAR(all[2] - noon, 300.0, 1e-9);
}

/// Eq. 8 as it reads in the paper, every recent's Th looked up at query
/// time: the reference the store's resolved residuals must reproduce bit
/// for bit (same doubles, added in the same order).
std::optional<double> reference_segment_time(const TravelTimeStore& store,
                                             const PredictorOptions& o,
                                             EdgeId edge, RouteId route,
                                             SimTime t) {
  const DaySlots& slots = store.slots();
  const auto th_of = [&](EdgeId e, RouteId r, std::size_t slot) {
    auto th = store.historical_mean(e, r, slot);
    if (!th.has_value()) th = store.historical_mean_any_route(e, slot);
    return th;
  };
  const auto th = th_of(edge, route, slots.slot_of(t));
  if (!th.has_value()) return std::nullopt;
  double prediction = *th;
  if (o.use_recent) {
    double sum = 0.0;
    std::size_t used = 0;
    for (const TravelObservation& r :
         store.recent(edge, t, o.recent_window_s, o.max_recent)) {
      if (!o.cross_route && !(r.route == route)) continue;
      const auto r_th = th_of(r.edge, r.route, slots.slot_of(r.exit_time));
      if (!r_th.has_value()) continue;
      sum += r.travel_time - *r_th;
      ++used;
    }
    if (used > 0) {
      const double n = static_cast<double>(used);
      const double raw = (sum / n) * (n / (n + o.correction_shrinkage));
      const double clamp = o.correction_clamp_frac * *th;
      prediction += std::clamp(raw, -clamp, clamp);
    }
  }
  return std::max(prediction, o.min_segment_time_s);
}

/// Eq. 9 for one stop over reference_segment_time: the per-edge,
/// slot-by-slot walk with the speed-limit fallback for cold edges.
SimTime reference_arrival(const TravelTimeStore& store,
                          const PredictorOptions& o,
                          const roadnet::BusRoute& route, double offset,
                          SimTime now, std::size_t stop) {
  const double stop_offset = route.stop_offset(stop);
  if (stop_offset <= offset) return now;
  const double from = std::clamp(offset, 0.0, route.length());
  const double to = std::clamp(stop_offset, 0.0, route.length());
  if (to <= from) return now;
  double elapsed = 0.0;
  for (std::size_t e = route.position_at(from).edge_index;
       e <= route.position_at(to).edge_index; ++e) {
    const double begin = route.edge_start_offset(e);
    const double edge_len = route.edge_end_offset(e) - begin;
    if (edge_len <= 0.0) continue;
    const double span_begin = std::max(from, begin);
    const double span_end = std::min(to, route.edge_end_offset(e));
    if (span_end <= span_begin) continue;
    const EdgeId id = route.edges()[e];
    const roadnet::RoadSegment& seg = route.network().edge(id);
    double frac = (span_end - span_begin) / edge_len;
    int depth = 0;
    while (frac > 1e-12) {
      const SimTime clock = now + elapsed;
      const double full =
          reference_segment_time(store, o, id, route.id(), clock)
              .value_or(seg.length() /
                        (seg.speed_limit() * o.fallback_speed_frac));
      const double needed = frac * full;
      const double to_boundary = store.slots().slot_end_time(clock) - clock;
      if (needed <= to_boundary || full <= 0.0 || ++depth > 64) {
        elapsed += needed;
        break;
      }
      frac -= to_boundary / full;
      elapsed += to_boundary;
    }
  }
  return now + elapsed;
}

TEST(ArrivalPredictor, ResolvedResidualsMatchPerRecentLookups) {
  // The irregular route's store has recents with a route-specific Th
  // (route 0; route 1 on even edges), with only the cross-route mean
  // (route 1 on odd edges) and with no baseline at all (edge 3).
  IrregularRoute r;
  const std::vector<SimTime> nows{
      at_day_time(20, hms(7, 58)), at_day_time(20, hms(12)),
      at_day_time(20, hms(18, 58, 45.0)), at_day_time(20, hms(23, 58))};
  const TravelTimeStore store = r.store(DaySlots::paper_five_slots(), nows);
  PredictorOptions same_route;
  same_route.cross_route = false;
  PredictorOptions few;
  few.max_recent = 2;
  std::size_t segments = 0, arrivals = 0;
  for (const PredictorOptions& options :
       {PredictorOptions{}, same_route, few}) {
    const ArrivalPredictor predictor(store, options);
    for (const SimTime now : nows) {
      for (const EdgeId edge : r.route->edges())
        for (const RouteId route : {RouteId(0), RouteId(1)})
          for (const double dt : {0.0, 90.0, 1800.0}) {
            const auto got =
                predictor.predict_segment_time(edge, route, now + dt);
            const auto want =
                reference_segment_time(store, options, edge, route, now + dt);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (!got.has_value()) continue;
            ASSERT_EQ(bits(*got), bits(*want))
                << "edge " << edge.value() << " route " << route.value()
                << ": " << *got << " vs " << *want;
            ++segments;
          }
      for (const double offset : r.offsets()) {
        const auto all = predictor.predict_arrivals(*r.route, offset, now);
        for (std::size_t s = 0; s < all.size(); ++s) {
          const SimTime want =
              reference_arrival(store, options, *r.route, offset, now, s);
          ASSERT_EQ(bits(all[s]), bits(want))
              << "offset " << offset << " stop " << s << ": " << all[s]
              << " vs " << want;
          ++arrivals;
        }
      }
    }
  }
  EXPECT_GT(segments, 400u);
  EXPECT_GT(arrivals, 4000u);
}

TEST(TravelTimeStore, ForEachRecentVisitsWhatRecentReturns) {
  IrregularRoute r;
  const std::vector<SimTime> nows{at_day_time(20, hms(9)),
                                  at_day_time(20, hms(9, 20))};
  const TravelTimeStore store = r.store(DaySlots::paper_five_slots(), nows);
  std::size_t seen = 0;
  for (const EdgeId edge : r.route->edges())
    for (const SimTime now : {nows[0], nows[1], nows[1] + 3600.0})
      for (const double window : {0.0, 300.0, 1800.0, 1e9})
        for (const std::size_t max_count : {0, 1, 3, 8, 1000}) {
          std::vector<TravelObservation> visited;
          store.for_each_recent(
              edge, now, window, max_count,
              [&](const TravelObservation& o, double) {
                visited.push_back(o);
              });
          EXPECT_EQ(visited, store.recent(edge, now, window, max_count));
          seen += visited.size();
        }
  EXPECT_GT(seen, 100u);
  std::size_t unknown = 0;
  store.for_each_recent(EdgeId(999), nows[0], 1e9, 8,
                        [&](const TravelObservation&, double) { ++unknown; });
  EXPECT_EQ(unknown, 0u);
}

TEST(ArrivalPredictor, ValidatesOptions) {
  const PredictorFixture f;
  PredictorOptions bad;
  bad.max_recent = 0;
  EXPECT_THROW(ArrivalPredictor(f.store, bad), ContractViolation);
}

}  // namespace
}  // namespace wiloc::core
