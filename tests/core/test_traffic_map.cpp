#include "core/traffic_map.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;

/// History: edge 0 has mean 100 s, residual sigma ~10 s (route 0,
/// midday). Edge 1 has history too; edge 2 has none.
struct TrafficMapFixture {
  TravelTimeStore store{DaySlots::paper_five_slots()};

  TrafficMapFixture() {
    Rng rng(3);
    for (int i = 0; i < 60; ++i) {
      store.add_history({EdgeId(0), RouteId(0), at_day_time(i % 10, hms(12)),
                         100.0 + rng.normal(0.0, 10.0)});
      store.add_history({EdgeId(1), RouteId(0), at_day_time(i % 10, hms(12)),
                         80.0 + rng.normal(0.0, 8.0)});
    }
    store.finalize_history();
  }
};

TEST(TrafficMap, NormalWhenRecentMatchesHistory) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 300.0, 101.0});
  const ArrivalPredictor predictor(f.store);
  const TrafficMapBuilder builder(f.store, predictor);
  const auto seg = builder.classify(EdgeId(0), now);
  EXPECT_EQ(seg.state, TrafficState::Normal);
  EXPECT_EQ(seg.recent_count, 1u);
  EXPECT_FALSE(seg.inferred);
}

TEST(TrafficMap, SlowAndVerySlowThresholds) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  // Residual sigma ~10: +13 s -> z ~1.3 (slow); +30 s -> z ~3 (very slow).
  f.store.add_recent({EdgeId(0), RouteId(0), now - 300.0, 113.0});
  f.store.add_recent({EdgeId(1), RouteId(0), now - 300.0, 115.0});
  const ArrivalPredictor predictor(f.store);
  const TrafficMapBuilder builder(f.store, predictor);
  const auto slow = builder.classify(EdgeId(0), now);
  EXPECT_EQ(slow.state, TrafficState::Slow);
  const auto very_slow = builder.classify(EdgeId(1), now);
  EXPECT_EQ(very_slow.state, TrafficState::VerySlow);
  EXPECT_GT(very_slow.z_score, slow.z_score);
}

TEST(TrafficMap, UnknownWithoutHistory) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(2), RouteId(0), now - 100.0, 300.0});
  const ArrivalPredictor predictor(f.store);
  const TrafficMapBuilder builder(f.store, predictor);
  EXPECT_EQ(builder.classify(EdgeId(2), now).state, TrafficState::Unknown);
}

TEST(TrafficMap, InferenceFillsSilentSegments) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  // No recent pass on edge 0: WiLocator infers (defaults to normal),
  // the agency-style map leaves it unknown.
  const ArrivalPredictor predictor(f.store);
  TrafficMapParams infer;
  infer.infer_unknowns = true;
  const TrafficMapBuilder wiloc(f.store, predictor, infer);
  TrafficMapParams no_infer;
  no_infer.infer_unknowns = false;
  const TrafficMapBuilder agency(f.store, predictor, no_infer);

  const auto w = wiloc.classify(EdgeId(0), now);
  EXPECT_EQ(w.state, TrafficState::Normal);
  EXPECT_TRUE(w.inferred);
  const auto a = agency.classify(EdgeId(0), now);
  EXPECT_EQ(a.state, TrafficState::Unknown);
}

TEST(TrafficMap, InferenceConsultsPredictorCorrection) {
  // Regression: the infer branch used to hard-code a zero residual, so
  // "inferred" segments always classified as normal regardless of what
  // the predictor knew. A +30 s traversal 5 minutes ago is outside this
  // map's tight 60 s window but inside the predictor's default horizon;
  // its shrunk correction (30 * 1/(1+1.5) = 12 s) must drive the
  // inferred z-score up relative to a map with no traffic signal at all.
  const SimTime now = at_day_time(20, hms(12));
  TrafficMapParams tight;
  tight.recent_window_s = 60.0;
  tight.infer_unknowns = true;

  TrafficMapFixture congested;
  congested.store.add_recent({EdgeId(0), RouteId(0), now - 300.0, 130.0});
  const ArrivalPredictor cp(congested.store);
  const auto seen =
      TrafficMapBuilder(congested.store, cp, tight).classify(EdgeId(0), now);

  TrafficMapFixture quiet;  // same rng seed -> identical residual stats
  const ArrivalPredictor qp(quiet.store);
  const auto baseline =
      TrafficMapBuilder(quiet.store, qp, tight).classify(EdgeId(0), now);

  EXPECT_TRUE(seen.inferred);
  EXPECT_EQ(seen.recent_count, 0u);  // the map's own window saw nothing
  EXPECT_TRUE(baseline.inferred);
  // Residual sigma is ~10 s, so a 12 s correction moves z by ~1.2.
  EXPECT_GT(seen.z_score, baseline.z_score + 0.8);
}

TEST(TrafficMap, BuildCoversAllEdges) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 60.0, 140.0});
  const ArrivalPredictor predictor(f.store);
  const TrafficMapBuilder builder(f.store, predictor);
  const TrafficMap map =
      builder.build({EdgeId(0), EdgeId(1), EdgeId(2)}, now);
  EXPECT_EQ(map.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(map.time, now);
  EXPECT_EQ(map.count(TrafficState::VerySlow), 1u);
  EXPECT_EQ(map.unknown_count(), 1u);  // edge 2 has no history at all
}

TEST(TrafficMap, MaxRecentZeroReadsNoRecent) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  f.store.add_recent({EdgeId(0), RouteId(0), now - 60.0, 140.0});
  const ArrivalPredictor predictor(f.store);
  TrafficMapParams none;
  none.max_recent = 0;
  none.infer_unknowns = false;
  const auto seg =
      TrafficMapBuilder(f.store, predictor, none).classify(EdgeId(0), now);
  EXPECT_EQ(seg.recent_count, 0u);
  EXPECT_EQ(seg.state, TrafficState::Unknown);
}

/// Shrunk cross-route Eq.-5 correction with every recent's Th looked up
/// at query time (the predictor's recent_correction, by hand).
std::optional<double> reference_correction(const TravelTimeStore& store,
                                           const PredictorOptions& o,
                                           EdgeId edge, SimTime t) {
  double sum = 0.0;
  std::size_t used = 0;
  for (const TravelObservation& r :
       store.recent(edge, t, o.recent_window_s, o.max_recent)) {
    const std::size_t slot = store.slots().slot_of(r.exit_time);
    auto th = store.historical_mean(r.edge, r.route, slot);
    if (!th.has_value()) th = store.historical_mean_any_route(r.edge, slot);
    if (!th.has_value()) continue;
    sum += r.travel_time - *th;
    ++used;
  }
  if (used == 0) return std::nullopt;
  const double n = static_cast<double>(used);
  return (sum / n) * (n / (n + o.correction_shrinkage));
}

/// The classifier with per-recent Th lookups, as a reference for the
/// store's resolved residuals.
SegmentTraffic reference_classify(const TravelTimeStore& store,
                                  const TrafficMapParams& p, EdgeId edge,
                                  SimTime now) {
  SegmentTraffic out;
  const std::size_t slot = store.slots().slot_of(now);
  const auto res_mean = store.residual_mean(edge, slot);
  const auto res_std = store.residual_stddev(edge, slot);
  const bool have_stats =
      res_mean.has_value() && res_std.has_value() && *res_std > 1e-9;
  double sum = 0.0;
  std::size_t used = 0;
  for (const TravelObservation& r :
       store.recent(edge, now, p.recent_window_s, p.max_recent)) {
    ++out.recent_count;
    if (!have_stats) continue;
    const std::size_t r_slot = store.slots().slot_of(r.exit_time);
    auto th = store.historical_mean(r.edge, r.route, r_slot);
    if (!th.has_value()) th = store.historical_mean_any_route(r.edge, r_slot);
    if (!th.has_value()) continue;
    sum += r.travel_time - *th;
    ++used;
  }
  double residual = 0.0;
  bool have_signal = used > 0;
  if (have_signal) residual = sum / static_cast<double>(used);
  if (!have_signal && p.infer_unknowns && have_stats) {
    residual = reference_correction(store, PredictorOptions{}, edge, now)
                   .value_or(0.0);
    have_signal = true;
    out.inferred = true;
  }
  if (!have_signal || !have_stats) return out;
  out.z_score = (residual - *res_mean) / *res_std;
  return out;
}

TEST(TrafficMap, ClassifyMatchesPerRecentLookups) {
  // Six edges: 0-3 with history of route 0 (and route 1 on even edges,
  // so route-1 traversals of odd edges use the cross-route mean), edge 4
  // with too little history for residual statistics, edge 5 with none.
  Rng rng(8);
  TravelTimeStore store(DaySlots::paper_five_slots());
  for (int day = 0; day < 8; ++day)
    for (const double tod : {9.0, 12.0, 15.0, 18.5})
      for (unsigned e = 0; e < 4; ++e) {
        const SimTime at = at_day_time(day, tod * 3600.0);
        store.add_history({EdgeId(e), RouteId(0), at,
                           90.0 + rng.normal(0.0, 12.0)});
        if (e % 2 == 0)
          store.add_history({EdgeId(e), RouteId(1), at,
                             110.0 + rng.normal(0.0, 12.0)});
      }
  store.add_history({EdgeId(4), RouteId(0), at_day_time(0, hms(12)), 80.0});
  store.finalize_history();
  const std::vector<SimTime> nows{at_day_time(20, hms(9, 10)),
                                  at_day_time(20, hms(12)),
                                  at_day_time(20, hms(18, 50))};
  for (const SimTime now : nows)
    for (unsigned e = 0; e < 6; ++e)
      for (int k = 0; k < 6; ++k)
        store.add_recent({EdgeId(e), RouteId(k % 3 == 0 ? 1 : 0),
                          now - rng.uniform(0.0, 2400.0),
                          rng.uniform(60.0, 160.0)});

  const ArrivalPredictor predictor(store);
  TrafficMapParams tight;
  tight.recent_window_s = 240.0;  // leaves some edges to inference
  TrafficMapParams few;
  few.max_recent = 2;
  TrafficMapParams no_infer = tight;
  no_infer.infer_unknowns = false;
  std::size_t inferred = 0, observed = 0;
  for (const TrafficMapParams& params :
       {TrafficMapParams{}, tight, few, no_infer}) {
    const TrafficMapBuilder builder(store, predictor, params);
    for (const SimTime now : nows)
      for (const double dt : {0.0, 120.0, 900.0})
        for (unsigned e = 0; e < 6; ++e) {
          const SegmentTraffic got = builder.classify(EdgeId(e), now + dt);
          const SegmentTraffic want =
              reference_classify(store, params, EdgeId(e), now + dt);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.z_score),
                    std::bit_cast<std::uint64_t>(want.z_score))
              << "edge " << e << ": " << got.z_score << " vs "
              << want.z_score;
          EXPECT_EQ(got.recent_count, want.recent_count) << "edge " << e;
          EXPECT_EQ(got.inferred, want.inferred) << "edge " << e;
          inferred += got.inferred ? 1 : 0;
          observed += !got.inferred && got.state != TrafficState::Unknown;
        }
  }
  EXPECT_GT(inferred, 0u);
  EXPECT_GT(observed, 0u);
}

TEST(TrafficMap, ToStringCoversAllStates) {
  EXPECT_STREQ(to_string(TrafficState::Unknown), "unknown");
  EXPECT_STREQ(to_string(TrafficState::Normal), "normal");
  EXPECT_STREQ(to_string(TrafficState::Slow), "slow");
  EXPECT_STREQ(to_string(TrafficState::VerySlow), "very-slow");
}

TEST(TrafficMap, ValidatesParams) {
  TrafficMapFixture f;
  const ArrivalPredictor predictor(f.store);
  TrafficMapParams bad;
  bad.very_slow_z = 0.5;  // below slow_z
  EXPECT_THROW(TrafficMapBuilder(f.store, predictor, bad),
               ContractViolation);
}

TEST(TrafficMap, FastTrafficIsNotSlow) {
  TrafficMapFixture f;
  const SimTime now = at_day_time(20, hms(12));
  // Faster-than-usual traffic: negative residual, classified normal.
  f.store.add_recent({EdgeId(0), RouteId(0), now - 60.0, 70.0});
  const ArrivalPredictor predictor(f.store);
  const TrafficMapBuilder builder(f.store, predictor);
  const auto seg = builder.classify(EdgeId(0), now);
  EXPECT_EQ(seg.state, TrafficState::Normal);
  EXPECT_LT(seg.z_score, 0.0);
}

}  // namespace
}  // namespace wiloc::core
