#include "core/travel_time.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/binio.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace wiloc::core {
namespace {

using roadnet::EdgeId;
using roadnet::RouteId;

TravelObservation obs(unsigned edge, unsigned route, SimTime exit,
                      double tt) {
  return {EdgeId(edge), RouteId(route), exit, tt};
}

TEST(TravelTimeStore, HistoricalMeanPerCell) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  // Two observations in the midday slot for (edge 0, route 0).
  store.add_history(obs(0, 0, at_day_time(0, hms(12)), 100.0));
  store.add_history(obs(0, 0, at_day_time(1, hms(13)), 120.0));
  // One in the AM-rush slot.
  store.add_history(obs(0, 0, at_day_time(0, hms(9)), 200.0));
  const std::size_t midday = store.slots().slot_of_tod(hms(12));
  const std::size_t rush = store.slots().slot_of_tod(hms(9));
  EXPECT_DOUBLE_EQ(*store.historical_mean(EdgeId(0), RouteId(0), midday),
                   110.0);
  EXPECT_DOUBLE_EQ(*store.historical_mean(EdgeId(0), RouteId(0), rush),
                   200.0);
  EXPECT_FALSE(
      store.historical_mean(EdgeId(0), RouteId(1), midday).has_value());
  EXPECT_FALSE(
      store.historical_mean(EdgeId(1), RouteId(0), midday).has_value());
}

TEST(TravelTimeStore, LargeRouteIdsDoNotAliasAcrossEdges) {
  // Regression: the cell key used to be (edge << 32) | (route << 8) |
  // slot, so route bits >= 2^24 bled into the edge field —
  // (edge 0, route 2^24) and (edge 1, route 0) shared one cell and
  // their histories merged.
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_history(obs(0, 1u << 24, at_day_time(0, hms(12)), 100.0));
  store.add_history(obs(1, 0, at_day_time(0, hms(12)), 300.0));
  const std::size_t midday = store.slots().slot_of_tod(hms(12));
  EXPECT_DOUBLE_EQ(
      *store.historical_mean(EdgeId(0), RouteId(1u << 24), midday), 100.0);
  EXPECT_DOUBLE_EQ(*store.historical_mean(EdgeId(1), RouteId(0), midday),
                   300.0);
}

TEST(TravelTimeStore, LargeSlotIndexesDoNotAliasAcrossRoutes) {
  // Regression: with the packed key, slot indexes >= 256 bled into the
  // route field — (route 1, slot 256) collided with (route 0, slot 256)
  // under a fine (e.g. 5-minute) slot grid.
  TravelTimeStore store(DaySlots::uniform(288));
  const double tod = 256.0 * 300.0;  // inside slot 256 of 288
  store.add_history(obs(0, 1, at_day_time(0, tod + 10.0), 100.0));
  store.add_history(obs(0, 0, at_day_time(0, tod + 20.0), 300.0));
  const std::size_t slot = store.slots().slot_of_tod(tod);
  ASSERT_EQ(slot, 256u);
  EXPECT_DOUBLE_EQ(*store.historical_mean(EdgeId(0), RouteId(1), slot),
                   100.0);
  EXPECT_DOUBLE_EQ(*store.historical_mean(EdgeId(0), RouteId(0), slot),
                   300.0);
}

TEST(TravelTimeStore, CrossRouteMean) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_history(obs(0, 0, at_day_time(0, hms(12)), 100.0));
  store.add_history(obs(0, 1, at_day_time(0, hms(12)), 140.0));
  const std::size_t midday = store.slots().slot_of_tod(hms(12));
  EXPECT_DOUBLE_EQ(*store.historical_mean_any_route(EdgeId(0), midday),
                   120.0);
}

TEST(TravelTimeStore, HistoryCount) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_history(obs(0, 0, at_day_time(0, hms(12)), 100.0));
  store.add_history(obs(0, 1, at_day_time(0, hms(9)), 100.0));
  store.add_history(obs(1, 0, at_day_time(0, hms(12)), 100.0));
  EXPECT_EQ(store.history_count(EdgeId(0)), 2u);
  EXPECT_EQ(store.history_count(EdgeId(1)), 1u);
  EXPECT_EQ(store.history_count(EdgeId(2)), 0u);
}

TEST(TravelTimeStore, ResidualStatsAfterFinalize) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  // Route 0 mean 100, route 1 mean 200, same edge/slot; residuals are
  // computed against each route's own mean.
  for (const double tt : {90.0, 110.0})
    store.add_history(obs(0, 0, at_day_time(0, hms(12)), tt));
  for (const double tt : {180.0, 220.0})
    store.add_history(obs(0, 1, at_day_time(0, hms(12)), tt));
  EXPECT_FALSE(store.finalized());
  store.finalize_history();
  EXPECT_TRUE(store.finalized());
  const std::size_t midday = store.slots().slot_of_tod(hms(12));
  // Residuals: -10, +10, -20, +20 -> mean 0.
  EXPECT_NEAR(*store.residual_mean(EdgeId(0), midday), 0.0, 1e-9);
  EXPECT_GT(*store.residual_stddev(EdgeId(0), midday), 10.0);
  EXPECT_FALSE(store.residual_mean(EdgeId(1), midday).has_value());
}

TEST(TravelTimeStore, FinalizeGuards) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_history(obs(0, 0, at_day_time(0, hms(12)), 100.0));
  store.finalize_history();
  EXPECT_THROW(store.finalize_history(), StateError);
  EXPECT_THROW(
      store.add_history(obs(0, 0, at_day_time(0, hms(12)), 100.0)),
      StateError);
}

TEST(TravelTimeStore, RejectsNonPositiveTravelTime) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  EXPECT_THROW(store.add_history(obs(0, 0, 0.0, 0.0)), ContractViolation);
  EXPECT_THROW(store.add_recent(obs(0, 0, 0.0, -5.0)), ContractViolation);
}

TEST(TravelTimeStore, RecentNewestFirstWithWindow) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_recent(obs(0, 0, 1000.0, 50.0));
  store.add_recent(obs(0, 1, 1500.0, 60.0));
  store.add_recent(obs(0, 0, 2000.0, 70.0));
  const auto recents = store.recent(EdgeId(0), 2100.0, 800.0, 10);
  ASSERT_EQ(recents.size(), 2u);  // the 1000.0 one is outside the window
  EXPECT_DOUBLE_EQ(recents[0].exit_time, 2000.0);
  EXPECT_DOUBLE_EQ(recents[1].exit_time, 1500.0);
}

TEST(TravelTimeStore, RecentRespectsMaxCount) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  for (int i = 0; i < 10; ++i)
    store.add_recent(obs(0, 0, 100.0 * i, 50.0));
  EXPECT_EQ(store.recent(EdgeId(0), 1000.0, 1e6, 3).size(), 3u);
  EXPECT_EQ(store.recent(EdgeId(0), 1000.0, 1e6, 1).size(), 1u);
  EXPECT_TRUE(store.recent(EdgeId(0), 1000.0, 1e6, 0).empty());
}

TEST(TravelTimeStore, RecentIgnoresFutureObservations) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_recent(obs(0, 0, 1000.0, 50.0));
  store.add_recent(obs(0, 0, 5000.0, 60.0));
  const auto recents = store.recent(EdgeId(0), 1200.0, 1e6, 10);
  ASSERT_EQ(recents.size(), 1u);
  EXPECT_DOUBLE_EQ(recents[0].exit_time, 1000.0);
}

TEST(TravelTimeStore, RecentOutOfOrderInsertion) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_recent(obs(0, 0, 2000.0, 50.0));
  store.add_recent(obs(0, 0, 1000.0, 60.0));  // arrives late
  const auto recents = store.recent(EdgeId(0), 2100.0, 1e6, 10);
  ASSERT_EQ(recents.size(), 2u);
  EXPECT_DOUBLE_EQ(recents[0].exit_time, 2000.0);
}

TEST(TravelTimeStore, PruneRecent) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  store.add_recent(obs(0, 0, 100.0, 50.0));
  store.add_recent(obs(0, 0, 900.0, 50.0));
  store.prune_recent(1000.0, 200.0);
  EXPECT_EQ(store.recent(EdgeId(0), 1000.0, 1e6, 10).size(), 1u);
}

TEST(TravelTimeStore, RecentOnUnknownEdgeIsEmpty) {
  TravelTimeStore store(DaySlots::paper_five_slots());
  EXPECT_TRUE(store.recent(EdgeId(7), 0.0, 1e6, 10).empty());
}

/// Which baseline a reference residual was taken against.
struct BaselineKinds {
  std::size_t route_cell = 0;
  std::size_t any_route = 0;
  std::size_t none = 0;
};

/// Checks every recent traversal of `edges` (each ring read whole) against
/// Tr - Th recomputed from the public history queries: the route's own
/// cell, else the cross-route mean, else no baseline (NaN).
BaselineKinds expect_residuals_resolved(const TravelTimeStore& store,
                                        unsigned edges) {
  BaselineKinds kinds;
  for (unsigned e = 0; e < edges; ++e)
    store.for_each_recent(
        EdgeId(e), 1e9, 1e12, std::numeric_limits<std::size_t>::max(),
        [&](const TravelObservation& r, double residual) {
          const std::size_t slot = store.slots().slot_of(r.exit_time);
          auto th = store.historical_mean(r.edge, r.route, slot);
          if (th.has_value()) {
            ++kinds.route_cell;
          } else {
            th = store.historical_mean_any_route(r.edge, slot);
            if (th.has_value()) ++kinds.any_route;
          }
          if (!th.has_value()) {
            ++kinds.none;
            EXPECT_TRUE(std::isnan(residual)) << "edge " << e;
            return;
          }
          EXPECT_EQ(std::bit_cast<std::uint64_t>(residual),
                    std::bit_cast<std::uint64_t>(r.travel_time - *th))
              << "edge " << e << ": " << residual << " vs "
              << r.travel_time - *th;
        });
  return kinds;
}

TEST(TravelTimeStore, RecentResidualsMatchHistoryLookups) {
  // Edge 0: history of both routes. Edge 1: route 0 only, so route-1
  // traversals fall back to the cross-route mean. Edge 2: route 1 in
  // the morning only. Edge 3: no history at all.
  Rng rng(14);
  TravelTimeStore store(DaySlots::paper_five_slots());
  const auto add_recents = [&](int day, int n) {
    for (int i = 0; i < n; ++i)
      store.add_recent(obs(static_cast<unsigned>(i % 4),
                           static_cast<unsigned>(i % 3 == 0 ? 1 : 0),
                           at_day_time(day, rng.uniform(0.0, 86400.0)),
                           rng.uniform(20.0, 200.0)));
  };
  add_recents(30, 40);  // before any history: every residual is NaN
  EXPECT_EQ(expect_residuals_resolved(store, 4).none, 40u);
  for (int day = 0; day < 6; ++day)
    for (const double tod : {3.0, 8.5, 9.0, 12.0, 18.5, 21.0}) {
      const SimTime at = at_day_time(day, tod * 3600.0);
      store.add_history(obs(0, 0, at, rng.uniform(50.0, 150.0)));
      store.add_history(obs(0, 1, at, rng.uniform(50.0, 150.0)));
      store.add_history(obs(1, 0, at, rng.uniform(50.0, 150.0)));
      if (tod < 10.0)
        store.add_history(obs(2, 1, at, rng.uniform(50.0, 150.0)));
      // History arriving after recents re-resolves their residuals.
      expect_residuals_resolved(store, 4);
    }
  add_recents(31, 40);
  expect_residuals_resolved(store, 4);
  BinWriter before_finalize;
  store.save(before_finalize);

  store.finalize_history();
  add_recents(32, 40);
  const BaselineKinds kinds = expect_residuals_resolved(store, 4);
  EXPECT_GT(kinds.route_cell, 0u);
  EXPECT_GT(kinds.any_route, 0u);
  EXPECT_GT(kinds.none, 0u);
  BinWriter after_finalize;
  store.save(after_finalize);

  for (const BinWriter* saved : {&before_finalize, &after_finalize}) {
    TravelTimeStore copy(DaySlots::uniform(3));  // different shape
    copy.add_recent(obs(0, 0, 10.0, 5.0));       // replaced by restore
    BinReader r(saved->bytes());
    copy.restore(r);
    const BaselineKinds restored = expect_residuals_resolved(copy, 4);
    EXPECT_GT(restored.route_cell, 0u);
    EXPECT_GT(restored.none, 0u);
  }
}

TEST(TravelTimeStore, SaveBytesCarryNoResiduals) {
  // One history cell, finalized, one recent traversal: the checkpoint is
  // exactly the format-1 layout, with no bytes for the ring's resolved
  // residuals.
  const DaySlots slots = DaySlots::uniform(2);
  TravelTimeStore store(slots);
  const TravelObservation hist = obs(1, 0, hms(3), 42.0);
  const TravelObservation recent = obs(1, 0, hms(4), 50.0);
  store.add_recent(recent);
  store.add_history(hist);
  store.finalize_history();
  BinWriter saved;
  store.save(saved);

  const std::size_t slot = slots.slot_of(hist.exit_time);
  const std::uint64_t edge_slot = (std::uint64_t{1} << 32) | slot;
  RunningStats cell;
  cell.add(42.0);
  RunningStats residual;
  residual.add(0.0);
  BinWriter expected;
  expected.put_u8(1);  // format version
  slots.encode(expected);
  expected.put_u8(1);  // finalized
  expected.put_u64(1);
  expected.put_u32(1);
  expected.put_u32(0);
  expected.put_u32(static_cast<std::uint32_t>(slot));
  encode_stats(expected, cell);
  expected.put_u64(1);
  expected.put_u64(edge_slot);
  encode_stats(expected, cell);
  expected.put_u64(1);
  expected.put_u64(edge_slot);
  encode_stats(expected, residual);
  expected.put_u64(0);  // raw history (cleared by finalize)
  expected.put_u64(1);  // one ring
  expected.put_u32(1);
  expected.put_u64(1);
  encode_observation(expected, recent);
  ASSERT_EQ(saved.size(), expected.size());
  EXPECT_TRUE(std::equal(saved.bytes().begin(), saved.bytes().end(),
                         expected.bytes().begin()));
}

TEST(TravelTimeStore, SaveRestoreSaveKeepsBytes) {
  // Hash-map sections are written in iteration order, which a restore
  // need not reproduce, so the byte round trip uses one edge, one route
  // and one slot: one entry per map, a long raw history and a long ring
  // (whose residuals are re-resolved by the restore, not read back).
  Rng rng(5);
  TravelTimeStore store(DaySlots::uniform(1));
  for (int i = 0; i < 120; ++i)
    store.add_history(obs(2, 1, at_day_time(i % 5, rng.uniform(0.0, 86400.0)),
                          rng.uniform(20.0, 180.0)));
  const auto add_recents = [&](int n) {
    for (int i = 0; i < n; ++i)
      store.add_recent(obs(2, static_cast<unsigned>(i % 3),
                           at_day_time(6, rng.uniform(0.0, 86400.0)),
                           rng.uniform(20.0, 180.0)));
  };
  const auto expect_round_trip = [](const TravelTimeStore& from) {
    BinWriter first;
    from.save(first);
    TravelTimeStore copy(DaySlots::uniform(3));
    BinReader r(first.bytes());
    copy.restore(r);
    BinWriter second;
    copy.save(second);
    ASSERT_EQ(second.size(), first.size());
    EXPECT_TRUE(std::equal(first.bytes().begin(), first.bytes().end(),
                           second.bytes().begin()));
  };
  add_recents(40);
  expect_round_trip(store);
  store.finalize_history();
  add_recents(40);
  expect_round_trip(store);
}

}  // namespace
}  // namespace wiloc::core
