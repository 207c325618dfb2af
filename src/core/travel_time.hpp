// Travel-time bookkeeping: the data layer of the predictor.
//
// The paper splits travel-time knowledge into two kinds:
//  - *historical*: per (segment, route, time-slot) means Th(i, j, l),
//    gathered offline over weeks (Section V-A3, offline training);
//  - *recent*: the travel times of the J buses (of any route) that most
//    recently traversed each segment, Tr(i, k) — the timely signal that
//    corrects the historical mean (Eq. 5/8).
//
// The store also keeps per-(segment, slot) residual statistics
// (Tr - Th), which the traffic-map classifier standardizes into z-scores
// (Section V-B3), and each recent traversal's own Eq.-5 residual, resolved
// once when the traversal is recorded.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "roadnet/route.hpp"
#include "util/binio.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace wiloc::core {

/// One completed segment traversal.
struct TravelObservation {
  roadnet::EdgeId edge;
  roadnet::RouteId route;
  SimTime exit_time;   ///< when the bus left the segment
  double travel_time;  ///< seconds spent on the segment

  friend bool operator==(const TravelObservation&,
                         const TravelObservation&) = default;
};

/// Serializes one observation for the journal / snapshot layer.
void encode_observation(BinWriter& w, const TravelObservation& obs);
TravelObservation decode_observation(BinReader& r);

class TravelTimeStore {
 public:
  /// `slots` defines the time-of-day partition used for all historical
  /// aggregation (the paper's 5 weekday slots, or the slots produced by
  /// the seasonal-index analysis).
  explicit TravelTimeStore(DaySlots slots);

  // -- offline history --------------------------------------------------

  /// Adds one training observation. Must precede finalize_history().
  void add_history(const TravelObservation& obs);

  /// Computes per-(edge, slot) residual statistics from the accumulated
  /// history. Call once after loading; add_history afterwards throws.
  void finalize_history();
  bool finalized() const { return finalized_; }

  /// Historical mean Th(i, j, l); nullopt when the (edge, route, slot)
  /// cell has no data.
  std::optional<double> historical_mean(roadnet::EdgeId edge,
                                        roadnet::RouteId route,
                                        std::size_t slot) const;

  /// Historical mean across all routes on the edge in the slot.
  std::optional<double> historical_mean_any_route(roadnet::EdgeId edge,
                                                  std::size_t slot) const;

  /// The Eq.-8 baseline: Th(i, j, l), else the cross-route mean for the
  /// slot when this route has no history on the edge, else nullopt. The
  /// one statement of that fallback, for a prediction and for the
  /// residual of every recent traversal alike.
  std::optional<double> baseline(roadnet::EdgeId edge,
                                 roadnet::RouteId route,
                                 std::size_t slot) const;

  /// Residual (Tr - Th) mean / stddev per (edge, slot). Requires
  /// finalize_history(). nullopt when fewer than 2 residuals exist.
  std::optional<double> residual_mean(roadnet::EdgeId edge,
                                      std::size_t slot) const;
  std::optional<double> residual_stddev(roadnet::EdgeId edge,
                                        std::size_t slot) const;

  /// Number of history observations for the edge (all routes/slots).
  std::size_t history_count(roadnet::EdgeId edge) const;

  const DaySlots& slots() const { return slots_; }

  // -- online recents ----------------------------------------------------

  /// Records a just-completed traversal (from live tracking). Exact
  /// duplicates (same edge, route, exit time and travel time) are
  /// dropped, so journal replay after a crash and a re-fed scan stream
  /// cannot double-count a traversal. Returns false for a duplicate.
  bool add_recent(const TravelObservation& obs);

  /// The most recent traversals of the edge within `window_s` of `now`,
  /// newest first, at most `max_count`.
  std::vector<TravelObservation> recent(roadnet::EdgeId edge, SimTime now,
                                        double window_s,
                                        std::size_t max_count) const;

  /// Calls `f(const TravelObservation&, double residual)` on exactly
  /// what recent() would return, in the same order, without copying them
  /// out. `residual` is the traversal's Eq.-5 residual Tr - Th against
  /// baseline() in the slot it exited in, resolved when it was recorded;
  /// NaN when it has no baseline.
  template <typename F>
  void for_each_recent(roadnet::EdgeId edge, SimTime now, double window_s,
                       std::size_t max_count, F&& f) const {
    WILOC_EXPECTS(window_s >= 0.0);
    const auto it = recent_.find(edge);
    if (it == recent_.end()) return;
    std::size_t visited = 0;
    for (auto r = it->second.rbegin();
         r != it->second.rend() && visited < max_count; ++r) {
      if (r->obs.exit_time > now) continue;  // future data is invisible
      if (now - r->obs.exit_time > window_s) break;
      f(r->obs, r->residual);
      ++visited;
    }
  }

  /// Drops recents older than `now - window_s` (ring hygiene).
  void prune_recent(SimTime now, double window_s);

  // -- segment-update epochs ---------------------------------------------

  /// Monotone version counter of the learned state, bumped by every
  /// mutation that can change a prediction (add_history, add_recent,
  /// prune_recent, finalize_history, restore). Process-local — not
  /// persisted; a restore counts as "everything changed".
  std::uint64_t epoch() const { return epoch_; }

  /// The epoch at which this edge's travel-time evidence last changed.
  /// Whole-store invalidations (finalize, restore) raise a floor shared
  /// by every edge, so `edge_epoch(e) > seen` is the exact "did anything
  /// that can move a prediction across `e` change since `seen`" test the
  /// materialized arrival table rebuilds on.
  std::uint64_t edge_epoch(roadnet::EdgeId edge) const;

  // -- persistence -------------------------------------------------------

  /// Serializes the complete store state (slots, history cells,
  /// cross-route aggregates, residuals, pre-finalize raw history, and
  /// the recent rings — the predictor's Eq. 5/8 recent-correction
  /// state) into `w`. restore() rebuilds it bit-exactly.
  void save(BinWriter& w) const;

  /// Replaces this store's entire state with one written by save().
  /// Throws DecodeError on a malformed or version-incompatible body.
  void restore(BinReader& r);

  /// Pre-finalize training observations (empty once finalized). The
  /// server rebuilds its history dedup set from this after a restore.
  const std::vector<TravelObservation>& raw_history() const {
    return raw_history_;
  }

 private:
  /// Exact (edge, route, slot) cell identity. The three fields span up to
  /// 32 + 32 + 64 bits, which no bit-packed 64-bit key can hold without
  /// aliasing (the seed packed (edge<<32)|(route<<8)|slot, so route ids
  /// >= 2^24 bled into the edge bits and slots >= 256 into the route
  /// bits, silently merging unrelated history cells).
  struct CellKey {
    std::uint32_t edge;
    std::uint32_t route;
    std::uint32_t slot;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const;
  };

  static CellKey cell_key(roadnet::EdgeId edge, roadnet::RouteId route,
                          std::size_t slot);
  static std::uint64_t edge_slot_key(roadnet::EdgeId edge, std::size_t slot);

  DaySlots slots_;
  bool finalized_ = false;
  std::unordered_map<CellKey, RunningStats, CellKeyHash> history_;  // per cell
  std::unordered_map<std::uint64_t, RunningStats> edge_slot_; // across routes
  std::vector<TravelObservation> raw_history_;
  std::unordered_map<std::uint64_t, RunningStats> residuals_; // per edge+slot

  /// A recorded traversal with its Eq.-5 residual (NaN: no baseline).
  /// The residual is derived from the history, so it is resolved when the
  /// traversal is recorded, again whenever that history changes
  /// (add_history on the edge, restore), and never persisted.
  struct RecentTraversal {
    TravelObservation obs;
    double residual;
  };
  std::unordered_map<roadnet::EdgeId, std::deque<RecentTraversal>> recent_;

  /// Tr - Th of `obs` against baseline(); NaN when it has none.
  double residual_of(const TravelObservation& obs) const;
  /// Re-resolves every residual of one ring after its history changed.
  void resolve_residuals(std::deque<RecentTraversal>& ring) const;

  /// Marks `edge` changed at a fresh epoch (see edge_epoch()).
  void bump_edge(roadnet::EdgeId edge);

  std::uint64_t epoch_ = 0;
  std::uint64_t epoch_floor_ = 0;  ///< whole-store invalidation watermark
  std::unordered_map<roadnet::EdgeId, std::uint64_t> edge_epoch_;
};

}  // namespace wiloc::core
