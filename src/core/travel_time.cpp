#include "core/travel_time.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace wiloc::core {

TravelTimeStore::TravelTimeStore(DaySlots slots) : slots_(std::move(slots)) {}

std::size_t TravelTimeStore::CellKeyHash::operator()(
    const CellKey& k) const {
  return static_cast<std::size_t>(
      hash_coords(0x77694c6f63ULL, k.edge, k.route, k.slot));
}

TravelTimeStore::CellKey TravelTimeStore::cell_key(roadnet::EdgeId edge,
                                                   roadnet::RouteId route,
                                                   std::size_t slot) {
  return {edge.value(), route.value(), static_cast<std::uint32_t>(slot)};
}

std::uint64_t TravelTimeStore::edge_slot_key(roadnet::EdgeId edge,
                                             std::size_t slot) {
  return (static_cast<std::uint64_t>(edge.value()) << 32) |
         static_cast<std::uint64_t>(slot);
}

void TravelTimeStore::add_history(const TravelObservation& obs) {
  if (finalized_)
    throw StateError("TravelTimeStore: add_history after finalize_history");
  WILOC_EXPECTS(obs.travel_time > 0.0);
  const std::size_t slot = slots_.slot_of(obs.exit_time);
  history_[cell_key(obs.edge, obs.route, slot)].add(obs.travel_time);
  edge_slot_[edge_slot_key(obs.edge, slot)].add(obs.travel_time);
  raw_history_.push_back(obs);
  // The edge's baselines moved: residuals of traversals already recorded
  // on it (recents that arrived before their history) follow.
  if (const auto it = recent_.find(obs.edge); it != recent_.end())
    resolve_residuals(it->second);
  bump_edge(obs.edge);
}

void TravelTimeStore::finalize_history() {
  if (finalized_)
    throw StateError("TravelTimeStore: finalize_history called twice");
  for (const TravelObservation& obs : raw_history_) {
    const std::size_t slot = slots_.slot_of(obs.exit_time);
    const auto th = historical_mean(obs.edge, obs.route, slot);
    if (!th.has_value()) continue;
    residuals_[edge_slot_key(obs.edge, slot)].add(obs.travel_time - *th);
  }
  raw_history_.clear();
  raw_history_.shrink_to_fit();
  finalized_ = true;
  // Residual statistics just materialized: every edge's classification
  // and correction basis changed at once.
  epoch_floor_ = ++epoch_;
}

std::optional<double> TravelTimeStore::historical_mean(
    roadnet::EdgeId edge, roadnet::RouteId route, std::size_t slot) const {
  const auto it = history_.find(cell_key(edge, route, slot));
  if (it == history_.end() || it->second.empty()) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::historical_mean_any_route(
    roadnet::EdgeId edge, std::size_t slot) const {
  const auto it = edge_slot_.find(edge_slot_key(edge, slot));
  if (it == edge_slot_.end() || it->second.empty()) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::baseline(roadnet::EdgeId edge,
                                                roadnet::RouteId route,
                                                std::size_t slot) const {
  if (const auto th = historical_mean(edge, route, slot); th.has_value())
    return th;
  return historical_mean_any_route(edge, slot);
}

double TravelTimeStore::residual_of(const TravelObservation& obs) const {
  const auto th =
      baseline(obs.edge, obs.route, slots_.slot_of(obs.exit_time));
  return th.has_value() ? obs.travel_time - *th
                        : std::numeric_limits<double>::quiet_NaN();
}

void TravelTimeStore::resolve_residuals(
    std::deque<RecentTraversal>& ring) const {
  for (RecentTraversal& r : ring) r.residual = residual_of(r.obs);
}

std::optional<double> TravelTimeStore::residual_mean(roadnet::EdgeId edge,
                                                     std::size_t slot) const {
  const auto it = residuals_.find(edge_slot_key(edge, slot));
  if (it == residuals_.end() || it->second.count() < 2) return std::nullopt;
  return it->second.mean();
}

std::optional<double> TravelTimeStore::residual_stddev(
    roadnet::EdgeId edge, std::size_t slot) const {
  const auto it = residuals_.find(edge_slot_key(edge, slot));
  if (it == residuals_.end() || it->second.count() < 2) return std::nullopt;
  return it->second.stddev();
}

std::size_t TravelTimeStore::history_count(roadnet::EdgeId edge) const {
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < slots_.count(); ++slot) {
    const auto it = edge_slot_.find(edge_slot_key(edge, slot));
    if (it != edge_slot_.end()) n += it->second.count();
  }
  return n;
}

bool TravelTimeStore::add_recent(const TravelObservation& obs) {
  WILOC_EXPECTS(obs.travel_time > 0.0);
  auto& ring = recent_[obs.edge];
  // Keep the ring ordered by exit time (observations arrive in order in
  // practice; tolerate slight disorder by insertion).
  auto it = ring.end();
  while (it != ring.begin() && (it - 1)->obs.exit_time > obs.exit_time) --it;
  // Entries sharing this exit time sit immediately before the insertion
  // point; an exact duplicate among them means this traversal is already
  // recorded (journal replay, re-fed stream) and must not count twice.
  for (auto dup = it; dup != ring.begin() &&
                      (dup - 1)->obs.exit_time == obs.exit_time;
       --dup) {
    if ((dup - 1)->obs == obs) return false;
  }
  ring.insert(it, {obs, residual_of(obs)});
  constexpr std::size_t kMaxRing = 1024;
  if (ring.size() > kMaxRing) ring.pop_front();
  bump_edge(obs.edge);
  return true;
}

std::vector<TravelObservation> TravelTimeStore::recent(
    roadnet::EdgeId edge, SimTime now, double window_s,
    std::size_t max_count) const {
  std::vector<TravelObservation> out;
  for_each_recent(
      edge, now, window_s, max_count,
      [&out](const TravelObservation& r, double) { out.push_back(r); });
  return out;
}

void TravelTimeStore::prune_recent(SimTime now, double window_s) {
  for (auto& [edge, ring] : recent_) {
    bool dropped = false;
    while (!ring.empty() && now - ring.front().obs.exit_time > window_s) {
      ring.pop_front();
      dropped = true;
    }
    if (dropped) bump_edge(edge);
  }
}

void TravelTimeStore::bump_edge(roadnet::EdgeId edge) {
  edge_epoch_[edge] = ++epoch_;
}

std::uint64_t TravelTimeStore::edge_epoch(roadnet::EdgeId edge) const {
  const auto it = edge_epoch_.find(edge);
  const std::uint64_t own = it != edge_epoch_.end() ? it->second : 0;
  return std::max(own, epoch_floor_);
}

// -- persistence -----------------------------------------------------------

void encode_observation(BinWriter& w, const TravelObservation& obs) {
  w.put_u32(obs.edge.value());
  w.put_u32(obs.route.value());
  w.put_f64(obs.exit_time);
  w.put_f64(obs.travel_time);
}

TravelObservation decode_observation(BinReader& r) {
  TravelObservation obs;
  obs.edge = roadnet::EdgeId(r.get_u32());
  obs.route = roadnet::RouteId(r.get_u32());
  obs.exit_time = r.get_f64();
  obs.travel_time = r.get_f64();
  return obs;
}

namespace {
constexpr std::uint8_t kStoreFormatVersion = 1;
}

void TravelTimeStore::save(BinWriter& w) const {
  w.put_u8(kStoreFormatVersion);
  slots_.encode(w);
  w.put_u8(finalized_ ? 1 : 0);

  w.put_u64(history_.size());
  for (const auto& [key, stats] : history_) {
    w.put_u32(key.edge);
    w.put_u32(key.route);
    w.put_u32(key.slot);
    encode_stats(w, stats);
  }

  w.put_u64(edge_slot_.size());
  for (const auto& [key, stats] : edge_slot_) {
    w.put_u64(key);
    encode_stats(w, stats);
  }

  w.put_u64(residuals_.size());
  for (const auto& [key, stats] : residuals_) {
    w.put_u64(key);
    encode_stats(w, stats);
  }

  w.put_u64(raw_history_.size());
  for (const TravelObservation& obs : raw_history_)
    encode_observation(w, obs);

  w.put_u64(recent_.size());
  for (const auto& [edge, ring] : recent_) {
    w.put_u32(edge.value());
    w.put_u64(ring.size());
    for (const RecentTraversal& r : ring) encode_observation(w, r.obs);
  }
}

void TravelTimeStore::restore(BinReader& r) {
  const std::uint8_t version = r.get_u8();
  if (version != kStoreFormatVersion)
    throw DecodeError("TravelTimeStore: unknown snapshot format version " +
                      std::to_string(version));
  DaySlots slots = DaySlots::decode(r);
  const bool finalized = r.get_u8() != 0;

  decltype(history_) history;
  const std::uint64_t cells = r.get_u64();
  for (std::uint64_t i = 0; i < cells; ++i) {
    CellKey key{};
    key.edge = r.get_u32();
    key.route = r.get_u32();
    key.slot = r.get_u32();
    history.emplace(key, decode_stats(r));
  }

  decltype(edge_slot_) edge_slot;
  const std::uint64_t es = r.get_u64();
  for (std::uint64_t i = 0; i < es; ++i) {
    const std::uint64_t key = r.get_u64();
    edge_slot.emplace(key, decode_stats(r));
  }

  decltype(residuals_) residuals;
  const std::uint64_t res = r.get_u64();
  for (std::uint64_t i = 0; i < res; ++i) {
    const std::uint64_t key = r.get_u64();
    residuals.emplace(key, decode_stats(r));
  }

  decltype(raw_history_) raw;
  const std::uint64_t raw_n = r.get_u64();
  for (std::uint64_t i = 0; i < raw_n; ++i)
    raw.push_back(decode_observation(r));

  decltype(recent_) recent;
  const std::uint64_t edges = r.get_u64();
  for (std::uint64_t i = 0; i < edges; ++i) {
    const roadnet::EdgeId edge(r.get_u32());
    auto& ring = recent[edge];
    const std::uint64_t n = r.get_u64();
    for (std::uint64_t k = 0; k < n; ++k)
      ring.push_back({decode_observation(r), 0.0});
  }

  // Everything decoded without throwing: commit atomically.
  slots_ = std::move(slots);
  finalized_ = finalized;
  history_ = std::move(history);
  edge_slot_ = std::move(edge_slot);
  residuals_ = std::move(residuals);
  raw_history_ = std::move(raw);
  recent_ = std::move(recent);
  // Residuals are not persisted: resolve them against the history just
  // restored.
  for (auto& [edge, ring] : recent_) resolve_residuals(ring);
  // Epochs are process-local: the restored state replaces everything, so
  // every edge is "changed" relative to any epoch handed out before.
  edge_epoch_.clear();
  epoch_floor_ = ++epoch_;
}

}  // namespace wiloc::core
