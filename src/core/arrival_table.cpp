#include "core/arrival_table.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string_view>

#include "util/contracts.hpp"

namespace wiloc::core {

double wall_clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Appends `v` in the shortest form that std::from_chars reads back to
/// the same double (non-finite -> null). `p` needs kMaxNum free bytes.
constexpr std::size_t kMaxNum = 32;
char* put_num(char* p, double v) {
  if (!std::isfinite(v)) {
    std::memcpy(p, "null", 4);
    return p + 4;
  }
  return std::to_chars(p, p + kMaxNum, v).ptr;
}

char* put_text(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

}  // namespace

std::string json_num(double v) {
  char buf[kMaxNum];
  return std::string(buf, put_num(buf, v));
}

std::string encode_arrival_json(roadnet::TripId trip, std::size_t stop,
                                SimTime now, SimTime arrival) {
  // Literals (~50 bytes) + two integers (<= 20 each) + three numbers.
  char buf[96 + 3 * kMaxNum];
  char* const end = buf + sizeof(buf);
  char* p = put_text(buf, "{\"trip\":");
  p = std::to_chars(p, end, trip.value()).ptr;
  p = put_text(p, ",\"stop\":");
  p = std::to_chars(p, end, stop).ptr;
  p = put_text(p, ",\"now\":");
  p = put_num(p, now);
  p = put_text(p, ",\"arrival_time\":");
  p = put_num(p, arrival);
  p = put_text(p, ",\"eta_s\":");
  p = put_num(p, arrival - now);
  *p++ = '}';
  return std::string(buf, p);
}

StopBodies encode_arrival_bodies(roadnet::TripId trip, SimTime now,
                                 std::span<const SimTime> arrival,
                                 std::string& scratch) {
  // The `{"trip":T,"stop":` head and the `now` text are formatted once.
  // A stop behind the bus (arrival bit-equal to a finite `now`) copies
  // the `now` text and an `eta_s` of 0 instead of formatting two more
  // numbers.
  char head[32];
  char* h = put_text(head, "{\"trip\":");
  h = std::to_chars(h, head + sizeof(head), trip.value()).ptr;
  h = put_text(h, ",\"stop\":");
  const std::string_view head_text(head, static_cast<std::size_t>(h - head));

  char mid[32 + kMaxNum];
  char* m = put_text(mid, ",\"now\":");
  char* const now_begin = m;
  m = put_num(m, now);
  const std::string_view now_text(now_begin,
                                  static_cast<std::size_t>(m - now_begin));
  m = put_text(m, ",\"arrival_time\":");
  const std::string_view mid_text(mid, static_cast<std::size_t>(m - mid));

  const bool shortcut = std::isfinite(now);
  const auto now_bits = std::bit_cast<std::uint64_t>(now);
  // Head, stop index (<= 20), mid, two numbers and `,"eta_s":}`.
  const std::size_t per_stop =
      head_text.size() + 20 + mid_text.size() + 2 * kMaxNum + 16;
  if (scratch.size() < arrival.size() * per_stop)
    scratch.resize(arrival.size() * per_stop);
  char* const base = scratch.data();
  char* const end = base + scratch.size();
  std::vector<std::uint32_t> ends;
  ends.reserve(arrival.size());
  char* p = base;
  for (std::size_t s = 0; s < arrival.size(); ++s) {
    p = put_text(p, head_text);
    p = std::to_chars(p, end, s).ptr;
    p = put_text(p, mid_text);
    if (shortcut && std::bit_cast<std::uint64_t>(arrival[s]) == now_bits) {
      // now - now is +0 for every finite now, which prints as 0.
      p = put_text(p, now_text);
      p = put_text(p, ",\"eta_s\":0}");
    } else {
      p = put_num(p, arrival[s]);
      p = put_text(p, ",\"eta_s\":");
      p = put_num(p, arrival[s] - now);
      *p++ = '}';
    }
    ends.push_back(static_cast<std::uint32_t>(p - base));
  }
  return StopBodies(std::string(base, p), std::move(ends));
}

std::string encode_traffic_map_json(const TrafficMap& map) {
  std::vector<std::pair<roadnet::EdgeId, SegmentTraffic>> segments(
      map.segments.begin(), map.segments.end());
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // One segment: literals (~55 bytes), a state name (< 16), two
  // integers (<= 20 each) and one number.
  constexpr std::size_t kSegment = 112 + kMaxNum;
  std::string out(16 + kMaxNum + segments.size() * kSegment, '\0');
  char* const base = out.data();
  char* const end = base + out.size();
  char* p = put_text(base, "{\"t\":");
  p = put_num(p, map.time);
  p = put_text(p, ",\"segments\":[");
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [edge, seg] = segments[i];
    if (i > 0) *p++ = ',';
    p = put_text(p, "{\"edge\":");
    p = std::to_chars(p, end, edge.value()).ptr;
    p = put_text(p, ",\"state\":\"");
    p = put_text(p, to_string(seg.state));
    p = put_text(p, "\",\"z\":");
    p = put_num(p, seg.z_score);
    p = put_text(p, ",\"recent\":");
    p = std::to_chars(p, end, seg.recent_count).ptr;
    p = put_text(p, ",\"inferred\":");
    p = put_text(p, seg.inferred ? "true}" : "false}");
  }
  p = put_text(p, "]}");
  out.resize(static_cast<std::size_t>(p - base));
  return out;
}

const TripArrivals* ArrivalSnapshot::find(roadnet::TripId trip) const {
  const auto it = trips.find(trip);
  return it != trips.end() ? it->second.get() : nullptr;
}

const TripArrivals* ArrivalSnapshot::best(roadnet::RouteId route,
                                          std::size_t stop) const {
  const auto it = route_best.find(route);
  return it != route_best.end() && stop < it->second.size()
             ? it->second[stop]
             : nullptr;
}

bool ArrivalSnapshot::indexes(roadnet::RouteId route,
                              std::size_t stop) const {
  const auto it = route_best.find(route);
  return it != route_best.end() && stop < it->second.size();
}

ArrivalTable::ArrivalTable(const TravelTimeStore& store,
                           const ArrivalPredictor& predictor,
                           const TrafficMapBuilder& traffic,
                           ArrivalTableParams params)
    : store_(&store),
      predictor_(&predictor),
      traffic_(&traffic),
      params_(params) {}

void ArrivalTable::track(roadnet::TripId trip,
                         const roadnet::BusRoute* route) {
  tracked_[trip] = Tracked{route, nullptr};
  dirty_ = true;
}

void ArrivalTable::drop(roadnet::TripId trip) {
  if (tracked_.erase(trip) > 0) dirty_ = true;
}

bool ArrivalTable::remaining_changed(const roadnet::BusRoute& route,
                                     double offset,
                                     std::uint64_t seen) const {
  // The fractional remainder of the current edge is part of every
  // prediction, so the scan starts at the edge under the bus.
  const std::size_t first = route.position_at(offset).edge_index;
  const auto& edges = route.edges();
  for (std::size_t i = first; i < edges.size(); ++i)
    if (store_->edge_epoch(edges[i]) > seen) return true;
  return false;
}

std::shared_ptr<const TripArrivals> ArrivalTable::compute(
    roadnet::TripId trip, const roadnet::BusRoute& route, double offset,
    SimTime now, std::uint64_t epoch) {
  auto out = std::make_shared<TripArrivals>();
  out->trip = trip;
  out->route = route.id();
  out->offset = offset;
  out->now = now;
  out->epoch = epoch;
  while (out->first_ahead < route.stop_count() &&
         route.stop_offset(out->first_ahead) <= offset)
    ++out->first_ahead;
  out->arrival = predictor_->predict_arrivals(route, offset, now);
  out->body = encode_arrival_bodies(trip, now, out->arrival, scratch_);
  return out;
}

void ArrivalTable::refresh(SimTime now, const PositionFn& position_of) {
  if (!params_.enabled || !store_->finalized()) return;
  const std::uint64_t epoch = store_->epoch();

  bool changed = dirty_;
  dirty_ = false;
  for (auto& [trip, t] : tracked_) {
    const std::optional<double> offset = position_of(trip);
    if (!offset.has_value()) {
      if (t.current != nullptr) {
        t.current.reset();
        changed = true;
        if (metrics_.invalidations != nullptr) metrics_.invalidations->inc();
      }
      continue;
    }
    if (t.current != nullptr && t.current->offset == *offset &&
        !remaining_changed(*t.route, *offset, t.current->epoch))
      continue;  // nothing this trip's answers depend on moved
    if (t.current != nullptr && metrics_.invalidations != nullptr)
      metrics_.invalidations->inc();
    t.current = compute(trip, *t.route, *offset, now, epoch);
    changed = true;
  }

  // Traffic body: a pure function of the learned state, so it follows
  // the store epoch, not the clock.
  if (traffic_epoch_ != epoch) {
    traffic_body_ = encode_traffic_map_json(traffic_->build(traffic_edges_,
                                                            now));
    traffic_epoch_ = epoch;
    changed = true;
  }

  if (changed) publish(now, epoch);
}

void ArrivalTable::publish(SimTime now, std::uint64_t epoch) {
  auto snap = std::make_shared<ArrivalSnapshot>();
  snap->epoch = epoch;
  snap->now = now;
  snap->built_wall_s = wall_clock_s();
  snap->traffic_body = traffic_body_;
  snap->trips.reserve(tracked_.size());
  std::size_t entries = 0;
  for (const auto& [trip, t] : tracked_) {
    if (t.current == nullptr) continue;
    const TripArrivals& mine = *t.current;
    snap->trips.emplace(trip, t.current);
    entries += mine.body.size();
    // Only the stops still ahead of the bus: a trip that has passed a
    // stop is never the next bus there, whatever `now` it carries.
    std::vector<const TripArrivals*>& best = snap->route_best[mine.route];
    if (best.empty()) best.resize(mine.arrival.size(), nullptr);
    // One route id, one stop list: every trip of it has as many stops.
    WILOC_EXPECTS(best.size() == mine.arrival.size());
    for (std::size_t s = mine.first_ahead; s < mine.arrival.size(); ++s) {
      const TripArrivals* theirs = best[s];
      if (theirs == nullptr || mine.arrival[s] < theirs->arrival[s] ||
          (mine.arrival[s] == theirs->arrival[s] && mine.trip < theirs->trip))
        best[s] = &mine;
    }
  }
  published_.store(std::move(snap), std::memory_order_release);
  if (metrics_.rebuilds != nullptr) metrics_.rebuilds->inc();
  if (metrics_.entries != nullptr)
    metrics_.entries->set(static_cast<double>(entries));
  if (metrics_.epoch != nullptr)
    metrics_.epoch->set(static_cast<double>(epoch));
}

}  // namespace wiloc::core
