#include "core/predictor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/contracts.hpp"
#include "util/hashing.hpp"

namespace wiloc::core {

std::uint64_t options_fingerprint(const PredictorOptions& o) {
  std::uint64_t h = hash_coords(0x70726564ULL,  // "pred"
                                (o.use_recent ? 1u : 0u) |
                                    (o.cross_route ? 2u : 0u),
                                std::bit_cast<std::uint64_t>(o.recent_window_s),
                                o.max_recent);
  h = hash_coords(h, std::bit_cast<std::uint64_t>(o.correction_clamp_frac),
                  std::bit_cast<std::uint64_t>(o.correction_shrinkage),
                  std::bit_cast<std::uint64_t>(o.min_segment_time_s));
  return hash_coords(h, std::bit_cast<std::uint64_t>(o.fallback_speed_frac));
}

ArrivalPredictor::ArrivalPredictor(const TravelTimeStore& store,
                                   PredictorOptions options)
    : store_(&store), options_(options) {
  WILOC_EXPECTS(options_.recent_window_s > 0.0);
  WILOC_EXPECTS(options_.max_recent >= 1);
  WILOC_EXPECTS(options_.correction_clamp_frac >= 0.0);
  WILOC_EXPECTS(options_.fallback_speed_frac > 0.0 &&
                options_.fallback_speed_frac <= 1.0);
}

std::optional<double> ArrivalPredictor::predict_segment_time(
    roadnet::EdgeId edge, roadnet::RouteId route, SimTime t) const {
  const std::optional<double> th =
      store_->baseline(edge, route, store_->slots().slot_of(t));
  if (!th.has_value()) return std::nullopt;

  double prediction = *th;

  if (options_.use_recent) {
    const auto raw = correction_from_recents(
        edge,
        options_.cross_route ? std::nullopt
                             : std::optional<roadnet::RouteId>(route),
        t);
    if (raw.has_value()) {
      const double clamp = options_.correction_clamp_frac * *th;
      const double correction = std::clamp(*raw, -clamp, clamp);
      if (metrics_.correction_s != nullptr)
        metrics_.correction_s->record(correction);
      prediction += correction;
    }
  }

  return std::max(prediction, options_.min_segment_time_s);
}

std::optional<double> ArrivalPredictor::correction_from_recents(
    roadnet::EdgeId edge, std::optional<roadnet::RouteId> same_route_only,
    SimTime t) const {
  double residual_sum = 0.0;
  std::size_t used = 0;
  store_->for_each_recent(
      edge, t, options_.recent_window_s, options_.max_recent,
      [&](const TravelObservation& r, double residual) {
        if (same_route_only.has_value() && !(r.route == *same_route_only))
          return;
        if (std::isnan(residual)) return;  // no historical baseline
        residual_sum += residual;
        ++used;
      });
  if (used == 0) return std::nullopt;
  // Shrink thin evidence toward zero: one noisy tracked bus should not
  // swing the estimate as much as a consistent platoon.
  const double n = static_cast<double>(used);
  return (residual_sum / n) * (n / (n + options_.correction_shrinkage));
}

std::optional<double> ArrivalPredictor::recent_correction(
    roadnet::EdgeId edge, SimTime t) const {
  return correction_from_recents(edge, std::nullopt, t);
}

double ArrivalPredictor::segment_time_or_fallback(
    const roadnet::BusRoute& route, std::size_t edge_index, SimTime t) const {
  if (metrics_.predictions != nullptr) metrics_.predictions->inc();
  const roadnet::EdgeId edge_id = route.edges()[edge_index];
  if (const auto tp = predict_segment_time(edge_id, route.id(), t);
      tp.has_value())
    return *tp;
  if (metrics_.fallbacks != nullptr) metrics_.fallbacks->inc();
  const roadnet::RoadSegment& edge = route.network().edge(edge_id);
  return edge.length() /
         (edge.speed_limit() * options_.fallback_speed_frac);
}

double ArrivalPredictor::cross_edge(const roadnet::BusRoute& route,
                                    std::size_t e, double from, double to,
                                    SimTime t, double elapsed) const {
  const double edge_begin = route.edge_start_offset(e);
  const double edge_end = route.edge_end_offset(e);
  const double edge_len = edge_end - edge_begin;
  if (edge_len <= 0.0) return elapsed;
  const double span_begin = std::max(from, edge_begin);
  const double span_end = std::min(to, edge_end);
  if (span_end <= span_begin) return elapsed;
  // Eq. 9's dr(...)/dr(start, end) fraction terms, "separated
  // slot-by-slot": when crossing this edge outlasts the current
  // time-of-day slot, only the fraction coverable before the boundary
  // is charged at this slot's rate; the remainder re-evaluates the
  // edge under the next slot's statistics.
  double frac_remaining = (span_end - span_begin) / edge_len;
  const DaySlots& slots = store_->slots();
  int depth = 0;
  while (frac_remaining > 1e-12) {
    const SimTime clock = t + elapsed;
    const double full_time = segment_time_or_fallback(route, e, clock);
    const double time_needed = frac_remaining * full_time;
    const double to_boundary = slots.slot_end_time(clock) - clock;
    // Depth cap: a degenerate store (near-zero segment times over
    // many tiny slots) must not spin; finish at the current rate.
    if (time_needed <= to_boundary || full_time <= 0.0 || ++depth > 64) {
      elapsed += time_needed;
      break;
    }
    frac_remaining -= to_boundary / full_time;
    elapsed += to_boundary;
  }
  return elapsed;
}

double ArrivalPredictor::predict_travel_time(const roadnet::BusRoute& route,
                                             double from, double to,
                                             SimTime t) const {
  WILOC_EXPECTS(from <= to);
  from = std::clamp(from, 0.0, route.length());
  to = std::clamp(to, 0.0, route.length());
  if (to <= from) return 0.0;

  const std::size_t first = route.position_at(from).edge_index;
  const std::size_t last = route.position_at(to).edge_index;
  double elapsed = 0.0;
  for (std::size_t e = first; e <= last; ++e)
    elapsed = cross_edge(route, e, from, to, t, elapsed);
  return elapsed;
}

SimTime ArrivalPredictor::predict_arrival(const roadnet::BusRoute& route,
                                          double current_offset, SimTime now,
                                          std::size_t stop_index) const {
  const double stop_offset = route.stop_offset(stop_index);
  if (stop_offset <= current_offset) return now;
  return now + predict_travel_time(route, current_offset, stop_offset, now);
}

std::vector<SimTime> ArrivalPredictor::predict_arrivals(
    const roadnet::BusRoute& route, double current_offset,
    SimTime now) const {
  WILOC_EXPECTS(!std::isnan(current_offset));
  const std::size_t stops = route.stop_count();
  std::vector<SimTime> out(stops, now);
  const double from = std::clamp(current_offset, 0.0, route.length());
  const std::size_t first = route.position_at(from).edge_index;
  // entry[k]: elapsed time on reaching the start of edge first + k. For
  // every edge strictly before a stop's edge, predict_travel_time's span
  // ends at the edge's end whatever the stop (position_at puts the stop
  // at or after the start of its edge), so these full crossings are one
  // shared prefix of the per-stop sums, carried in the same order.
  std::vector<double> entry{0.0};
  for (std::size_t s = 0; s < stops; ++s) {
    const double stop_offset = route.stop_offset(s);
    if (stop_offset <= current_offset) continue;  // behind the bus: now
    const double to = std::clamp(stop_offset, 0.0, route.length());
    double elapsed = 0.0;
    if (to > from) {
      const std::size_t last = route.position_at(to).edge_index;
      while (first + entry.size() <= last) {
        const std::size_t e = first + entry.size() - 1;
        entry.push_back(cross_edge(route, e, from, route.edge_end_offset(e),
                                   now, entry.back()));
      }
      elapsed = cross_edge(route, last, from, to, now, entry[last - first]);
    }
    out[s] = now + elapsed;
  }
  return out;
}

}  // namespace wiloc::core
