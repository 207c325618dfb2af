#include "core/traffic_map.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace wiloc::core {

const char* to_string(TrafficState state) {
  switch (state) {
    case TrafficState::Unknown:
      return "unknown";
    case TrafficState::Normal:
      return "normal";
    case TrafficState::Slow:
      return "slow";
    case TrafficState::VerySlow:
      return "very-slow";
  }
  return "?";
}

std::size_t TrafficMap::count(TrafficState state) const {
  std::size_t n = 0;
  for (const auto& [edge, seg] : segments)
    if (seg.state == state) ++n;
  return n;
}

TrafficMapBuilder::TrafficMapBuilder(const TravelTimeStore& store,
                                     const ArrivalPredictor& predictor,
                                     TrafficMapParams params)
    : store_(&store), predictor_(&predictor), params_(params) {
  WILOC_EXPECTS(params_.very_slow_z > params_.slow_z);
  WILOC_EXPECTS(params_.slow_z > 0.0);
}

TrafficState TrafficMapBuilder::state_for_z(double z) const {
  if (z >= params_.very_slow_z) return TrafficState::VerySlow;
  if (z >= params_.slow_z) return TrafficState::Slow;
  return TrafficState::Normal;
}

SegmentTraffic TrafficMapBuilder::classify(roadnet::EdgeId edge,
                                           SimTime now) const {
  SegmentTraffic out;
  const std::size_t slot = store_->slots().slot_of(now);
  const auto res_mean = store_->residual_mean(edge, slot);
  const auto res_std = store_->residual_stddev(edge, slot);

  // Mean recent residual eps-hat (Eq. 4's estimator), from observed data
  // when available, else from the predictor's inference.
  const bool have_stats =
      res_mean.has_value() && res_std.has_value() && *res_std > 1e-9;
  double sum = 0.0;
  std::size_t used = 0;
  store_->for_each_recent(
      edge, now, params_.recent_window_s, params_.max_recent,
      [&](const TravelObservation&, double r_residual) {
        ++out.recent_count;
        if (!have_stats || std::isnan(r_residual)) return;
        sum += r_residual;
        ++used;
      });
  double residual = 0.0;
  bool have_signal = false;
  if (used > 0) {
    residual = sum / static_cast<double>(used);
    have_signal = true;
  }

  if (!have_signal && params_.infer_unknowns && have_stats) {
    // No bus passed inside the map's (tighter) window: infer from the
    // predictor's temporal-consistency correction, which still sees
    // traversals over its own wider recency horizon. When the predictor
    // has nothing either the correction is zero — the estimate falls
    // back to Th and classifies as normal, the paper's default instead
    // of leaving segments unmarked.
    residual = predictor_->recent_correction(edge, now).value_or(0.0);
    have_signal = true;
    out.inferred = true;
  }

  if (!have_signal || !have_stats) {
    out.state = TrafficState::Unknown;
    count_state(out);
    return out;
  }

  out.z_score = (residual - *res_mean) / *res_std;
  out.state = state_for_z(out.z_score);
  count_state(out);
  return out;
}

void TrafficMapBuilder::count_state(const SegmentTraffic& seg) const {
  obs::Counter* c = nullptr;
  switch (seg.state) {
    case TrafficState::Unknown: c = metrics_.unknown; break;
    case TrafficState::Normal: c = metrics_.normal; break;
    case TrafficState::Slow: c = metrics_.slow; break;
    case TrafficState::VerySlow: c = metrics_.very_slow; break;
  }
  if (c != nullptr) c->inc();
  if (seg.inferred && metrics_.inferred != nullptr) metrics_.inferred->inc();
}

TrafficMap TrafficMapBuilder::build(const std::vector<roadnet::EdgeId>& edges,
                                    SimTime now) const {
  TrafficMap map;
  map.time = now;
  for (const roadnet::EdgeId edge : edges)
    map.segments.emplace(edge, classify(edge, now));
  last_map_ = map;
  last_build_epoch_ = store_->epoch();
  return map;
}

// -- persistence -----------------------------------------------------------

void encode_traffic_map(BinWriter& w, const TrafficMap& map) {
  w.put_f64(map.time);
  w.put_u64(map.segments.size());
  for (const auto& [edge, seg] : map.segments) {
    w.put_u32(edge.value());
    w.put_u8(static_cast<std::uint8_t>(seg.state));
    w.put_f64(seg.z_score);
    w.put_u64(seg.recent_count);
    w.put_u8(seg.inferred ? 1 : 0);
  }
}

TrafficMap decode_traffic_map(BinReader& r) {
  TrafficMap map;
  map.time = r.get_f64();
  const std::uint64_t n = r.get_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const roadnet::EdgeId edge(r.get_u32());
    SegmentTraffic seg;
    const std::uint8_t state = r.get_u8();
    if (state > static_cast<std::uint8_t>(TrafficState::VerySlow))
      throw DecodeError("TrafficMap: unknown segment state " +
                        std::to_string(state));
    seg.state = static_cast<TrafficState>(state);
    seg.z_score = r.get_f64();
    seg.recent_count = static_cast<std::size_t>(r.get_u64());
    seg.inferred = r.get_u8() != 0;
    map.segments.emplace(edge, seg);
  }
  return map;
}

void TrafficMapBuilder::save(BinWriter& w) const {
  w.put_u8(last_map_.has_value() ? 1 : 0);
  if (last_map_.has_value()) encode_traffic_map(w, *last_map_);
}

void TrafficMapBuilder::restore(BinReader& r) {
  if (r.get_u8() != 0)
    last_map_ = decode_traffic_map(r);
  else
    last_map_.reset();
}

}  // namespace wiloc::core
