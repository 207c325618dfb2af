// Seeded corpus generation and caching, plus the small shared helpers
// (quantiles, set-up, spans, accuracy, requests, RSS) every workload uses.

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#include "sim/fault_injector.hpp"
#include "wlbench.hpp"

namespace wlbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double host_probe_us() {
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    std::uint64_t x = 88172645463325252ull;
    for (auto& v : t) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<std::uint32_t>(x);
    }
    return t;
  }();
  // Every probe starts from memory, whatever ran before it, so the
  // program's own cache footprint cannot change the probe.
#if defined(__x86_64__) || defined(__i386__)
  for (std::size_t i = 0; i < table.size(); i += 64 / sizeof(table[0]))
    _mm_clflush(&table[i]);
  _mm_mfence();
#endif
  static volatile double sink = 0.0;
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const std::uint32_t v = table[(x * 0x2545F4914F6CDD1Dull) >> 48];
    acc += std::sqrt(static_cast<double>(v) + acc * 1e-9);
  }
  sink = acc;
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

std::vector<double> probe_burst() {
  std::vector<double> us;
  for (int i = 0; i < 40; ++i) us.push_back(host_probe_us());
  return us;
}

double host_scale(const std::vector<double>& probe_us) {
  if (probe_us.empty()) throw Error("wlbench: no host-speed probe sample");
  return std::pow(kNominalProbeUs / median(probe_us), kProbeExponent);
}

namespace {

constexpr char kMagic[8] = {'W', 'L', 'B', 'S', 'C', 'A', 'N', '1'};

template <typename T>
void put(std::ostream& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.write(buf, sizeof(T));
}

template <typename T>
T take(std::istream& in) {
  char buf[sizeof(T)];
  if (!in.read(buf, sizeof(T))) throw Error("wlbench: truncated corpus cache");
  T v;
  std::memcpy(&v, buf, sizeof(T));
  return v;
}

/// Per-trip sensing stream: independent of thread scheduling, so the
/// parallel generator yields the same scans for the same seed.
std::uint64_t trip_seed(std::uint64_t seed, std::uint32_t trip) {
  return seed * 0x9e3779b97f4a7c15ULL + trip * 0xbf58476d1ce4e5b9ULL + 1;
}

void sense_day(const Corpus& corpus, std::vector<bench::LiveTrip>& day) {
  std::atomic<std::size_t> next{0};
  const rf::Scanner scanner;
  const auto work = [&] {
    for (std::size_t i = next++; i < day.size(); i = next++) {
      bench::LiveTrip& trip = day[i];
      Rng rng(trip_seed(corpus.seed, trip.record.id.value()));
      trip.reports =
          sim::sense_trip(trip.record, corpus.route_of(trip), corpus.city.aps,
                          *corpus.city.rf_model, scanner, rng);
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
}

void write_cache(const std::filesystem::path& path,
                 const std::vector<bench::LiveTrip>& day,
                 std::uint64_t seed) {
  const auto tmp = path.string() + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(kMagic, sizeof(kMagic));
    put<std::uint64_t>(out, seed);
    put<std::uint64_t>(out, day.size());
    for (const bench::LiveTrip& trip : day) {
      put<std::uint32_t>(out, trip.record.id.value());
      put<std::uint64_t>(out, trip.reports.size());
      for (const sim::ScanReport& r : trip.reports) {
        put<double>(out, r.scan.time);
        put<std::uint32_t>(out,
                           static_cast<std::uint32_t>(r.scan.readings.size()));
        for (const rf::ApReading& reading : r.scan.readings) {
          put<std::uint32_t>(out, reading.ap.value());
          put<double>(out, reading.rssi_dbm);
        }
      }
    }
    if (!out) throw Error("wlbench: cannot write corpus cache " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

bool read_cache(const std::filesystem::path& path,
                std::vector<bench::LiveTrip>& day, std::uint64_t seed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw Error("wlbench: bad corpus cache " + path.string());
  if (take<std::uint64_t>(in) != seed || take<std::uint64_t>(in) != day.size())
    throw Error("wlbench: corpus cache does not match its seed");
  for (bench::LiveTrip& trip : day) {
    if (take<std::uint32_t>(in) != trip.record.id.value())
      throw Error("wlbench: corpus cache trip mismatch");
    trip.reports.resize(take<std::uint64_t>(in));
    for (sim::ScanReport& r : trip.reports) {
      r.trip = trip.record.id;
      r.route = trip.record.route;
      r.scan.time = take<double>(in);
      r.scan.readings.resize(take<std::uint32_t>(in));
      for (rf::ApReading& reading : r.scan.readings) {
        reading.ap = rf::ApId(take<std::uint32_t>(in));
        reading.rssi_dbm = take<double>(in);
      }
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<Corpus> load_corpus(std::uint64_t seed,
                                    const std::filesystem::path& cache) {
  auto corpus = std::make_unique<Corpus>();
  corpus->seed = seed;
  corpus->city = sim::build_paper_city();
  const sim::TrafficModel traffic(2016);
  const sim::FleetPlan plan = sim::default_fleet_plan(corpus->city);
  Rng rng(seed);

  // Trip kinematics are cheap and come straight from the seed; only the
  // crowd scans (the RF propagation per reading) are cached.
  const auto history = sim::simulate_service_days(
      corpus->city, traffic, plan, /*first_day=*/0,
      /*day_count=*/2, rng, /*keep_trajectories=*/false);
  for (const auto& trip : history) {
    const auto& route = corpus->city.routes[trip.route.index()];
    for (const auto& seg : trip.segments) {
      if (seg.travel_time() <= 0.0) continue;
      corpus->history.push_back({route.edges()[seg.edge_index], trip.route,
                                 seg.exit, seg.travel_time()});
    }
  }
  std::uint32_t next_id = 1000;
  for (auto& record :
       sim::simulate_service_day(corpus->city, traffic, plan, /*day=*/2, rng,
                                 &next_id, /*keep_trajectories=*/true))
    corpus->day.push_back({std::move(record), {}});

  if (!read_cache(cache, corpus->day, seed)) {
    sense_day(*corpus, corpus->day);
    std::filesystem::create_directories(cache.parent_path());
    write_cache(cache, corpus->day, seed);
  }

  for (const bench::LiveTrip& trip : corpus->day)
    for (const sim::ScanReport& report : trip.reports)
      corpus->stream.push_back({report.trip, report.scan});
  std::stable_sort(corpus->stream.begin(), corpus->stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.scan.time < b.scan.time;
                   });
  return corpus;
}

std::vector<core::ScanSubmission> noisy_stream(const Corpus& corpus) {
  struct Arrival {
    double key;
    core::ScanSubmission sub;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t j = 0; j < corpus.day.size(); ++j) {
    const bench::LiveTrip& trip = corpus.day[j];
    sim::FaultInjector injector(sim::FaultProfile::uniform(0.15),
                                corpus.seed * 1000003ULL + j + 1);
    // Arrival order inside the trip is the injector's output order; the
    // key keeps it while interleaving trips by (monotone) report time.
    double key = -1e300;
    for (const sim::ScanReport& report : injector.apply(trip.reports)) {
      key = std::max(key, report.scan.time);
      arrivals.push_back({key, {report.trip, report.scan}});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.key < b.key;
                   });
  std::vector<core::ScanSubmission> out;
  out.reserve(arrivals.size());
  for (Arrival& a : arrivals) out.push_back(std::move(a.sub));
  return out;
}

std::vector<std::vector<core::ScanSubmission>> batches_of(
    const std::vector<core::ScanSubmission>& stream, std::size_t size) {
  std::vector<std::vector<core::ScanSubmission>> out;
  for (std::size_t i = 0; i < stream.size(); i += size)
    out.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(i),
                     stream.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(stream.size(), i + size)));
  return out;
}

// -- set-up ------------------------------------------------------------------

/// Background checkpoint poll of the served configuration (bench_http's).
constexpr double kCheckpointPollS = 0.05;
/// How long a read that misses the snapshot waits for the service lock
/// before it degrades. The 50 ms default shed such a read with 503 about
/// once in 600k operations, when a checkpoint prepare ran long in a slow
/// phase of the host; a shed counts as a failed operation, so the
/// failure count depended on the host. At 1 s every read gets its answer.
constexpr double kDegradedLockWaitS = 1.0;

System::System(const Corpus& corpus, const SetupOptions& options) {
  core::ServerConfig config;
  config.engine.workers = options.workers;
  config.engine.queue_capacity = 4096;
  config.engine.record_latency = options.record_latency;
  config.arrival.min_refresh_wall_s = options.min_refresh_wall_s;
  if (!options.state_dir.empty()) {
    std::filesystem::remove_all(options.state_dir);
    config.persist.dir = options.state_dir.string();
  }
  // The host's speed just before set-up; stop() probes it again after.
  probe_us = probe_burst();
  const double t0 = now_s();
  server = std::make_unique<core::WiLocatorServer>(
      corpus.city.route_pointers(), corpus.city.ap_snapshot(),
      *corpus.city.rf_model, DaySlots::paper_five_slots(), config);
  for (const core::TravelObservation& obs : corpus.history)
    server->load_history(obs);
  server->finalize_history();
  for (const bench::LiveTrip& trip : corpus.day)
    server->begin_trip(trip.record.id, trip.record.route);
  if (options.serve) {
    net::ServiceOptions service_options;
    service_options.checkpoint_poll_s = kCheckpointPollS;
    service_options.degraded_lock_wait_s = kDegradedLockWaitS;
    service = std::make_unique<net::WiLocatorService>(*server,
                                                      service_options);
    service->start();
    service->set_ready(true);
  }
  setup_raw_s = now_s() - t0;
  setup_s = setup_raw_s * host_scale(probe_us);
}

void System::stop() {
  if (service != nullptr) service->stop();
}

double System::finish_probe() {
  stop();
  const auto after = probe_burst();
  probe_us.insert(probe_us.end(), after.begin(), after.end());
  return host_scale(probe_us);
}

System::~System() {
  stop();
  service.reset();
  server.reset();
}

// -- spans -------------------------------------------------------------------

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent,
                                 std::uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now_ns(), 0, parent, request});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void SpanRecorder::add(std::string name, std::int64_t start_ns,
                       std::int64_t end_ns, std::int64_t parent,
                       std::uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
}

std::map<std::string, std::pair<std::uint64_t, double>>
SpanRecorder::self_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::map<std::string, std::pair<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t c : children[i])
      cover.emplace_back(std::max(s.start_ns, spans_[c].start_ns),
                         std::min(s.end_ns, spans_[c].end_ns));
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    auto& slot = out[s.name];
    slot.first += 1;
    slot.second += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

// -- accuracy ----------------------------------------------------------------

std::vector<double> position_errors(const core::WiLocatorServer& server,
                                    const Corpus& corpus) {
  std::vector<double> errors;
  for (const bench::LiveTrip& trip : corpus.day) {
    const auto e = bench::positioning_errors(server, trip);
    errors.insert(errors.end(), e.begin(), e.end());
  }
  return errors;
}

std::vector<double> eta_errors(const core::WiLocatorServer& server,
                               const Corpus& corpus) {
  // Every fourth trip keeps the protocol's ~80k queries per run in ~1 s.
  std::vector<bench::LiveTrip> sampled;
  for (std::size_t i = 0; i < corpus.day.size(); i += 4)
    sampled.push_back({corpus.day[i].record, {}});
  const auto samples = bench::prediction_samples(
      sampled, corpus.city,
      [&](const roadnet::BusRoute& route, double offset, SimTime now,
          std::size_t stop) {
        return server.predictor().predict_arrival(route, offset, now, stop);
      });
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.error_s);
  return out;
}

net::HttpRequest make_request(std::string method, const std::string& target,
                              std::string body) {
  net::HttpRequest r;
  r.method = std::move(method);
  r.target = target;
  net::split_target(target, &r.path, &r.query);
  r.body = std::move(body);
  return r;
}

namespace {

/// Resident pages of this process (the second field of /proc/self/statm).
std::int64_t resident_pages() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  statm >> size >> resident;
  return resident;
}

}  // namespace

RssGrowth::RssGrowth() {
  ::malloc_trim(0);
  baseline_ = peak_ = resident_pages();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return stopping_; }))
      peak_ = std::max(peak_, resident_pages());
  });
}

double RssGrowth::stop_mb() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.notify_one();
  }
  if (thread_.joinable()) thread_.join();
  peak_ = std::max(peak_, resident_pages());
  return static_cast<double>((peak_ - baseline_) * ::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

}  // namespace wlbench
