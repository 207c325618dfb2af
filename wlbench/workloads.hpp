// Workload and ledger entry points of the wlbench binary.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "wlbench.hpp"

namespace wlbench {

/// What one run hands a workload.
struct Context {
  const Corpus& corpus;
  /// The submissions this workload feeds (the clean day, or the faulty
  /// day for noisy_library).
  const std::vector<core::ScanSubmission>& stream;
  std::filesystem::path work_dir;  ///< per-run working directory (state dirs)
  double seconds = 10.0;
  SpanRecorder& spans;
};

/// The served configuration: 2 engine workers, 50 ms arrival coalescing,
/// persistence under the run's work dir with a 50 ms checkpoint poll.
SetupOptions served_options(const Context& ctx, const std::string& tag);

RunResult run_uplink_replay(const Context& ctx);
RunResult run_noisy_library(const Context& ctx);

/// Replays the run's corpus through each layer's public functions, one
/// layer at a time, and returns the per-layer metrics plus the
/// reconciliation rows. `run` is the traced workload run.
std::map<std::string, double> run_ledger(const Context& ctx,
                                         const std::string& workload,
                                         const RunResult& run,
                                         std::vector<std::string>& table);

/// Uniform index in [0, n).
inline std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace wlbench
