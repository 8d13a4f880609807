// The benchmark's workloads. Each is a batch over inputs generated once
// from the workload seed; a run repeats whole batches ("rounds").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// Outcome of one finished batch.
struct RoundResult {
  std::uint64_t attempted = 0;   ///< operations: jobs, or fuzz seeds
  std::uint64_t failed = 0;      ///< abandoned jobs, or oracle violations
  std::uint64_t jobs_ended = 0;  ///< simulated jobs completed or abandoned
  std::uint64_t digest = 0;      ///< digest of the simulated statistics
  std::string error;             ///< first failed check; empty when correct
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what one batch runs on: fleets, engines, submitted jobs. With
  /// a probe (traced rounds) the layers are wrapped in its instruments.
  virtual void prepare(Probe* probe) = 0;
  /// Runs the prepared batch to its end.
  virtual void run() = 0;
  /// Checks the finished batch against the inputs and releases it.
  virtual RoundResult finish() = 0;
  /// Traced runs only: measurements that need extra untraced batches
  /// (fleet_stream's obs overhead), for about `seconds`. Returns the first
  /// failed check of those batches; empty when correct.
  virtual std::string measure_extra(Probe& /*probe*/, double /*seconds*/) {
    return {};
  }
};

/// Builds the named workload's inputs from `seed`. Throws
/// std::invalid_argument for an unknown name. `probe` (traced runs) gets
/// the set-up layer timings.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Probe* probe);

[[nodiscard]] std::unique_ptr<Workload> make_policy_grid(std::uint64_t seed,
                                                         Probe* probe);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_stream(std::uint64_t seed,
                                                          Probe* probe);
[[nodiscard]] std::unique_ptr<Workload> make_fuzz_batch(std::uint64_t seed,
                                                        Probe* probe);

}  // namespace perfbench
