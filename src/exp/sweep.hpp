// Scale-out experiment sweeps: a deterministic scenario × replication grid
// fanned across the shared thread pool.
//
// The paper's methodology (§3.3) wants distributions over many repetitions,
// and the reference-architecture line of work (arXiv 1808.04224) gets its
// figures from exactly such multi-replication sweeps. This runner makes
// them scale out without giving up the repository's reproducibility
// contract (DESIGN.md §4):
//
//  - SUBSTREAM SEEDING. Every grid cell (scenario s, replication r) gets
//    its own sim::Rng seed derived as
//    substream_seed(substream_seed(base_seed, s), r) — a SplitMix64-style
//    mix, so streams are statistically independent and a cell's seed never
//    depends on which thread ran it or on how many cells exist.
//  - ONE SIMULATOR PER CELL. The cell function builds its own Simulator /
//    Datacenter / engine from its seed; cells share nothing mutable.
//  - ORDERED MERGE. Results come back in flat grid order (scenario-major),
//    and callers fold them through mergeable accumulators
//    (metrics::Accumulator::merge / metrics::Digest::merge) sequentially in
//    that order. Work distribution is scheduling noise; the fold is not.
//    Aggregate output is therefore bit-identical at MCS_THREADS=1 and 8
//    (enforced by the bench.determinism ctest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mcs::exp {

/// SplitMix64-style mix of (base seed, stream index) into an independent
/// substream seed. Pure function; never returns 0 (some PRNGs dislike it).
[[nodiscard]] std::uint64_t substream_seed(std::uint64_t base,
                                           std::uint64_t index);

/// One cell of the scenario × replication grid.
struct SweepPoint {
  std::size_t scenario = 0;  ///< index into the caller's scenario list
  std::size_t rep = 0;       ///< replication index within the scenario
  std::uint64_t seed = 0;    ///< substream seed for this cell's Rng
};

struct SweepOptions {
  std::size_t reps = 1;
  std::uint64_t base_seed = 1;
  /// Pool to fan out on; parallel::default_pool() when null.
  parallel::ThreadPool* pool = nullptr;
};

/// Runs fn(SweepPoint) -> R for every cell of the scenarios × reps grid on
/// the thread pool and returns the results in flat grid order
/// (scenario-major: cell i is {i / reps, i % reps}), independent of thread
/// count. One cell per chunk, so replications load-balance freely; if any
/// cell throws, the exception from the lowest flat index is rethrown.
template <typename R, typename Fn>
std::vector<R> run_sweep(std::size_t scenarios, const SweepOptions& opt,
                         Fn&& fn) {
  const std::size_t reps = opt.reps == 0 ? 1 : opt.reps;
  const std::size_t cells = scenarios * reps;
  std::vector<R> results(cells);
  if (cells == 0) return results;
  parallel::ThreadPool& pool =
      opt.pool != nullptr ? *opt.pool : parallel::default_pool();
  parallel::parallel_for(
      pool, 0, cells,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          SweepPoint p;
          p.scenario = i / reps;
          p.rep = i % reps;
          p.seed = substream_seed(substream_seed(opt.base_seed, p.scenario),
                                  p.rep);
          results[i] = fn(p);
        }
      },
      /*chunks=*/cells);
  return results;
}

/// Shared command-line vocabulary of the exp_* sweep binaries:
/// `--reps N` (replications per scenario), `--digest` (print only a
/// 16-hex-digit digest line for determinism checks), `--threads N`
/// (override pool size; 0 = MCS_THREADS/hardware), `--trace FILE`
/// (write a Chrome trace_event JSON of the exemplar cell to FILE, plus a
/// `trace digest <16-hex>` line over *all* cells), `--metrics` (print the
/// merged instrument registry after the tables), `--report FILE` (write
/// the stable-key mcs-report-v1 JSON over all cells, see obs/report.hpp),
/// `--slo SPEC` (attach the SLO engine; obs/slo.hpp parse format,
/// validated at parse time).
struct SweepCli {
  std::size_t reps = 1;
  bool digest = false;
  std::size_t threads = 0;
  std::string trace_path;   ///< empty = tracing off
  bool metrics = false;
  std::string report_path;  ///< empty = no report file
  std::string slo_spec;     ///< empty = SLO engine off
  [[nodiscard]] bool trace() const { return !trace_path.empty(); }
  [[nodiscard]] bool report() const { return !report_path.empty(); }
  [[nodiscard]] bool slo() const { return !slo_spec.empty(); }
};

/// Upper bounds parse_sweep_cli accepts for `--reps` and `--threads`: far
/// above any real sweep, low enough that a typo cannot ask for an
/// unallocatable cell grid or thousands of threads.
inline constexpr std::size_t kMaxSweepReps = 1u << 16;
inline constexpr std::size_t kMaxSweepThreads = 1024;

/// Parses the flags above; unknown arguments are ignored so binaries can
/// layer their own. Throws std::invalid_argument on a malformed value: a
/// count that is not plain decimal digits (no sign, no whitespace) or is
/// above its bound, a missing value, or a malformed `--slo` spec.
[[nodiscard]] SweepCli parse_sweep_cli(int argc, const char* const* argv);

}  // namespace mcs::exp
