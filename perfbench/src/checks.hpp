// Correctness checks on the program's outputs, computed apart from it: each
// compares what the engine or the fuzzer reports against a property of the
// generated inputs. A check returns an empty string when it holds and a
// one-line reason when it does not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "sched/engine.hpp"
#include "workload/task.hpp"

namespace perfbench {

/// Work a trace asks for, in reference (speed-1) terms.
struct TraceWork {
  double core_seconds = 0.0;  ///< Σ cpu × work over all tasks
  double task_cores = 0.0;    ///< Σ cpu over all tasks
  std::size_t tasks = 0;
};

[[nodiscard]] TraceWork trace_work(const std::vector<mcs::workload::Job>& trace);

/// Every job of the trace ends (completes or is abandoned) exactly once,
/// and no other job does.
[[nodiscard]] std::string check_each_job_ends_once(
    const std::vector<mcs::workload::Job>& trace,
    const std::vector<mcs::sched::JobStats>& ended);

/// On a fleet of speed-1 machines, busy core-seconds equal the trace's
/// work within the microsecond rounding of each task's runtime. Killed
/// attempts are never counted as busy, so this holds under failures too.
[[nodiscard]] std::string check_busy_exact(double busy, const TraceWork& work);

/// On a heterogeneous fleet, busy core-seconds lie between the work done
/// at the fastest and at the slowest machine speed.
[[nodiscard]] std::string check_busy_range(double busy, const TraceWork& work,
                                           double min_speed, double max_speed);

/// For every job: first start >= submit, and response >= its critical
/// path at the fastest machine speed.
[[nodiscard]] std::string check_job_times(
    const std::vector<mcs::workload::Job>& trace,
    const std::vector<mcs::sched::JobStats>& ended, double max_speed);

/// Makespan (first submit to last finish of the completed jobs) is at
/// least the trace's work spread over every core at the fastest speed.
[[nodiscard]] std::string check_makespan(
    const std::vector<mcs::sched::JobStats>& ended, const TraceWork& work,
    double fleet_cores, double max_speed);

/// One fuzz seed: the oracle passed and completed + abandoned = submitted.
[[nodiscard]] std::string check_seed(const mcs::check::SeedRunResult& r);

/// The batch summary digest, folded the way check::run_fuzz folds it:
/// (seed, digest) of every result in batch order.
[[nodiscard]] std::uint64_t fold_seeds(
    const std::vector<mcs::check::SeedRunResult>& results);

/// Replays the given batch indices one at a time through check::run_seed
/// and compares each digest with the batch's.
[[nodiscard]] std::string check_replays(
    const std::vector<mcs::check::SeedRunResult>& results,
    std::uint64_t base_seed, bool het, const std::vector<std::size_t>& indices);

/// Order-sensitive digest of one engine run's simulated statistics.
/// Leaves out kernel event counts, so a change that only removes redundant
/// events keeps the digest.
[[nodiscard]] std::uint64_t run_digest(const mcs::sched::RunResult& r,
                                       double busy);

}  // namespace perfbench
