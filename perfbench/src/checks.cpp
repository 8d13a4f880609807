#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "metrics/stats.hpp"

namespace perfbench {

namespace {

/// Largest error one task's runtime can carry: the engine rounds each
/// runtime to the nearest microsecond, with a 1 µs floor.
constexpr double kRuntimeRounding = 1e-6;

std::string fmt(const char* what, double got, double want) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": got " << got << ", want " << want;
  return out.str();
}

}  // namespace

TraceWork trace_work(const std::vector<mcs::workload::Job>& trace) {
  TraceWork w;
  for (const mcs::workload::Job& job : trace) {
    for (const mcs::workload::Task& task : job.tasks) {
      w.core_seconds += task.demand.cpu() * task.work_seconds;
      w.task_cores += task.demand.cpu();
      ++w.tasks;
    }
  }
  return w;
}

std::string check_each_job_ends_once(
    const std::vector<mcs::workload::Job>& trace,
    const std::vector<mcs::sched::JobStats>& ended) {
  std::vector<mcs::workload::JobId> want;
  want.reserve(trace.size());
  for (const mcs::workload::Job& job : trace) want.push_back(job.id);
  std::sort(want.begin(), want.end());
  std::vector<mcs::workload::JobId> got;
  got.reserve(ended.size());
  for (const mcs::sched::JobStats& s : ended) got.push_back(s.id);
  std::sort(got.begin(), got.end());
  if (got == want) return {};
  const auto dup = std::adjacent_find(got.begin(), got.end());
  if (dup != got.end()) {
    return "job " + std::to_string(*dup) + " ended more than once";
  }
  return "jobs ended: " + std::to_string(got.size()) + " of " +
         std::to_string(want.size()) + " submitted, ids differ";
}

std::string check_busy_exact(double busy, const TraceWork& work) {
  const double tolerance =
      work.task_cores * kRuntimeRounding + 1e-9 * work.core_seconds;
  if (std::fabs(busy - work.core_seconds) <= tolerance) return {};
  return fmt("busy core-seconds on a speed-1 fleet", busy, work.core_seconds);
}

std::string check_busy_range(double busy, const TraceWork& work,
                             double min_speed, double max_speed) {
  const double tolerance =
      work.task_cores * kRuntimeRounding + 1e-9 * work.core_seconds;
  const double lo = work.core_seconds / max_speed - tolerance;
  const double hi = work.core_seconds / min_speed + tolerance;
  if (busy >= lo && busy <= hi) return {};
  return fmt("busy core-seconds outside [work/max speed, work/min speed]",
             busy, busy < lo ? lo : hi);
}

std::string check_job_times(const std::vector<mcs::workload::Job>& trace,
                            const std::vector<mcs::sched::JobStats>& ended,
                            double max_speed) {
  std::vector<std::pair<mcs::workload::JobId, std::size_t>> index;
  index.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    index.emplace_back(trace[i].id, i);
  }
  std::sort(index.begin(), index.end());
  for (const mcs::sched::JobStats& s : ended) {
    const auto it = std::lower_bound(
        index.begin(), index.end(),
        std::pair<mcs::workload::JobId, std::size_t>{s.id, 0});
    if (it == index.end() || it->first != s.id) {
      return "job " + std::to_string(s.id) + " is not in the trace";
    }
    const mcs::workload::Job& job = trace[it->second];
    if (s.first_start < job.submit_time) {
      return "job " + std::to_string(s.id) + " started before its submit";
    }
    if (s.abandoned) continue;
    const double bound = job.critical_path_seconds() / max_speed -
                         static_cast<double>(job.tasks.size()) *
                             kRuntimeRounding;
    if (s.response_seconds < bound) {
      return fmt(("job " + std::to_string(s.id) +
                  " response below its critical path")
                     .c_str(),
                 s.response_seconds, bound);
    }
  }
  return {};
}

std::string check_makespan(const std::vector<mcs::sched::JobStats>& ended,
                           const TraceWork& work, double fleet_cores,
                           double max_speed) {
  mcs::sim::SimTime first_submit = mcs::sim::kTimeInfinity;
  mcs::sim::SimTime last_finish = 0;
  for (const mcs::sched::JobStats& s : ended) {
    if (s.abandoned) continue;
    first_submit = std::min(first_submit, s.submit);
    last_finish = std::max(last_finish, s.finish);
  }
  if (last_finish <= first_submit) return "no completed job";
  const double makespan = mcs::sim::to_seconds(last_finish - first_submit);
  const double bound = work.core_seconds / (fleet_cores * max_speed) -
                       static_cast<double>(work.tasks) * kRuntimeRounding;
  if (makespan >= bound) return {};
  return fmt("makespan below work / (cores x max speed)", makespan, bound);
}

std::string check_seed(const mcs::check::SeedRunResult& r) {
  if (!r.ok) return "seed " + std::to_string(r.seed) + ": " + r.violation;
  if (r.jobs_completed + r.jobs_abandoned != r.jobs_submitted) {
    return "seed " + std::to_string(r.seed) + ": completed " +
           std::to_string(r.jobs_completed) + " + abandoned " +
           std::to_string(r.jobs_abandoned) + " != submitted " +
           std::to_string(r.jobs_submitted);
  }
  return {};
}

std::uint64_t fold_seeds(const std::vector<mcs::check::SeedRunResult>& results) {
  mcs::metrics::Digest summary;
  for (const mcs::check::SeedRunResult& r : results) {
    summary.add_u64(r.seed);
    summary.add_u64(r.digest);
  }
  return summary.value();
}

std::string check_replays(const std::vector<mcs::check::SeedRunResult>& results,
                          std::uint64_t base_seed, bool het,
                          const std::vector<std::size_t>& indices) {
  for (const std::size_t i : indices) {
    if (i >= results.size()) return "replay index out of range";
    const std::uint64_t seed = mcs::check::seed_for_index(base_seed, i);
    if (results[i].seed != seed) {
      return "batch index " + std::to_string(i) + " ran seed " +
             std::to_string(results[i].seed) + ", want " + std::to_string(seed);
    }
    const mcs::check::SeedRunResult replay = mcs::check::run_seed(seed, het);
    if (replay.digest != results[i].digest) {
      return "batch index " + std::to_string(i) + " digest " +
             mcs::metrics::hex16(results[i].digest) + " but replays to " +
             mcs::metrics::hex16(replay.digest);
    }
  }
  return {};
}

std::uint64_t run_digest(const mcs::sched::RunResult& r, double busy) {
  mcs::metrics::Digest d;
  d.add_u64(r.jobs.size());
  d.add_u64(r.abandoned);
  d.add_double(r.mean_slowdown);
  d.add_double(r.p95_slowdown);
  d.add_double(r.mean_wait_seconds);
  d.add_double(r.makespan_seconds);
  d.add_double(r.utilization);
  d.add_double(busy);
  return d.value();
}

}  // namespace perfbench
