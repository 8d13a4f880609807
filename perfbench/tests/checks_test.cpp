// Each correctness check of the benchmark must accept the program's real
// outputs and reject them once perturbed: a job dropped, the busy total off
// by one task's work, one seed's digest flipped, a fold in another order.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/fuzz.hpp"
#include "checks.hpp"
#include "exp/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;
using perfbench::TraceWork;

struct EngineRun {
  std::vector<workload::Job> jobs;
  TraceWork work;
  std::vector<sched::JobStats> ended;
  double busy = 0.0;
};

/// A small uniform-fleet run: 12 machines of 8 cores at speed 1.
EngineRun run_small(std::uint64_t seed) {
  EngineRun out;
  workload::TraceConfig config;
  config.job_count = 40;
  config.arrival_rate_per_hour = 900.0;
  sim::Rng rng(seed);
  out.jobs = workload::generate_trace(config, rng);
  out.work = perfbench::trace_work(out.jobs);
  infra::Datacenter dc("test", "eu");
  dc.add_uniform_racks(2, 6, infra::ResourceVector{8, 32, 0}, 1.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  engine.submit_all(out.jobs);
  sim.run_until();
  out.ended = engine.completed();
  out.busy = engine.busy_core_seconds();
  return out;
}

TEST(PerfbenchChecks, EngineChecksAcceptRealOutputs) {
  const EngineRun r = run_small(7);
  EXPECT_EQ(perfbench::check_each_job_ends_once(r.jobs, r.ended), "");
  EXPECT_EQ(perfbench::check_busy_exact(r.busy, r.work), "");
  EXPECT_EQ(perfbench::check_busy_range(r.busy, r.work, 1.0, 1.0), "");
  EXPECT_EQ(perfbench::check_job_times(r.jobs, r.ended, 1.0), "");
  EXPECT_EQ(perfbench::check_makespan(r.ended, r.work, 96.0, 1.0), "");
}

TEST(PerfbenchChecks, RejectsADroppedJob) {
  EngineRun r = run_small(7);
  r.ended.erase(r.ended.begin() + 3);
  EXPECT_NE(perfbench::check_each_job_ends_once(r.jobs, r.ended), "");
}

TEST(PerfbenchChecks, RejectsAJobEndingTwice) {
  EngineRun r = run_small(7);
  r.ended.push_back(r.ended.front());
  EXPECT_NE(perfbench::check_each_job_ends_once(r.jobs, r.ended), "");
}

TEST(PerfbenchChecks, RejectsBusyOffByOneTasksWork) {
  const EngineRun r = run_small(7);
  std::vector<double> task_work;
  for (const workload::Job& job : r.jobs) {
    for (const workload::Task& t : job.tasks) {
      task_work.push_back(t.demand.cpu() * t.work_seconds);
    }
  }
  std::sort(task_work.begin(), task_work.end());
  for (const double w : {task_work.front(), task_work[task_work.size() / 2]}) {
    EXPECT_NE(perfbench::check_busy_exact(r.busy + w, r.work), "") << w;
    EXPECT_NE(perfbench::check_busy_exact(r.busy - w, r.work), "") << w;
  }
  // Outside the heterogeneous range at either end.
  EXPECT_NE(perfbench::check_busy_range(r.work.core_seconds / 2.0 -
                                            task_work.front(),
                                        r.work, 0.8, 2.0),
            "");
  EXPECT_NE(perfbench::check_busy_range(r.work.core_seconds / 0.8 +
                                            task_work.front(),
                                        r.work, 0.8, 2.0),
            "");
}

TEST(PerfbenchChecks, RejectsAResponseBelowTheCriticalPath) {
  EngineRun r = run_small(7);
  r.ended[0].response_seconds =
      r.jobs[r.ended[0].id].critical_path_seconds() * 0.5;
  EXPECT_NE(perfbench::check_job_times(r.jobs, r.ended, 1.0), "");
}

TEST(PerfbenchChecks, RejectsAStartBeforeSubmit) {
  EngineRun r = run_small(7);
  r.ended[0].first_start = r.ended[0].submit - 1;
  EXPECT_NE(perfbench::check_job_times(r.jobs, r.ended, 1.0), "");
}

TEST(PerfbenchChecks, RejectsAMakespanBelowTheWorkBound) {
  const EngineRun r = run_small(7);
  // The same outputs claimed on a fleet a hundred times smaller.
  EXPECT_NE(perfbench::check_makespan(r.ended, r.work, 0.96, 1.0), "");
}

struct Batch {
  std::vector<check::SeedRunResult> results;
  std::uint64_t base_seed = 5;
};

Batch run_batch() {
  Batch b;
  parallel::ThreadPool pool(2);
  exp::SweepOptions opt;
  opt.base_seed = b.base_seed;
  opt.pool = &pool;
  b.results = exp::run_sweep<check::SeedRunResult>(
      16, opt, [](const exp::SweepPoint& p) {
        return check::run_spec(check::make_spec(p.seed, true));
      });
  return b;
}

TEST(PerfbenchChecks, FuzzChecksAcceptRealOutputs) {
  const Batch b = run_batch();
  for (const check::SeedRunResult& r : b.results) {
    EXPECT_EQ(perfbench::check_seed(r), "");
  }
  EXPECT_EQ(perfbench::check_replays(b.results, b.base_seed, true, {0, 7, 15}),
            "");
  parallel::ThreadPool other(1);
  check::FuzzOptions opt;
  opt.seeds = b.results.size();
  opt.base_seed = b.base_seed;
  opt.het = true;
  opt.pool = &other;
  EXPECT_EQ(perfbench::fold_seeds(b.results),
            check::run_fuzz(opt).summary_digest);
}

TEST(PerfbenchChecks, RejectsAFlippedSeedDigest) {
  Batch b = run_batch();
  b.results[7].digest ^= 1;
  EXPECT_NE(perfbench::check_replays(b.results, b.base_seed, true, {0, 7, 15}),
            "");
}

TEST(PerfbenchChecks, RejectsAFoldInAnotherOrder) {
  Batch b = run_batch();
  const std::uint64_t in_order = perfbench::fold_seeds(b.results);
  std::swap(b.results[3], b.results[4]);
  EXPECT_NE(perfbench::fold_seeds(b.results), in_order);
  std::reverse(b.results.begin(), b.results.end());
  EXPECT_NE(perfbench::fold_seeds(b.results), in_order);
}

TEST(PerfbenchChecks, RejectsASeedWhoseJobsDoNotAddUp) {
  Batch b = run_batch();
  b.results[2].jobs_completed += 1;
  EXPECT_NE(perfbench::check_seed(b.results[2]), "");
  b.results[3].ok = false;
  b.results[3].violation = "I1";
  EXPECT_NE(perfbench::check_seed(b.results[3]), "");
}

}  // namespace
