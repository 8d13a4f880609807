// policy_grid: experiment E5's four regimes (uniform BoT, heavy-tailed BoT,
// workflows, bursty heterogeneous) on a 12-machine floor, each run under
// the twelve allocation policies and the portfolio scheduler, for several
// replications. Cells run back to back on the calling thread.
//
// Why: queues run deep on the tiny floor, so AllocationPolicy::decide
// (ordering, pick_machine, backfill reservations) does most of the work,
// while view building and the event kernel do little.
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "exp/sweep.hpp"
#include "metrics/stats.hpp"
#include "sched/engine.hpp"
#include "sched/portfolio.hpp"
#include "workload.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace {

using namespace mcs;

/// Replications of every regime in one batch.
constexpr std::size_t kReps = 2;
/// Portfolio re-selection interval, as in E5.
constexpr sim::SimTime kPortfolioInterval = 30 * sim::kSecond;

struct Regime {
  workload::TraceConfig trace;
  bool heterogeneous = false;
};

/// E5's regimes (bench/exp_scheduling.cpp), same trace parameters.
std::vector<Regime> make_regimes() {
  std::vector<Regime> regimes(4);
  {
    workload::TraceConfig& t = regimes[0].trace;  // uniform BoT
    t.job_count = 150;
    t.arrival_rate_per_hour = 700.0;
    t.mean_task_seconds = 60.0;
    t.cv_task_seconds = 0.3;
  }
  {
    workload::TraceConfig& t = regimes[1].trace;  // heavy-tailed BoT
    t.job_count = 150;
    t.arrival_rate_per_hour = 2400.0;
    t.mean_task_seconds = 90.0;
    t.cv_task_seconds = 3.0;
  }
  {
    workload::TraceConfig& t = regimes[2].trace;  // workflows
    t.job_count = 100;
    t.arrival_rate_per_hour = 1200.0;
    t.workflow_fraction = 1.0;
    t.workflow_width = 16;
    t.mean_task_seconds = 90.0;
  }
  {
    workload::TraceConfig& t = regimes[3].trace;  // bursty heterogeneous
    t.job_count = 150;
    t.arrivals = workload::ArrivalKind::kBursty;
    t.arrival_rate_per_hour = 700.0;
    t.mean_task_seconds = 90.0;
    t.cv_task_seconds = 1.5;
    regimes[3].heterogeneous = true;
  }
  return regimes;
}

/// E5's floor: 12 machines of 8 cores; half at speed 0.8 and half at 2.0
/// when heterogeneous, else all at speed 1.
infra::Datacenter make_dc(bool heterogeneous) {
  infra::Datacenter dc("policy-grid", "eu");
  if (heterogeneous) {
    for (int i = 0; i < 6; ++i) {
      dc.add_machine("slow-" + std::to_string(i),
                     infra::ResourceVector{8, 32, 0}, 0.8, 0);
    }
    for (int i = 0; i < 6; ++i) {
      dc.add_machine("fast-" + std::to_string(i),
                     infra::ResourceVector{8, 32, 0}, 2.0, 1);
    }
  } else {
    dc.add_uniform_racks(2, 6, infra::ResourceVector{8, 32, 0}, 1.0);
  }
  return dc;
}

constexpr double kFleetCores = 12 * 8;

struct Input {
  bool heterogeneous = false;
  std::vector<workload::Job> jobs;
  TraceWork work;
};

/// One engine run: an input under one policy, or under the portfolio.
struct Cell {
  // Instruments first: they outlive the engine and kernel that point at them.
  PolicyCounters counters;
  TimingHook hook;
  CountingObserver observer;
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<infra::Datacenter> dc;
  std::unique_ptr<sched::ExecutionEngine> engine;
  std::unique_ptr<sched::PortfolioScheduler> portfolio;
};

/// What a finished cell leaves for the checks once its engine is released.
struct Outcome {
  std::size_t input = 0;
  std::string policy;  ///< empty for the portfolio cell
  sched::RunResult result;
  double busy = 0.0;
  std::uint64_t switches = 0;
};

class PolicyGrid final : public Workload {
 public:
  PolicyGrid(std::uint64_t seed, Probe* probe) {
    const std::int64_t start = now_ns();
    const std::vector<Regime> regimes = make_regimes();
    for (std::size_t s = 0; s < regimes.size(); ++s) {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        sim::Rng rng(exp::substream_seed(exp::substream_seed(seed, s), rep));
        Input in;
        in.heterogeneous = regimes[s].heterogeneous;
        in.jobs = workload::generate_trace(regimes[s].trace, rng);
        in.work = trace_work(in.jobs);
        inputs_.push_back(std::move(in));
      }
    }
    if (probe != nullptr) {
      probe->set("workload.generate_s", ns_to_s(now_ns() - start));
      double tasks = 0;
      for (const Input& in : inputs_) tasks += static_cast<double>(in.work.tasks);
      probe->set("workload.tasks", tasks);
    }
  }

  // Cells are built when they run, so prepare only picks the instruments.
  void prepare(Probe* probe) override { probe_ = probe; }

  /// Builds, runs and summarises one cell at a time, releasing each engine
  /// before the next is built: the batch's working set is one small engine.
  void run() override {
    SpanLog* spans = probe_ != nullptr ? &probe_->spans : nullptr;
    const std::vector<std::string> policies = sched::all_policy_names();
    std::int64_t build_ns = 0;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      for (std::size_t p = 0; p <= policies.size(); ++p) {
        const bool portfolio = p == policies.size();
        ScopedSpan span(spans, portfolio ? "policy_grid.portfolio_cell"
                                         : "policy_grid.cell");
        Cell cell;
        cell.sim = std::make_unique<sim::Simulator>();
        const std::int64_t build_start = now_ns();
        cell.dc = std::make_unique<infra::Datacenter>(
            make_dc(inputs_[i].heterogeneous));
        build_ns += now_ns() - build_start;
        std::unique_ptr<sched::AllocationPolicy> policy;
        if (portfolio) {
          policy = sched::make_fcfs();
        } else {
          policy = sched::make_policy(policies[p]);
          if (probe_ != nullptr) {
            policy = std::make_unique<TimedPolicy>(std::move(policy),
                                                   cell.counters, probe_->spans);
          }
        }
        // The default EngineConfig, as sched::run_workload and E5 use it:
        // demand/supply series on, no tracer, SLO or lifecycle spans.
        cell.engine = std::make_unique<sched::ExecutionEngine>(
            *cell.sim, *cell.dc, std::move(policy));
        cell.engine->submit_all(inputs_[i].jobs);
        if (portfolio) {
          cell.portfolio = std::make_unique<sched::PortfolioScheduler>(
              *cell.sim, *cell.dc, *cell.engine, sched::default_portfolio(),
              kPortfolioInterval);
          cell.portfolio->start();
        } else if (probe_ != nullptr) {
          cell.sim->set_hook(&cell.hook);
          cell.engine->set_observer(&cell.observer);
        }

        const std::int64_t start = now_ns();
        cell.sim->run_until();
        const std::int64_t run_ns = now_ns() - start;

        Outcome out;
        out.input = i;
        out.policy = portfolio ? std::string() : policies[p];
        out.result = sched::summarize_run(*cell.engine, *cell.dc);
        out.busy = cell.engine->busy_core_seconds();
        out.switches = portfolio ? cell.portfolio->switches() : 0;
        if (probe_ != nullptr) {
          if (portfolio) {
            probe_->add("portfolio.cell_s", ns_to_s(run_ns));
            probe_->add("portfolio.switches", static_cast<double>(out.switches));
          } else {
            probe_->add_engine_run(out.policy, cell.counters, cell.hook, run_ns,
                                   cell.sim->executed(), cell.observer,
                                   *cell.engine);
          }
        }
        outcomes_.push_back(std::move(out));
      }
    }
    if (probe_ != nullptr) probe_->add("infra.build_s", ns_to_s(build_ns));
  }

  RoundResult finish() override {
    RoundResult res;
    metrics::Digest digest;
    for (const Outcome& out : outcomes_) {
      const Input& in = inputs_[out.input];
      const sched::RunResult& r = out.result;
      const double max_speed = in.heterogeneous ? 2.0 : 1.0;
      res.attempted += in.jobs.size();
      res.failed += r.abandoned;
      res.jobs_ended += r.jobs.size();
      for (const std::string& err :
           {check_each_job_ends_once(in.jobs, r.jobs),
            in.heterogeneous ? check_busy_range(out.busy, in.work, 0.8, 2.0)
                             : check_busy_exact(out.busy, in.work),
            check_job_times(in.jobs, r.jobs, max_speed),
            check_makespan(r.jobs, in.work, kFleetCores, max_speed)}) {
        if (!err.empty() && res.error.empty()) {
          res.error = "policy_grid input " + std::to_string(out.input) +
                      " under " +
                      (out.policy.empty() ? std::string("portfolio") : out.policy) +
                      ": " + err;
        }
      }
      digest.add_u64(run_digest(r, out.busy));
      if (out.policy.empty()) digest.add_u64(out.switches);
    }
    res.digest = digest.value();
    outcomes_.clear();
    return res;
  }

 private:
  std::vector<Input> inputs_;
  std::vector<Outcome> outcomes_;
  Probe* probe_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_policy_grid(std::uint64_t seed, Probe* probe) {
  return std::make_unique<PolicyGrid>(seed, probe);
}

}  // namespace perfbench
