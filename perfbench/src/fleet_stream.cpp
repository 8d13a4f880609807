// fleet_stream: one long stream of small bag-of-task jobs onto a uniform
// fleet of 1024 machines, Poisson arrivals at about 70% offered load,
// FCFS first-fit, with correlated machine failures and repairs injected.
// The engine runs with the default EngineConfig (demand/supply series on)
// plus lifecycle spans, an SLO tracker and a tracer, on one thread, and the
// run ends with an mcs-report-v1 report of its registry and trace.
//
// Why: the ready queue stays near empty, so decide() is cheap; host time
// goes to the kernel, the engine round's O(machines) view and series
// rebuild, the failure path and the obs record paths — layers policy_grid
// barely touches.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "exp/sweep.hpp"
#include "failures/failure_model.hpp"
#include "metrics/stats.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sched/engine.hpp"
#include "workload.hpp"
#include "workload/trace.hpp"

namespace perfbench {

namespace {

using namespace mcs;

constexpr std::size_t kRacks = 32;
constexpr std::size_t kPerRack = 32;
/// 16 cores and 64 GiB: room for the largest task the trace generator
/// draws (its core counts are lognormal around 1; memory is 2 GiB/core).
constexpr double kCores = 16.0;
constexpr double kMemGiB = 64.0;
constexpr double kFleetCores = kRacks * kPerRack * kCores;

constexpr std::size_t kJobs = 20'000;
/// Jobs per hour for about 70% offered load: a job asks for about
/// 4 tasks x 1.1 cores x 60 s = 264 core-seconds, the fleet has 16384
/// cores. The set-up reports the load the generated trace really offers.
constexpr double kArrivalsPerHour = 0.70 * kFleetCores / 264.0 * 3600.0;

constexpr std::size_t kTracerCapacity = std::size_t{1} << 16;
constexpr const char* kSlo = "all:300:0.95:600";

workload::TraceConfig trace_config() {
  workload::TraceConfig c;
  c.job_count = kJobs;
  c.arrivals = workload::ArrivalKind::kPoisson;
  c.arrival_rate_per_hour = kArrivalsPerHour;
  c.mean_tasks_per_job = 4.0;
  c.mean_task_seconds = 60.0;
  c.cv_task_seconds = 1.0;
  c.mean_cores_per_task = 1.0;
  c.memory_per_core_gib = 2.0;
  c.user_count = 20;
  return c;
}

failures::FailureModelConfig failure_config() {
  failures::FailureModelConfig c;
  c.mode = failures::CorrelationMode::kSpaceAndTime;
  c.failures_per_machine_day = 15.0;
  c.mean_repair_seconds = 300.0;
  c.cv_repair = 1.0;
  c.mean_burst_size = 8.0;
  c.weibull_shape = 0.6;
  return c;
}

infra::Datacenter make_fleet() {
  infra::Datacenter dc("fleet-stream", "eu");
  dc.add_uniform_racks(kRacks, kPerRack,
                       infra::ResourceVector{kCores, kMemGiB, 0.0}, 1.0);
  return dc;
}

class FleetStream final : public Workload {
 public:
  FleetStream(std::uint64_t seed, Probe* probe)
      : specs_(obs::parse_slo_specs(kSlo)) {
    std::int64_t t = now_ns();
    sim::Rng trace_rng(exp::substream_seed(seed, 0));
    jobs_ = workload::generate_trace(trace_config(), trace_rng);
    work_ = trace_work(jobs_);
    const double generate_s = ns_to_s(now_ns() - t);

    t = now_ns();
    const infra::Datacenter fleet = make_fleet();
    sim::Rng failure_rng(exp::substream_seed(seed, 1));
    failure_trace_ = failures::generate_failure_trace(
        fleet, failure_config(), jobs_.back().submit_time, failure_rng);
    const double failures_s = ns_to_s(now_ns() - t);

    if (probe != nullptr) {
      probe->set("workload.generate_s", generate_s + failures_s);
      probe->set("workload.tasks", static_cast<double>(work_.tasks));
      probe->set("failures.events", static_cast<double>(failure_trace_.size()));
    }
    std::cerr << "fleet_stream: offered load "
              << work_.core_seconds /
                     (sim::to_seconds(jobs_.back().submit_time) * kFleetCores)
              << ", " << failure_trace_.size() << " failure events\n";
  }

  void prepare(Probe* probe) override {
    probe_ = probe;
    round_ = std::make_unique<Round>();
    Round& r = *round_;
    r.sim = std::make_unique<sim::Simulator>();
    const std::int64_t build_start = now_ns();
    r.dc = std::make_unique<infra::Datacenter>(make_fleet());
    if (probe != nullptr) probe->add("infra.build_s", ns_to_s(now_ns() - build_start));

    std::unique_ptr<sched::AllocationPolicy> policy = sched::make_fcfs();
    if (probe != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), r.counters,
                                             probe->spans);
    }
    sched::EngineConfig config;
    config.lifecycle_spans = obs_on_;
    r.engine = std::make_unique<sched::ExecutionEngine>(*r.sim, *r.dc,
                                                        std::move(policy), config);
    r.engine->set_observer(&r.observer);
    if (obs_on_) {
      r.tracer = std::make_unique<obs::Tracer>(kTracerCapacity);
      r.engine->set_tracer(r.tracer.get());
      r.slo = std::make_unique<obs::SloTracker>(specs_, r.engine->registry(),
                                                r.tracer.get());
      r.engine->set_slo(r.slo.get());
    }
    r.injector = std::make_unique<failures::FailureInjector>(*r.sim, *r.dc,
                                                             failure_trace_);
    if (obs_on_) {
      r.injector->attach_observability(r.tracer.get(), &r.engine->registry());
    }
    sched::ExecutionEngine* engine = r.engine.get();
    r.injector->arm(
        [engine](infra::MachineId id) { engine->on_machine_failed(id); },
        [engine](infra::MachineId) { engine->kick(); });
    r.engine->submit_all(jobs_);
    if (probe != nullptr) r.sim->set_hook(&r.hook);
  }

  void run() override {
    Round& r = *round_;
    SpanLog* spans = probe_ != nullptr ? &probe_->spans : nullptr;
    {
      ScopedSpan span(spans, "fleet_stream.run_until");
      const std::int64_t start = now_ns();
      r.sim->run_until();
      r.run_ns = now_ns() - start;
    }
    if (!obs_on_) return;
    ScopedSpan span(spans, "fleet_stream.report");
    const std::int64_t start = now_ns();
    r.slo->finalize(r.sim->now());
    const obs::TraceDump dump = obs::snapshot(*r.tracer);
    obs::ReportInputs in;
    in.registry = &r.engine->registry();
    in.slo = &specs_;
    in.exemplar = &dump;
    in.trace_digest = r.tracer->digest();
    in.has_trace_digest = true;
    in.cells = 1;
    std::ostringstream out;
    obs::write_report_json(out, in);
    r.report = out.str();
    r.report_ns = now_ns() - start;
  }

  RoundResult finish() override {
    Round& r = *round_;
    const sched::ExecutionEngine& engine = *r.engine;
    const sched::RunResult run = sched::summarize_run(engine, *r.dc);
    const double busy = engine.busy_core_seconds();
    RoundResult res;
    res.attempted = jobs_.size();
    res.failed = run.abandoned;
    res.jobs_ended = run.jobs.size();
    std::vector<std::string> errors = {
        check_each_job_ends_once(jobs_, run.jobs),
        check_busy_exact(busy, work_),
        check_job_times(jobs_, run.jobs, 1.0),
        check_makespan(run.jobs, work_, kFleetCores, 1.0)};
    if (r.observer.completed + r.observer.abandoned != run.jobs.size()) {
      errors.push_back("observer saw " + std::to_string(r.observer.completed) +
                       " completions, the engine reports " +
                       std::to_string(run.jobs.size() - run.abandoned));
    }
    metrics::Digest digest;
    digest.add_u64(run_digest(run, busy));
    if (obs_on_) {
      errors.push_back(check_obs_counts(r));
      if (r.report.empty()) errors.push_back("empty obs report");
      digest.add_u64(r.tracer->digest());
      engine.registry().fold_digest(digest);
    }
    for (const std::string& e : errors) {
      if (!e.empty() && res.error.empty()) res.error = "fleet_stream: " + e;
    }
    res.digest = digest.value();

    if (probe_ != nullptr) {
      probe_->add_engine_run("fcfs", r.counters, r.hook, r.run_ns,
                             r.sim->executed(), r.observer, engine);
      if (obs_on_) {
        probe_->add("obs.trace_events", static_cast<double>(r.tracer->total()));
        probe_->add("obs.slo_samples", static_cast<double>(slo_samples(engine)));
        probe_->add("obs.report_s", ns_to_s(r.report_ns));
      }
    }
    round_.reset();
    return res;
  }

  std::string measure_extra(Probe& probe, double seconds) override {
    // Obs overhead: the same batch with tracer, SLO tracker and lifecycle
    // spans attached and detached, in alternating pairs, untraced.
    std::int64_t on_ns = 0;
    std::int64_t off_ns = 0;
    std::size_t pairs = 0;
    std::string error;
    const auto timed_batch = [&](bool obs) {
      obs_on_ = obs;
      const std::int64_t start = now_ns();
      prepare(nullptr);
      run();
      const std::int64_t took = now_ns() - start;
      const RoundResult r = finish();
      if (error.empty()) error = r.error;
      return took;
    };
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    while (pairs == 0 || on_ns + off_ns < budget) {
      on_ns += timed_batch(true);
      off_ns += timed_batch(false);
      ++pairs;
    }
    obs_on_ = true;
    probe.set("obs.overhead_s",
              ns_to_s(on_ns - off_ns) / static_cast<double>(pairs));
    return error;
  }

 private:
  struct Round {
    // Instruments first: they outlive the engine and kernel that point at them.
    PolicyCounters counters;
    TimingHook hook;
    CountingObserver observer;
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<infra::Datacenter> dc;
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<sched::ExecutionEngine> engine;
    std::unique_ptr<obs::SloTracker> slo;
    std::unique_ptr<failures::FailureInjector> injector;
    std::string report;
    std::int64_t run_ns = 0;
    std::int64_t report_ns = 0;
  };

  static std::uint64_t slo_samples(const sched::ExecutionEngine& engine) {
    const obs::Counter* c = engine.registry().find_counter("slo.all.samples");
    return c != nullptr ? static_cast<std::uint64_t>(c->value()) : 0;
  }

  /// The SLO sample count and the per-class span histograms must agree
  /// with the completions the benchmark's own observer counted.
  std::string check_obs_counts(const Round& r) const {
    const sched::ExecutionEngine& engine = *r.engine;
    const std::uint64_t ended = r.observer.completed + r.observer.abandoned;
    if (slo_samples(engine) != ended) {
      return "SLO samples " + std::to_string(slo_samples(engine)) +
             " != jobs ended " + std::to_string(ended);
    }
    std::uint64_t responses = 0;
    std::uint64_t abandons = 0;
    for (std::size_t c = 0; c < sched::kWorkloadClasses; ++c) {
      const std::string prefix =
          std::string("span.") + sched::workload_class_name(c) + ".";
      const auto* response =
          engine.registry().find_histogram(prefix + "response_seconds");
      const auto* abandon =
          engine.registry().find_histogram(prefix + "abandon_seconds");
      if (response == nullptr || abandon == nullptr) {
        return "missing lifecycle span histograms";
      }
      responses += response->count();
      abandons += abandon->count();
    }
    if (responses != r.observer.completed || abandons != r.observer.abandoned) {
      return "span histograms count " + std::to_string(responses) + "/" +
             std::to_string(abandons) + " completed/abandoned, observer " +
             std::to_string(r.observer.completed) + "/" +
             std::to_string(r.observer.abandoned);
    }
    return {};
  }

  std::vector<obs::SloSpec> specs_;
  std::vector<workload::Job> jobs_;
  TraceWork work_;
  std::vector<failures::FailureEvent> failure_trace_;
  std::unique_ptr<Round> round_;
  Probe* probe_ = nullptr;
  bool obs_on_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_stream(std::uint64_t seed, Probe* probe) {
  return std::make_unique<FleetStream>(seed, probe);
}

}  // namespace perfbench
