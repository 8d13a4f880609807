// Experiment E3 — correlated failures (§2.2 problem 2; Gallet et al. [26],
// Yigitbasi et al. [27]): four failure models at equal long-run failure
// volume, first characterized (burst size, gap CV), then run under a BoT
// workload to show the published shape — correlated failures hurt far
// more than iid at the same volume, because they align downtime.
//
// Scale-out: `--reps N` runs N substream-seeded replications per failure
// mode across the thread pool (exp::run_sweep); the workload trace is
// paired per replication (same jobs for every mode within a rep), failure
// traces get independent substreams. Merged output is bit-identical at any
// MCS_THREADS (`--digest`).
#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "exp/obs_harness.hpp"
#include "exp/sweep.hpp"
#include "failures/failure_model.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

constexpr failures::CorrelationMode kModes[] = {
    failures::CorrelationMode::kIid,
    failures::CorrelationMode::kSpaceCorrelated,
    failures::CorrelationMode::kTimeCorrelated,
    failures::CorrelationMode::kSpaceAndTime};
constexpr std::size_t kModeCount = 4;

const char* mode_name(failures::CorrelationMode m) {
  switch (m) {
    case failures::CorrelationMode::kIid: return "iid";
    case failures::CorrelationMode::kSpaceCorrelated: return "space-correlated";
    case failures::CorrelationMode::kTimeCorrelated: return "time-correlated";
    case failures::CorrelationMode::kSpaceAndTime: return "space+time";
  }
  return "?";
}

/// One replication of one mode: characterization + workload impact.
struct CellResult {
  // Part 1 — failure-trace characterization.
  double events = 0.0;
  double machine_failures = 0.0;
  double mean_burst = 0.0;
  double max_burst = 0.0;
  double gap_cv = 0.0;
  double peak_down_fraction = 0.0;
  double degraded_fraction = 0.0;  ///< time with >= 25% of the floor down
  // Part 2 — impact on a BoT workload.
  double tasks_killed = 0.0;
  double jobs_abandoned = 0.0;
  double mean_slowdown = 0.0;
  double p95_slowdown = 0.0;
  exp::ObsCapture obs;  ///< workload-impact run's trace/metrics capture
};

CellResult run_cell(failures::CorrelationMode mode, const exp::SweepPoint& p,
                    std::uint64_t workload_seed, const exp::SweepCli& cli) {
  CellResult out;
  const std::uint64_t cell_seed = p.seed;

  // Part 1: characterize the 14-day failure trace, including the
  // availability tail — the fraction of time with >= 25% of the floor
  // simultaneously down, the quantity that breaks capacity guarantees
  // ([26]'s headline effect).
  {
    infra::Datacenter dc("f-dc", "eu");
    dc.add_uniform_racks(4, 16, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
    failures::FailureModelConfig config;
    config.mode = mode;
    config.failures_per_machine_day = 2.0;
    sim::Rng rng(cell_seed);
    const auto trace =
        failures::generate_failure_trace(dc, config, 14 * sim::kDay, rng);
    const auto s = failures::summarize(trace);

    std::vector<std::pair<sim::SimTime, int>> edges;
    for (const auto& e : trace) {
      edges.emplace_back(e.at, static_cast<int>(e.machines.size()));
      edges.emplace_back(e.at + e.downtime,
                         -static_cast<int>(e.machines.size()));
    }
    std::sort(edges.begin(), edges.end());
    int down = 0, peak_down = 0;
    sim::SimTime degraded_time = 0;
    sim::SimTime prev = 0;
    const int quarter = static_cast<int>(dc.machine_count() / 4);
    for (const auto& [at, delta] : edges) {
      if (down >= quarter) degraded_time += at - prev;
      prev = at;
      down += delta;
      peak_down = std::max(peak_down, down);
    }
    out.events = static_cast<double>(s.events);
    out.machine_failures = static_cast<double>(s.machine_failures);
    out.mean_burst = s.mean_event_size;
    out.max_burst = s.max_event_size;
    out.gap_cv = s.gap_cv;
    out.peak_down_fraction = static_cast<double>(peak_down) /
                             static_cast<double>(dc.machine_count());
    out.degraded_fraction = sim::to_seconds(degraded_time) /
                            sim::to_seconds(14 * sim::kDay);
  }

  // Part 2: impact on a running workload (the workload stream is paired
  // per replication — identical jobs for every mode — so mode differences
  // are attributable to the failure model alone).
  {
    infra::Datacenter dc("f-dc", "eu");
    dc.add_uniform_racks(4, 16, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
    sim::Simulator sim;
    exp::CellObs cellobs(cli);
    sched::EngineConfig engine_config;
    engine_config.lifecycle_spans = cellobs.enabled();
    sched::ExecutionEngine engine(sim, dc, sched::make_fcfs(), engine_config);
    engine.set_tracer(cellobs.tracer());
    engine.set_slo(cellobs.make_slo(engine.registry()));

    sim::Rng wrng(workload_seed);
    workload::TraceConfig trace;
    trace.job_count = 150;
    trace.arrival_rate_per_hour = 400.0;
    trace.mean_tasks_per_job = 12.0;
    trace.mean_task_seconds = 300.0;  // long tasks: exposed to failures
    engine.submit_all(workload::generate_trace(trace, wrng));

    failures::FailureModelConfig config;
    config.mode = mode;
    config.failures_per_machine_day = 6.0;
    config.mean_repair_seconds = 3600.0;
    sim::Rng frng(exp::substream_seed(cell_seed, 1));
    auto events =
        failures::generate_failure_trace(dc, config, 2 * sim::kDay, frng);
    failures::FailureInjector injector(sim, dc, events);
    injector.attach_observability(cellobs.tracer(), &engine.registry());
    injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
                 [&](infra::MachineId) { engine.kick(); });
    sim.run_until();

    cellobs.finalize(sim.now());
    out.obs = cellobs.capture(&engine.registry(),
                              p.scenario == 0 && p.rep == 0);
    const auto r = sched::summarize_run(engine, dc);
    out.tasks_killed = static_cast<double>(engine.tasks_killed());
    out.jobs_abandoned = static_cast<double>(r.abandoned);
    out.mean_slowdown = r.mean_slowdown;
    out.p95_slowdown = r.p95_slowdown;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  exp::SweepCli cli;
  try {
    cli = exp::parse_sweep_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "exp_failures: " << e.what() << "\n";
    return 2;
  }
  const std::uint64_t seed = 26;

  parallel::ThreadPool pool(cli.threads);
  exp::SweepOptions opt;
  opt.reps = cli.reps;
  opt.base_seed = seed;
  opt.pool = &pool;

  const auto cells = exp::run_sweep<CellResult>(
      kModeCount, opt, [&](const exp::SweepPoint& p) {
        // Workload seed depends on the rep only: every mode sees the same
        // job stream within a replication (paired comparison).
        const std::uint64_t workload_seed =
            exp::substream_seed(seed + 1, p.rep);
        return run_cell(kModes[p.scenario], p, workload_seed, cli);
      });

  exp::ObsAggregate obs_agg;
  for (const CellResult& cell : cells) obs_agg.fold(cell.obs);
  if (!obs_agg.report(cli, std::cout)) return 1;

  if (cli.digest) {
    metrics::Digest digest;
    for (const CellResult& c : cells) {
      metrics::Digest d;
      d.add_double(c.events);
      d.add_double(c.machine_failures);
      d.add_double(c.mean_burst);
      d.add_double(c.max_burst);
      d.add_double(c.gap_cv);
      d.add_double(c.peak_down_fraction);
      d.add_double(c.degraded_fraction);
      d.add_double(c.tasks_killed);
      d.add_double(c.jobs_abandoned);
      d.add_double(c.mean_slowdown);
      d.add_double(c.p95_slowdown);
      digest.merge(d);
    }
    std::cout << digest.hex() << "\n";
    return 0;
  }

  metrics::print_banner(
      std::cout, "E3 — Correlated failures vs iid (after [26], [27])");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "replications", std::to_string(opt.reps));
  metrics::print_kv(std::cout, "floor", "4 racks x 16 machines");
  metrics::print_kv(std::cout, "volume",
                    "2 machine-failures per machine-day in every mode");

  metrics::Table character({"mode", "events", "machine failures",
                            "mean burst", "max burst", "gap CV",
                            "peak down", "time >=25% down"});
  metrics::Table impact({"mode", "tasks killed", "jobs abandoned",
                         "mean slowdown", "p95 slowdown"});
  for (std::size_t m = 0; m < kModeCount; ++m) {
    metrics::Accumulator events(false), failures_acc(false), burst(false),
        max_burst(false), gap_cv(false), peak(false), degraded(false),
        killed(false), abandoned(false), slowdown(false), p95(false);
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      const CellResult& c = cells[m * opt.reps + rep];
      events.add(c.events);
      failures_acc.add(c.machine_failures);
      burst.add(c.mean_burst);
      max_burst.add(c.max_burst);
      gap_cv.add(c.gap_cv);
      peak.add(c.peak_down_fraction);
      degraded.add(c.degraded_fraction);
      killed.add(c.tasks_killed);
      abandoned.add(c.jobs_abandoned);
      slowdown.add(c.mean_slowdown);
      p95.add(c.p95_slowdown);
    }
    character.add_row({mode_name(kModes[m]),
                       metrics::Table::num(events.mean(), 0),
                       metrics::Table::num(failures_acc.mean(), 0),
                       metrics::Table::num(burst.mean(), 1),
                       metrics::Table::num(max_burst.mean(), 0),
                       metrics::Table::num(gap_cv.mean(), 2),
                       metrics::Table::pct(peak.mean()),
                       metrics::Table::pct(degraded.mean())});
    impact.add_row({mode_name(kModes[m]),
                    metrics::Table::num(killed.mean(), 0),
                    metrics::Table::num(abandoned.mean(), 1),
                    metrics::Table::num(slowdown.mean()),
                    metrics::Table::num(p95.mean())});
  }
  character.print(std::cout);
  metrics::print_banner(std::cout, "Impact on a bag-of-tasks workload");
  impact.print(std::cout);
  std::cout <<
      "\nThe [26]/[27] shape: identical failure *volume*, very different\n"
      "damage. Space-correlation turns singleton blips into rack-sized\n"
      "simultaneous capacity losses (see peak-down / time-degraded), and\n"
      "time-correlation clusters failures into storms; combined they\n"
      "inflate the slowdown tail well beyond iid.\n";
  return 0;
}
