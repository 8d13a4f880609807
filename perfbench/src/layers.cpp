#include "layers.hpp"

#include <ostream>

namespace perfbench {

std::int32_t SpanLog::open(const char* name) {
  std::int32_t id = -1;
  if (spans_.size() < capacity_) {
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, current(), 0});
  } else {
    ++dropped_;
  }
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

void SpanLog::record_under(std::int32_t parent, const char* name,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint32_t lane) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, lane});
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"dropped\":" << dropped_ << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.lane << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
}

std::vector<mcs::sched::Assignment> TimedPolicy::decide(
    const mcs::sched::SchedulerView& view) {
  const std::int64_t start = now_ns();
  std::vector<mcs::sched::Assignment> out = inner_->decide(view);
  const std::int64_t end = now_ns();
  counters_.decide_ns += end - start;
  ++counters_.decides;
  counters_.ready_offered += view.ready != nullptr ? view.ready->size() : 0;
  counters_.proposed += out.size();
  counters_.machines_viewed += view.machines.size();
  counters_.running_viewed += view.running != nullptr ? view.running->size() : 0;
  spans_.record("sched.decide", start, end);
  return out;
}

void CountingObserver::on_transition(const mcs::sched::ExecutionEngine&,
                                     mcs::sched::EngineTransition t,
                                     mcs::infra::MachineId) {
  using mcs::sched::EngineTransition;
  switch (t) {
    case EngineTransition::kJobCompleted: ++completed; break;
    case EngineTransition::kJobAbandoned: ++abandoned; break;
    case EngineTransition::kTaskStarted: ++tasks_started; break;
    default: break;
  }
}

void Probe::add_engine_run(const std::string& policy, const PolicyCounters& pc,
                           const TimingHook& hook, std::int64_t run_until_ns,
                           std::uint64_t events, const CountingObserver& obs,
                           const mcs::sched::ExecutionEngine& engine) {
  const std::string p = "policy." + policy + ".";
  add(p + "decide_s", ns_to_s(pc.decide_ns));
  add(p + "decides", static_cast<double>(pc.decides));
  add(p + "ready_offered", static_cast<double>(pc.ready_offered));
  add(p + "proposed", static_cast<double>(pc.proposed));
  add(p + "started", static_cast<double>(obs.tasks_started));
  add("engine.rounds", static_cast<double>(pc.decides));
  add("engine.machines_viewed", static_cast<double>(pc.machines_viewed));
  add("engine.running_viewed", static_cast<double>(pc.running_viewed));
  add("engine.tasks_started", static_cast<double>(obs.tasks_started));
  add("engine.tasks_killed", static_cast<double>(engine.tasks_killed()));
  add("engine.series_samples",
      static_cast<double>(engine.demand_series().samples().size() +
                          engine.supply_series().samples().size()));
  add("sim.events", static_cast<double>(events));
  // Raw totals the self times are derived from (see main.cpp).
  add("raw.callback_s", ns_to_s(hook.callback_ns));
  add("raw.decide_s", ns_to_s(pc.decide_ns));
  add("raw.run_until_s", ns_to_s(run_until_ns));
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> defs;
  for (const std::string& p : mcs::sched::all_policy_names()) {
    defs.push_back({"policy." + p + ".decide_s", "s"});
    defs.push_back({"policy." + p + ".decides", "count"});
    defs.push_back({"policy." + p + ".ready_offered", "count"});
    defs.push_back({"policy." + p + ".proposed", "count"});
    defs.push_back({"policy." + p + ".started", "count"});
  }
  const std::vector<MetricDef> rest = {
      {"portfolio.cell_s", "s"},
      {"portfolio.switches", "count"},
      {"engine.self_s", "s"},
      {"engine.rounds", "count"},
      {"engine.machines_viewed", "count"},
      {"engine.running_viewed", "count"},
      {"engine.tasks_started", "count"},
      {"engine.tasks_killed", "count"},
      {"engine.series_samples", "count"},
      {"sim.events", "count"},
      {"sim.self_s", "s"},
      {"sim.ns_per_event", "ns"},
      {"obs.trace_events", "count"},
      {"obs.slo_samples", "count"},
      {"obs.overhead_s", "s"},
      {"obs.report_s", "s"},
      {"workload.generate_s", "s"},
      {"workload.tasks", "count"},
      {"infra.build_s", "s"},
      {"failures.events", "count"},
      {"sweep.cell_s.p50", "s"},
      {"sweep.cell_s.p99", "s"},
      {"sweep.cell_s.max", "s"},
      {"sweep.busy_s", "s"},
      {"sweep.idle_s", "s"},
      {"sweep.merge_s", "s"},
      {"check.checks", "count"},
      {"check.transitions", "count"},
      {"check.events", "count"},
      {"traced.jobs_per_s", "jobs/s"},
  };
  defs.insert(defs.end(), rest.begin(), rest.end());
  return defs;
}

}  // namespace perfbench
