// Host-time instruments the benchmark wraps around each layer's public
// functions: a span log, a timing AllocationPolicy decorator, a timing
// SimHook and a counting EngineObserver. Nothing here reaches into the
// library; every number is taken at a layer boundary the library exposes.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/allocation.hpp"
#include "sched/engine.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Host monotonic clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One timed call into a layer and the span it happened inside.
struct Span {
  const char* name = "";      ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index in the log; -1 for a root
  std::uint32_t lane = 0;     ///< 0 = the calling thread, else sweep slot
};

/// Spans kept in memory and written once the run ends. The log has a fixed
/// capacity so a long traced run stays small; spans past it are counted as
/// dropped (the layer totals are accumulated separately and never drop).
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a span as a child of the innermost open span; returns its id
  /// (-1 when the log is full).
  std::int32_t open(const char* name);
  /// Closes the innermost open span, which must be `id`.
  void close(std::int32_t id);
  /// Records a finished leaf span under the innermost open span, or under
  /// `parent` (spans timed on other threads).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
    record_under(current(), name, start_ns, end_ns, 0);
  }
  void record_under(std::int32_t parent, const char* name,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint32_t lane);

  [[nodiscard]] std::int32_t current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  /// Chrome trace_event JSON: one "X" event per span (µs from the first
  /// span), with the span id and its parent id in args.
  void write_chrome_json(std::ostream& out) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Work one allocation policy did, summed over the decide() calls it got.
struct PolicyCounters {
  std::int64_t decide_ns = 0;
  std::uint64_t decides = 0;
  std::uint64_t ready_offered = 0;    ///< Σ ready-queue length per call
  std::uint64_t proposed = 0;         ///< Σ assignments returned
  std::uint64_t machines_viewed = 0;  ///< Σ view.machines per call
  std::uint64_t running_viewed = 0;   ///< Σ view.running per call
};

/// Decorator that times and counts each decide() of the wrapped policy.
/// name() is the wrapped policy's, so callers that read it (the portfolio
/// scheduler) see no difference.
class TimedPolicy final : public mcs::sched::AllocationPolicy {
 public:
  TimedPolicy(std::unique_ptr<mcs::sched::AllocationPolicy> inner,
              PolicyCounters& counters, SpanLog& spans)
      : inner_(std::move(inner)), counters_(counters), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<mcs::sched::Assignment> decide(
      const mcs::sched::SchedulerView& view) override;

 private:
  std::unique_ptr<mcs::sched::AllocationPolicy> inner_;
  PolicyCounters& counters_;
  SpanLog& spans_;
};

/// Kernel hook that sums the host time spent inside event callbacks.
class TimingHook final : public mcs::sim::SimHook {
 public:
  void on_event(mcs::sim::SimTime, std::uint64_t) override {
    started_ns_ = now_ns();
  }
  void on_event_end(mcs::sim::SimTime, std::uint64_t) override {
    callback_ns += now_ns() - started_ns_;
  }

  std::int64_t callback_ns = 0;

 private:
  std::int64_t started_ns_ = 0;
};

/// Counts engine transitions (the benchmark's own view of what ended).
class CountingObserver final : public mcs::sched::EngineObserver {
 public:
  void on_transition(const mcs::sched::ExecutionEngine&,
                     mcs::sched::EngineTransition t,
                     mcs::infra::MachineId) override;

  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t tasks_started = 0;
};

/// Everything a traced run measures. Layer totals are summed over the
/// traced rounds and reported per round.
struct Probe {
  explicit Probe(std::size_t span_capacity) : spans(span_capacity) {}

  SpanLog spans;
  /// Named totals (metric name -> sum over traced rounds).
  std::map<std::string, double> sums;
  /// Named one-off values (set once, reported as is).
  std::map<std::string, double> values;
  /// Host seconds of every sweep cell of every traced round.
  std::vector<double> cell_seconds;

  void add(const std::string& name, double v) { sums[name] += v; }
  void set(const std::string& name, double v) { values[name] = v; }
  /// Folds one finished engine run's policy and engine counters.
  void add_engine_run(const std::string& policy, const PolicyCounters& pc,
                      const TimingHook& hook, std::int64_t run_until_ns,
                      std::uint64_t events, const CountingObserver& obs,
                      const mcs::sched::ExecutionEngine& engine);
};

/// Name and unit of one per-layer metric.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every per-layer metric, in print order (BENCHMARK.json lists the same).
[[nodiscard]] std::vector<MetricDef> per_layer_metrics();

}  // namespace perfbench
