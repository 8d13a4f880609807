#include "sched/pipeline.hpp"

#include <algorithm>

#include "core/callback.hpp"

namespace mcs::sched {

namespace {

class LambdaStage final : public PipelineStage {
 public:
  using Fn = core::UniqueFunction<void(CandidateSet&, const SchedulerView&)>;
  LambdaStage(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}
  [[nodiscard]] std::string name() const override { return name_; }
  void apply(CandidateSet& c, const SchedulerView& view) override {
    fn_(c, view);
  }

 private:
  std::string name_;
  Fn fn_;
};

std::unique_ptr<PipelineStage> stage(std::string name, LambdaStage::Fn fn) {
  return std::make_unique<LambdaStage>(std::move(name), std::move(fn));
}

class PipelinePolicy final : public AllocationPolicy {
 public:
  PipelinePolicy(std::string name, TaskOrder order,
                 std::vector<std::unique_ptr<PipelineStage>> stages)
      : name_(std::move(name)),
        order_(std::move(order)),
        stages_(std::move(stages)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    std::vector<std::size_t> order(view.ready->size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return order_((*view.ready)[a], (*view.ready)[b]);
                     });

    std::map<infra::MachineId, infra::ResourceVector> planned_free;
    for (const infra::Machine* m : view.machines) {
      planned_free[m->id()] = m->available();
    }

    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (std::size_t idx : order) {
      CandidateSet c;
      c.task = &(*view.ready)[idx];
      c.machines = view.machines;
      c.planned_free = &planned_free;
      for (const infra::Machine* m : c.machines) c.score[m->id()] = 0.0;

      for (const auto& s : stages_) {
        s->apply(c, view);
        if (c.machines.empty()) break;
      }
      if (c.machines.empty()) continue;

      const infra::Machine* best = *std::max_element(
          c.machines.begin(), c.machines.end(),
          [&](const infra::Machine* a, const infra::Machine* b) {
            return c.score.at(a->id()) < c.score.at(b->id());
          });
      planned_free[best->id()] -= c.task->demand;
      out.push_back(Assignment{idx, best->id()});
    }
    return out;
  }

 private:
  std::string name_;
  TaskOrder order_;
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

void filter(CandidateSet& c,
            core::FunctionRef<bool(const infra::Machine*)> keep) {
  c.machines.erase(
      std::remove_if(c.machines.begin(), c.machines.end(),
                     [&](const infra::Machine* m) { return !keep(m); }),
      c.machines.end());
}

}  // namespace

std::unique_ptr<PipelineStage> stage_filter_capable() {
  return stage("filter-capable", [](CandidateSet& c, const SchedulerView&) {
    filter(c, [&](const infra::Machine* m) {
      return c.task->demand.fits_within(m->capacity());
    });
  });
}

std::unique_ptr<PipelineStage> stage_filter_available() {
  return stage("filter-available", [](CandidateSet& c, const SchedulerView&) {
    filter(c, [&](const infra::Machine* m) {
      auto it = c.planned_free->find(m->id());
      return it != c.planned_free->end() &&
             c.task->demand.fits_within(it->second);
    });
  });
}

std::unique_ptr<PipelineStage> stage_score_speed(double weight) {
  return stage("score-speed", [weight](CandidateSet& c, const SchedulerView&) {
    for (const infra::Machine* m : c.machines) {
      c.score[m->id()] += weight * m->speed_factor();
    }
  });
}

std::unique_ptr<PipelineStage> stage_score_pack(double weight) {
  return stage("score-pack", [weight](CandidateSet& c, const SchedulerView&) {
    for (const infra::Machine* m : c.machines) {
      const double used_fraction =
          m->capacity().cpu() == 0.0
              ? 0.0
              : 1.0 - c.planned_free->at(m->id()).cpu() / m->capacity().cpu();
      c.score[m->id()] += weight * used_fraction;
    }
  });
}

std::unique_ptr<PipelineStage> stage_prefer_draining_soon(
    sim::SimTime patience) {
  return stage("prefer-draining-soon",
               [patience](CandidateSet& c, const SchedulerView& view) {
                 filter(c, [&](const infra::Machine* m) {
                   sim::SimTime earliest = sim::kTimeInfinity;
                   bool any = false;
                   for (const RunningView& r : *view.running) {
                     if (r.machine == m->id()) {
                       any = true;
                       earliest = std::min(earliest, r.expected_end);
                     }
                   }
                   // Idle machines always pass; busy ones must free
                   // something within `patience`.
                   return !any || earliest <= view.now + patience;
                 });
               });
}

TaskOrder order_fcfs() {
  return [](const ReadyTask& a, const ReadyTask& b) {
    if (a.job_submit != b.job_submit) return a.job_submit < b.job_submit;
    if (a.job != b.job) return a.job < b.job;
    return a.task_index < b.task_index;
  };
}

TaskOrder order_sjf() {
  return [](const ReadyTask& a, const ReadyTask& b) {
    return a.work_seconds < b.work_seconds;
  };
}

TaskOrder order_rank() {
  return [](const ReadyTask& a, const ReadyTask& b) { return a.rank > b.rank; };
}

std::unique_ptr<AllocationPolicy> make_pipeline_policy(
    std::string name, TaskOrder order,
    std::vector<std::unique_ptr<PipelineStage>> stages) {
  return std::make_unique<PipelinePolicy>(std::move(name), std::move(order),
                                          std::move(stages));
}

std::unique_ptr<AllocationPolicy> pipeline_fcfs_firstfit() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(stage_filter_capable());
  stages.push_back(stage_filter_available());
  return make_pipeline_policy("pipe-fcfs", order_fcfs(), std::move(stages));
}

std::unique_ptr<AllocationPolicy> pipeline_sjf_fastest() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(stage_filter_capable());
  stages.push_back(stage_filter_available());
  stages.push_back(stage_score_speed());
  return make_pipeline_policy("pipe-sjf-fastest", order_sjf(),
                              std::move(stages));
}

std::unique_ptr<AllocationPolicy> pipeline_consolidating() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(stage_filter_capable());
  stages.push_back(stage_filter_available());
  stages.push_back(stage_score_pack(2.0));
  stages.push_back(stage_score_speed(0.5));
  return make_pipeline_policy("pipe-consolidate", order_fcfs(),
                              std::move(stages));
}

}  // namespace mcs::sched
