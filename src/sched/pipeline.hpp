// A multi-stage scheduling pipeline: the paper's envisioned "reference
// architecture for scheduling in datacenters" (§6.1, after Schopf's
// 11-step grid-scheduling abstraction [155]).
//
// Scheduling is decomposed into named, swappable stages; a complete
// scheduler is a pipeline of stages wrapped as an AllocationPolicy. The
// paper's conjecture — "this focus on specific stages ... facilitates new
// and competitive designs, and enables newcomers to understand the common
// structure of schedulers" — is realized by building the classic policies
// out of shared stages (see make_pipeline_policy and bench/exp_scheduling).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/callback.hpp"
#include "sched/allocation.hpp"

namespace mcs::sched {

/// Mutable per-task candidate set flowing through the pipeline: the
/// machines still in play and their accumulated scores.
struct CandidateSet {
  const ReadyTask* task = nullptr;
  std::vector<const infra::Machine*> machines;
  std::map<infra::MachineId, double> score;
  /// Free capacity per machine under this round's planned assignments.
  const std::map<infra::MachineId, infra::ResourceVector>* planned_free = nullptr;
};

/// One stage: filters candidates and/or adjusts scores.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void apply(CandidateSet& c, const SchedulerView& view) = 0;
};

// ---- the stage library (Schopf steps in parentheses) -------------------------

/// (Step 2: resource filtering) Keeps machines whose *total* capacity can
/// ever host the task — static feasibility, incl. accelerators.
[[nodiscard]] std::unique_ptr<PipelineStage> stage_filter_capable();

/// (Step 3: availability) Keeps machines with room under planned free
/// capacity right now.
[[nodiscard]] std::unique_ptr<PipelineStage> stage_filter_available();

/// (Step 4: scoring) Adds speed_factor * weight to each machine's score
/// (heterogeneity-aware selection).
[[nodiscard]] std::unique_ptr<PipelineStage> stage_score_speed(double weight = 1.0);

/// (Step 4) Adds weight * used-core fraction — packs load for
/// consolidation / power.
[[nodiscard]] std::unique_ptr<PipelineStage> stage_score_pack(double weight = 1.0);

/// (Step 5: advance reservation stub) Drops machines whose running tasks
/// all end later than `patience` — prefer machines freeing up soon.
[[nodiscard]] std::unique_ptr<PipelineStage> stage_prefer_draining_soon(
    sim::SimTime patience);

/// Task-ordering function used by the pipeline before placement (Schopf
/// step 1 lives at the queue level). An owning SBO callable (move-only):
/// the stock orderings are captureless and every stored one stays inline.
using TaskOrder = core::UniqueFunction<bool(const ReadyTask&, const ReadyTask&)>;
[[nodiscard]] TaskOrder order_fcfs();
[[nodiscard]] TaskOrder order_sjf();
[[nodiscard]] TaskOrder order_rank();  ///< HEFT upward rank, descending

/// A full scheduler assembled from stages. For each ready task (in `order`)
/// the stages run left to right; the surviving machine with the highest
/// score wins (Schopf steps 6-7: selection and submission).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_pipeline_policy(
    std::string name, TaskOrder order,
    std::vector<std::unique_ptr<PipelineStage>> stages);

/// The stock pipelines used by the benches (each mirrors a classic policy,
/// demonstrating the decomposition claim).
[[nodiscard]] std::unique_ptr<AllocationPolicy> pipeline_fcfs_firstfit();
[[nodiscard]] std::unique_ptr<AllocationPolicy> pipeline_sjf_fastest();
[[nodiscard]] std::unique_ptr<AllocationPolicy> pipeline_consolidating();

}  // namespace mcs::sched
