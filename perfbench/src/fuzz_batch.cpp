// fuzz_batch: a batch of --het profile fuzz scenarios (failures, flaps,
// zones, spread limits, scored placement), each run under the invariant
// oracle, seeded as check::run_fuzz seeds them. The batch fans out over
// exactly nproc computing threads: the caller computes too, so the pool
// has nproc - 1 workers.
//
// Why: thousands of small independent cells load the sweep runner and the
// thread pool, the oracle's sweep after every event, and the scoring
// allocator — none of which the single-threaded workloads use.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "checks.hpp"
#include "exp/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace mcs;

constexpr std::size_t kSeeds = 2000;
/// Batch indices replayed singly after every batch.
constexpr std::size_t kReplays = 8;
constexpr bool kHet = true;

/// CPUs this process may run on (what `nproc` prints).
std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

/// Sweep slot of the calling thread, for span lanes (0 = first to ask).
std::uint32_t lane_of_this_thread() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane = next.fetch_add(1);
  return lane;
}

class FuzzBatch final : public Workload {
 public:
  FuzzBatch(std::uint64_t seed, Probe* probe)
      : base_seed_(seed),
        threads_(cpu_count()),
        pool_(std::max<std::size_t>(1, threads_ - 1)) {
    const std::int64_t start = now_ns();
    specs_.reserve(kSeeds);
    for (std::size_t i = 0; i < kSeeds; ++i) {
      specs_.push_back(check::make_spec(check::seed_for_index(seed, i), kHet));
    }
    if (probe != nullptr) {
      probe->set("workload.generate_s", ns_to_s(now_ns() - start));
    }
    for (std::size_t k = 0; k < kReplays; ++k) {
      replays_.push_back((k * kSeeds + seed % kSeeds) / kReplays);
    }
  }

  void prepare(Probe* probe) override {
    probe_ = probe;
    results_.clear();
    if (probe != nullptr) cells_.assign(kSeeds, CellTime{});
  }

  void run() override {
    exp::SweepOptions opt;
    opt.reps = 1;
    opt.base_seed = base_seed_;
    opt.pool = &pool_;
    if (probe_ != nullptr) batch_span_ = probe_->spans.current();
    const std::int64_t start = now_ns();
    if (probe_ == nullptr) {
      results_ = exp::run_sweep<check::SeedRunResult>(
          kSeeds, opt, [this](const exp::SweepPoint& p) {
            return check::run_spec(specs_[p.scenario]);
          });
    } else {
      results_ = exp::run_sweep<check::SeedRunResult>(
          kSeeds, opt, [this](const exp::SweepPoint& p) {
            CellTime& cell = cells_[p.scenario];
            cell.start_ns = now_ns();
            check::SeedRunResult r = check::run_spec(specs_[p.scenario]);
            cell.end_ns = now_ns();
            cell.lane = lane_of_this_thread();
            return r;
          });
    }
    const std::int64_t merge_start = now_ns();
    fold_ = fold_seeds(results_);
    const std::int64_t end = now_ns();
    sweep_ns_ = merge_start - start;
    merge_ns_ = end - merge_start;
  }

  RoundResult finish() override {
    RoundResult res;
    res.attempted = results_.size();
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const check::SeedRunResult& r = results_[i];
      res.jobs_ended += r.jobs_completed + r.jobs_abandoned;
      if (r.seed != specs_[i].seed && res.error.empty()) {
        res.error = "batch index " + std::to_string(i) + " ran the wrong seed";
      }
      if (!r.ok) {
        ++res.failed;
        continue;
      }
      const std::string err = check_seed(r);
      if (!err.empty() && res.error.empty()) res.error = err;
    }
    if (!reference_fold_) {
      // check::run_fuzz on a pool of another size must fold to the same
      // summary: the merge may not depend on which thread ran a cell.
      parallel::ThreadPool other(pool_.thread_count() == 1 ? 2 : 1);
      check::FuzzOptions opt;
      opt.seeds = kSeeds;
      opt.base_seed = base_seed_;
      opt.het = kHet;
      opt.pool = &other;
      reference_fold_ = check::run_fuzz(opt).summary_digest;
    }
    if (fold_ != *reference_fold_ && res.error.empty()) {
      res.error = "batch fold differs from check::run_fuzz's summary digest";
    }
    const std::string replay = check_replays(results_, base_seed_, kHet, replays_);
    if (!replay.empty() && res.error.empty()) res.error = replay;
    res.digest = fold_;

    if (probe_ != nullptr) {
      std::int64_t busy_ns = 0;
      for (const CellTime& c : cells_) {
        busy_ns += c.end_ns - c.start_ns;
        probe_->cell_seconds.push_back(ns_to_s(c.end_ns - c.start_ns));
        probe_->spans.record_under(batch_span_, "fuzz_batch.cell", c.start_ns,
                                   c.end_ns, c.lane + 1);
      }
      std::uint64_t checks = 0, transitions = 0, events = 0;
      for (const check::SeedRunResult& r : results_) {
        checks += r.checks;
        transitions += r.transitions;
        events += r.events;
      }
      probe_->add("sweep.busy_s", ns_to_s(busy_ns));
      probe_->add("sweep.idle_s",
                  ns_to_s(sweep_ns_) * static_cast<double>(threads_) -
                      ns_to_s(busy_ns));
      probe_->add("sweep.merge_s", ns_to_s(merge_ns_));
      probe_->add("check.checks", static_cast<double>(checks));
      probe_->add("check.transitions", static_cast<double>(transitions));
      probe_->add("check.events", static_cast<double>(events));
    }
    results_.clear();
    return res;
  }

 private:
  struct CellTime {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t lane = 0;
  };

  std::uint64_t base_seed_;
  std::size_t threads_;
  parallel::ThreadPool pool_;
  std::vector<check::ScenarioSpec> specs_;
  std::vector<std::size_t> replays_;
  std::vector<check::SeedRunResult> results_;
  std::vector<CellTime> cells_;
  std::uint64_t fold_ = 0;
  std::optional<std::uint64_t> reference_fold_;
  std::int64_t sweep_ns_ = 0;
  std::int64_t merge_ns_ = 0;
  std::int32_t batch_span_ = -1;  ///< span the cells ran under
  Probe* probe_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_batch(std::uint64_t seed, Probe* probe) {
  return std::make_unique<FuzzBatch>(seed, probe);
}

}  // namespace perfbench
