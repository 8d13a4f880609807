// Differential test of the backfilling policies against full-rescan
// references.
//
// EASY and conservative backfilling compute reservations from a release
// profile built once per decide() (the running set bucketed by machine and
// presorted by expected_end), and conservative memoises the last
// reservation by (demand, zone mask). The references below are the
// straightforward versions: for every blocked task they rescan the whole
// running set per machine and sort that machine's tasks afresh. Both must
// propose identical Assignment vectors on every frozen view.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sched/allocation.hpp"
#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs::sched {
namespace {

bool fcfs_less(const ReadyTask& a, const ReadyTask& b) {
  if (a.job_submit != b.job_submit) return a.job_submit < b.job_submit;
  if (a.job != b.job) return a.job < b.job;
  return a.task_index < b.task_index;
}

std::vector<std::size_t> fcfs_order(const SchedulerView& view) {
  std::vector<std::size_t> order(view.ready->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fcfs_less((*view.ready)[a], (*view.ready)[b]);
                   });
  return order;
}

/// Full rescan: walk every machine, collect its running tasks from the
/// whole running set, sort them by expected_end, release until `t` fits.
std::pair<sim::SimTime, infra::MachineId> reference_reservation_for(
    const ReadyTask& t, const SchedulerView& view) {
  sim::SimTime best_time = sim::kTimeInfinity;
  infra::MachineId best_machine = 0;
  for (const infra::Machine* m : view.machines) {
    if (!t.demand.fits_within(m->capacity())) continue;
    if (!machine_in_zone(t, m->id())) continue;
    std::vector<const RunningView*> on_machine;
    on_machine.reserve(view.running->size());
    for (const RunningView& r : *view.running) {
      if (r.machine == m->id()) on_machine.push_back(&r);
    }
    std::sort(on_machine.begin(), on_machine.end(),
              [](const RunningView* a, const RunningView* b) {
                return a->expected_end < b->expected_end;
              });
    infra::ResourceVector free = m->available();
    sim::SimTime when = view.now;
    bool fits = t.demand.fits_within(free);
    for (const RunningView* r : on_machine) {
      if (fits) break;
      free += r->demand;
      when = r->expected_end;
      fits = t.demand.fits_within(free);
    }
    if (fits && when < best_time) {
      best_time = when;
      best_machine = m->id();
    }
  }
  return {best_time, best_machine};
}

std::vector<Assignment> reference_easy(const SchedulerView& view) {
  if (view.ready->empty()) return {};
  const std::vector<std::size_t> order = fcfs_order(view);
  PlannedCapacity planned(view.machines);
  std::vector<Assignment> out;
  std::size_t head_pos = 0;
  while (head_pos < order.size()) {
    const ReadyTask& t = (*view.ready)[order[head_pos]];
    auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
    if (!m) break;
    planned.take(*m, t.demand);
    out.push_back(Assignment{order[head_pos], *m});
    ++head_pos;
  }
  if (head_pos >= order.size()) return out;
  const ReadyTask& head = (*view.ready)[order[head_pos]];
  const auto [shadow, reserved_machine] =
      reference_reservation_for(head, view);
  for (std::size_t p = head_pos + 1; p < order.size(); ++p) {
    const ReadyTask& t = (*view.ready)[order[p]];
    auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
    if (!m) continue;
    const sim::SimTime est_end =
        view.now + sim::from_seconds(t.work_seconds / planned.speed(*m));
    if (est_end <= shadow || *m != reserved_machine) {
      planned.take(*m, t.demand);
      out.push_back(Assignment{order[p], *m});
    }
  }
  return out;
}

/// How often the conservative reference exercised its reservation paths,
/// so the test can show the views are not trivially easy.
struct ConservativeStats {
  std::size_t reservations = 0;  ///< finite reservations recorded
  std::size_t refused = 0;       ///< fitting tasks held back by one
};

std::vector<Assignment> reference_conservative(const SchedulerView& view,
                                               ConservativeStats& stats) {
  if (view.ready->empty()) return {};
  const std::vector<std::size_t> order = fcfs_order(view);
  PlannedCapacity planned(view.machines);
  std::map<infra::MachineId, sim::SimTime> reservation_at;
  std::vector<Assignment> out;
  for (std::size_t idx : order) {
    const ReadyTask& t = (*view.ready)[idx];
    auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
    if (m) {
      const sim::SimTime est_end =
          view.now + sim::from_seconds(t.work_seconds / planned.speed(*m));
      auto rit = reservation_at.find(*m);
      if (rit == reservation_at.end() || est_end <= rit->second) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{idx, *m});
        continue;
      }
      ++stats.refused;
    }
    const auto [when, machine] = reference_reservation_for(t, view);
    if (when == sim::kTimeInfinity) continue;
    ++stats.reservations;
    auto rit = reservation_at.find(machine);
    if (rit == reservation_at.end() || when < rit->second) {
      reservation_at[machine] = when;
    }
  }
  return out;
}

/// A frozen scheduling round plus the storage its view points into.
struct FrozenRound {
  std::deque<infra::Machine> fleet;  // stable addresses
  std::vector<std::vector<std::uint64_t>> masks;
  std::vector<ReadyTask> ready;
  std::vector<RunningView> running;
  SchedulerView view;
};

infra::ResourceVector draw_demand(sim::Rng& rng) {
  return infra::ResourceVector{
      static_cast<double>(rng.uniform_int(1, 12)),
      static_cast<double>(rng.uniform_int(1, 40)),
      rng.uniform() < 0.15 ? static_cast<double>(rng.uniform_int(1, 2)) : 0.0,
      0.0};
}

/// Seeded random round: a small heterogeneous fleet, some machines left out
/// of view.machines (draining or down) while still carrying running tasks,
/// expected_end drawn from a handful of values (ties), jobs whose tasks
/// share one demand and one zone mask (memo runs), distinct jobs that share
/// a demand but not a mask, and an empty running set for some seeds.
void build_round(std::uint64_t seed, FrozenRound& r) {
  sim::Rng rng(seed);
  const auto machines = static_cast<std::size_t>(rng.uniform_int(3, 14));
  for (std::size_t id = 0; id < machines; ++id) {
    const double cpu = rng.uniform() < 0.5 ? 8.0 : 16.0;
    const double gpu = rng.uniform() < 0.3 ? 2.0 : 0.0;
    r.fleet.emplace_back(static_cast<infra::MachineId>(id),
                         "m" + std::to_string(id),
                         infra::ResourceVector{cpu, 4.0 * cpu, gpu, 10.0},
                         rng.uniform() < 0.5 ? 1.0 : 1.5);
  }
  const sim::SimTime now = sim::from_seconds(1000.0);
  r.view.now = now;

  const bool empty_running = seed % 7 == 0;
  const auto running = empty_running
                           ? std::size_t{0}
                           : static_cast<std::size_t>(rng.uniform_int(1, 48));
  for (std::size_t i = 0; i < running; ++i) {
    const auto id = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(machines) - 1));
    infra::ResourceVector d{static_cast<double>(rng.uniform_int(1, 6)),
                            static_cast<double>(rng.uniform_int(1, 16)),
                            0.0, 0.0};
    if (!r.fleet[id].can_fit(d)) continue;
    r.fleet[id].allocate(d);
    const sim::SimTime end =
        now + sim::from_seconds(10.0 * static_cast<double>(
                                           rng.uniform_int(1, 5)));
    r.running.push_back(
        RunningView{static_cast<infra::MachineId>(id), end, d});
  }

  for (infra::Machine& m : r.fleet) {
    if (rng.uniform() < 0.25) continue;  // draining / down: not offered
    r.view.machines.push_back(&m);
  }
  if (seed % 3 == 0) rng.shuffle(r.view.machines);

  const std::size_t words = (machines + 63) / 64;
  for (int k = 0; k < 3; ++k) {
    std::vector<std::uint64_t> mask(words, 0);
    for (std::size_t id = 0; id < machines; ++id) {
      if (rng.uniform() < 0.5) mask[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
    r.masks.push_back(std::move(mask));
  }

  // Zone choices: unconstrained, one of the masks, or a mask too short
  // to cover every id (ids past it are out of zone).
  auto draw_zone = [&](std::size_t& words) -> const std::uint64_t* {
    const auto k = rng.uniform_int(0, 4);
    if (k >= 3) {
      words = 0;
      return nullptr;
    }
    const auto& mask = r.masks[static_cast<std::size_t>(k)];
    words = rng.uniform() < 0.15 ? 0 : mask.size();
    return mask.data();
  };
  const auto jobs = rng.uniform_int(2, 14);
  infra::ResourceVector demand = draw_demand(rng);
  const std::uint64_t* mask = nullptr;
  std::size_t mask_words = 0;
  for (std::int64_t j = 0; j < jobs; ++j) {
    if (j == 0 || rng.uniform() < 0.6) {
      demand = draw_demand(rng);
      mask = draw_zone(mask_words);
    } else if (mask != nullptr && rng.uniform() < 0.4) {
      // Twin on the same mask but the other length: the key differs only
      // in zone_words.
      mask_words = mask_words == 0 ? words : 0;
    } else {
      // Twin of the previous job: same demand, different zone choice, so
      // FCFS meets equal demands under different keys back to back.
      const std::uint64_t* prev = mask;
      const std::size_t prev_words = mask_words;
      while (mask == prev && mask_words == prev_words) {
        mask = draw_zone(mask_words);
      }
    }
    const auto tasks = static_cast<std::size_t>(rng.uniform_int(1, 6));
    // Pairs of jobs share a submit time (FCFS ties break on job id).
    const sim::SimTime submit =
        sim::from_seconds(static_cast<double>(j / 2));
    for (std::size_t i = 0; i < tasks; ++i) {
      ReadyTask t;
      t.job = static_cast<workload::JobId>(j);
      t.task_index = i;
      t.work_seconds = static_cast<double>(rng.uniform_int(1, 120));
      t.demand = demand;
      t.job_submit = submit;
      t.zone_mask = mask;
      t.zone_words = mask_words;
      r.ready.push_back(t);
    }
  }
  rng.shuffle(r.ready);  // the engine's ready queue is not in FCFS order

  r.view.ready = &r.ready;
  r.view.running = &r.running;
}

void expect_same(const std::vector<Assignment>& want,
                 const std::vector<Assignment>& got, const char* policy,
                 std::uint64_t seed) {
  ASSERT_EQ(want.size(), got.size()) << policy << " seed " << seed;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].ready_index, got[i].ready_index)
        << policy << " seed " << seed << " position " << i;
    EXPECT_EQ(want[i].machine, got[i].machine)
        << policy << " seed " << seed << " position " << i;
  }
}

TEST(BackfillDiffTest, ReleaseProfileMatchesFullRescan) {
  auto easy = make_easy_backfilling();
  auto conservative = make_conservative_backfilling();
  ConservativeStats stats;
  std::size_t blocked_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    FrozenRound r;
    build_round(seed, r);
    const std::vector<Assignment> easy_want = reference_easy(r.view);
    expect_same(easy_want, easy->decide(r.view), "easy-backfill", seed);
    const std::vector<Assignment> cons_want =
        reference_conservative(r.view, stats);
    expect_same(cons_want, conservative->decide(r.view),
                "conservative-backfill", seed);
    if (cons_want.size() < r.ready.size()) ++blocked_rounds;
  }
  // The views must reach the reservation paths, not just start everything.
  EXPECT_GT(blocked_rounds, 128u);
  EXPECT_GT(stats.reservations, 400u);
  EXPECT_GT(stats.refused, 20u);
}

TEST(BackfillDiffTest, EmptyRunningSetAndEmptyQueue) {
  FrozenRound r;
  build_round(7, r);  // seed % 7 == 0: no running tasks
  ASSERT_TRUE(r.running.empty());
  ConservativeStats stats;
  expect_same(reference_easy(r.view),
              make_easy_backfilling()->decide(r.view), "easy-backfill", 7);
  expect_same(reference_conservative(r.view, stats),
              make_conservative_backfilling()->decide(r.view),
              "conservative-backfill", 7);
  r.ready.clear();
  EXPECT_TRUE(make_easy_backfilling()->decide(r.view).empty());
  EXPECT_TRUE(make_conservative_backfilling()->decide(r.view).empty());
}

}  // namespace
}  // namespace mcs::sched
