// Shared parallelism substrate: a fixed-size thread pool and a
// deterministic parallel_for.
//
// Everything in this repository that goes multi-core routes through this
// layer (graph kernels, the Pregel superstep loop; later: sharded
// schedulers, concurrent autoscaler sweeps). The contract that makes that
// safe for a reproducibility-first codebase:
//
//   DETERMINISM. Work is split into chunks whose boundaries are a pure
//   function of the range size — never of the thread count or of timing.
//   Which thread runs which chunk is scheduling noise; callers that reduce
//   across chunks merge per-chunk partials in chunk-index order. Under
//   those rules a parallel kernel is bit-identical at any thread count,
//   including 1 (see DESIGN.md §4 "Determinism").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/callback.hpp"

namespace mcs::parallel {

/// Fixed-size worker pool. Threads are started once and parked on a
/// condition variable between batches; each run_tasks call fans a batch of
/// indexed tasks over them and blocks until every task finished. The
/// calling thread takes tasks too, so a batch computes on
/// thread_count() + 1 threads: ThreadPool(1) and MCS_THREADS=1 use two.
class ThreadPool {
 public:
  /// Starts `threads` workers (the caller of run_tasks is one more).
  /// `threads == 0` resolves to the MCS_THREADS environment variable if
  /// set, else std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, tasks), distributing indices over the
  /// workers and the calling thread, and blocks until all complete. If any task throws, the
  /// exception from the lowest task index is rethrown in the caller
  /// (deterministic error reporting). Not reentrant: tasks must not call
  /// run_tasks on the same pool. `fn` is borrowed only for the duration of
  /// the call (run_tasks blocks until the batch drains), so a FunctionRef
  /// is safe and keeps the fan-out allocation-free.
  void run_tasks(std::size_t tasks, core::FunctionRef<void(std::size_t)> fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // signalled when a batch starts / stop
  std::condition_variable done_cv_;   // signalled when a batch completes
  core::FunctionRef<void(std::size_t)> batch_fn_;
  std::size_t batch_size_ = 0;
  std::size_t next_task_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t batch_id_ = 0;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  bool stop_ = false;
};

/// Number of chunks parallel_for splits a range into when the caller does
/// not say otherwise. A pure function of the range (never the pool), so
/// chunk boundaries — and therefore any ordered chunk reduction — are
/// identical at every thread count. 64 chunks keeps every pool size up to
/// 64 busy while bounding per-chunk merge state.
[[nodiscard]] constexpr std::size_t default_chunk_count(std::size_t range) {
  constexpr std::size_t kMaxChunks = 64;
  return range < kMaxChunks ? range : kMaxChunks;
}

/// Splits [begin, end) into `chunks` near-equal contiguous chunks (first
/// `range % chunks` chunks get one extra element) and runs
/// body(chunk_begin, chunk_end, chunk_index) for each on the pool.
/// Boundaries depend only on the range and `chunks`; with `chunks == 0`
/// the default_chunk_count(range) split is used.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t chunks = 0) {
  if (end <= begin) return;
  const std::size_t range = end - begin;
  if (chunks == 0) chunks = default_chunk_count(range);
  if (chunks > range) chunks = range;
  const std::size_t base = range / chunks;
  const std::size_t extra = range % chunks;
  auto chunk_bounds = [=](std::size_t c) {
    const std::size_t lo =
        begin + c * base + (c < extra ? c : extra);
    const std::size_t hi = lo + base + (c < extra ? 1 : 0);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };
  if (chunks == 1) {  // avoid pool round-trip for tiny ranges
    body(begin, end, std::size_t{0});
    return;
  }
  pool.run_tasks(chunks, [&](std::size_t c) {
    const auto [lo, hi] = chunk_bounds(c);
    body(lo, hi, c);
  });
}

/// The process-wide pool used by subsystems that do not thread a pool
/// through their API (e.g. the Pregel engine). Sized by MCS_THREADS or
/// hardware concurrency; constructed on first use.
ThreadPool& default_pool();

}  // namespace mcs::parallel
