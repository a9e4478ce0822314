#ifndef URPSM_SRC_PARALLEL_THREAD_POOL_H_
#define URPSM_SRC_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace urpsm {

class FaultInjector;

namespace obs {
class Registry;
}  // namespace obs

/// Fixed-size pool of worker threads driving self-scheduling parallel
/// loops over index ranges.
///
/// The pool exists so GreedyDpPlanner::OnBatch can plan a window's
/// requests (each an independent scan over the frozen, read-only fleet)
/// concurrently without spawning threads per window. Iterations are
/// claimed in `grain`-sized chunks off a shared atomic cursor — dynamic
/// self-scheduling, so a thread that drew cheap requests steals the
/// remaining range from slower ones instead of idling at a static
/// partition boundary.
///
/// `num_threads` counts the *calling* thread: a pool of size N spawns N-1
/// workers and the caller participates in every loop, so ThreadPool(1)
/// runs everything inline with zero synchronization. Loops are submitted
/// one at a time (the planner's driver loop is sequential); `ParallelFor`
/// is not reentrant and must not be called concurrently from two threads.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Registers the pull-model gauge pool.threads on `reg`. The pool must
  /// outlive the registry's last Snapshot (or the gauge must be frozen
  /// first). No-op when reg is null.
  void RegisterMetrics(obs::Registry* reg);

  /// Arms the kPoolTaskDelay fault site: each claimed chunk may start
  /// with a seeded delay (timing-only — chunk assignment already varies
  /// run to run; results never depend on it). Set before the pool is
  /// handed to planners; nullptr (default) costs one branch per chunk.
  void set_faults(FaultInjector* faults) { faults_ = faults; }

  /// Runs body(i) for every i in [begin, end) exactly once and blocks
  /// until all iterations finish. Writes made by `body` happen-before the
  /// return, so the caller may read per-index results without extra
  /// synchronization. `body` must not throw and must not call back into
  /// this pool.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t)>& body,
                   std::int64_t grain = 1);

 private:
  /// One submitted loop. Workers that wake late (after the loop already
  /// drained) only ever read `cursor`/`end` and claim nothing, so the
  /// job's lifetime is managed by shared_ptr rather than a join barrier.
  struct Job {
    const std::function<void(std::int64_t)>* body = nullptr;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t total = 0;                // iterations in the loop
    std::atomic<std::int64_t> cursor{0};   // next unclaimed index
    std::atomic<std::int64_t> finished{0}; // iterations completed
  };

  void WorkerLoop();
  /// Claims and runs chunks of `job` until the cursor passes the end.
  void RunChunks(Job* job);

  int num_threads_;
  FaultInjector* faults_ = nullptr;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable job_cv_;   // workers: a new job was published
  std::condition_variable done_cv_;  // submitter: all iterations finished
  std::uint64_t job_epoch_ = 0;      // bumped per ParallelFor submission
  std::shared_ptr<Job> job_;         // current (or last) job
  bool shutdown_ = false;
};

}  // namespace urpsm

#endif  // URPSM_SRC_PARALLEL_THREAD_POOL_H_
