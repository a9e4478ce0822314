#include "src/parallel/thread_pool.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/util/fault.h"

namespace urpsm {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(Job* job) {
  for (;;) {
    const std::int64_t i0 = job->cursor.fetch_add(job->grain);
    if (i0 >= job->end) return;
    MaybeInject(faults_, FaultSite::kPoolTaskDelay);
    const std::int64_t i1 = std::min(job->end, i0 + job->grain);
    for (std::int64_t i = i0; i < i1; ++i) (*job->body)(i);
    if (job->finished.fetch_add(i1 - i0) + (i1 - i0) == job->total) {
      // Last chunk of the loop: wake the submitter. Locking mu_ pairs
      // with the predicate re-check in ParallelFor so the wakeup cannot
      // be lost between its predicate evaluation and its wait.
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock,
                   [&] { return shutdown_ || job_epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    RunChunks(job.get());
  }
}

void ThreadPool::RegisterMetrics(obs::Registry* reg) {
  if (reg == nullptr || !reg->enabled()) return;
  reg->RegisterCallbackGauge(
      "pool.threads", [this] { return static_cast<double>(num_threads()); });
}

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& body,
                             std::int64_t grain) {
  if (end <= begin) return;
  grain = std::max<std::int64_t>(1, grain);
  // Inline when there is nobody to share with or nothing worth sharing:
  // identical semantics, no synchronization.
  if (workers_.empty() || end - begin <= grain) {
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->end = end;
  job->grain = grain;
  job->total = end - begin;
  job->cursor.store(begin);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    ++job_epoch_;
  }
  job_cv_.notify_all();

  RunChunks(job.get());  // the caller is one of the pool's threads

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return job->finished.load() == job->total; });
  // `body` (a reference into the caller's frame) is dead after we return,
  // but stragglers only probe cursor/end — both past the end — before
  // dropping their shared_ptr, so they never touch it.
}

}  // namespace urpsm
