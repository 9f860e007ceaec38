#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace rtp::exec {
namespace {

// Identifies the pool (and worker slot) owning the current thread, so
// Submit can route to the worker's own deque and skip the queue bound, and
// ParallelFor can help-run chunks instead of blocking a worker.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

}  // namespace

int ThreadPool::DefaultJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : queue_capacity_(std::max<size_t>(queue_capacity, 1)) {
  int n = std::max(num_threads, 1);
  shards_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  RTP_OBS_GAUGE_SET("exec.pool.threads", n);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  space_available_.notify_all();
  for (std::thread& t : workers_) t.join();
  RTP_CHECK(queued_ == 0);  // workers drain every queued task before exiting
}

void ThreadPool::Submit(std::function<void()> task) {
  RTP_CHECK(task != nullptr);
  bool from_worker = tls_pool == this;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!from_worker) {
      space_available_.wait(
          lock, [this] { return queued_ < queue_capacity_ || stopping_; });
    }
    size_t shard = from_worker ? tls_worker_index : next_shard_;
    if (!from_worker) next_shard_ = (next_shard_ + 1) % shards_.size();
    shards_[shard].tasks.push_back(std::move(task));
    ++queued_;
    RTP_OBS_GAUGE_SET("exec.pool.queue_depth", queued_);
  }
  RTP_OBS_COUNT("exec.pool.tasks_submitted");
  work_available_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  RTP_CHECK(task != nullptr);
  bool from_worker = tls_pool == this;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!from_worker && queued_ >= queue_capacity_) {
      RTP_OBS_COUNT("exec.pool.tasks_rejected");
      return false;
    }
    size_t shard = from_worker ? tls_worker_index : next_shard_;
    if (!from_worker) next_shard_ = (next_shard_ + 1) % shards_.size();
    shards_[shard].tasks.push_back(std::move(task));
    ++queued_;
    RTP_OBS_GAUGE_SET("exec.pool.queue_depth", queued_);
  }
  RTP_OBS_COUNT("exec.pool.tasks_submitted");
  work_available_.notify_one();
  return true;
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

uint64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

uint64_t ThreadPool::steals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steals_;
}

bool ThreadPool::TryPop(size_t worker_index, std::function<void()>* task,
                        bool* stolen) {
  // Callers hold mu_.
  Shard& own = shards_[worker_index];
  if (!own.tasks.empty()) {
    *task = std::move(own.tasks.back());  // LIFO on the own deque
    own.tasks.pop_back();
    *stolen = false;
    return true;
  }
  for (size_t k = 1; k < shards_.size(); ++k) {
    Shard& victim = shards_[(worker_index + k) % shards_.size()];
    if (!victim.tasks.empty()) {
      *task = std::move(victim.tasks.front());  // FIFO steal
      victim.tasks.pop_front();
      *stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_available_.wait(lock, [this] { return queued_ > 0 || stopping_; });
    std::function<void()> task;
    bool stolen = false;
    if (!TryPop(worker_index, &task, &stolen)) {
      if (stopping_) break;  // queues drained: graceful exit
      continue;
    }
    --queued_;
    ++running_;
    if (stolen) ++steals_;
    RTP_OBS_GAUGE_SET("exec.pool.queue_depth", queued_);
    lock.unlock();
    space_available_.notify_one();
    if (stolen) RTP_OBS_COUNT("exec.pool.steals");
    RunTask(&task);
    lock.lock();
    --running_;
    ++executed_;
    if (queued_ == 0 && running_ == 0) idle_.notify_all();
  }
}

void ThreadPool::RunTask(std::function<void()>* task) {
  try {
    (*task)();
  } catch (...) {
    // A throwing task must never take a worker down; parallel algorithms
    // that care (ParallelFor) capture exceptions in their own state.
    RTP_OBS_COUNT("exec.pool.task_exceptions");
    RTP_LOG(WARN) << "thread pool task threw; exception swallowed by worker";
  }
  RTP_OBS_COUNT("exec.pool.tasks_executed");
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Serial reference path: index order, exceptions propagate directly.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RTP_OBS_COUNT("exec.pool.parallel_for.calls");

  // Chunked claiming: helper tasks and the calling thread pull chunk
  // indices from a shared cursor, so the caller always makes progress
  // (never blocks waiting for a queued task to be scheduled) and a nested
  // ParallelFor on a worker thread cannot deadlock.
  size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  size_t chunk_size = (n + num_chunks - 1) / num_chunks;

  struct State {
    std::atomic<size_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable done;
    size_t completed = 0;
    size_t num_chunks;
    std::exception_ptr error;
    size_t error_chunk;
    const std::function<void(size_t)>* fn;
    size_t n;
    size_t chunk_size;
  };
  auto state = std::make_shared<State>();
  state->num_chunks = num_chunks;
  state->error_chunk = num_chunks;
  state->fn = &fn;
  state->n = n;
  state->chunk_size = chunk_size;

  auto run_chunks = [](const std::shared_ptr<State>& s) {
    size_t c;
    while ((c = s->next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           s->num_chunks) {
      size_t begin = c * s->chunk_size;
      size_t end = std::min(begin + s->chunk_size, s->n);
      std::exception_ptr error;
      try {
        for (size_t i = begin; i < end; ++i) (*s->fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s->mu);
      if (error != nullptr && c < s->error_chunk) {
        s->error = error;
        s->error_chunk = c;
      }
      if (++s->completed == s->num_chunks) s->done.notify_all();
    }
  };

  size_t helpers = std::min(num_chunks - 1,
                            static_cast<size_t>(pool->num_threads()));
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, run_chunks] { run_chunks(state); });
  }
  run_chunks(state);  // the caller helps until every chunk is claimed

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock,
                     [&] { return state->completed == state->num_chunks; });
    if (state->error != nullptr) std::rethrow_exception(state->error);
  }
}

std::vector<Status> RunBatch(
    size_t n, const BatchOptions& options,
    const std::function<void(size_t, obs::QueryProfile*)>& fn) {
  ThreadPool* pool = options.pool;
  std::optional<ThreadPool> owned_pool;
  if (pool == nullptr && options.jobs > 1) {
    owned_pool.emplace(options.jobs);
    pool = &*owned_pool;
  }
  if (options.profiles != nullptr) {
    options.profiles->assign(n, obs::QueryProfile());
  }
  std::vector<Status> statuses(n);
  ParallelFor(pool, n, [&](size_t i) {
    // Skipping pre-cancelled items lets a cancelled batch drain quickly.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      statuses[i] = CancelledError("cancelled before the item started");
      return;
    }
    // Pool workers do not inherit the caller's thread-local guard; each
    // item gets its own context so one runaway item trips alone.
    guard::OptionalGuardScope scope(options.budget, options.cancel);
    fn(i, options.profiles == nullptr ? nullptr : &(*options.profiles)[i]);
    statuses[i] = guard::CurrentStatus();
  });
  return statuses;
}

}  // namespace rtp::exec
