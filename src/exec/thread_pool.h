#ifndef RTP_EXEC_THREAD_POOL_H_
#define RTP_EXEC_THREAD_POOL_H_

// rtp::exec — parallel execution engine for the batch-shaped workloads of
// the pipeline: the independence matrix (one criterion check per
// (fd, update-class) pair), batch FD verification across documents, and
// multi-document pattern evaluation.
//
// Design:
//   * ThreadPool owns N worker threads, each with its own deque of tasks.
//     Submissions are distributed round-robin over the worker deques; a
//     worker pops its own deque LIFO (cache locality) and, when empty,
//     steals the oldest task from a sibling's deque (FIFO steal — the
//     classic work-stealing discipline).
//   * The total number of queued-but-unstarted tasks is bounded
//     (`queue_capacity`); Submit from a non-worker thread blocks until
//     space frees up (backpressure instead of unbounded memory growth).
//     Submit from a worker thread never blocks (it would deadlock the
//     pool) — worker submissions bypass the bound.
//   * Shutdown is graceful: the destructor drains every queued task, then
//     joins the workers. A task that throws never wedges the pool — the
//     exception is counted (`exec.pool.task_exceptions`) and, for tasks
//     run through ParallelFor, captured and rethrown to the caller.
//
// Observability (see docs/PARALLELISM.md for the catalog):
//   counters exec.pool.tasks_submitted / .tasks_executed / .steals /
//            .task_exceptions / .parallel_for.calls
//   gauges   exec.pool.threads, exec.pool.queue_depth
//
// Determinism contract: the pool schedules tasks in an unspecified order.
// Every parallel algorithm built on top of it (matrix, CheckFdBatch,
// EvaluateSelectedBatch, all through RunBatch) writes results into
// per-task slots fixed before submission, so results are bit-identical for
// any job count — including jobs=1, which runs tasks inline on the calling
// thread without touching the pool at all.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "guard/guard.h"
#include "obs/profile.h"

namespace rtp::exec {

class ThreadPool {
 public:
  // A reasonable default for --jobs=0: the hardware concurrency (at least
  // 1; std::thread::hardware_concurrency may report 0).
  static int DefaultJobs();

  // Creates `num_threads` workers (clamped to >= 1). `queue_capacity`
  // bounds the queued-but-unstarted tasks seen by non-worker submitters.
  explicit ThreadPool(int num_threads, size_t queue_capacity = 4096);

  // Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task. Exceptions escaping `task` are caught and counted;
  // they never terminate a worker. Blocks when the queue bound is reached
  // (unless called from one of this pool's workers).
  void Submit(std::function<void()> task);

  // Non-blocking Submit: returns false (and does not enqueue) when the
  // queue bound is reached, instead of waiting for space. This is the
  // admission-control path for serving layers: a full queue means the
  // process is saturated, and the caller sheds the request (e.g. with a
  // RESOURCE_EXHAUSTED response) rather than stacking up blocked
  // connection threads. From one of this pool's workers it behaves like
  // Submit (worker submissions bypass the bound and always succeed).
  bool TrySubmit(std::function<void()> task);

  // Blocks until every task submitted so far has been executed.
  void Drain();

  // Lifetime counters for tests / introspection.
  uint64_t tasks_executed() const;
  uint64_t steals() const;

  // Instantaneous number of queued-but-unstarted tasks. Serving layers use
  // this to derive backoff hints (retry_after_ms) on the shed path.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_;
  }

  size_t queue_capacity() const { return queue_capacity_; }

 private:
  struct Shard {
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t worker_index);
  // Pops a task: own deque back (LIFO), then steal shard front (FIFO).
  bool TryPop(size_t worker_index, std::function<void()>* task,
              bool* stolen);
  void RunTask(std::function<void()>* task);

  mutable std::mutex mu_;
  std::condition_variable work_available_;   // workers sleep here
  std::condition_variable space_available_;  // bounded Submit sleeps here
  std::condition_variable idle_;             // Drain sleeps here
  std::vector<Shard> shards_;
  size_t next_shard_ = 0;    // round-robin submission cursor
  size_t queued_ = 0;        // total queued tasks across shards
  size_t running_ = 0;       // tasks currently executing
  size_t queue_capacity_;
  bool stopping_ = false;
  uint64_t executed_ = 0;
  uint64_t steals_ = 0;
  std::vector<std::thread> workers_;
};

// Runs fn(0), ..., fn(n-1), blocking until all calls finished.
//
//   * pool == nullptr: runs inline on the calling thread, in index order —
//     the serial reference path (used for jobs <= 1).
//   * otherwise: indices are submitted to the pool in contiguous chunks;
//     the calling thread also executes chunks, so ParallelFor never
//     deadlocks even when the pool is busy or called from a worker.
//
// If one or more calls throw, the exception of the lowest-indexed failing
// chunk is rethrown after every call has finished (deterministic error
// selection regardless of schedule).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

// How a batch of independent work items runs: where, under which per-item
// budget, and whether each item is profiled.
struct BatchOptions {
  // <= 1 runs serially on the calling thread, in item order (the reference
  // path). A non-null `pool` is used as-is and `jobs` is ignored.
  int jobs = 1;
  ThreadPool* pool = nullptr;
  // Per item: each item runs under its own GuardContext (deadline measured
  // from the item's start), so one pathological item trips alone while the
  // rest complete. The cancel token is shared: cancelling drains the whole
  // batch quickly. Unlimited with no token installs no guard at all.
  guard::ExecutionBudget budget{};
  guard::CancelToken* cancel = nullptr;
  // When non-null, resized to the item count; slot i receives item i's
  // QueryProfile, captured on the thread that ran it.
  std::vector<obs::QueryProfile>* profiles = nullptr;
};

// Runs fn(i, profile_slot) for i in [0, n) — the one per-item contract of
// every batch API. Item i, in order: if the cancel token has already fired
// it is skipped and gets CANCELLED; otherwise it runs inside
// guard::OptionalGuardScope(budget, cancel), receives its profile slot
// (nullptr without `profiles`), and gets guard::CurrentStatus() as its
// status. `fn` opens the ProfileScope itself, inside that guard, so the
// profile reports the item's budget consumption. Returns the per-item
// statuses, indexed like the items.
std::vector<Status> RunBatch(
    size_t n, const BatchOptions& options,
    const std::function<void(size_t, obs::QueryProfile*)>& fn);

}  // namespace rtp::exec

#endif  // RTP_EXEC_THREAD_POOL_H_
