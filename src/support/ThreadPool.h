//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent worker-pool engine behind the loop solver's parallelism:
/// independent SCC blocks of an absorbing-chain solve, and the primes of a
/// ModularExact solve, run as tasks on one pool (markov::SolverStructure).
/// The pool is created once — per analysis::Verifier
/// (enableSolverPool) or per serve::Service — and reused by every solve.
///
/// The engine is *nestable*: a worker whose task waits — e.g. called
/// parallelFor — helps execute queued tasks inline instead of blocking, so
/// nested parallel sections scale instead of deadlocking or serializing.
/// External (non-worker) waiters simply block while the workers drain, so
/// a width-N pool never computes on more than N threads. Exceptions thrown
/// by tasks are captured and rethrown from the corresponding wait() (first
/// exception wins), never allowed to escape a worker thread and call
/// std::terminate.
///
/// A wait never returns while its target still has an unfinished task
/// other than those on the waiter's own call stack — a task may safely
/// wait on a target that (transitively) includes itself, draining the
/// rest. The scheduler does not detect mutual waits beyond that: two
/// *sibling* tasks that each wait on the same target, or a cycle across
/// different targets, deadlock rather than ever returning early (state
/// owned by a waiter must never be freed while a task still uses it).
/// The supported nesting pattern — each parallel section waits on its
/// own freshly created group, as parallelFor does — cannot form such
/// cycles.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_SUPPORT_THREADPOOL_H
#define MCNK_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcnk {

class TaskGroup;

/// A fixed pool of worker threads executing queued tasks. Destruction
/// drains the queue: every task enqueued before the destructor runs still
/// executes (shutdown-while-busy completes rather than drops work).
class ThreadPool {
public:
  /// Spawns \p NumThreads workers (0 means hardware concurrency, min 1).
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues a detached task. Calling this after shutdown has begun is a
  /// hard error in all build types (fatalError, not an assert).
  void enqueue(std::function<void()> Task);

  /// Blocks until every queued task (grouped or not) has finished (a
  /// worker calling this helps execute queued work inline). When called
  /// from outside the pool, rethrows the first exception captured from a
  /// *detached* task; a worker-side wait() leaves that error for the
  /// external observer. Exceptions from grouped tasks belong to their
  /// TaskGroup::wait().
  void wait();

  /// Runs Body(0..N-1) on the pool and blocks until all complete. Work is
  /// dispatched in blocked ranges (one task per chunk of indices, not one
  /// heap-allocated closure per index). Nests safely: a worker-side
  /// parallelFor helps execute pending chunks inline instead of blocking.
  /// Rethrows the first exception thrown by Body.
  void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Body);

private:
  friend class TaskGroup;

  struct Entry {
    std::function<void()> Fn;
    TaskGroup *Group; // nullptr for detached tasks.
  };

  void pushTask(std::function<void()> Fn, TaskGroup *Group);
  /// Pops and runs one queued task (restricted to \p OnlyGroup when
  /// non-null). Returns false if no eligible task was queued. \p Lock must
  /// be held on entry and is held again on return.
  bool runOneTask(std::unique_lock<std::mutex> &Lock, TaskGroup *OnlyGroup);
  /// Helps until \p Group has no outstanding tasks; returns the group's
  /// first captured exception (cleared), if any.
  std::exception_ptr waitGroup(TaskGroup &Group);
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<Entry> Tasks;
  std::mutex Mutex;
  std::condition_variable TaskAvailable;
  /// Notified on every task completion (and on pushes, so helpers wake to
  /// claim nested work); wait()/waitGroup() re-check their predicates.
  std::condition_variable TaskDone;
  std::size_t Outstanding = 0; // Queued + running, across all groups.
  /// Threads currently asleep on TaskDone; pushes and completions skip
  /// the broadcast when nobody is listening.
  std::size_t SleepingWaiters = 0;
  std::exception_ptr DetachedError;
  bool ShuttingDown = false;
};

/// Tracks a batch of tasks so a caller can wait for exactly that batch.
/// When the waiter is one of the pool's workers, wait() helps execute the
/// group's queued tasks inline, which is what makes nested parallel
/// sections deadlock-free even on a 1-thread pool. The destructor waits
/// for stragglers (discarding any unconsumed error), so a group never
/// outlives tasks that reference it.
class TaskGroup {
public:
  explicit TaskGroup(ThreadPool &P) : Pool(P) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  /// Submits a task belonging to this group.
  void run(std::function<void()> Task);

  /// Blocks until every task run() through this group has finished (a
  /// worker calling this executes queued group tasks inline). Rethrows
  /// the first exception captured from the group's tasks.
  void wait();

private:
  friend class ThreadPool;

  ThreadPool &Pool;
  // State below is guarded by Pool.Mutex.
  std::size_t Outstanding = 0;
  std::exception_ptr FirstError;
};

} // namespace mcnk

#endif // MCNK_SUPPORT_THREADPOOL_H
