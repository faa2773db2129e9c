//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent worker pool: a mutex/condvar task queue feeding N workers,
/// with task groups, inline helping for nested waits, and capture-and-
/// rethrow exception propagation. See the header for the scheduling
/// contract; docs/ARCHITECTURE.md S10 for the design rationale.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Error.h"

#include <algorithm>
#include <utility>

using namespace mcnk;

namespace {
/// The pool the current thread is a worker of (null on external threads).
/// Waiting helps execute queued tasks only on that pool's own workers;
/// external waiters block instead, so a width-N pool never computes on
/// more than N threads.
thread_local const ThreadPool *CurrentWorkerPool = nullptr;

/// The tasks currently on this thread's call stack (nested helping stacks
/// them), linked through stack frames. A waiter must exclude its own
/// in-flight tasks from the drain target — counting them would make a
/// task that waits on its pool (or on its own group) wait on itself
/// forever.
struct TaskFrame {
  const TaskGroup *Group;
  const TaskFrame *Parent;
};
thread_local const TaskFrame *TopTaskFrame = nullptr;

std::size_t framesOnStack(const TaskGroup *OnlyGroup) {
  std::size_t N = 0;
  for (const TaskFrame *F = TopTaskFrame; F; F = F->Parent)
    if (!OnlyGroup || F->Group == OnlyGroup)
      ++N;
  return N;
}
} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  // Workers drain the queue before exiting, so tasks enqueued before this
  // point all run; enqueues from this point on are a hard error.
  TaskAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::pushTask(std::function<void()> Fn, TaskGroup *Group) {
  bool NotifyWaiters;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (ShuttingDown)
      fatalError("ThreadPool: task enqueued after shutdown began");
    Tasks.push_back({std::move(Fn), Group});
    ++Outstanding;
    if (Group)
      ++Group->Outstanding;
    NotifyWaiters = SleepingWaiters > 0;
  }
  TaskAvailable.notify_one();
  // Helpers blocked in wait()/waitGroup() sleep on TaskDone; wake them so
  // they can claim newly queued (possibly nested) work.
  if (NotifyWaiters)
    TaskDone.notify_all();
}

void ThreadPool::enqueue(std::function<void()> Task) {
  pushTask(std::move(Task), nullptr);
}

bool ThreadPool::runOneTask(std::unique_lock<std::mutex> &Lock,
                            TaskGroup *OnlyGroup) {
  auto It = Tasks.begin();
  if (OnlyGroup)
    while (It != Tasks.end() && It->Group != OnlyGroup)
      ++It;
  if (It == Tasks.end())
    return false;
  Entry E = std::move(*It);
  Tasks.erase(It);

  Lock.unlock();
  std::exception_ptr Err;
  TaskFrame Frame{E.Group, TopTaskFrame};
  TopTaskFrame = &Frame;
  try {
    E.Fn();
  } catch (...) {
    Err = std::current_exception();
  }
  TopTaskFrame = Frame.Parent;
  Lock.lock();

  --Outstanding;
  if (E.Group) {
    --E.Group->Outstanding;
    if (Err && !E.Group->FirstError)
      E.Group->FirstError = Err;
  } else if (Err && !DetachedError) {
    DetachedError = Err;
  }
  if (SleepingWaiters)
    TaskDone.notify_all();
  return true;
}

void ThreadPool::wait() {
  bool Help = CurrentWorkerPool == this;
  // A worker-side wait() happens *inside* a task; that task (and any it
  // is nested under) stays outstanding until we return, so drain down to
  // the caller's own stack instead of zero.
  std::size_t Self = Help ? framesOnStack(nullptr) : 0;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    // Drain target: everything except the frames on our own call stack —
    // those are trivially blocked until we return, and excluding anything
    // else would let us return while a task that still uses caller state
    // is merely asleep. (Concurrent self-waits by *sibling* tasks on the
    // same target are therefore unsupported; see the header contract.)
    if (Outstanding <= Self)
      break;
    if (Help && runOneTask(Lock, nullptr))
      continue;
    // Everything left runs (or will run) on the workers; sleep until a
    // completion (or a nested push, if we are a helping worker) changes
    // the picture.
    ++SleepingWaiters;
    TaskDone.wait(Lock);
    --SleepingWaiters;
  }
  // A detached task's exception belongs to the pool's *external*
  // observer; a worker-side wait() inside some task must not consume it
  // (rethrowing here would let runOneTask re-capture it and misattribute
  // it to that task's group).
  std::exception_ptr Err = Help ? nullptr : std::exchange(DetachedError, nullptr);
  Lock.unlock();
  if (Err)
    std::rethrow_exception(Err);
}

std::exception_ptr ThreadPool::waitGroup(TaskGroup &Group) {
  // A worker waiting on its own pool must help: its group's queued tasks
  // may have no other thread free to run them (nested parallelism).
  // External threads just block — the N workers do the computing. As in
  // wait(), tasks of this group on the caller's own stack are excluded
  // from the drain target (a group task waiting on its own group drains
  // the rest and returns rather than deadlocking on itself).
  bool Help = CurrentWorkerPool == this;
  std::size_t Self = Help ? framesOnStack(&Group) : 0;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    // Same drain rule as wait(): exclude only this thread's own stack
    // frames (see the comment there).
    if (Group.Outstanding <= Self)
      break;
    if (Help && runOneTask(Lock, &Group))
      continue;
    ++SleepingWaiters;
    TaskDone.wait(Lock);
    --SleepingWaiters;
  }
  return std::exchange(Group.FirstError, nullptr);
}

void ThreadPool::parallelFor(std::size_t N,
                             const std::function<void(std::size_t)> &Body) {
  if (N == 0)
    return;
  if (N == 1) { // Dispatch overhead would dominate a single iteration.
    Body(0);
    return;
  }
  // Blocked-range dispatch: a few chunks per worker balances load without
  // allocating one closure per index.
  std::size_t MaxChunks = std::max<std::size_t>(1, 4 * numThreads());
  std::size_t NumChunks = std::min(N, MaxChunks);
  std::size_t ChunkSize = (N + NumChunks - 1) / NumChunks;

  TaskGroup Group(*this);
  for (std::size_t Begin = 0; Begin < N; Begin += ChunkSize) {
    std::size_t End = std::min(N, Begin + ChunkSize);
    Group.run([&Body, Begin, End] {
      for (std::size_t I = Begin; I < End; ++I)
        Body(I);
    });
  }
  Group.wait();
}

void ThreadPool::workerLoop() {
  CurrentWorkerPool = this;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    TaskAvailable.wait(Lock,
                       [this] { return ShuttingDown || !Tasks.empty(); });
    if (Tasks.empty())
      return; // Shutting down and drained.
    runOneTask(Lock, nullptr);
  }
}

TaskGroup::~TaskGroup() {
  // Tasks still reference this group; wait for them. An error nobody
  // consumed via wait() is dropped (we may be unwinding already).
  (void)Pool.waitGroup(*this);
}

void TaskGroup::run(std::function<void()> Task) {
  Pool.pushTask(std::move(Task), this);
}

void TaskGroup::wait() {
  if (std::exception_ptr Err = Pool.waitGroup(*this))
    std::rethrow_exception(Err);
}
