//===- support/ThreadPool.cpp - Work-stealing thread pool ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Trace.h"

#include <algorithm>
#include <chrono>

using namespace eel;

namespace {
/// Pool whose task the calling thread is currently executing (workerLoop
/// or a helping caller), or null. Lets submit() recognize internal
/// submissions, which must never block on the queue bound: with every
/// worker parked in submit() nobody would be left to drain the queue.
thread_local const ThreadPool *CurrentTaskPool = nullptr;
} // namespace

ThreadPool::ThreadPool(unsigned WorkerCount) {
  // Fixed capacity so growth never reallocates: workers index into these
  // vectors concurrently with ensureWorkers() appending.
  Workers.reserve(MaxWorkers);
  Threads.reserve(MaxWorkers);
  ensureWorkers(WorkerCount);
}

ThreadPool::~ThreadPool() {
  Stopping.store(true, std::memory_order_release);
  WakeCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

ThreadPool &ThreadPool::shared() {
  static ThreadPool Pool([] {
    unsigned HW = std::thread::hardware_concurrency();
    return HW > 1 ? HW - 1 : 0;
  }());
  return Pool;
}

unsigned ThreadPool::workerCount() const {
  return WorkerCountA.load(std::memory_order_acquire);
}

void ThreadPool::ensureWorkers(unsigned N) {
  N = std::min(N, MaxWorkers);
  if (workerCount() >= N)
    return;
  std::lock_guard<std::mutex> Lock(GrowM);
  while (Workers.size() < N) {
    Workers.push_back(std::make_unique<Worker>());
    size_t Index = Workers.size() - 1;
    // Publish the worker before its thread starts stealing.
    WorkerCountA.store(static_cast<unsigned>(Workers.size()),
                       std::memory_order_release);
    Threads.emplace_back([this, Index] { workerLoop(Index); });
  }
}

void ThreadPool::setQueueCapacity(size_t Cap) {
  QueueCap.store(Cap, std::memory_order_relaxed);
  WakeCV.notify_all(); // submitters blocked on the old bound re-check
}

size_t ThreadPool::queueCapacity() const {
  return QueueCap.load(std::memory_order_relaxed);
}

bool ThreadPool::inPoolTask() const { return CurrentTaskPool == this; }

void ThreadPool::enqueue(std::function<void()> Task, unsigned Count) {
  // Count the task before any worker can see it: runTask's decrement
  // would otherwise be able to land first and wrap the count.
  PendingTasks.fetch_add(1, std::memory_order_release);
  size_t Slot = NextSubmit.fetch_add(1, std::memory_order_relaxed) % Count;
  {
    std::lock_guard<std::mutex> Lock(Workers[Slot]->M);
    Workers[Slot]->Tasks.push_back(std::move(Task));
  }
  WakeCV.notify_one();
}

void ThreadPool::submit(std::function<void()> Task) {
  unsigned Count = workerCount();
  if (Count == 0) {
    // No workers: run on a helping caller via the pending queue of worker
    // 0 once one exists — or, with a permanently empty pool, immediately
    // on the submitter. Degenerates gracefully on one-core machines.
    // (Service deployments requiring the no-inline guarantee must create
    // workers; trySubmit() rejects in this configuration.)
    Task();
    return;
  }
  size_t Cap = queueCapacity();
  if (Cap != 0 && !inPoolTask() &&
      PendingTasks.load(std::memory_order_acquire) >= Cap) {
    // Saturated external submitter: bounded block until workers drain.
    // Never run the task inline (see the header's overflow contract), and
    // never block a pool task's own submissions (deadlock).
    std::unique_lock<std::mutex> Lock(WakeM);
    WakeCV.wait(Lock, [this] {
      size_t C = queueCapacity();
      return C == 0 || Stopping.load(std::memory_order_acquire) ||
             PendingTasks.load(std::memory_order_acquire) < C;
    });
  }
  enqueue(std::move(Task), Count);
}

bool ThreadPool::trySubmit(std::function<void()> Task) {
  unsigned Count = workerCount();
  if (Count == 0)
    return false; // inline execution is exactly what this path must avoid
  size_t Cap = queueCapacity();
  if (Cap != 0 && PendingTasks.load(std::memory_order_acquire) >= Cap)
    return false;
  enqueue(std::move(Task), Count);
  return true;
}

bool ThreadPool::takeTask(size_t SelfIndex, std::function<void()> &Task) {
  unsigned Count = workerCount();
  if (Count == 0)
    return false;
  // Own deque first (LIFO: cache-warm, recently pushed work)...
  if (SelfIndex < Count) {
    Worker &Self = *Workers[SelfIndex];
    std::lock_guard<std::mutex> Lock(Self.M);
    if (!Self.Tasks.empty()) {
      Task = std::move(Self.Tasks.back());
      Self.Tasks.pop_back();
      return true;
    }
  }
  // ...then steal FIFO from the others, starting after ourselves so
  // victims are spread out.
  for (unsigned Offset = 1; Offset <= Count; ++Offset) {
    size_t Victim = (SelfIndex + Offset) % Count;
    Worker &W = *Workers[Victim];
    std::lock_guard<std::mutex> Lock(W.M);
    if (!W.Tasks.empty()) {
      Task = std::move(W.Tasks.front());
      W.Tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(std::function<void()> &Task) {
  // No tracing here: a task's completion signal lives inside Task()
  // (parallelForEach helpers decrement ActiveHelpers there), and the
  // caller treats that as the point where its metrics sink may be
  // snapshotted. Any sink write after Task() would race; occupancy spans
  // are recorded inside the batch lambdas instead, where they close
  // before the completion signal.
  const ThreadPool *Prev = CurrentTaskPool;
  CurrentTaskPool = this;
  Task();
  CurrentTaskPool = Prev;
  {
    // Under WakeM: a saturated submitter checks PendingTasks and then
    // blocks without a timeout while holding WakeM, so a decrement and
    // notify landing between the two would be a lost wake-up.
    std::lock_guard<std::mutex> Lock(WakeM);
    PendingTasks.fetch_sub(1, std::memory_order_release);
  }
  WakeCV.notify_all(); // a waiter may be blocked on this completion
}

void ThreadPool::workerLoop(size_t Index) {
  while (!Stopping.load(std::memory_order_acquire)) {
    std::function<void()> Task;
    if (takeTask(Index, Task)) {
      runTask(Task);
      continue;
    }
    std::unique_lock<std::mutex> Lock(WakeM);
    WakeCV.wait_for(Lock, std::chrono::milliseconds(10), [this] {
      return Stopping.load(std::memory_order_acquire) ||
             PendingTasks.load(std::memory_order_acquire) != 0;
    });
  }
}

void ThreadPool::helpUntil(const std::function<bool()> &Done) {
  // Helping callers use an index beyond every worker: they never own a
  // deque, so takeTask always steals.
  const size_t HelperIndex = MaxWorkers;
  while (!Done()) {
    std::function<void()> Task;
    if (takeTask(HelperIndex, Task)) {
      runTask(Task); // untraced for the same reason as workerLoop
      continue;
    }
    std::unique_lock<std::mutex> Lock(WakeM);
    WakeCV.wait_for(Lock, std::chrono::milliseconds(1));
  }
}

void eel::parallelForEach(unsigned Threads, size_t N,
                          const std::function<void(size_t)> &Body) {
  if (Threads <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }

  struct BatchState {
    std::atomic<size_t> NextIndex{0};
    std::atomic<unsigned> ActiveHelpers{0};
  };
  auto State = std::make_shared<BatchState>();

  auto Drain = [State, N, &Body] {
    size_t Index;
    while ((Index = State->NextIndex.fetch_add(
                1, std::memory_order_relaxed)) < N)
      Body(Index);
  };

  ThreadPool &Pool = ThreadPool::shared();
  unsigned Participants =
      static_cast<unsigned>(std::min<size_t>(Threads, N));
  Pool.ensureWorkers(Participants - 1);

  unsigned Helpers = std::min(Participants - 1, Pool.workerCount());
  State->ActiveHelpers.store(Helpers, std::memory_order_release);
  // Helpers inherit the submitter's request context, so spans, log records
  // and (with a metrics sink) counters from pool workers land with the
  // request that fanned out; the scope restores whatever context the
  // worker thread had before this task.
  uint64_t Rid = traceRequestId();
  MetricsSink *Sink = requestSink();
  for (unsigned I = 0; I < Helpers; ++I)
    Pool.submit([State, Drain, I, Rid, Sink] {
      TraceRequestScope RequestScope(Rid, Sink);
      {
        // Occupancy span: must close (and reach the sink) before the
        // ActiveHelpers decrement that the caller treats as quiescence,
        // or the caller's snapshot would race the write. "pool." prefix:
        // presence depends on the schedule, so determinism comparisons
        // exclude it.
        EEL_TRACE_SCOPE("pool.worker", "worker", uint64_t(I + 1));
        Drain();
      }
      State->ActiveHelpers.fetch_sub(1, std::memory_order_acq_rel);
    });

  Drain();
  // All indices are claimed; wait for in-flight helpers, running other
  // pool tasks meanwhile (nested fan-outs make progress this way). The
  // acquire load pairs with each helper's fetch_sub, ordering every
  // Body() write before our return.
  Pool.helpUntil([State] {
    return State->ActiveHelpers.load(std::memory_order_acquire) == 0;
  });
}
