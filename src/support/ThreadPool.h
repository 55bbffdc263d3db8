//===- support/ThreadPool.h - Work-stealing thread pool --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool and the parallelForEach helper the
/// editing pipeline fans out on. EEL's per-routine analyses — CFG
/// construction with delay-slot normalization, liveness, backward slicing
/// of indirect jumps, and routine layout — are independent across routines,
/// so whole-executable throughput scales with cores: the instructions they
/// share come from a decode table frozen before they start, and the one
/// piece of cross-routine mutable state, the metrics sink a traced run
/// records into, keeps one shard per thread.
///
/// Scheduling model: each worker owns a deque; submissions are distributed
/// round-robin; a worker pops its own deque LIFO and steals FIFO from
/// others when empty. A parallelForEach submits one task per helper, and
/// every participant then claims chunks of indices until none are left,
/// so a fan-out costs a few atomic adds per participant rather than one
/// per index. Blocking waits (parallelForEach on the calling thread) help
/// execute pool tasks instead of sleeping, so nested fan-outs cannot
/// deadlock even on a single-core pool.
///
/// Determinism contract: parallelForEach runs the body exactly once per
/// index, and its return synchronizes-with every body invocation. Callers
/// that want results identical at every width write into per-index slots
/// and merge in index order afterwards; the schedule is the only thing
/// that varies between runs.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_THREADPOOL_H
#define EEL_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace eel {

class ThreadPool {
public:
  /// Creates a pool with \p WorkerCount persistent worker threads (0 is
  /// allowed: every task then runs on helping callers).
  explicit ThreadPool(unsigned WorkerCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Process-wide pool, lazily created with hardware_concurrency() - 1
  /// workers. Grows on demand via ensureWorkers().
  static ThreadPool &shared();

  unsigned workerCount() const;

  /// Grows the pool to at least \p N workers (bounded by MaxWorkers).
  /// Lets tests request more threads than the machine has cores, which is
  /// what shakes races out under -fsanitize=thread.
  void ensureWorkers(unsigned N);

  /// Enqueues \p Task on a worker deque (round-robin).
  ///
  /// Overflow contract (the eel-serve fix): when the pending-task count has
  /// reached queueCapacity(), an *external* submitter blocks until workers
  /// drain below capacity — it never runs the task inline on its own stack,
  /// which under a long-lived service would let a request handler re-enter
  /// the pipeline recursively (unbounded stack depth, and a deadlock once
  /// the inlined task itself blocks on pool progress). A submitter that is
  /// currently executing a task *of this pool* is exempt from the bound and
  /// enqueues immediately: blocking it could deadlock the pool against
  /// itself (every worker stuck in submit, nobody draining), so internal
  /// fan-out treats the capacity as a soft bound instead.
  void submit(std::function<void()> Task);

  /// Non-blocking submit: enqueues and returns true, or returns false
  /// without running anything when the queue is saturated (or the pool has
  /// no workers, where the only way to run the task would be inline on the
  /// caller — exactly the re-entrancy hazard this path exists to avoid).
  /// Admission-control callers (eel-serve) turn false into a structured
  /// rejection instead of queueing without bound.
  bool trySubmit(std::function<void()> Task);

  /// Soft bound on submitted-but-unfinished tasks; 0 disables the bound.
  /// Concurrent submitters may overshoot by one task each (the check is
  /// optimistic), which is fine for backpressure purposes.
  void setQueueCapacity(size_t Cap);
  size_t queueCapacity() const;

  /// Tasks submitted but not yet finished (queued or running); counted
  /// before a task becomes visible to any worker, so it never wraps.
  /// Approximate under concurrency; exported as a pool-occupancy gauge by
  /// the eel-serve scrape frame.
  size_t pendingTasks() const {
    return PendingTasks.load(std::memory_order_relaxed);
  }

  /// True when the calling thread is currently executing a task submitted
  /// to THIS pool (worker loop or a helping caller).
  bool inPoolTask() const;

  /// Runs pool tasks on the calling thread until \p Done returns true.
  /// Used by blocking waits so a caller that is itself a pool worker makes
  /// progress instead of deadlocking.
  void helpUntil(const std::function<bool()> &Done);

  static constexpr unsigned MaxWorkers = 64;

  /// Default queueCapacity(): far above what the pipeline's own fan-out
  /// queues, so only service-scale request floods ever hit the bound.
  static constexpr size_t DefaultQueueCapacity = 4096;

private:
  struct Worker {
    std::mutex M;
    std::deque<std::function<void()>> Tasks;
  };

  void workerLoop(size_t Index);
  bool takeTask(size_t SelfIndex, std::function<void()> &Task);
  void enqueue(std::function<void()> Task, unsigned Count);
  void runTask(std::function<void()> &Task);

  mutable std::mutex GrowM; ///< Guards Workers/Threads growth.
  std::vector<std::unique_ptr<Worker>> Workers;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> WorkerCountA{0};
  std::atomic<size_t> QueueCap{DefaultQueueCapacity};
  std::atomic<size_t> NextSubmit{0};
  std::atomic<size_t> PendingTasks{0};
  std::atomic<bool> Stopping{false};
  std::mutex WakeM;
  std::condition_variable WakeCV;
};

/// Chunks each participant of a parallelForEach claims, on average; see
/// EXPERIMENTS.md for the measurement that chose it. A caller that splits
/// its own work into pieces uses it for the piece count.
inline constexpr unsigned ClaimsPerParticipant = 32;

/// Runs Body(0), ..., Body(N-1), fanning out across \p Threads
/// participants (the calling thread included). Threads <= 1 or N <= 1 runs
/// inline in index order, on the calling thread. Participants claim
/// chunks of consecutive indices from one shared counter, about
/// ClaimsPerParticipant per participant over the whole range
/// (self-balancing, one atomic add per chunk), and run each chunk in
/// index order; each index runs exactly once, and all invocations
/// happen-before the return.
void parallelForEach(unsigned Threads, size_t N,
                     const std::function<void(size_t)> &Body);

/// Runs Body(Lo, Hi, Out) over consecutive \p Chunk-long pieces of
/// [0, N), fanned out over \p Threads, and concatenates the pieces'
/// outputs in order: what one serial pass over [0, N) produces, at every
/// width.
template <typename T, typename BodyT>
std::vector<T> collectChunks(unsigned Threads, size_t N, size_t Chunk,
                             BodyT Body) {
  std::vector<std::vector<T>> Parts((N + Chunk - 1) / Chunk);
  parallelForEach(Threads, Parts.size(), [&Parts, &Body, N, Chunk](size_t C) {
    Body(C * Chunk, std::min(N, (C + 1) * Chunk), Parts[C]);
  });
  std::vector<T> Out;
  for (std::vector<T> &Part : Parts)
    Out.insert(Out.end(), Part.begin(), Part.end());
  return Out;
}

} // namespace eel

#endif // EEL_SUPPORT_THREADPOOL_H
