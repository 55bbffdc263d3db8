//===- support/Stats.h - Named statistic counters --------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named counters in the spirit of LLVM's Statistic class.
/// The Table 1 reproduction compares the number of objects the EEL-based
/// profiler allocates against the ad-hoc baseline (the paper reports
/// 317,494 vs 84,655), so allocation-heavy classes bump counters here.
///
/// Sharded for the parallel editing pipeline: each thread accumulates into
/// its own shard, so the hot path (bumpStat from CFG construction, slicing,
/// and layout workers) never takes a lock or bounces a cache line between
/// cores. read() and snapshot() merge the shards; call them only from
/// quiescent points (after parallelForEach returns, which synchronizes
/// with every worker's writes). Because merging sums per-thread deltas,
/// totals are deterministic regardless of thread count or schedule.
///
/// Every counter is a count of work, never a duration: phase time comes
/// only from trace spans (support/Trace.h), so whole snapshots compare
/// equal across thread counts with no exempt names.
///
/// The registry is the process-wide sink, which one-shot tools read. A
/// request of a long-lived process may install its own MetricsSink
/// (support/Metrics.h); bumpStat then records there instead, and the
/// registry never sees that request's work.
///
/// Names are looked up by std::string_view (a transparent hash), so a bump
/// allocates only the first time a shard or sink sees a name.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_STATS_H
#define EEL_SUPPORT_STATS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace eel {

/// Hash for string-keyed maps probed by std::string_view: with
/// std::equal_to<> it makes find() take a view, so a lookup builds no
/// std::string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const noexcept {
    return std::hash<std::string_view>{}(S);
  }
};

/// String-keyed unordered map with allocation-free lookups by view.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringViewHash, std::equal_to<>>;

/// The slot of \p Name in \p Map, created from \p Name only when absent.
template <typename MapT>
typename MapT::mapped_type &slotFor(MapT &Map, std::string_view Name) {
  auto It = Map.find(Name);
  if (It == Map.end())
    It = Map.emplace(std::string(Name), typename MapT::mapped_type{}).first;
  return It->second;
}

/// Process-wide registry of named counters, sharded per thread. Shards are
/// created on a thread's first bump and retained for the life of the
/// process (a worker's contribution survives the worker), so merged totals
/// never lose updates.
class StatRegistry {
public:
  static StatRegistry &instance();

  /// Returns a reference to the calling thread's counter named \p Name,
  /// creating it at zero. The reference is THREAD-LOCAL: it aggregates
  /// only this thread's increments and stays valid for the process's
  /// lifetime, but reading it does not observe other threads' bumps — use
  /// read() for merged totals.
  uint64_t &counter(std::string_view Name);

  /// Merged total of \p Name across all shards; missing counters read as
  /// zero. Call from quiescent points only (no concurrent bumpers).
  uint64_t read(std::string_view Name) const;

  /// Resets every counter in every shard to zero. Call from quiescent
  /// points only.
  void resetAll();

  /// Merged snapshot of all counters, sorted by name so the result is
  /// identical whatever thread count produced it. Call from quiescent
  /// points only.
  std::vector<std::pair<std::string, uint64_t>> snapshot() const;

private:
  struct Shard {
    StringMap<uint64_t> Counters;
  };

  Shard &localShard();

  mutable std::mutex M; ///< Guards the shard list, not the counters.
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Increments the named counter by \p Delta: in the calling request's
/// metrics sink when one is installed, else in this thread's registry
/// shard (lock-free once the shard exists).
void bumpStat(std::string_view Name, uint64_t Delta = 1);

} // namespace eel

#endif // EEL_SUPPORT_STATS_H
