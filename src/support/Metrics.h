//===- support/Metrics.h - Counters, histograms and their sink --*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics store: named counters in the spirit of LLVM's Statistic
/// class, deterministic log-bucketed histograms (block/instruction counts
/// per routine, layout words per routine, scavenge spill rates), and the
/// MetricsSink that holds them together with a run's trace spans.
///
/// The Table 1 reproduction compares the number of objects the EEL-based
/// profiler allocates against the ad-hoc baseline (the paper reports
/// 317,494 vs 84,655), so allocation-heavy classes bump counters here.
/// Every counter is a count of work, never a duration: phase time comes
/// only from trace spans, so whole snapshots compare equal across thread
/// counts with no exempt names.
///
/// bumpStat, bumpHistogram and TraceSpan record into the calling thread's
/// sink, installed through TraceRequestScope (support/Trace.h) and
/// forwarded by parallelForEach to its helpers; with no sink installed
/// they record nothing, at the cost of one thread-local load and a
/// branch. There is no process-wide store: a one-shot tool scopes its run
/// over a fresh sink and snapshots it, and eel-serve gives a request its
/// own.
///
/// Histogram bucketing is power-of-two: value v lands in bucket
/// std::bit_width(v) (v == 0 in bucket 0), i.e. bucket i >= 1 covers
/// [2^(i-1), 2^i). With 64 possible widths plus the zero bucket that is 65
/// buckets — enough for any uint64_t with no configuration. Because the
/// bucket of a sample depends only on its value, and the pipeline records
/// the same per-routine sample set whatever the schedule, merged bucket
/// counts, sums, and min/max are bit-identical across thread counts. No
/// histogram in a sink holds a duration; eel-serve keeps its latencies in
/// its own AtomicHistograms.
///
/// Exporters: metricsJson() (embedded in run reports) and
/// metricsPrometheus() (text exposition format with cumulative
/// `_bucket{le=...}` series) cover machine ingestion on both sides of the
/// fence.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_METRICS_H
#define EEL_SUPPORT_METRICS_H

#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
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

/// Number of histogram buckets: the zero bucket plus one per possible
/// std::bit_width of a uint64_t sample.
constexpr unsigned HistogramBuckets = 65;

/// Bucket index for sample \p V: 0 for zero, otherwise bit_width(V)
/// (bucket i covers [2^(i-1), 2^i)).
inline unsigned histogramBucket(uint64_t V) {
  return static_cast<unsigned>(std::bit_width(V));
}

/// Inclusive upper bound of bucket \p I (the Prometheus `le` label).
inline uint64_t histogramBucketLe(unsigned I) {
  if (I == 0)
    return 0;
  if (I >= 64)
    return std::numeric_limits<uint64_t>::max();
  return (uint64_t(1) << I) - 1;
}

/// One histogram: its samples' count, sum, extrema and buckets.
struct HistogramSnapshot {
  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = std::numeric_limits<uint64_t>::max();
  uint64_t Max = 0;
  uint64_t Buckets[HistogramBuckets] = {};

  /// Adds one sample.
  void record(uint64_t V) {
    ++Count;
    Sum += V;
    Min = std::min(Min, V);
    Max = std::max(Max, V);
    ++Buckets[histogramBucket(V)];
  }

  /// Adds every sample of \p O (the merge of per-thread shards).
  void merge(const HistogramSnapshot &O) {
    Count += O.Count;
    Sum += O.Sum;
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
    for (unsigned I = 0; I < HistogramBuckets; ++I)
      Buckets[I] += O.Buckets[I];
  }

  /// Upper bound of the bucket holding the q-quantile sample (q in [0,1]).
  /// Coarse by construction — log buckets — but deterministic.
  uint64_t quantileUpperBound(double Q) const;

  /// Estimated q-quantile by deterministic log-bucket interpolation:
  /// locate the bucket holding the rank-q sample, interpolate linearly
  /// across that bucket's [2^(i-1), 2^i - 1] span by the rank's position
  /// within the bucket, then clamp to the observed [Min, Max] so
  /// single-bucket and single-sample histograms report exact values.
  /// Monotone in q; returns 0.0 for an empty histogram.
  double quantile(double Q) const;
};

/// A single histogram safe for fully concurrent recording and reading —
/// no shards, no merge points. The live-scrape complement of a sink's
/// histograms: eel-serve records request latency and per-phase durations
/// here so an ELSt status frame can snapshot them mid-load, where a sink
/// may be snapshotted only after its recording threads finish. All
/// operations are relaxed; a snapshot taken during a record may be off by
/// the in-flight sample, which is fine for operational gauges.
class AtomicHistogram {
public:
  void record(uint64_t Value) {
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Value, std::memory_order_relaxed);
    Buckets[histogramBucket(Value)].fetch_add(1, std::memory_order_relaxed);
    uint64_t Cur = MinV.load(std::memory_order_relaxed);
    while (Value < Cur &&
           !MinV.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
    Cur = MaxV.load(std::memory_order_relaxed);
    while (Value > Cur &&
           !MaxV.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
  }

  HistogramSnapshot snapshot(std::string Name) const {
    HistogramSnapshot S;
    S.Name = std::move(Name);
    S.Count = Count.load(std::memory_order_relaxed);
    S.Sum = Sum.load(std::memory_order_relaxed);
    S.Min = MinV.load(std::memory_order_relaxed);
    S.Max = MaxV.load(std::memory_order_relaxed);
    for (unsigned I = 0; I < HistogramBuckets; ++I)
      S.Buckets[I] = Buckets[I].load(std::memory_order_relaxed);
    return S;
  }

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> MinV{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> MaxV{0};
  std::atomic<uint64_t> Buckets[HistogramBuckets] = {};
};

/// Everything one sink recorded, merged across its recording threads.
struct MetricsSnapshot {
  /// Counters, merged by name and sorted by name.
  std::vector<std::pair<std::string, uint64_t>> Counters;
  /// Histograms holding at least one sample, merged by name and sorted by
  /// name.
  std::vector<HistogramSnapshot> Histograms;
  /// Retained spans, sorted by (Tid, Seq).
  std::vector<TraceEvent> Spans;
  /// Spans overwritten because a thread's share of the sink wrapped.
  uint64_t DroppedSpans = 0;

  /// The total of counter \p Name; 0 when absent.
  uint64_t counter(std::string_view Name) const;
  /// Histogram \p Name; Count == 0 when absent.
  HistogramSnapshot histogram(std::string_view Name) const;
};

/// The one store of counters, histograms and spans. Installed through
/// TraceRequestScope (support/Trace.h), the thread-local scope that
/// carries the request id and that parallelForEach hands to its helpers,
/// it receives every bumpStat, bumpHistogram and TraceSpan of the work
/// under the scope.
/// Concurrent runs with their own sinks never see each other's work.
///
/// Recording takes no lock: each recording thread writes its own shard,
/// created on the thread's first record under the sink's lock and found
/// after that through a thread-local cache keyed by the sink's id. Ids are
/// never reused, so a sink created at a freed sink's address never
/// matches a stale cache entry. snapshot() merges the shards; call it only
/// after the recording threads have finished (parallelForEach's return
/// synchronizes with every helper's writes, and a joined thread's with its
/// joiner). Each shard keeps at most SpanCapacity spans: past that the
/// oldest are overwritten and counted as dropped.
class MetricsSink {
public:
  /// Spans kept per recording thread. A full edit pipeline over the bench
  /// workloads records a few thousand spans per thread, so 32K keeps
  /// everything with headroom.
  static constexpr size_t SpanCapacity = size_t(1) << 15;

  MetricsSink();
  ~MetricsSink();
  MetricsSink(const MetricsSink &) = delete;
  MetricsSink &operator=(const MetricsSink &) = delete;

  void addCounter(std::string_view Name, uint64_t Delta);
  void recordHistogram(std::string_view Name, uint64_t Value);
  void recordHistogram(std::string_view Name, const HistogramSnapshot &Samples);
  void recordSpan(TraceEvent Ev);

  /// Merges every shard. Call only after the recording threads finish.
  MetricsSnapshot snapshot() const;

private:
  struct Shard;
  Shard &localShard();

  const uint64_t Id;    ///< Process-unique; never reused.
  mutable std::mutex M; ///< Guards the shard list, not shard contents.
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Adds \p Delta to the named counter in the calling thread's sink; a
/// no-op with none installed.
inline void bumpStat(std::string_view Name, uint64_t Delta = 1) {
  if (MetricsSink *Sink = requestSink())
    Sink->addCounter(Name, Delta);
}

/// Records \p Value into the named histogram in the calling thread's sink;
/// a no-op with none installed.
inline void bumpHistogram(std::string_view Name, uint64_t Value) {
  if (MetricsSink *Sink = requestSink())
    Sink->recordHistogram(Name, Value);
}
/// The same for every sample of \p Samples at once (its Name is ignored):
/// the histogram ends up as if each had been recorded on its own.
inline void bumpHistogram(std::string_view Name,
                          const HistogramSnapshot &Samples) {
  if (MetricsSink *Sink = requestSink())
    Sink->recordHistogram(Name, Samples);
}

/// Renders \p Snaps as a JSON array of histogram objects (name, count,
/// sum, min, max, and the non-empty buckets as {le, count} pairs).
std::string metricsJson(const std::vector<HistogramSnapshot> &Snaps);

/// Renders counters and histograms in the Prometheus text exposition
/// format. Metric names have non-alphanumeric characters replaced with
/// underscores; histogram buckets become cumulative `_bucket{le="..."}`
/// series with `_sum` and `_count`.
std::string
metricsPrometheus(const std::vector<std::pair<std::string, uint64_t>> &Counters,
                  const std::vector<HistogramSnapshot> &Hists);

} // namespace eel

#endif // EEL_SUPPORT_METRICS_H
