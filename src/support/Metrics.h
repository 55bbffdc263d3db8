//===- support/Metrics.h - Log-bucketed histogram metrics ------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic log-bucketed histograms extending the StatRegistry counter
/// model: block/instruction counts per routine, layout words per routine,
/// scavenge spill rates. Sharded per thread exactly like StatRegistry
/// (lock-free hot path, merge at quiescent points).
///
/// Bucketing is power-of-two: value v lands in bucket std::bit_width(v)
/// (v == 0 in bucket 0), i.e. bucket i >= 1 covers [2^(i-1), 2^i). With 64
/// possible widths plus the zero bucket that is 65 buckets — enough for any
/// uint64_t with no configuration. Because the bucket of a sample depends
/// only on its value, and the pipeline records the same per-routine sample
/// set whatever the schedule, merged bucket counts, sums, and min/max are
/// bit-identical across thread counts. No registry histogram holds a
/// duration: phase time comes from trace spans, and eel-serve keeps its
/// latencies in its own AtomicHistograms.
///
/// A long-lived process keeps requests apart with MetricsSink, a
/// request-owned sink installed through the request scope: bumpStat,
/// bumpHistogram and trace spans of that request land in it, and the
/// process-wide registries never see them.
///
/// Exporters: metricsJson() (embedded in run reports) and
/// metricsPrometheus() (text exposition format with cumulative
/// `_bucket{le=...}` series) cover machine ingestion on both sides of the
/// fence.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_METRICS_H
#define EEL_SUPPORT_METRICS_H

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace eel {

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

/// Merged view of one histogram at a quiescent point.
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
/// no shards, no merge points. The live-scrape complement of
/// HistogramRegistry: eel-serve records request latency and per-phase
/// durations here so an ELSt status frame can snapshot them mid-load
/// without the registry's quiescence contract. All operations are
/// relaxed; a snapshot
/// taken during a record may be off by the in-flight sample, which is
/// fine for operational gauges.
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

/// Process-wide registry of named histograms, sharded per thread with the
/// StatRegistry discipline: shards are created on a thread's first record
/// and retained for the life of the process.
class HistogramRegistry {
public:
  static HistogramRegistry &instance();

  /// Records \p Value into the calling thread's shard of histogram
  /// \p Name (lock-free once the shard exists).
  void record(std::string_view Name, uint64_t Value);
  /// Adds every sample of \p Samples the same way.
  void record(std::string_view Name, const HistogramSnapshot &Samples);

  /// Merged snapshots of all histograms, sorted by name. Call from
  /// quiescent points only (no concurrent recorders).
  std::vector<HistogramSnapshot> snapshot() const;

  /// Merged snapshot of one histogram; Count == 0 when absent.
  HistogramSnapshot read(std::string_view Name) const;

  /// Zeroes every histogram in every shard. Call from quiescent points
  /// only. Shards themselves are never freed (cached thread-local
  /// pointers must stay valid).
  void resetAll();

private:
  struct Shard {
    StringMap<HistogramSnapshot> Cells;
  };

  Shard &localShard();

  mutable std::mutex M; ///< Guards the shard list, not the cells.
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Mirror of bumpStat() for histograms: records into the calling
/// request's metrics sink when one is installed, else this thread's
/// registry shard.
void bumpHistogram(std::string_view Name, uint64_t Value);
/// The same for every sample of \p Samples at once (its Name is ignored):
/// the histogram ends up as if each had been recorded on its own.
void bumpHistogram(std::string_view Name, const HistogramSnapshot &Samples);

/// One request's metrics, for a long-lived process (eel-serve): counters,
/// histograms and trace spans, owned by the request instead of the
/// process. Installed through TraceRequestScope (support/Trace.h) — the
/// thread-local scope that carries the request id, which parallelForEach
/// hands to its helpers — it receives every bumpStat, bumpHistogram and
/// TraceSpan of the request, and traceEnabled() is true while it is
/// installed. Nothing global is reset, and concurrent requests never see
/// each other's work, so no lock serializes them. One mutex guards the
/// sink: only requests that ask for metrics install one. Spans are bounded
/// like a trace ring: past SpanCapacity the oldest are overwritten and
/// counted as dropped.
class MetricsSink {
public:
  static constexpr size_t SpanCapacity = TraceCollector::RingCapacity;

  void addCounter(std::string_view Name, uint64_t Delta);
  void recordHistogram(std::string_view Name, uint64_t Value);
  void recordHistogram(std::string_view Name, const HistogramSnapshot &Samples);
  void recordSpan(TraceEvent Ev);

  /// Counters, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> counters() const;
  /// Histograms, sorted by name.
  std::vector<HistogramSnapshot> histograms() const;
  /// Retained spans, in no particular order (each carries Tid and Seq).
  std::vector<TraceEvent> spans() const;
  /// Spans overwritten because the sink's ring wrapped.
  uint64_t droppedSpans() const;

private:
  mutable std::mutex M;
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, HistogramSnapshot, std::less<>> Histograms;
  std::vector<TraceEvent> Spans; ///< Ring of SpanCapacity, filled lazily.
  uint64_t PushedSpans = 0;
};

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
