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
/// Exporters: metricsJson() (embedded in run reports) and
/// metricsPrometheus() (text exposition format with cumulative
/// `_bucket{le=...}` series) cover machine ingestion on both sides of the
/// fence.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_METRICS_H
#define EEL_SUPPORT_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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
/// without the registry's quiescence contract (and without touching the
/// per-request MetricsScope lock). All operations are relaxed; a snapshot
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
  void record(const std::string &Name, uint64_t Value);

  /// Merged snapshots of all histograms, sorted by name. Call from
  /// quiescent points only (no concurrent recorders).
  std::vector<HistogramSnapshot> snapshot() const;

  /// Merged snapshot of one histogram; Count == 0 when absent.
  HistogramSnapshot read(const std::string &Name) const;

  /// Zeroes every histogram in every shard. Call from quiescent points
  /// only. Shards themselves are never freed (cached thread-local
  /// pointers must stay valid).
  void resetAll();

private:
  struct Cell {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = std::numeric_limits<uint64_t>::max();
    uint64_t Max = 0;
    uint64_t Buckets[HistogramBuckets] = {};
  };
  struct Shard {
    std::unordered_map<std::string, Cell> Cells;
  };

  Shard &localShard();

  mutable std::mutex M; ///< Guards the shard list, not the cells.
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// Convenience mirror of bumpStat() for histograms.
inline void bumpHistogram(const std::string &Name, uint64_t Value) {
  HistogramRegistry::instance().record(Name, Value);
}

/// Per-request metrics scope for long-lived processes (eel-serve).
///
/// The sharded StatRegistry / HistogramRegistry / TraceCollector
/// accumulate for the life of the process — correct for one-shot tools,
/// but in a daemon the second request's envelope would contain the first
/// request's counters, histogram samples, and trace spans. Constructing a
/// MetricsScope at the start of a request resets all three, so metrics
/// captured inside the scope cover exactly the enclosed work. Nothing is
/// exempt: eel-serve's cumulative counters live in the service itself,
/// not in the registries.
///
/// The scope also owns the trace gate for its lifetime: pass
/// \p EnableTrace true to record spans for this request, and destruction
/// restores the gate to its pre-scope state — fixing the single-shot
/// assumption that whoever enabled tracing never needed to turn it off.
///
/// Quiescence contract: construct and destroy only while no other thread
/// is running instrumented pipeline work (eel-serve holds its metrics
/// lock exclusively around isolated requests).
class MetricsScope {
public:
  explicit MetricsScope(bool EnableTrace = false);
  ~MetricsScope();

  MetricsScope(const MetricsScope &) = delete;
  MetricsScope &operator=(const MetricsScope &) = delete;

private:
  bool TraceWasEnabled;
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
