//===- support/Metrics.cpp - Counters, histograms and their sink ---------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/Json.h"

#include <algorithm>
#include <map>

using namespace eel;

uint64_t HistogramSnapshot::quantileUpperBound(double Q) const {
  if (Count == 0)
    return 0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // Rank of the target sample, 1-based; ceil so q=1 lands on the last one.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (unsigned I = 0; I < HistogramBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank)
      return histogramBucketLe(I);
  }
  return Max;
}

double HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (Rank == 0)
    Rank = 1;
  uint64_t Seen = 0;
  for (unsigned I = 0; I < HistogramBuckets; ++I) {
    if (!Buckets[I])
      continue;
    if (Seen + Buckets[I] >= Rank) {
      if (I == 0)
        return 0.0; // the zero bucket holds only exact zeros
      double Lo = static_cast<double>(uint64_t(1) << (I - 1));
      double Hi = static_cast<double>(histogramBucketLe(I));
      double Frac = static_cast<double>(Rank - Seen) /
                    static_cast<double>(Buckets[I]);
      double V = Lo + (Hi - Lo) * Frac;
      // The observed extrema are exact; use them to tighten the estimate
      // (and make single-sample histograms report the sample itself).
      V = std::min(V, static_cast<double>(Max));
      V = std::max(V, static_cast<double>(Min));
      return V;
    }
    Seen += Buckets[I];
  }
  return static_cast<double>(Max);
}

uint64_t MetricsSnapshot::counter(std::string_view Name) const {
  auto It = std::lower_bound(
      Counters.begin(), Counters.end(), Name,
      [](const auto &Entry, std::string_view N) { return Entry.first < N; });
  return It != Counters.end() && It->first == Name ? It->second : 0;
}

HistogramSnapshot MetricsSnapshot::histogram(std::string_view Name) const {
  auto It = std::lower_bound(
      Histograms.begin(), Histograms.end(), Name,
      [](const HistogramSnapshot &H, std::string_view N) { return H.Name < N; });
  if (It != Histograms.end() && It->Name == Name)
    return *It;
  HistogramSnapshot Absent;
  Absent.Name = std::string(Name);
  return Absent;
}

/// One recording thread's part of a sink, written only by that thread.
struct MetricsSink::Shard {
  explicit Shard(uint32_t Tid) : Tid(Tid) {}
  uint32_t Tid; ///< traceThreadId() of the owner.
  StringMap<uint64_t> Counters;
  StringMap<HistogramSnapshot> Histograms;
  std::vector<TraceEvent> Spans; ///< Ring of SpanCapacity, filled lazily.
  uint64_t PushedSpans = 0;
};

namespace {
std::atomic<uint64_t> NextSinkId{1};
} // namespace

MetricsSink::MetricsSink()
    : Id(NextSinkId.fetch_add(1, std::memory_order_relaxed)) {}

MetricsSink::~MetricsSink() = default;

MetricsSink::Shard &MetricsSink::localShard() {
  // The last sink this thread recorded into, by id: a hit is two
  // thread-local loads and a compare. A thread switching sinks (a pool
  // worker helping another request) finds its shard again under the lock,
  // so its spans keep one Tid and one push order per sink.
  thread_local uint64_t CachedId = 0;
  thread_local Shard *Cached = nullptr;
  if (CachedId == Id)
    return *Cached;
  uint32_t Tid = traceThreadId();
  std::lock_guard<std::mutex> Lock(M);
  auto It = std::find_if(Shards.begin(), Shards.end(),
                         [Tid](const auto &S) { return S->Tid == Tid; });
  if (It == Shards.end())
    It = Shards.insert(Shards.end(), std::make_unique<Shard>(Tid));
  CachedId = Id;
  Cached = It->get();
  return *Cached;
}

void MetricsSink::addCounter(std::string_view Name, uint64_t Delta) {
  slotFor(localShard().Counters, Name) += Delta;
}

void MetricsSink::recordHistogram(std::string_view Name, uint64_t Value) {
  slotFor(localShard().Histograms, Name).record(Value);
}

void MetricsSink::recordHistogram(std::string_view Name,
                                  const HistogramSnapshot &Samples) {
  slotFor(localShard().Histograms, Name).merge(Samples);
}

void MetricsSink::recordSpan(TraceEvent Ev) {
  Shard &S = localShard();
  Ev.Tid = S.Tid;
  Ev.Seq = S.PushedSpans;
  if (S.Spans.size() < SpanCapacity)
    S.Spans.push_back(std::move(Ev));
  else
    S.Spans[S.PushedSpans % SpanCapacity] = std::move(Ev);
  ++S.PushedSpans;
}

MetricsSnapshot MetricsSink::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, HistogramSnapshot, std::less<>> Histograms;
  MetricsSnapshot Out;
  for (const auto &S : Shards) {
    for (const auto &[Name, Value] : S->Counters)
      Counters[Name] += Value;
    for (const auto &[Name, Cell] : S->Histograms)
      if (Cell.Count)
        Histograms[Name].merge(Cell);
    // Oldest retained span first: once the ring has wrapped, that is the
    // slot the next push would overwrite.
    uint64_t Kept = S->Spans.size();
    for (uint64_t I = 0; I < Kept; ++I)
      Out.Spans.push_back(S->Spans[(S->PushedSpans - Kept + I) % SpanCapacity]);
    Out.DroppedSpans += S->PushedSpans - Kept;
  }
  Out.Counters.assign(Counters.begin(), Counters.end());
  for (auto &[Name, H] : Histograms) {
    H.Name = Name;
    Out.Histograms.push_back(std::move(H));
  }
  std::sort(Out.Spans.begin(), Out.Spans.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.Tid != B.Tid ? A.Tid < B.Tid : A.Seq < B.Seq;
            });
  return Out;
}

std::string eel::metricsJson(const std::vector<HistogramSnapshot> &Snaps) {
  JsonWriter W(/*Indent=*/false);
  W.beginArray();
  for (const HistogramSnapshot &S : Snaps) {
    W.beginObject();
    W.key("name");
    W.value(S.Name);
    W.key("count");
    W.value(S.Count);
    W.key("sum");
    W.value(S.Sum);
    W.key("min");
    W.value(S.Count ? S.Min : 0);
    W.key("max");
    W.value(S.Max);
    W.key("p50_le");
    W.value(S.quantileUpperBound(0.5));
    W.key("p99_le");
    W.value(S.quantileUpperBound(0.99));
    W.key("p50");
    W.value(S.quantile(0.5));
    W.key("p99");
    W.value(S.quantile(0.99));
    W.key("buckets");
    W.beginArray();
    for (unsigned I = 0; I < HistogramBuckets; ++I) {
      if (!S.Buckets[I])
        continue;
      W.beginObject();
      W.key("le");
      W.value(histogramBucketLe(I));
      W.key("count");
      W.value(S.Buckets[I]);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  return W.take();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; EEL names use dots.
std::string promName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (!(C >= 'a' && C <= 'z') && !(C >= 'A' && C <= 'Z') &&
        !(C >= '0' && C <= '9') && C != '_' && C != ':')
      C = '_';
  if (!Out.empty() && Out[0] >= '0' && Out[0] <= '9')
    Out.insert(Out.begin(), '_');
  return Out;
}

} // namespace

std::string eel::metricsPrometheus(
    const std::vector<std::pair<std::string, uint64_t>> &Counters,
    const std::vector<HistogramSnapshot> &Hists) {
  std::string Out;
  for (const auto &[Name, Value] : Counters) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(Value) + "\n";
  }
  for (const HistogramSnapshot &S : Hists) {
    std::string P = promName(S.Name);
    Out += "# TYPE " + P + " histogram\n";
    // Buckets 0..63 have finite upper bounds; bucket 64 (bit_width 64
    // samples) is subsumed by the mandatory +Inf bucket.
    uint64_t Cumulative = 0;
    for (unsigned I = 0; I < 64; ++I) {
      if (!S.Buckets[I])
        continue;
      Cumulative += S.Buckets[I];
      Out += P + "_bucket{le=\"" + std::to_string(histogramBucketLe(I)) +
             "\"} " + std::to_string(Cumulative) + "\n";
    }
    Out += P + "_bucket{le=\"+Inf\"} " + std::to_string(S.Count) + "\n";
    Out += P + "_sum " + std::to_string(S.Sum) + "\n";
    Out += P + "_count " + std::to_string(S.Count) + "\n";
  }
  return Out;
}
