//===- support/Metrics.cpp - Log-bucketed histogram metrics --------------===//
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

HistogramRegistry &HistogramRegistry::instance() {
  static HistogramRegistry Registry;
  return Registry;
}

HistogramRegistry::Shard &HistogramRegistry::localShard() {
  // StatRegistry::localShard discipline; see that function for rationale.
  thread_local HistogramRegistry *Owner = nullptr;
  thread_local Shard *Local = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> Lock(M);
    Shards.push_back(std::make_unique<Shard>());
    Local = Shards.back().get();
    Owner = this;
  }
  return *Local;
}

void HistogramRegistry::record(std::string_view Name, uint64_t Value) {
  slotFor(localShard().Cells, Name).record(Value);
}

void HistogramRegistry::record(std::string_view Name,
                               const HistogramSnapshot &Samples) {
  slotFor(localShard().Cells, Name).merge(Samples);
}

std::vector<HistogramSnapshot> HistogramRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, HistogramSnapshot> Merged;
  for (const auto &Shard : Shards) {
    for (const auto &[Name, Cell] : Shard->Cells) {
      if (Cell.Count == 0)
        continue;
      HistogramSnapshot &S = Merged[Name];
      S.Name = Name;
      S.merge(Cell);
    }
  }
  std::vector<HistogramSnapshot> Out;
  Out.reserve(Merged.size());
  for (auto &[Name, Snap] : Merged)
    Out.push_back(std::move(Snap));
  return Out;
}

HistogramSnapshot HistogramRegistry::read(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  HistogramSnapshot S;
  S.Name = std::string(Name);
  for (const auto &Shard : Shards) {
    auto It = Shard->Cells.find(Name);
    if (It != Shard->Cells.end())
      S.merge(It->second);
  }
  return S;
}

void HistogramRegistry::resetAll() {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &Shard : Shards)
    for (auto &[Name, C] : Shard->Cells)
      C = HistogramSnapshot{};
}

void eel::bumpHistogram(std::string_view Name, uint64_t Value) {
  if (MetricsSink *Sink = requestSink())
    Sink->recordHistogram(Name, Value);
  else
    HistogramRegistry::instance().record(Name, Value);
}

void eel::bumpHistogram(std::string_view Name,
                        const HistogramSnapshot &Samples) {
  if (MetricsSink *Sink = requestSink())
    Sink->recordHistogram(Name, Samples);
  else
    HistogramRegistry::instance().record(Name, Samples);
}

void MetricsSink::addCounter(std::string_view Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(M);
  slotFor(Counters, Name) += Delta;
}

void MetricsSink::recordHistogram(std::string_view Name, uint64_t Value) {
  std::lock_guard<std::mutex> Lock(M);
  HistogramSnapshot &S = slotFor(Histograms, Name);
  if (S.Name.empty())
    S.Name = std::string(Name);
  S.record(Value);
}

void MetricsSink::recordHistogram(std::string_view Name,
                                  const HistogramSnapshot &Samples) {
  std::lock_guard<std::mutex> Lock(M);
  HistogramSnapshot &S = slotFor(Histograms, Name);
  if (S.Name.empty())
    S.Name = std::string(Name);
  S.merge(Samples);
}

void MetricsSink::recordSpan(TraceEvent Ev) {
  // A dense per-thread id (the sink's own numbering; the collector's ring
  // ids mean nothing here) and a sink-wide push order, which keeps each
  // thread's completion order as the phase tree's tie-breaker.
  static std::atomic<uint32_t> NextTid{0};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(M);
  Ev.Tid = Tid;
  Ev.Seq = PushedSpans;
  if (Spans.size() < SpanCapacity)
    Spans.push_back(std::move(Ev));
  else
    Spans[PushedSpans % SpanCapacity] = std::move(Ev);
  ++PushedSpans;
}

std::vector<std::pair<std::string, uint64_t>> MetricsSink::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return {Counters.begin(), Counters.end()};
}

std::vector<HistogramSnapshot> MetricsSink::histograms() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<HistogramSnapshot> Out;
  for (const auto &[Name, Snap] : Histograms)
    Out.push_back(Snap);
  return Out;
}

std::vector<TraceEvent> MetricsSink::spans() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans;
}

uint64_t MetricsSink::droppedSpans() const {
  std::lock_guard<std::mutex> Lock(M);
  return PushedSpans > SpanCapacity ? PushedSpans - SpanCapacity : 0;
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
