//===- support/Trace.cpp - Span tracing with per-thread rings ------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <algorithm>
#include <chrono>

using namespace eel;

namespace eel {
namespace trace_detail {
std::atomic<bool> Enabled{false};
constinit thread_local RequestContext CurrentRequest;
} // namespace trace_detail
} // namespace eel

void eel::traceSetEnabled(bool On) {
  trace_detail::Enabled.store(On, std::memory_order_relaxed);
}

TraceCollector &TraceCollector::instance() {
  static TraceCollector Collector;
  return Collector;
}

uint64_t TraceCollector::nowNs() {
  // One shared epoch so timestamps from different threads land on the same
  // axis. function-local static: initialized on first call, thread-safe.
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

TraceCollector::Ring &TraceCollector::localRing() {
  // Same discipline as StatRegistry::localShard: one ring per thread,
  // created on first record and owned by the collector so it outlives the
  // thread; the cached pointer makes subsequent records lock-free. The
  // owner check keeps a second collector instance (tests) from borrowing
  // another collector's ring.
  thread_local TraceCollector *Owner = nullptr;
  thread_local Ring *Local = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> Lock(M);
    Rings.push_back(std::make_unique<Ring>(static_cast<uint32_t>(Rings.size())));
    Local = Rings.back().get();
    Owner = this;
  }
  return *Local;
}

void TraceCollector::record(TraceEvent Ev) {
  Ring &R = localRing();
  // The ring lock is uncontended except while a drain() snapshots this
  // ring; it is what lets a live daemon export exemplars mid-load.
  std::lock_guard<std::mutex> Lock(R.RM);
  Ev.Tid = R.Tid;
  Ev.Seq = R.Pushed;
  R.Events[R.Pushed % RingCapacity] = std::move(Ev);
  ++R.Pushed;
}

std::vector<TraceEvent> TraceCollector::drain() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<TraceEvent> Out;
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> RingLock(R->RM);
    uint64_t Kept = std::min<uint64_t>(R->Pushed, RingCapacity);
    Out.reserve(Out.size() + Kept);
    // Oldest retained entry first. When the ring has wrapped, the slot at
    // Pushed % cap is the oldest survivor.
    uint64_t First = R->Pushed - Kept;
    for (uint64_t I = 0; I < Kept; ++I)
      Out.push_back(R->Events[(First + I) % RingCapacity]);
  }
  // Rings are appended in creation order and entries within a ring are
  // already Seq-ordered, but make the contract explicit.
  std::sort(Out.begin(), Out.end(), [](const TraceEvent &A, const TraceEvent &B) {
    return A.Tid != B.Tid ? A.Tid < B.Tid : A.Seq < B.Seq;
  });
  return Out;
}

void TraceCollector::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> RingLock(R->RM);
    for (TraceEvent &Ev : R->Events)
      Ev = TraceEvent{};
    R->Pushed = 0;
  }
}

size_t TraceCollector::bufferCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Rings.size();
}

size_t TraceCollector::recordedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  size_t Total = 0;
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> RingLock(R->RM);
    Total += static_cast<size_t>(std::min<uint64_t>(R->Pushed, RingCapacity));
  }
  return Total;
}

uint64_t TraceCollector::droppedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Dropped = 0;
  for (const auto &R : Rings) {
    std::lock_guard<std::mutex> RingLock(R->RM);
    if (R->Pushed > RingCapacity)
      Dropped += R->Pushed - RingCapacity;
  }
  return Dropped;
}

void TraceSpan::end() {
  Ev.EndNs = TraceCollector::nowNs();
  if (Sink)
    Sink->recordSpan(std::move(Ev));
  else
    TraceCollector::instance().record(std::move(Ev));
}

std::string eel::renderChromeTrace(const std::vector<TraceEvent> &Events) {
  JsonWriter W(/*Indent=*/false);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const TraceEvent &Ev : Events) {
    W.beginObject();
    W.key("name");
    W.value(std::string(Ev.Name ? Ev.Name : "?"));
    W.key("ph");
    W.value("X");
    W.key("pid");
    W.value(1);
    W.key("tid");
    W.value(static_cast<uint64_t>(Ev.Tid));
    // Trace-event timestamps are microseconds; keep nanosecond precision
    // as a fraction so adjacent short spans stay ordered in the viewer.
    W.key("ts");
    W.value(static_cast<double>(Ev.StartNs) / 1000.0);
    W.key("dur");
    W.value(static_cast<double>(Ev.EndNs - Ev.StartNs) / 1000.0);
    if (Ev.Key0 || Ev.Key1 || Ev.RequestId) {
      W.key("args");
      W.beginObject();
      if (Ev.RequestId) {
        W.key("request_id");
        W.value(Ev.RequestId);
      }
      if (Ev.Key0) {
        W.key(Ev.Key0);
        W.value(Ev.Val0);
      }
      if (Ev.Key1) {
        W.key(Ev.Key1);
        W.value(Ev.Val1);
      }
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.key("displayTimeUnit");
  W.value("ms");
  W.endObject();
  return W.take();
}
