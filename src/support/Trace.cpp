//===- support/Trace.cpp - Request-scoped span tracing --------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>

using namespace eel;

namespace eel {
namespace trace_detail {
constinit thread_local RequestContext CurrentRequest;
} // namespace trace_detail
} // namespace eel

uint32_t eel::traceThreadId() {
  static std::atomic<uint32_t> NextTid{0};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
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

void TraceSpan::end() {
  Ev.EndNs = TraceCollector::nowNs();
  Sink->recordSpan(std::move(Ev));
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
