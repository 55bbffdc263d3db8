//===- perfbench/Spans.cpp - Benchmark-owned layer spans ------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>

using namespace perfbench;

namespace {

/// Per-thread nesting state. The benchmark keeps one SpanLog per process,
/// so the stack needs no per-log key.
struct ThreadState {
  std::vector<uint32_t> Open;
  int64_t Tid = -1;
};
thread_local ThreadState Local;

} // namespace

uint32_t SpanLog::open(const char *Name, uint64_t OpId) {
  SpanRecord R;
  R.Name = Name;
  R.OpId = OpId;
  R.Parent = Local.Open.empty() ? SpanRecord::NoParent : Local.Open.back();
  std::lock_guard<std::mutex> G(M);
  if (Local.Tid < 0)
    Local.Tid = NextTid++;
  R.Tid = static_cast<uint32_t>(Local.Tid);
  uint32_t Index = static_cast<uint32_t>(Records.size());
  Local.Open.push_back(Index);
  Records.push_back(R);
  // Stamp last, so the bookkeeping above stays outside the span.
  Records.back().StartNs = eel::TraceCollector::nowNs();
  return Index;
}

void SpanLog::close(uint32_t Index) {
  uint64_t Now = eel::TraceCollector::nowNs();
  Local.Open.pop_back();
  std::lock_guard<std::mutex> G(M);
  Records[Index].EndNs = Now;
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> G(M);
  return Records;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> G(M);
  return Records.size();
}

std::map<std::string, uint64_t> SpanLog::selfNs(size_t Begin,
                                                size_t End) const {
  std::lock_guard<std::mutex> G(M);
  End = std::min(End, Records.size());
  std::vector<uint64_t> ChildNs(Records.size(), 0);
  for (size_t I = Begin; I < End; ++I) {
    const SpanRecord &R = Records[I];
    if (R.Parent != SpanRecord::NoParent)
      ChildNs[R.Parent] += R.EndNs - R.StartNs;
  }
  std::map<std::string, uint64_t> Self;
  for (size_t I = Begin; I < End; ++I) {
    uint64_t Dur = Records[I].EndNs - Records[I].StartNs;
    Self[Records[I].Name] += Dur - std::min(Dur, ChildNs[I]);
  }
  return Self;
}

std::vector<eel::TraceEvent> SpanLog::traceEvents() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<eel::TraceEvent> Events;
  Events.reserve(Records.size());
  // Seq is per-thread completion order, which the phase-tree builder uses
  // to break ties between zero-length nested spans.
  std::vector<uint32_t> Order(Records.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Records[A].EndNs < Records[B].EndNs;
  });
  std::map<uint32_t, uint64_t> NextSeq;
  for (uint32_t I : Order) {
    const SpanRecord &R = Records[I];
    eel::TraceEvent Ev;
    Ev.Name = R.Name;
    Ev.StartNs = R.StartNs;
    Ev.EndNs = R.EndNs;
    Ev.Tid = R.Tid;
    Ev.Seq = NextSeq[R.Tid]++;
    Ev.RequestId = R.OpId;
    // Ids are 1-based so that parent 0 can mean "top level".
    Ev.Key0 = "span";
    Ev.Val0 = std::to_string(I + 1);
    Ev.Key1 = "parent";
    Ev.Val1 = R.Parent == SpanRecord::NoParent ? 0 : uint64_t(R.Parent) + 1;
    Events.push_back(std::move(Ev));
  }
  return Events;
}
