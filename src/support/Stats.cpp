//===- support/Stats.cpp - Named statistic counters ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>

using namespace eel;

StatRegistry &StatRegistry::instance() {
  static StatRegistry Registry;
  return Registry;
}

StatRegistry::Shard &StatRegistry::localShard() {
  // One shard per thread, created on first use and owned by the registry
  // so it outlives the thread. The cached pointer makes the common case
  // (bump after the first) lock-free. The owner check keeps a second
  // registry instance (tests) from borrowing another registry's shard.
  thread_local StatRegistry *Owner = nullptr;
  thread_local Shard *Local = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> Lock(M);
    Shards.push_back(std::make_unique<Shard>());
    Local = Shards.back().get();
    Owner = this;
  }
  return *Local;
}

uint64_t &StatRegistry::counter(std::string_view Name) {
  // unordered_map references stay valid across rehashing, so handing the
  // slot out by reference is safe for the thread that owns the shard.
  return slotFor(localShard().Counters, Name);
}

uint64_t StatRegistry::read(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Total = 0;
  for (const auto &Shard : Shards) {
    auto It = Shard->Counters.find(Name);
    if (It != Shard->Counters.end())
      Total += It->second;
  }
  return Total;
}

void StatRegistry::resetAll() {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &Shard : Shards)
    for (auto &Entry : Shard->Counters)
      Entry.second = 0;
}

std::vector<std::pair<std::string, uint64_t>> StatRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, uint64_t> Merged;
  for (const auto &Shard : Shards)
    for (const auto &Entry : Shard->Counters)
      Merged[Entry.first] += Entry.second;
  return {Merged.begin(), Merged.end()};
}

void eel::bumpStat(std::string_view Name, uint64_t Delta) {
  if (MetricsSink *Sink = requestSink())
    Sink->addCounter(Name, Delta);
  else
    StatRegistry::instance().counter(Name) += Delta;
}
