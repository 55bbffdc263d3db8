//===- support/Log.cpp - Structured leveled JSONL logging ----------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include "support/Trace.h"

#include <chrono>
#include <cinttypes>
#include <cstring>

using namespace eel;

namespace eel {
namespace log_detail {
std::atomic<uint8_t> Level{static_cast<uint8_t>(LogLevel::Off)};
} // namespace log_detail
} // namespace eel

void eel::logSetLevel(LogLevel L) {
  log_detail::Level.store(static_cast<uint8_t>(L), std::memory_order_relaxed);
}

const char *eel::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Trace:
    return "trace";
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Info:
    return "info";
  case LogLevel::Warn:
    return "warn";
  case LogLevel::Error:
    return "error";
  case LogLevel::Off:
    return "off";
  }
  return "?";
}

bool eel::parseLogLevel(const std::string &Name, LogLevel &Out) {
  for (LogLevel L : {LogLevel::Trace, LogLevel::Debug, LogLevel::Info,
                     LogLevel::Warn, LogLevel::Error, LogLevel::Off})
    if (Name == logLevelName(L)) {
      Out = L;
      return true;
    }
  return false;
}

namespace {

/// Flush the buffer once it holds this much; Warn+ records flush
/// immediately regardless.
constexpr size_t FlushThresholdBytes = 4096;

uint64_t unixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[24];
  int N = snprintf(Buf, sizeof(Buf), "%" PRIu64, V);
  Out.append(Buf, static_cast<size_t>(N));
}

/// Strict RFC-8259 string escaping (mirrors JsonWriter): quotes,
/// backslashes, and control characters only.
void appendJsonString(std::string &Out, const char *S, size_t Len) {
  Out += '"';
  for (size_t I = 0; I < Len; ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
}

void appendRecord(std::string &Out, uint64_t TsMs, uint32_t Tid, LogLevel L,
                  const char *Event, const LogField *Fields,
                  size_t NumFields) {
  Out += "{\"ts_ms\":";
  appendU64(Out, TsMs);
  Out += ",\"level\":\"";
  Out += logLevelName(L);
  Out += "\",\"event\":";
  appendJsonString(Out, Event, strlen(Event));
  Out += ",\"tid\":";
  appendU64(Out, Tid);
  if (uint64_t Rid = traceRequestId()) {
    Out += ",\"request_id\":";
    appendU64(Out, Rid);
  }
  for (size_t I = 0; I < NumFields; ++I) {
    const LogField &F = Fields[I];
    Out += ',';
    appendJsonString(Out, F.Key, strlen(F.Key));
    Out += ':';
    if (F.IsNum)
      appendU64(Out, F.Num);
    else
      appendJsonString(Out, F.Str.data(), F.Str.size());
  }
  Out += "}\n";
}

} // namespace

Logger &Logger::instance() {
  static Logger L;
  return L;
}

bool Logger::setPath(const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "ab");
  if (!F)
    return false;
  std::lock_guard<std::mutex> Lock(SinkM);
  flushLocked();
  if (Sink)
    fclose(Sink);
  Sink = F;
  return true;
}

void Logger::useStderr() {
  std::lock_guard<std::mutex> Lock(SinkM);
  flushLocked();
  if (Sink)
    fclose(Sink);
  Sink = nullptr;
}

void Logger::setRateLimit(uint64_t NewMaxPerSec) {
  MaxPerSec.store(NewMaxPerSec, std::memory_order_relaxed);
}

bool Logger::admit(uint64_t NowMs, uint64_t &DrainedDrops) {
  DrainedDrops = 0;
  uint64_t Limit = MaxPerSec.load(std::memory_order_relaxed);
  if (Limit == 0)
    return true;
  // Window accounting is deterministic single-threaded and only
  // approximate across racing writers (a window roll may briefly
  // over-admit); the limiter bounds volume, it is not a precise meter.
  uint64_t Sec = NowMs / 1000;
  uint64_t Cur = WindowSec.load(std::memory_order_relaxed);
  if (Sec != Cur && WindowSec.compare_exchange_strong(
                        Cur, Sec, std::memory_order_relaxed))
    WindowCount.store(0, std::memory_order_relaxed);
  if (WindowCount.fetch_add(1, std::memory_order_relaxed) >= Limit) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    PendingDrops.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  DrainedDrops = PendingDrops.exchange(0, std::memory_order_relaxed);
  return true;
}

void Logger::write(LogLevel L, const char *Event, const LogField *Fields,
                   size_t NumFields) {
  uint64_t NowMs = unixMillis();
  uint64_t DrainedDrops = 0;
  if (!admit(NowMs, DrainedDrops))
    return;
  std::string Line;
  uint32_t Tid = traceThreadId();
  if (DrainedDrops) {
    LogField Disclose = logNum("dropped", DrainedDrops);
    appendRecord(Line, NowMs, Tid, LogLevel::Warn, "log.rate_limited",
                 &Disclose, 1);
    Emitted.fetch_add(1, std::memory_order_relaxed);
  }
  appendRecord(Line, NowMs, Tid, L, Event, Fields, NumFields);
  Emitted.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(SinkM);
  Buffered += Line;
  if (L >= LogLevel::Warn || Buffered.size() >= FlushThresholdBytes)
    flushLocked();
}

void Logger::flushLocked() {
  if (Buffered.empty())
    return;
  FILE *F = Sink ? Sink : stderr;
  fwrite(Buffered.data(), 1, Buffered.size(), F);
  fflush(F);
  Buffered.clear();
}

void Logger::flushAll() {
  std::lock_guard<std::mutex> Lock(SinkM);
  flushLocked();
}

uint64_t Logger::emittedCount() const {
  return Emitted.load(std::memory_order_relaxed);
}

uint64_t Logger::droppedCount() const {
  return Dropped.load(std::memory_order_relaxed);
}

void Logger::resetCounts() {
  Emitted.store(0, std::memory_order_relaxed);
  Dropped.store(0, std::memory_order_relaxed);
  PendingDrops.store(0, std::memory_order_relaxed);
  WindowSec.store(0, std::memory_order_relaxed);
  WindowCount.store(0, std::memory_order_relaxed);
}
