//===- support/Log.h - Structured leveled JSONL logging --------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured, leveled logging for long-lived processes (eel-serve). Each
/// record is one JSON object on one line (JSONL): a fixed prelude
/// (`ts_ms`, `level`, `event`, `tid`, and `request_id` when a trace request
/// scope is active) followed by caller-supplied typed fields. Lines are
/// machine-parseable with the strict support/Json.h parser, so log streams
/// can be joined against trace exemplars and scrape snapshots by RequestId.
///
/// The design follows the Trace.h gate discipline:
///  - a process-wide atomic level; `EEL_LOG(...)` compiles to a relaxed
///    load + compare when the level is below threshold — no field
///    construction, no formatting, no allocation. bench_overhead asserts
///    the disabled path costs <0.1% of a warm serve request;
///  - each record is formatted into a local string, outside any lock, and
///    appended to the logger's one buffer under the sink lock, so lines
///    reach the sink in the order they were written, whichever thread
///    wrote them. `tid` is the writer's traceThreadId(), the id its spans
///    carry;
///  - a global rate limit (records per second, window-based). Dropped
///    records are counted and disclosed: the first record admitted in a
///    new window is preceded by a synthetic `log.rate_limited` record
///    carrying the number suppressed, so operators see the gap instead of
///    silently losing it.
///
/// Records at Warn or above flush the buffer immediately; lower levels
/// wait until it reaches a threshold or someone calls flushAll()
/// (eel-serve flushes on connection close, scrape, and shutdown).
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_LOG_H
#define EEL_SUPPORT_LOG_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace eel {

enum class LogLevel : uint8_t {
  Trace = 0,
  Debug = 1,
  Info = 2,
  Warn = 3,
  Error = 4,
  Off = 5, ///< Gate value only; records cannot be emitted at Off.
};

/// Canonical lower-case name ("trace".."error", "off").
const char *logLevelName(LogLevel L);

/// Parses a canonical level name. Returns false (and leaves \p Out alone)
/// on anything else.
bool parseLogLevel(const std::string &Name, LogLevel &Out);

namespace log_detail {
extern std::atomic<uint8_t> Level;
} // namespace log_detail

/// True when a record at \p L would be admitted by the level gate. This is
/// the entire disabled-mode cost of EEL_LOG: one relaxed load and a
/// compare.
inline bool logEnabled(LogLevel L) {
  return static_cast<uint8_t>(L) >=
             log_detail::Level.load(std::memory_order_relaxed) &&
         L != LogLevel::Off;
}

/// Sets the process-wide threshold. LogLevel::Off (the default) disables
/// every record.
void logSetLevel(LogLevel L);

/// One typed field in a record. Built by logStr()/logNum(); keys are
/// static literals.
struct LogField {
  const char *Key;
  std::string Str;
  uint64_t Num = 0;
  bool IsNum = false;
};

inline LogField logStr(const char *Key, std::string Val) {
  return LogField{Key, std::move(Val), 0, false};
}
inline LogField logNum(const char *Key, uint64_t Val) {
  return LogField{Key, std::string(), Val, true};
}

/// Process-wide sink: one buffer of formatted records flushed to one FILE*.
class Logger {
public:
  static Logger &instance();

  /// Redirects output to \p Path (append mode). Returns false and keeps
  /// the current sink when the file cannot be opened.
  bool setPath(const std::string &Path);

  /// Restores the default stderr sink (flushes buffered records first).
  void useStderr();

  /// Caps admitted records per one-second window; 0 means unlimited.
  /// Suppressed records are counted and disclosed via a synthetic
  /// `log.rate_limited` record when the window rolls over.
  void setRateLimit(uint64_t MaxPerSec);

  /// Formats and buffers one record. Callers go through EEL_LOG so the
  /// level gate runs first; this re-checks nothing.
  void write(LogLevel L, const char *Event, const LogField *Fields,
             size_t NumFields);

  /// Writes every buffered record to the sink. Safe concurrent with
  /// writers.
  void flushAll();

  /// Records admitted (formatted) since process start or resetCounts().
  uint64_t emittedCount() const;
  /// Records suppressed by the rate limiter.
  uint64_t droppedCount() const;
  /// Test hook: zeroes emitted/dropped counters and the limiter window.
  void resetCounts();

private:
  Logger() = default;

  void flushLocked(); ///< Caller holds SinkM.

  /// Rate limiter: returns false when the record must be dropped. When it
  /// admits the first record of a new window after drops, \p DrainedDrops
  /// receives the suppressed count to disclose.
  bool admit(uint64_t NowMs, uint64_t &DrainedDrops);

  std::mutex SinkM;     ///< Guards Buffered and Sink.
  std::string Buffered; ///< Formatted records not yet written.
  FILE *Sink = nullptr; ///< nullptr means stderr.

  std::atomic<uint64_t> Emitted{0};
  std::atomic<uint64_t> Dropped{0};      ///< Monotonic, for droppedCount().
  std::atomic<uint64_t> PendingDrops{0}; ///< Not yet disclosed in-stream.
  std::atomic<uint64_t> MaxPerSec{0};
  std::atomic<uint64_t> WindowSec{0};
  std::atomic<uint64_t> WindowCount{0};
};

namespace log_detail {
/// Builds the field array on the (already level-gated) slow path and hands
/// it to the logger.
template <typename... F>
inline void emit(LogLevel L, const char *Event, F &&...Fields) {
  if constexpr (sizeof...(F) == 0) {
    Logger::instance().write(L, Event, nullptr, 0);
  } else {
    const LogField Arr[] = {std::forward<F>(Fields)...};
    Logger::instance().write(L, Event, Arr, sizeof...(F));
  }
}
} // namespace log_detail

/// Emits one structured record when \p LVL passes the level gate:
///   EEL_LOG(LogLevel::Info, "serve.ok", logNum("latency_us", L));
/// Field expressions are not evaluated when the gate rejects.
#define EEL_LOG(LVL, ...)                                                      \
  do {                                                                         \
    if (::eel::logEnabled(LVL))                                                \
      ::eel::log_detail::emit(LVL, __VA_ARGS__);                               \
  } while (0)

} // namespace eel

#endif // EEL_SUPPORT_LOG_H
