//===- serve/Protocol.h - eel-serve wire protocol --------------*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eel-serve request/response encoding: a minimal length-prefixed
/// binary protocol usable over any byte stream (the daemon's local socket,
/// or files in --once mode). One stream frame is
///
///   u32 payload_length | payload
///
/// and this header defines the payloads. All scalars are little-endian
/// (ByteBuffer.h). An edit request payload is (version 2)
///
///   u32 magic "ELRq" | u8 version | u8 flags | u64 request_id
///   | u32 threads | string tool_spec | u32 image_length
///   | image bytes (an SXF file)
///
/// and an edit response payload is
///
///   u32 magic "ELRs" | u8 version | u8 status | u64 request_id
///   | string envelope (an eel-report/1 JSON document)
///   | u32 image_length | edited image bytes (empty unless status == Ok)
///
/// request_id correlates one request across everything the daemon emits:
/// spans, log records, the response envelope, and slow-request exemplars.
/// A client may supply its own id; 0 asks the daemon to mint one, and the
/// response always echoes the effective id.
///
/// Version 2 also adds a control-plane frame pair that observes a live
/// daemon without performing an edit. A status (scrape) request is
///
///   u32 magic "ELSt" | u8 version | u8 format | u8 flags
///   | u32 max_exemplars
///
/// where format selects the snapshot rendering (0 = eel-report/1 JSON,
/// 1 = Prometheus text) and flag bit 0 asks for slow-request exemplars
/// (JSON format only). The status response is
///
///   u32 magic "ELSr" | u8 version | u8 status | u8 format
///   | string body
///
/// Decoding treats input as hostile exactly like the SXF loader: every
/// length is checked in subtraction form before any allocation sized from
/// it, enum bytes are range-checked, and each rejection maps to one
/// ErrorCode from the PR 2 taxonomy (BadMagic, BadHeader, Truncated,
/// ImplausibleCount, TrailingBytes). Status frames get the same treatment
/// as edit frames — the control plane is just as exposed as the data
/// plane.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SERVE_PROTOCOL_H
#define EEL_SERVE_PROTOCOL_H

#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace eel {

constexpr uint32_t ServeRequestMagic = 0x71524c45u;  // "ELRq" little-endian
constexpr uint32_t ServeResponseMagic = 0x73524c45u; // "ELRs"
constexpr uint32_t StatusRequestMagic = 0x74534c45u;  // "ELSt"
constexpr uint32_t StatusResponseMagic = 0x72534c45u; // "ELSr"
/// Version 2: request_id on edit frames, plus the ELSt/ELSr status pair.
constexpr uint8_t ServeProtocolVersion = 2;

/// Request flag bits (the `flags` byte). Bit 1 and bits 3-7 are
/// reserved: a request setting any of them is rejected.
enum : uint8_t {
  ServeFlagVerify = 1u << 0,  ///< Run the verifier gate on the write.
  ServeFlagMetrics = 1u << 2, ///< Per-request counters/histograms and a
                              ///< phase tree in the envelope, recorded
                              ///< into the request's own sink (Serve.h).
};

/// One edit request: which tool to run, how, and over what image.
struct ServeRequest {
  std::string ToolSpec;            ///< e.g. "qpt:edges", "tracer", "null".
  uint32_t Threads = 1;            ///< Executable::Options::Threads.
  bool Verify = false;
  bool WantMetrics = false;
  /// Client-chosen correlation id; 0 asks the daemon to mint one. The
  /// effective id is echoed in the response frame and envelope and stamped
  /// on every span and log record the request produces.
  uint64_t RequestId = 0;
  std::vector<uint8_t> ImageBytes; ///< Serialized SXF input image.
};

/// Response status byte.
enum class ServeStatus : uint8_t {
  Ok = 0,       ///< Edit succeeded; the edited image follows the envelope.
  Rejected = 1, ///< Admission control refused the request (retryable).
  Error = 2,    ///< The request was admitted but the pipeline failed.
};

struct ServeResponse {
  ServeStatus Status = ServeStatus::Ok;
  uint64_t RequestId = 0;               ///< Effective correlation id echo.
  std::string EnvelopeJson;             ///< eel-report/1 document.
  std::vector<uint8_t> EditedImage;     ///< Empty unless Status == Ok.
};

/// Snapshot rendering selected by a status request's `format` byte.
enum class StatusFormat : uint8_t {
  Json = 0,       ///< eel-report/1 envelope (tool "eel-serve-status").
  Prometheus = 1, ///< Text exposition format.
};

/// Status request flag bits.
enum : uint8_t {
  StatusFlagExemplars = 1u << 0, ///< Include slow-request exemplars (JSON).
};

/// One control-plane scrape: observe, never edit. Served outside admission
/// control so saturation stays observable.
struct StatusRequest {
  StatusFormat Format = StatusFormat::Json;
  bool WantExemplars = false;
  uint32_t MaxExemplars = 0; ///< Cap on exemplars returned; 0 = all retained.
};

struct StatusResponse {
  ServeStatus Status = ServeStatus::Ok;
  StatusFormat Format = StatusFormat::Json;
  /// JSON: an eel-report/1 document; Prometheus: text exposition. On
  /// Status != Ok this is an eel-report/1 failure envelope either way.
  std::string Body;
};

/// What kind of payload a frame holds, by magic. Unknown magics go to the
/// edit decoder, whose BadMagic taxonomy error covers them.
enum class FrameKind : uint8_t {
  EditRequest,
  StatusRequest,
  Unknown,
};

/// Peeks the leading magic (never fails; short frames are Unknown).
FrameKind classifyFrame(const std::vector<uint8_t> &Payload);

/// Encodes \p Req as one payload (no outer length prefix; transports add
/// their own frame).
std::vector<uint8_t> encodeRequest(const ServeRequest &Req);

/// Decodes a request payload. Hostile-input strict: structured error on
/// any malformed byte, trailing bytes included.
Expected<ServeRequest> decodeRequest(const std::vector<uint8_t> &Payload);

std::vector<uint8_t> encodeResponse(const ServeResponse &Resp);
Expected<ServeResponse> decodeResponse(const std::vector<uint8_t> &Payload);

std::vector<uint8_t> encodeStatusRequest(const StatusRequest &Req);
Expected<StatusRequest>
decodeStatusRequest(const std::vector<uint8_t> &Payload);

std::vector<uint8_t> encodeStatusResponse(const StatusResponse &Resp);
Expected<StatusResponse>
decodeStatusResponse(const std::vector<uint8_t> &Payload);

} // namespace eel

#endif // EEL_SERVE_PROTOCOL_H
