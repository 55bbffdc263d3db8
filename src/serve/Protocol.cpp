//===- serve/Protocol.cpp - eel-serve wire protocol ----------------------===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/ByteBuffer.h"

using namespace eel;

std::vector<uint8_t> eel::encodeRequest(const ServeRequest &Req) {
  ByteWriter W;
  W.writeU32(ServeRequestMagic);
  W.writeU8(ServeProtocolVersion);
  uint8_t Flags = 0;
  if (Req.Verify)
    Flags |= ServeFlagVerify;
  if (Req.WantMetrics)
    Flags |= ServeFlagMetrics;
  W.writeU8(Flags);
  W.writeU64(Req.RequestId);
  W.writeU32(Req.Threads);
  W.writeString(Req.ToolSpec);
  W.writeU32(static_cast<uint32_t>(Req.ImageBytes.size()));
  if (!Req.ImageBytes.empty())
    W.writeBytes(Req.ImageBytes.data(), Req.ImageBytes.size());
  return W.take();
}

Expected<ServeRequest> eel::decodeRequest(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload);
  ServeRequest Req;
  uint32_t Magic = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "request ends inside the header")
        .atOffset(R.pos());
  if (Magic != ServeRequestMagic)
    return Error(ErrorCode::BadMagic, "not an eel-serve request frame")
        .atOffset(0)
        .inField("magic");
  uint8_t Version = R.readU8();
  if (!R.failed() && Version != ServeProtocolVersion)
    return Error(ErrorCode::BadHeader, "unsupported protocol version " +
                                           std::to_string(Version))
        .atOffset(4)
        .inField("version");
  uint8_t Flags = R.readU8();
  if (!R.failed() && (Flags & ~(ServeFlagVerify | ServeFlagMetrics)))
    return Error(ErrorCode::BadHeader, "reserved flag bits set")
        .atOffset(5)
        .inField("flags");
  Req.Verify = (Flags & ServeFlagVerify) != 0;
  Req.WantMetrics = (Flags & ServeFlagMetrics) != 0;
  Req.RequestId = R.readU64();
  Req.Threads = R.readU32();
  Req.ToolSpec = R.readString();
  uint32_t ImageLen = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "request ends inside a field")
        .atOffset(R.pos());
  // Subtraction form: a hostile length must fail the check, not wrap the
  // sum (ByteBuffer.h rule).
  if (ImageLen > R.remaining())
    return Error(ErrorCode::ImplausibleCount,
                 "image length exceeds remaining payload bytes")
        .atOffset(R.pos())
        .inField("image_length");
  Req.ImageBytes.resize(ImageLen);
  R.readBytes(Req.ImageBytes.data(), ImageLen);
  if (R.failed())
    return Error(ErrorCode::Truncated, "request ends inside the image")
        .atOffset(R.pos());
  if (R.remaining() != 0)
    return Error(ErrorCode::TrailingBytes,
                 "well-formed request followed by unconsumed bytes")
        .atOffset(R.pos());
  return Req;
}

std::vector<uint8_t> eel::encodeResponse(const ServeResponse &Resp) {
  ByteWriter W;
  W.writeU32(ServeResponseMagic);
  W.writeU8(ServeProtocolVersion);
  W.writeU8(static_cast<uint8_t>(Resp.Status));
  W.writeU64(Resp.RequestId);
  W.writeString(Resp.EnvelopeJson);
  W.writeU32(static_cast<uint32_t>(Resp.EditedImage.size()));
  if (!Resp.EditedImage.empty())
    W.writeBytes(Resp.EditedImage.data(), Resp.EditedImage.size());
  return W.take();
}

Expected<ServeResponse>
eel::decodeResponse(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload);
  ServeResponse Resp;
  uint32_t Magic = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "response ends inside the header")
        .atOffset(R.pos());
  if (Magic != ServeResponseMagic)
    return Error(ErrorCode::BadMagic, "not an eel-serve response frame")
        .atOffset(0)
        .inField("magic");
  uint8_t Version = R.readU8();
  if (!R.failed() && Version != ServeProtocolVersion)
    return Error(ErrorCode::BadHeader, "unsupported protocol version " +
                                           std::to_string(Version))
        .atOffset(4)
        .inField("version");
  uint8_t Status = R.readU8();
  if (!R.failed() && Status > static_cast<uint8_t>(ServeStatus::Error))
    return Error(ErrorCode::BadHeader, "status byte outside the enum")
        .atOffset(5)
        .inField("status");
  Resp.Status = static_cast<ServeStatus>(Status);
  Resp.RequestId = R.readU64();
  Resp.EnvelopeJson = R.readString();
  uint32_t ImageLen = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "response ends inside a field")
        .atOffset(R.pos());
  if (ImageLen > R.remaining())
    return Error(ErrorCode::ImplausibleCount,
                 "image length exceeds remaining payload bytes")
        .atOffset(R.pos())
        .inField("image_length");
  Resp.EditedImage.resize(ImageLen);
  R.readBytes(Resp.EditedImage.data(), ImageLen);
  if (R.failed())
    return Error(ErrorCode::Truncated, "response ends inside the image")
        .atOffset(R.pos());
  if (R.remaining() != 0)
    return Error(ErrorCode::TrailingBytes,
                 "well-formed response followed by unconsumed bytes")
        .atOffset(R.pos());
  return Resp;
}

FrameKind eel::classifyFrame(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload);
  uint32_t Magic = R.readU32();
  if (R.failed())
    return FrameKind::Unknown;
  if (Magic == ServeRequestMagic)
    return FrameKind::EditRequest;
  if (Magic == StatusRequestMagic)
    return FrameKind::StatusRequest;
  return FrameKind::Unknown;
}

std::vector<uint8_t> eel::encodeStatusRequest(const StatusRequest &Req) {
  ByteWriter W;
  W.writeU32(StatusRequestMagic);
  W.writeU8(ServeProtocolVersion);
  W.writeU8(static_cast<uint8_t>(Req.Format));
  W.writeU8(Req.WantExemplars ? StatusFlagExemplars : 0);
  W.writeU32(Req.MaxExemplars);
  return W.take();
}

Expected<StatusRequest>
eel::decodeStatusRequest(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload);
  StatusRequest Req;
  uint32_t Magic = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "status request ends inside the header")
        .atOffset(R.pos());
  if (Magic != StatusRequestMagic)
    return Error(ErrorCode::BadMagic, "not an eel-serve status frame")
        .atOffset(0)
        .inField("magic");
  uint8_t Version = R.readU8();
  if (!R.failed() && Version != ServeProtocolVersion)
    return Error(ErrorCode::BadHeader, "unsupported protocol version " +
                                           std::to_string(Version))
        .atOffset(4)
        .inField("version");
  uint8_t Format = R.readU8();
  if (!R.failed() && Format > static_cast<uint8_t>(StatusFormat::Prometheus))
    return Error(ErrorCode::BadHeader, "format byte outside the enum")
        .atOffset(5)
        .inField("format");
  Req.Format = static_cast<StatusFormat>(Format);
  uint8_t Flags = R.readU8();
  if (!R.failed() && (Flags & ~StatusFlagExemplars))
    return Error(ErrorCode::BadHeader, "reserved flag bits set")
        .atOffset(6)
        .inField("flags");
  Req.WantExemplars = (Flags & StatusFlagExemplars) != 0;
  Req.MaxExemplars = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "status request ends inside a field")
        .atOffset(R.pos());
  if (R.remaining() != 0)
    return Error(ErrorCode::TrailingBytes,
                 "well-formed status request followed by unconsumed bytes")
        .atOffset(R.pos());
  return Req;
}

std::vector<uint8_t> eel::encodeStatusResponse(const StatusResponse &Resp) {
  ByteWriter W;
  W.writeU32(StatusResponseMagic);
  W.writeU8(ServeProtocolVersion);
  W.writeU8(static_cast<uint8_t>(Resp.Status));
  W.writeU8(static_cast<uint8_t>(Resp.Format));
  W.writeString(Resp.Body);
  return W.take();
}

Expected<StatusResponse>
eel::decodeStatusResponse(const std::vector<uint8_t> &Payload) {
  ByteReader R(Payload);
  StatusResponse Resp;
  uint32_t Magic = R.readU32();
  if (R.failed())
    return Error(ErrorCode::Truncated, "status response ends inside the header")
        .atOffset(R.pos());
  if (Magic != StatusResponseMagic)
    return Error(ErrorCode::BadMagic, "not an eel-serve status response frame")
        .atOffset(0)
        .inField("magic");
  uint8_t Version = R.readU8();
  if (!R.failed() && Version != ServeProtocolVersion)
    return Error(ErrorCode::BadHeader, "unsupported protocol version " +
                                           std::to_string(Version))
        .atOffset(4)
        .inField("version");
  uint8_t Status = R.readU8();
  if (!R.failed() && Status > static_cast<uint8_t>(ServeStatus::Error))
    return Error(ErrorCode::BadHeader, "status byte outside the enum")
        .atOffset(5)
        .inField("status");
  Resp.Status = static_cast<ServeStatus>(Status);
  uint8_t Format = R.readU8();
  if (!R.failed() && Format > static_cast<uint8_t>(StatusFormat::Prometheus))
    return Error(ErrorCode::BadHeader, "format byte outside the enum")
        .atOffset(6)
        .inField("format");
  Resp.Format = static_cast<StatusFormat>(Format);
  Resp.Body = R.readString();
  if (R.failed())
    return Error(ErrorCode::Truncated, "status response ends inside a field")
        .atOffset(R.pos());
  if (R.remaining() != 0)
    return Error(ErrorCode::TrailingBytes,
                 "well-formed status response followed by unconsumed bytes")
        .atOffset(R.pos());
  return Resp;
}
