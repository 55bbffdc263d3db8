//===- support/BitOps.h - Bit-field extraction and insertion ---*- C++ -*-===//
//
// Part of the EEL reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-level helpers shared by the instruction encoders/decoders and by the
/// spawn machine-description evaluator. Bit positions follow the convention
/// used in the paper's machine descriptions: bit 0 is the least significant
/// bit and field `lo:hi` covers bits lo through hi inclusive.
///
//===----------------------------------------------------------------------===//

#ifndef EEL_SUPPORT_BITOPS_H
#define EEL_SUPPORT_BITOPS_H

#include <cassert>
#include <cstdint>

namespace eel {

/// The 32-bit word stored little-endian at \p Ptr: image words are
/// little-endian whatever the host's byte order.
inline uint32_t loadLE32(const uint8_t *Ptr) {
  return static_cast<uint32_t>(Ptr[0]) | (static_cast<uint32_t>(Ptr[1]) << 8) |
         (static_cast<uint32_t>(Ptr[2]) << 16) |
         (static_cast<uint32_t>(Ptr[3]) << 24);
}

/// Stores \p W little-endian at \p Ptr.
inline void storeLE32(uint8_t *Ptr, uint32_t W) {
  Ptr[0] = static_cast<uint8_t>(W);
  Ptr[1] = static_cast<uint8_t>(W >> 8);
  Ptr[2] = static_cast<uint8_t>(W >> 16);
  Ptr[3] = static_cast<uint8_t>(W >> 24);
}

/// Extracts bits [Lo, Hi] (inclusive, Lo <= Hi <= 31) of \p Word.
constexpr uint32_t extractBits(uint32_t Word, unsigned Lo, unsigned Hi) {
  assert(Lo <= Hi && Hi < 32 && "malformed bit range");
  uint32_t Width = Hi - Lo + 1;
  uint32_t Mask = Width == 32 ? 0xFFFFFFFFu : ((1u << Width) - 1u);
  return (Word >> Lo) & Mask;
}

/// Returns \p Word with bits [Lo, Hi] replaced by the low bits of \p Value.
constexpr uint32_t insertBits(uint32_t Word, unsigned Lo, unsigned Hi,
                              uint32_t Value) {
  assert(Lo <= Hi && Hi < 32 && "malformed bit range");
  uint32_t Width = Hi - Lo + 1;
  uint32_t Mask = Width == 32 ? 0xFFFFFFFFu : ((1u << Width) - 1u);
  return (Word & ~(Mask << Lo)) | ((Value & Mask) << Lo);
}

/// Sign-extends the low \p Bits bits of \p Value to 32 bits.
constexpr int32_t signExtend(uint32_t Value, unsigned Bits) {
  assert(Bits >= 1 && Bits <= 32 && "malformed width");
  if (Bits == 32)
    return static_cast<int32_t>(Value);
  uint32_t SignBit = 1u << (Bits - 1);
  uint32_t Mask = (1u << Bits) - 1u;
  Value &= Mask;
  return static_cast<int32_t>((Value ^ SignBit) - SignBit);
}

/// Returns true if \p Value fits in a signed field of \p Bits bits.
constexpr bool fitsSigned(int64_t Value, unsigned Bits) {
  assert(Bits >= 1 && Bits < 64 && "malformed width");
  int64_t Min = -(int64_t(1) << (Bits - 1));
  int64_t Max = (int64_t(1) << (Bits - 1)) - 1;
  return Value >= Min && Value <= Max;
}

/// Returns true if \p Value fits in an unsigned field of \p Bits bits.
constexpr bool fitsUnsigned(uint64_t Value, unsigned Bits) {
  assert(Bits >= 1 && Bits <= 64 && "malformed width");
  if (Bits == 64)
    return true;
  return Value < (uint64_t(1) << Bits);
}

} // namespace eel

#endif // EEL_SUPPORT_BITOPS_H
