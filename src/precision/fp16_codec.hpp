// Bulk FP16 <-> FP32 codec with runtime ISA dispatch, plus exact scalar
// bit decoders for the 16-bit formats.
//
// Every FP16 tile write-back and decode goes through here.  On x86 hosts
// whose CPU reports F16C, encode is `vcvtps2ph` with round-to-nearest-even
// and decode is `vcvtph2ps` (src/precision/fp16_codec_f16c.cpp, compiled
// with its own ISA flags).  Everywhere else the scalar codec runs:
// encode through `quantize_bits(kFp16Format, x)`, decode through the exact
// bit decoder below.
//
// Bitwise contract: both variants produce identical bits for every one of
// the 2^32 FP32 inputs and all 2^16 FP16 codes (exhaustive tests, `slow`
// and `unit` ctest labels).  NaNs are canonical on both sides:
//  * encode: every NaN input, whatever its sign or payload, becomes 0x7FFF;
//  * decode: every NaN code becomes the FP32 quiet NaN 0x7FC00000.
// Subnormals, signed zeros, overflow to +/-inf and ties-to-even are the
// plain IEEE conversions on both paths (no FTZ/DAZ is ever set).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace kgwas {

/// One bulk FP16 codec variant.  `dst` and `src` may be unaligned.
struct Fp16Codec {
  const char* name;  ///< "f16c" or "scalar"
  void (*encode)(const float* src, std::uint16_t* dst, std::size_t n);
  void (*decode)(const std::uint16_t* src, float* dst, std::size_t n);
};

/// The codec chosen for this host: F16C when it is compiled in and the
/// CPU reports it, the scalar codec otherwise.  Resolved once per process.
const Fp16Codec& fp16_codec();

/// The scalar codec: the fallback, and the oracle the tests compare with.
const Fp16Codec& fp16_scalar_codec();

/// The FP32 quiet NaN every NaN code decodes to.
inline constexpr std::uint32_t kCanonicalF32NanBits = 0x7FC00000u;

/// Exact FP16 code -> FP32 (the value decode_bits(kFp16Format, h) has).
inline float fp16_bits_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exponent = (h >> 10) & 0x1Fu;
  const std::uint32_t mantissa = h & 0x3FFu;
  if (exponent == 0x1Fu) {
    return std::bit_cast<float>(mantissa != 0 ? kCanonicalF32NanBits
                                              : sign | 0x7F800000u);
  }
  if (exponent == 0) {
    // Zero or subnormal: mantissa * 2^-24, exact in FP32.
    const float magnitude = static_cast<float>(mantissa) * 0x1p-24f;
    return sign != 0 ? -magnitude : magnitude;
  }
  // Normal: rebias 15 -> 127 and widen the fraction by 13 bits.
  return std::bit_cast<float>(sign | ((exponent + 112u) << 23) |
                              (mantissa << 13));
}

/// Exact BF16 code -> FP32: the upper half of the FP32 pattern, with
/// every NaN code canonicalized like the FP16 decode.
inline float bf16_bits_to_float(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  return std::bit_cast<float>((bits & 0x7FFFFFFFu) > 0x7F800000u
                                  ? kCanonicalF32NanBits
                                  : bits);
}

/// Bulk BF16 decode (bf16_bits_to_float over a contiguous run).
void decode_bf16(const std::uint16_t* src, float* dst, std::size_t n);

namespace detail {
/// Defined in fp16_codec_f16c.cpp; nullptr when that TU was compiled
/// without F16C.  Call only after the CPU has reported F16C.
const Fp16Codec* f16c_fp16_codec();
}  // namespace detail

}  // namespace kgwas
