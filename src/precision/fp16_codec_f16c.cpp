// F16C variant of the bulk FP16 codec.  Compiled with -mavx -mf16c on x86
// targets (see CMakeLists) and reached only through fp16_codec(), which
// checks cpu_features().f16c first, so the per-TU flags never put VEX
// instructions in front of an older CPU.  The TU deliberately calls no
// inline function from a shared header: a VEX-encoded copy of one could
// otherwise be picked by the linker for the baseline TUs.
#include "precision/fp16_codec.hpp"

#if defined(__F16C__) && defined(__AVX__)

#include <immintrin.h>

namespace kgwas::detail {

namespace {

/// Eight FP32 lanes -> eight FP16 codes, round-to-nearest-even; every NaN
/// lane becomes 0x7FFF (vcvtps2ph alone keeps the sign and payload).
inline __m128i encode8(__m256 x) {
  __m128i h = _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT);
  const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  if (_mm256_movemask_ps(nan) != 0) {
    const __m256i mask32 = _mm256_castps_si256(nan);
    const __m128i mask16 = _mm_packs_epi32(_mm256_castsi256_si128(mask32),
                                           _mm256_extractf128_si256(mask32, 1));
    h = _mm_blendv_epi8(h, _mm_set1_epi16(0x7FFF), mask16);
  }
  return h;
}

/// Eight FP16 codes -> eight FP32 lanes; every NaN lane becomes the
/// canonical quiet NaN (vcvtph2ps alone keeps the sign and payload).
/// The fix-up selects with and/andnot/or: GCC 12 lowers a blendv on an
/// unordered-compare mask to per-lane branches.
inline __m256 decode8(__m128i h) {
  const __m256 x = _mm256_cvtph_ps(h);
  const __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  if (_mm256_movemask_ps(nan) == 0) return x;
  const __m256 canonical =
      _mm256_castsi256_ps(_mm256_set1_epi32(kCanonicalF32NanBits));
  return _mm256_or_ps(_mm256_andnot_ps(nan, x), _mm256_and_ps(nan, canonical));
}

void encode_f16c(const float* src, std::uint16_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i lo = encode8(_mm256_loadu_ps(src + i));
    const __m128i hi = encode8(_mm256_loadu_ps(src + i + 8));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), lo);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + 8), hi);
  }
  for (; i + 8 <= n; i += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     encode8(_mm256_loadu_ps(src + i)));
  }
  if (i < n) {
    // Tail: run the same vector conversion on a zero-padded copy.
    alignas(32) float in[8] = {};
    alignas(16) std::uint16_t out[8];
    __builtin_memcpy(in, src + i, (n - i) * sizeof(float));
    _mm_store_si128(reinterpret_cast<__m128i*>(out),
                    encode8(_mm256_load_ps(in)));
    __builtin_memcpy(dst + i, out, (n - i) * sizeof(std::uint16_t));
  }
}

void decode_f16c(const std::uint16_t* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + 8));
    _mm256_storeu_ps(dst + i, decode8(lo));
    _mm256_storeu_ps(dst + i + 8, decode8(hi));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, decode8(_mm_loadu_si128(
                                  reinterpret_cast<const __m128i*>(src + i))));
  }
  if (i < n) {
    alignas(16) std::uint16_t in[8] = {};
    alignas(32) float out[8];
    __builtin_memcpy(in, src + i, (n - i) * sizeof(std::uint16_t));
    _mm256_store_ps(out,
                    decode8(_mm_load_si128(reinterpret_cast<__m128i*>(in))));
    __builtin_memcpy(dst + i, out, (n - i) * sizeof(float));
  }
}

constexpr Fp16Codec kF16cCodec{"f16c", encode_f16c, decode_f16c};

}  // namespace

const Fp16Codec* f16c_fp16_codec() { return &kF16cCodec; }

}  // namespace kgwas::detail

#else  // variant not compiled for this target

namespace kgwas::detail {
const Fp16Codec* f16c_fp16_codec() { return nullptr; }
}  // namespace kgwas::detail

#endif
