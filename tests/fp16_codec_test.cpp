// FP16 codec tests: every 16-bit code decodes exactly as decode_bits on
// the dispatched path (F16C where the CPU has it) and the scalar path,
// for FP16 and BF16; the encode edge cases and NaN canonicalization match
// quantize_bits; and the packed GEMM engine's decode-on-pack agrees with
// dequantize_buffer.  The exhaustive
// encode over all 2^32 inputs lives in fp16_encode_exhaustive_test.cpp
// (`slow` label).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "mpblas/cpu_features.hpp"
#include "mpblas/kernels.hpp"
#include "precision/convert.hpp"
#include "precision/float_format.hpp"
#include "precision/fp16_codec.hpp"

namespace kgwas {
namespace {

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// decode_bits widened to the FP32 pattern the codec must produce.
std::uint32_t oracle_decode(const FloatFormat& fmt, std::uint32_t code) {
  return bits_of(static_cast<float>(decode_bits(fmt, code)));
}

std::vector<std::uint16_t> every_code() {
  std::vector<std::uint16_t> codes(65536);
  for (std::uint32_t c = 0; c < 65536; ++c) {
    codes[c] = static_cast<std::uint16_t>(c);
  }
  return codes;
}

/// Codecs under test: the dispatched one (F16C on hosts that have it)
/// and the scalar one.
std::vector<const Fp16Codec*> codecs() {
  return {&fp16_codec(), &fp16_scalar_codec()};
}

TEST(Fp16Codec, DispatchPicksF16cExactlyWhenTheCpuHasIt) {
  const Fp16Codec* f16c = detail::f16c_fp16_codec();
  const bool usable = mpblas::cpu_features().f16c && f16c != nullptr;
  EXPECT_EQ(&fp16_codec(), usable ? f16c : &fp16_scalar_codec());
}

TEST(Fp16Codec, EveryFp16CodeDecodesLikeDecodeBits) {
  const std::vector<std::uint16_t> codes = every_code();
  for (const Fp16Codec* codec : codecs()) {
    std::vector<float> out(codes.size());
    codec->decode(codes.data(), out.data(), codes.size());
    std::size_t mismatches = 0;
    for (std::uint32_t c = 0; c < 65536; ++c) {
      mismatches += bits_of(out[c]) != oracle_decode(kFp16Format, c);
    }
    EXPECT_EQ(mismatches, 0u) << codec->name;
  }
  std::vector<float> out(codes.size());
  dequantize_buffer(Precision::kFp16, codes.data(), out.data(), codes.size());
  for (std::uint32_t c = 0; c < 65536; ++c) {
    ASSERT_EQ(bits_of(out[c]), oracle_decode(kFp16Format, c)) << c;
    ASSERT_EQ(bits_of(fp16_bits_to_float(static_cast<std::uint16_t>(c))),
              oracle_decode(kFp16Format, c))
        << c;
  }
}

TEST(Fp16Codec, EveryBf16CodeDecodesLikeDecodeBits) {
  const std::vector<std::uint16_t> codes = every_code();
  std::vector<float> bulk(codes.size());
  std::vector<float> dispatched(codes.size());
  decode_bf16(codes.data(), bulk.data(), codes.size());
  dequantize_buffer(Precision::kBf16, codes.data(), dispatched.data(),
                    codes.size());
  for (std::uint32_t c = 0; c < 65536; ++c) {
    const std::uint32_t want = oracle_decode(kBf16Format, c);
    ASSERT_EQ(bits_of(bulk[c]), want) << c;
    ASSERT_EQ(bits_of(dispatched[c]), want) << c;
    ASSERT_EQ(bits_of(bf16_bits_to_float(static_cast<std::uint16_t>(c))), want)
        << c;
  }
}

TEST(Fp16Codec, EveryNanDecodesToTheCanonicalQuietNan) {
  for (const std::uint16_t code : {0x7C01, 0x7E00, 0x7FFF, 0xFC01, 0xFE00,
                                   0xFFFF}) {
    for (const Fp16Codec* codec : codecs()) {
      float out = 0.0f;
      codec->decode(&code, &out, 1);
      EXPECT_EQ(bits_of(out), kCanonicalF32NanBits) << codec->name;
    }
  }
}

TEST(Fp16Codec, EncodeEdgeCasesMatchQuantizeBits) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> values{
      0.0f, -0.0f, 1.0f, -1.0f, 65504.0f, -65504.0f,
      65519.996f,           // rounds down to max finite
      65520.0f, -65520.0f,  // halfway to 2^16: ties to even, i.e. to inf
      inf, -inf,
      0x1p-24f, -0x1p-24f,  // smallest subnormal
      0x1p-25f,             // tie with zero: rounds to even (0)
      0x1.8p-25f,           // above the tie: rounds to 2^-24
      0x1p-26f, 0x1.ff8p-15f, 0x1p-14f, 0x1.ffcp-15f,
      1.0f + 0x1p-11f,      // tie between 1 and 1 + 2^-10: even (1)
      1.0f + 0x3p-11f,      // tie: rounds up to even mantissa
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      std::numeric_limits<float>::min()};
  // NaNs of either sign and any payload all encode to 0x7FFF.
  for (const std::uint32_t nan_bits :
       {0x7FC00000u, 0xFFC00000u, 0x7F800001u, 0xFF800001u, 0x7FFFFFFFu,
        0xFFFFFFFFu, 0x7FA00000u}) {
    values.push_back(std::bit_cast<float>(nan_bits));
  }
  // Lengths around the 8/16-lane vector widths exercise every tail.
  for (std::size_t n = 1; n <= values.size(); ++n) {
    for (const Fp16Codec* codec : codecs()) {
      std::vector<std::uint16_t> out(n);
      codec->encode(values.data() + values.size() - n, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const float x = values[values.size() - n + i];
        ASSERT_EQ(out[i], quantize_bits(kFp16Format, x))
            << codec->name << " x=" << x << " n=" << n;
        if (std::isnan(x)) ASSERT_EQ(out[i], 0x7FFFu);
      }
    }
  }
}

TEST(Fp16Codec, RandomEncodeMatchesQuantizeBitsOnEveryPath) {
  Rng rng(1234);
  std::vector<float> values(100003);  // odd length: vector tails too
  for (float& v : values) {
    v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.generator()()));
  }
  std::vector<std::uint16_t> want(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    want[i] = static_cast<std::uint16_t>(quantize_bits(kFp16Format, values[i]));
  }
  for (const Fp16Codec* codec : codecs()) {
    std::vector<std::uint16_t> got(values.size());
    codec->encode(values.data(), got.data(), values.size());
    EXPECT_EQ(got, want) << codec->name;
  }
  std::vector<std::uint16_t> got(values.size());
  quantize_buffer(Precision::kFp16, values.data(), got.data(), values.size());
  EXPECT_EQ(got, want);
}

TEST(Fp16Codec, DecodeOnPackMatchesDequantizeForBothTranspositions) {
  // The packed engine decodes contiguous runs through the bulk codec and
  // strided elements through the scalar bit decoder; both must carry the
  // values dequantize_buffer produces, so a GEMM on 16-bit storage equals
  // the same GEMM on its FP32 decode.
  namespace kernels = mpblas::kernels;
  struct Restore {
    ~Restore() { kernels::set_gemm_backend(std::nullopt); }
  } restore;
  kernels::set_gemm_backend(kernels::GemmBackend::kPacked);
  Rng rng(5);
  const std::size_t m = 37, n = 29, k = 45;
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    std::vector<float> af(m * k), bf(k * n);
    for (float& v : af) v = static_cast<float>(rng.normal());
    for (float& v : bf) v = static_cast<float>(rng.normal());
    std::vector<std::uint16_t> as(af.size()), bs(bf.size());
    quantize_buffer(p, af.data(), as.data(), af.size());
    quantize_buffer(p, bf.data(), bs.data(), bf.size());
    dequantize_buffer(p, as.data(), af.data(), af.size());
    dequantize_buffer(p, bs.data(), bf.data(), bf.size());
    for (const Trans ta : {Trans::kNoTrans, Trans::kTrans}) {
      for (const Trans tb : {Trans::kNoTrans, Trans::kTrans}) {
        const std::size_t lda = ta == Trans::kNoTrans ? m : k;
        const std::size_t ldb = tb == Trans::kNoTrans ? k : n;
        std::vector<float> c_narrow(m * n), c_fp32(m * n);
        kernels::OperandView a_narrow{as.data(), lda, ta, p, Precision::kFp32};
        kernels::OperandView b_narrow{bs.data(), ldb, tb, p, Precision::kFp32};
        kernels::gemm_view(m, n, k, 1.0f, a_narrow, b_narrow, 0.0f,
                           c_narrow.data(), m);
        kernels::gemm_view(m, n, k, 1.0f, kernels::fp32_view(af.data(), lda, ta),
                           kernels::fp32_view(bf.data(), ldb, tb), 0.0f,
                           c_fp32.data(), m);
        EXPECT_EQ(std::memcmp(c_narrow.data(), c_fp32.data(),
                              c_fp32.size() * sizeof(float)),
                  0)
            << to_string(p) << " ta=" << static_cast<int>(ta)
            << " tb=" << static_cast<int>(tb);
      }
    }
  }
}

}  // namespace
}  // namespace kgwas
