#include "precision/fp16_codec.hpp"

#include "mpblas/cpu_features.hpp"
#include "precision/float_format.hpp"

namespace kgwas {

namespace {

void encode_fp16_scalar(const float* src, std::uint16_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(quantize_bits(kFp16Format, src[i]));
  }
}

void decode_fp16_scalar(const std::uint16_t* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = fp16_bits_to_float(src[i]);
}

constexpr Fp16Codec kScalarCodec{"scalar", encode_fp16_scalar,
                                 decode_fp16_scalar};

}  // namespace

const Fp16Codec& fp16_scalar_codec() { return kScalarCodec; }

const Fp16Codec& fp16_codec() {
  static const Fp16Codec& codec =
      mpblas::cpu_features().f16c && detail::f16c_fp16_codec() != nullptr
          ? *detail::f16c_fp16_codec()
          : kScalarCodec;
  return codec;
}

void decode_bf16(const std::uint16_t* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = bf16_bits_to_float(src[i]);
}

}  // namespace kgwas
