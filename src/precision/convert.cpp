#include "precision/convert.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "precision/float_format.hpp"
#include "precision/fp16_codec.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

/// 256-entry decode tables for the 8-bit formats, built on first use.  The
/// 16-bit formats decode through the FP16 codec and the BF16 bit shift
/// (precision/fp16_codec.hpp) instead of 65536-entry tables.
const std::array<float, 256>& decode_table8(const FloatFormat& fmt) {
  auto build = [](const FloatFormat& format) {
    auto table = std::make_unique<std::array<float, 256>>();
    for (std::uint32_t bits = 0; bits < 256; ++bits) {
      (*table)[bits] = static_cast<float>(decode_bits(format, bits));
    }
    return table;
  };
  static const auto e4m3 = build(kFp8E4M3Format);
  static const auto e5m2 = build(kFp8E5M2Format);
  static const auto e2m1 = build(kFp4E2M1Format);
  if (&fmt == &kFp8E4M3Format) return *e4m3;
  if (&fmt == &kFp8E5M2Format) return *e5m2;
  KGWAS_ASSERT(&fmt == &kFp4E2M1Format);
  return *e2m1;
}

// ------------------------------------------------------------ counters
//
// convert.{encode,decode}_{bytes,ns}.<prec>: storage bytes written
// (encode) or read (decode) in <prec>, and the wall time spent, one add
// per bulk call.  FP32 "conversions" are copies and are not counted.

enum CounterKind { kEncodeBytes, kEncodeNs, kDecodeBytes, kDecodeNs, kKinds };

telemetry::Counter& convert_counter(CounterKind kind, Precision precision) {
  static constexpr const char* kNames[kKinds] = {
      "convert.encode_bytes.", "convert.encode_ns.", "convert.decode_bytes.",
      "convert.decode_ns."};
  // Created on first use, so runs that never convert a precision carry
  // no zero counters for it.
  static std::array<std::atomic<telemetry::Counter*>,
                    kKinds * kNumPrecisions>
      cells{};
  std::atomic<telemetry::Counter*>& cell =
      cells[kind * kNumPrecisions + static_cast<int>(precision)];
  telemetry::Counter* counter = cell.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = &telemetry::MetricRegistry::global().counter(
        kNames[kind] + to_string(precision));
    cell.store(counter, std::memory_order_release);
  }
  return *counter;
}

/// Times one bulk encode or decode call and records it on destruction.
class ConvertScope {
 public:
  ConvertScope(bool encode, Precision precision, std::size_t n)
      : encode_(encode),
        precision_(precision),
        bytes_(n * bytes_per_element(precision)),
        start_(std::chrono::steady_clock::now()) {}
  ~ConvertScope() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    convert_counter(encode_ ? kEncodeBytes : kDecodeBytes, precision_)
        .add(bytes_);
    convert_counter(encode_ ? kEncodeNs : kDecodeNs, precision_)
        .add(static_cast<std::uint64_t>(ns));
  }
  ConvertScope(const ConvertScope&) = delete;
  ConvertScope& operator=(const ConvertScope&) = delete;

 private:
  bool encode_;
  Precision precision_;
  std::size_t bytes_;
  std::chrono::steady_clock::time_point start_;
};

void quantize_small_float(const FloatFormat& fmt, const float* src, void* dst,
                          std::size_t n, std::size_t elem_bytes) {
  if (elem_bytes == 1) {
    auto* out = static_cast<std::uint8_t*>(dst);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(quantize_bits(fmt, src[i]));
    }
  } else {
    KGWAS_ASSERT(elem_bytes == 2);
    auto* out = static_cast<std::uint16_t*>(dst);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint16_t>(quantize_bits(fmt, src[i]));
    }
  }
}

void dequantize_table8(const FloatFormat& fmt, const void* src, float* dst,
                       std::size_t n) {
  const auto& table = decode_table8(fmt);
  const auto* in = static_cast<const std::uint8_t*>(src);
  for (std::size_t i = 0; i < n; ++i) dst[i] = table[in[i]];
}

}  // namespace

void quantize_buffer(Precision precision, const float* src, void* dst,
                     std::size_t n) {
  if (n == 0) return;  // empty tiles may carry null storage
  if (precision == Precision::kFp32) {
    std::memcpy(dst, src, n * sizeof(float));
    return;
  }
  const ConvertScope scope(/*encode=*/true, precision, n);
  switch (precision) {
    case Precision::kFp64: {
      auto* out = static_cast<double*>(dst);
      for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(src[i]);
      return;
    }
    case Precision::kInt8: {
      auto* out = static_cast<std::int8_t*>(dst);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::int8_t>(
            quantize(Precision::kInt8, static_cast<double>(src[i])));
      }
      return;
    }
    case Precision::kFp16:
      fp16_codec().encode(src, static_cast<std::uint16_t*>(dst), n);
      return;
    default:
      quantize_small_float(float_format(precision), src, dst, n,
                           bytes_per_element(precision));
  }
}

void dequantize_buffer(Precision precision, const void* src, float* dst,
                       std::size_t n) {
  if (n == 0) return;  // empty tiles may carry null storage
  if (precision == Precision::kFp32) {
    std::memcpy(dst, src, n * sizeof(float));
    return;
  }
  const ConvertScope scope(/*encode=*/false, precision, n);
  switch (precision) {
    case Precision::kFp64: {
      const auto* in = static_cast<const double*>(src);
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(in[i]);
      return;
    }
    case Precision::kInt8: {
      const auto* in = static_cast<const std::int8_t*>(src);
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(in[i]);
      return;
    }
    case Precision::kFp16:
      fp16_codec().decode(static_cast<const std::uint16_t*>(src), dst, n);
      return;
    case Precision::kBf16:
      decode_bf16(static_cast<const std::uint16_t*>(src), dst, n);
      return;
    default:
      dequantize_table8(float_format(precision), src, dst, n);
  }
}

void quantize_inplace(Precision precision, float* data, std::size_t n) {
  switch (precision) {
    case Precision::kFp64:
    case Precision::kFp32:
      return;  // already at or above working precision
    case Precision::kInt8:
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<float>(
            quantize(Precision::kInt8, static_cast<double>(data[i])));
      }
      return;
    default: {
      const FloatFormat& fmt = float_format(precision);
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<float>(
            round_to_format(fmt, static_cast<double>(data[i])));
      }
    }
  }
}

const float* decode_table(Precision precision) {
  if (bytes_per_element(precision) != 1 || precision == Precision::kInt8) {
    return nullptr;
  }
  return decode_table8(float_format(precision)).data();
}

void convert_buffer(Precision from, const void* src, Precision to, void* dst,
                    std::size_t n) {
  if (from == to) {
    std::memcpy(dst, src, n * bytes_per_element(from));
    return;
  }
  if (from == Precision::kFp32) {
    quantize_buffer(to, static_cast<const float*>(src), dst, n);
    return;
  }
  if (to == Precision::kFp32) {
    dequantize_buffer(from, src, static_cast<float*>(dst), n);
    return;
  }
  // Neither side is FP32: stage through FP32 in stack-sized chunks.
  constexpr std::size_t kChunk = 2048;
  float staging[kChunk];
  const auto* in = static_cast<const std::byte*>(src);
  auto* out = static_cast<std::byte*>(dst);
  const std::size_t in_bytes = bytes_per_element(from);
  const std::size_t out_bytes = bytes_per_element(to);
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t m = std::min(kChunk, n - i);
    dequantize_buffer(from, in + i * in_bytes, staging, m);
    quantize_buffer(to, staging, out + i * out_bytes, m);
  }
}

}  // namespace kgwas
