// Bulk precision conversion between FP32 working buffers and narrow
// storage buffers.  These are the routines the dataflow runtime invokes on
// task edges ("convert at the sender when the destination wants lower
// precision") and that the tile container uses to materialize a tile in a
// given storage format.
#pragma once

#include <cstddef>
#include <cstdint>

#include "precision/precision.hpp"

namespace kgwas {

/// Encodes `n` FP32 values into the storage format of `precision`.
/// `dst` must provide n * bytes_per_element(precision) bytes.
/// INT8 saturates to [-128, 127] with round-to-nearest-even.  FP16 runs
/// through the dispatched codec (precision/fp16_codec.hpp), bitwise equal
/// to quantize_bits(kFp16Format, x) with NaN canonicalized to 0x7FFF.
///
/// Every call except FP32 (a plain copy) adds its storage bytes and wall
/// time to the registry counters convert.encode_bytes.<prec> and
/// convert.encode_ns.<prec>; dequantize_buffer feeds the matching
/// convert.decode_* pair.
void quantize_buffer(Precision precision, const float* src, void* dst, std::size_t n);

/// Decodes `n` stored values back into FP32.
void dequantize_buffer(Precision precision, const void* src, float* dst, std::size_t n);

/// Rounds `n` FP32 values through the storage format in place (the operand
/// rounding a tensor core performs before multiplying).
void quantize_inplace(Precision precision, float* data, std::size_t n);

/// Converts a buffer stored in `from` into storage `to` via FP32.  An FP32
/// side is read or written in place; other pairs stage through FP32 in
/// stack-sized chunks, so no call allocates.
void convert_buffer(Precision from, const void* src, Precision to, void* dst,
                    std::size_t n);

/// Read-only 256-entry FP32 decode table of a 1-byte float format (FP8
/// variants, FP4).  Returns nullptr for every other precision: FP64, FP32
/// and INT8 decode by a cast, FP16 and BF16 by the bit decoders of
/// precision/fp16_codec.hpp.  Lets bulk consumers (the packed GEMM
/// engine's decode-on-pack) read storage bytes without a staging decode.
const float* decode_table(Precision precision);

}  // namespace kgwas
