// Exhaustive FP16 encode check (`slow` ctest label): every one of the
// 2^32 FP32 bit patterns encodes through the dispatched codec (F16C on
// hosts that have it) to exactly quantize_bits(kFp16Format, x).  The
// scalar codec's encode is quantize_bits itself, so the oracle covers it
// by construction.  The scan is split
// over min(8, hardware_concurrency) threads; about 40 s on 4 cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "precision/float_format.hpp"
#include "precision/fp16_codec.hpp"

namespace kgwas {
namespace {

TEST(Fp16CodecExhaustive, EveryFp32InputEncodesLikeQuantizeBits) {
  const Fp16Codec& codec = fp16_codec();
  constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
  constexpr std::uint64_t kChunk = 4096;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(8u, hw);

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{kInputs};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<float> in(kChunk);
      std::vector<std::uint16_t> want(kChunk), got(kChunk);
      const std::uint64_t begin = kInputs * t / threads;
      const std::uint64_t end = kInputs * (t + 1) / threads;
      for (std::uint64_t base = begin; base < end; base += kChunk) {
        const std::size_t n =
            static_cast<std::size_t>(std::min(kChunk, end - base));
        for (std::size_t i = 0; i < n; ++i) {
          in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
          want[i] =
              static_cast<std::uint16_t>(quantize_bits(kFp16Format, in[i]));
        }
        codec.encode(in.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          if (got[i] == want[i]) continue;
          mismatches.fetch_add(1, std::memory_order_relaxed);
          std::uint64_t seen = first_bad.load(std::memory_order_relaxed);
          while (base + i < seen &&
                 !first_bad.compare_exchange_weak(seen, base + i)) {
          }
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << codec.name << ": first mismatching FP32 pattern: 0x" << std::hex
      << first_bad.load();
}

}  // namespace
}  // namespace kgwas
