#include "tile/tile_pool.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"

namespace kgwas {

namespace {

// Registry mirrors.  Gauge deltas from every pool sum into one process
// level, so "pool.bytes_in_use" is the combined footprint and the
// high-water gauge tracks the max of that combined level.  The pool's own
// mutex serializes each pool's updates (gauges aren't sharded).
void note_acquire(std::size_t bytes, TilePool::Stats& stats) {
  stats.bytes_in_use += bytes;
  stats.high_water_bytes = std::max(stats.high_water_bytes, stats.bytes_in_use);
  static telemetry::Gauge& in_use =
      telemetry::MetricRegistry::global().gauge("pool.bytes_in_use");
  static telemetry::Gauge& high_water =
      telemetry::MetricRegistry::global().gauge("pool.bytes_high_water");
  static telemetry::Histogram& acquire_bytes =
      telemetry::MetricRegistry::global().histogram("pool.acquire_bytes");
  high_water.update_max(in_use.add(static_cast<std::int64_t>(bytes)));
  acquire_bytes.record(bytes);
}

void note_release(std::size_t bytes, TilePool::Stats& stats) {
  stats.bytes_in_use -= std::min(stats.bytes_in_use, bytes);
  static telemetry::Gauge& in_use =
      telemetry::MetricRegistry::global().gauge("pool.bytes_in_use");
  in_use.add(-static_cast<std::int64_t>(bytes));
}

}  // namespace

bool TilePool::caching_enabled() noexcept {
#ifdef KGWAS_SANITIZE
  // Recycling buffers would hide use-after-release from AddressSanitizer
  // (a parked or re-handed buffer is still addressable memory): under the
  // sanitizer build every acquire allocates and every release frees, so
  // lifetime bugs in pooled buffers fault loudly.
  return false;
#else
  return true;
#endif
}

TilePool::TilePool(std::size_t max_cached_bytes)
    : max_cached_bytes_(caching_enabled() ? max_cached_bytes : 0) {}

TilePool& TilePool::global() {
  // Leaked on purpose: pool-backed tiles with static storage duration may
  // be destroyed after any function-local static would be, and the pool
  // must still accept their release.
  static TilePool* pool = new TilePool();
  return *pool;
}

template <typename Buffer>
Buffer TilePool::acquire_from(
    std::unordered_map<std::size_t, SizeClass<Buffer>>& classes,
    std::size_t count, std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    note_acquire(bytes, stats_);
    SizeClass<Buffer>& cls = classes[count];
    cls.peak_in_use = std::max(cls.peak_in_use, ++cls.in_use);
    if (!cls.idle.empty()) {
      Buffer buffer = std::move(cls.idle.back());
      cls.idle.pop_back();
      cached_bytes_ -= bytes;
      stats_.cached_bytes = cached_bytes_;
      ++stats_.reuses;
      return buffer;
    }
    ++stats_.fresh_allocations;
  }
  return Buffer(count);
}

template <typename Buffer>
void TilePool::release_to(
    std::unordered_map<std::size_t, SizeClass<Buffer>>& classes,
    Buffer&& buffer, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.releases;
  note_release(bytes, stats_);
  SizeClass<Buffer>& cls = classes[buffer.size()];
  // A buffer this pool never handed out (moved in from elsewhere) must
  // not drive the count below zero.
  if (cls.in_use > 0) --cls.in_use;
  if (cls.idle.size() >= cls.peak_in_use ||
      cached_bytes_ + bytes > max_cached_bytes_) {
    ++stats_.dropped;
    return;  // buffer freed on scope exit
  }
  cls.idle.push_back(std::move(buffer));
  cached_bytes_ += bytes;
  stats_.cached_bytes = cached_bytes_;
}

AlignedVector<std::byte> TilePool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};
  return acquire_from(bytes_, bytes, bytes);
}

void TilePool::release(AlignedVector<std::byte>&& buffer) {
  const std::size_t bytes = buffer.size();
  if (bytes == 0) return;
  release_to(bytes_, std::move(buffer), bytes);
}

AlignedVector<float> TilePool::acquire_f32(std::size_t elements) {
  if (elements == 0) return {};
  return acquire_from(f32_, elements, elements * sizeof(float));
}

void TilePool::release_f32(AlignedVector<float>&& buffer) {
  const std::size_t elements = buffer.size();
  if (elements == 0) return;
  release_to(f32_, std::move(buffer), elements * sizeof(float));
}

TilePool::Stats TilePool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TilePool::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [size, cls] : bytes_) cls.idle.clear();
  for (auto& [size, cls] : f32_) cls.idle.clear();
  cached_bytes_ = 0;
  stats_.cached_bytes = 0;
}

}  // namespace kgwas
