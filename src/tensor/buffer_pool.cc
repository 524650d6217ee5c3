#include "tensor/buffer_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "support/strings.h"
#include "tensor/arena.h"

namespace overlap {

namespace internal {
namespace {
std::atomic<int64_t> tensor_heap_allocs{0};
std::atomic<bool> alloc_timing_enabled{false};
std::atomic<int64_t> alloc_nanos{0};
}  // namespace

void
CountTensorHeapAlloc(int64_t count)
{
    tensor_heap_allocs.fetch_add(count, std::memory_order_relaxed);
}
}  // namespace internal

int64_t
TensorHeapAllocCount()
{
    return internal::tensor_heap_allocs.load(std::memory_order_relaxed);
}

void
SetAllocTimingEnabled(bool enabled)
{
    internal::alloc_timing_enabled.store(enabled,
                                         std::memory_order_relaxed);
}

double
ConsumeAllocSeconds()
{
    return static_cast<double>(internal::alloc_nanos.exchange(
               0, std::memory_order_relaxed)) *
           1e-9;
}

std::string
BufferPool::Stats::ToString() const
{
    return StrCat("hits=", hits, " misses=", misses,
                  " arena_hits=", arena_hits, " pooled=", pooled,
                  " dropped=", dropped, " flushed=", flushed);
}

int
BufferPool::BucketFor(size_t n)
{
    int bucket = 0;
    size_t cap = 1;
    while (cap < n && bucket < kNumBuckets - 1) {
        cap <<= 1;
        ++bucket;
    }
    return bucket;
}

BufferPool::~BufferPool()
{
    if (arena_ == nullptr) return;
    for (auto& bucket : buckets_) {
        for (auto& buffer : bucket) {
            arena_->UnregisterPooled(buffer.data());
            arena_->Release(std::move(buffer));
        }
        bucket.clear();
    }
}

namespace {

class AllocTimer {
  public:
    AllocTimer()
        : enabled_(internal::alloc_timing_enabled.load(
              std::memory_order_relaxed))
    {
        if (enabled_) start_ = std::chrono::steady_clock::now();
    }

    ~AllocTimer()
    {
        if (!enabled_) return;
        auto nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        internal::alloc_nanos.fetch_add(nanos,
                                        std::memory_order_relaxed);
    }

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::vector<float>
BufferPool::Acquire(size_t n)
{
    AllocTimer timer;
    if (n > 0) {
        // Any vector in bucket >= BucketFor(n) has capacity >= n; take
        // from the smallest non-empty one to keep big buffers for big
        // requests.
        for (int b = BucketFor(n); b < kNumBuckets; ++b) {
            if (buckets_[b].empty()) continue;
            std::vector<float> buffer = std::move(buckets_[b].back());
            buckets_[b].pop_back();
            retained_bytes_ -=
                static_cast<int64_t>(buffer.capacity() * sizeof(float));
            ++stats_.hits;
            if (arena_ != nullptr) arena_->UnregisterPooled(buffer.data());
            buffer.resize(n);
            return buffer;
        }
        // Local miss: refill from the shared arena before paying for a
        // heap allocation. Arena hits are *not* heap allocations.
        if (arena_ != nullptr) {
            std::vector<float> buffer;
            if (arena_->Acquire(n, &buffer)) {
                ++stats_.arena_hits;
                return buffer;
            }
        }
    }
    ++stats_.misses;
    internal::CountTensorHeapAlloc();
    if (n == 0) return std::vector<float>();
    // Round the fresh allocation up to its bucket's guarantee: a vector
    // with capacity exactly n (non-power-of-two) would be demoted to
    // bucket BucketFor(n)-1 on Release and never serve a same-size
    // Acquire again — the repeated-shape pattern the pool exists for.
    std::vector<float> buffer;
    buffer.reserve(std::max(n, size_t{1} << BucketFor(n)));
    buffer.resize(n);
    return buffer;
}

void
BufferPool::Release(std::vector<float>&& buffer)
{
    int64_t bytes =
        static_cast<int64_t>(buffer.capacity() * sizeof(float));
    if (buffer.capacity() == 0) {
        ++stats_.dropped;
        return;  // buffer frees on scope exit
    }
    if (retained_bytes_ + bytes > max_retained_bytes_) {
        // Over the local cap: flush to the shared arena instead of
        // freeing, so another thread (or a later evaluation on this
        // one) can still reuse the buffer.
        if (arena_ != nullptr) {
            ++stats_.flushed;
            arena_->Release(std::move(buffer));
        } else {
            ++stats_.dropped;
        }
        return;
    }
    int bucket = BucketFor(buffer.capacity());
    // BucketFor rounds up; a capacity just under 2^b must land in the
    // bucket whose guarantee it can honor.
    if (buffer.capacity() < (size_t{1} << bucket)) --bucket;
    if (bucket < 0) bucket = 0;
    if (arena_ != nullptr) arena_->RegisterPooled(buffer.data());
    retained_bytes_ += bytes;
    ++stats_.pooled;
    buckets_[bucket].push_back(std::move(buffer));
}

void
BufferPool::Clear()
{
    for (auto& bucket : buckets_) {
        if (arena_ != nullptr) {
            for (auto& buffer : bucket)
                arena_->UnregisterPooled(buffer.data());
        }
        bucket.clear();
    }
    retained_bytes_ = 0;
    if (arena_ != nullptr) arena_->Clear();
}

BufferPool&
ThreadLocalBufferPool()
{
    static thread_local BufferPool pool(64ll << 20,
                                        &BufferArena::Global());
    return pool;
}

}  // namespace overlap
