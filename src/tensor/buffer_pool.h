#ifndef OVERLAP_TENSOR_BUFFER_POOL_H_
#define OVERLAP_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace overlap {

class BufferArena;

/**
 * A size-bucketed free list of float buffers: the per-thread tier of
 * the two-level allocator behind Tensor storage (DESIGN.md §17).
 *
 * The decomposed CollectiveEinsum loop allocates the same handful of
 * shapes over and over (N partial einsum results, the
 * DynamicUpdateSlice accumulator chain, per-step permute temporaries).
 * Routing those allocations through a pool turns the steady state of a
 * loop evaluation into pure buffer reuse.
 *
 * Buffers are plain `std::vector<float>` so `Tensor` can adopt them by
 * move with no custom allocator. Bucket b holds vectors whose capacity
 * is in [2^b, 2^(b+1)); Acquire(n) takes from bucket ceil(log2(n)), so
 * a pooled hit is guaranteed to have capacity >= n. Retained bytes are
 * capped; a Release that would exceed the cap flushes the buffer up to
 * the backing BufferArena (or frees it for a standalone pool).
 *
 * Thread model: every thread gets its own pool via
 * ThreadLocalBufferPool(), so the fast path needs no locking and a
 * buffer never moves between threads while locally pooled. The
 * thread-local pools are *wrappers* over the shared BufferArena: an
 * Acquire that misses locally refills from the arena before falling
 * through to the heap, and a pool flushes its buffers to the arena
 * when its thread exits — so the workers of each sweep's short-lived
 * ThreadPool inherit the previous workers' warm buffers instead of
 * starting cold.
 */
class BufferPool {
  public:
    struct Stats {
        /// Acquire() calls served from the local free list.
        int64_t hits = 0;
        /// Acquire() calls that fell through to the heap.
        int64_t misses = 0;
        /// Acquire() calls served by refilling from the BufferArena.
        int64_t arena_hits = 0;
        /// Release() calls that pooled the buffer locally.
        int64_t pooled = 0;
        /// Release() calls dropped (empty, or over cap with no arena
        /// to flush to).
        int64_t dropped = 0;
        /// Buffers flushed up to the arena (over-cap or thread exit).
        int64_t flushed = 0;

        std::string ToString() const;
    };

    /**
     * A standalone pool (no arena): over-cap releases free, nothing
     * outlives the pool. The thread-local pools instead pass the
     * global arena and flush into it.
     */
    explicit BufferPool(int64_t max_retained_bytes = 64ll << 20,
                        BufferArena* arena = nullptr)
        : max_retained_bytes_(max_retained_bytes), arena_(arena) {}

    /** Flushes every locally pooled buffer to the arena, if any. */
    ~BufferPool();

    /**
     * Returns a vector of exactly `n` elements with unspecified
     * contents (pooled buffers are *not* cleared — callers that need
     * zeros fill explicitly).
     */
    std::vector<float> Acquire(size_t n);

    /** Hands a dead buffer back for reuse. */
    void Release(std::vector<float>&& buffer);

    const Stats& stats() const { return stats_; }
    void ResetStats() { stats_ = Stats(); }

    /**
     * Frees every pooled buffer (stats are kept). For an arena-backed
     * pool this clears the arena too: Clear means "from here on, the
     * next acquires really hit the heap".
     */
    void Clear();

    int64_t retained_bytes() const { return retained_bytes_; }

  private:
    static constexpr int kNumBuckets = 40;

    static int BucketFor(size_t n);

    int64_t max_retained_bytes_;
    BufferArena* arena_ = nullptr;
    int64_t retained_bytes_ = 0;
    Stats stats_;
    std::vector<std::vector<float>> buckets_[kNumBuckets];
};

/** The calling thread's pool (created on first use, lives until the
 * thread exits, then flushes into BufferArena::Global()). */
BufferPool& ThreadLocalBufferPool();

/**
 * Process-wide count of float-buffer heap allocations made on behalf of
 * Tensors (fresh allocations only; pooled and arena hits don't count).
 * perfbench's traced run reports the delta across its evaluations as
 * `tensor.heap_allocs`.
 */
int64_t TensorHeapAllocCount();

/**
 * Turns on wall-clock accounting of BufferPool::Acquire (covers local
 * hits, arena refills, and heap misses). Off by default — perfbench's
 * traced run enables it to report the allocation phase's share of an
 * evaluation as `tensor.alloc_s`.
 */
void SetAllocTimingEnabled(bool enabled);

/** Returns the seconds accumulated since the last call, and resets. */
double ConsumeAllocSeconds();

namespace internal {
/** Records `count` fresh heap allocations (relaxed atomic). */
void CountTensorHeapAlloc(int64_t count = 1);
}  // namespace internal

}  // namespace overlap

#endif  // OVERLAP_TENSOR_BUFFER_POOL_H_
