#ifndef OVERLAP_TENSOR_ARENA_H_
#define OVERLAP_TENSOR_ARENA_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace overlap {

/**
 * Process-wide buffer arena: the toplevel tier of the two-level
 * allocator behind Tensor storage (DESIGN.md §17).
 *
 * The per-thread BufferPool wrappers are fast (no locking) but their
 * lifetime is the thread's — and every difftest / SDC sweep spawns a
 * fresh ThreadPool. Without a shared tier, every buffer a worker
 * recycled died with the thread, and the next sweep's workers started
 * cold on the heap. The arena is the
 * rendezvous for those buffers: thread-local pools flush here when they
 * exit (or overflow), and new threads refill from here before touching
 * the heap.
 *
 * Buffers are plain `std::vector<float>`, size-bucketed exactly like
 * the thread-local tier (bucket b holds capacities in [2^b, 2^(b+1))),
 * so a transfer between tiers is a vector move, never a copy. Retained
 * bytes are capped; releases over the cap free the buffer.
 *
 * The arena also keeps a *pointer registry*: a count of buffers (and
 * bytes) currently checked out to thread pools or live tensors, plus —
 * in sanitizer builds — the set of pooled base pointers, which turns a
 * double-release of the same buffer into an immediate check failure
 * instead of silent aliasing between two live tensors.
 *
 * All methods are thread-safe. The global instance is intentionally
 * leaked so that thread-local pool destructors (which run arbitrarily
 * late, including after main's statics are gone) can always flush
 * into it.
 */
class BufferArena {
  public:
    struct Stats {
        /// Buffers handed down to a thread-local pool.
        int64_t refills = 0;
        /// Buffers flushed up from a thread-local pool.
        int64_t flushes = 0;
        /// Releases dropped because the arena was at its byte cap.
        int64_t over_cap_drops = 0;

        std::string ToString() const;
    };

    explicit BufferArena(int64_t max_retained_bytes = 256ll << 20)
        : max_retained_bytes_(max_retained_bytes) {}

    /** The process-wide arena every thread-local pool is backed by. */
    static BufferArena& Global();

    /**
     * Takes one buffer of capacity >= n out of the arena (smallest
     * qualifying bucket first). Returns false if no bucket can serve
     * the request; the caller then heap-allocates.
     */
    bool Acquire(size_t n, std::vector<float>* out);

    /** Flushes a dead buffer up into the arena (drops when over cap). */
    void Release(std::vector<float>&& buffer);

    /** Frees every pooled buffer (stats and registry are kept). */
    void Clear();

    int64_t retained_bytes() const;
    Stats stats() const;

    /**
     * Pointer-registry check used by both tiers before pooling a
     * buffer: records `base` as pooled and fails (in sanitizer builds)
     * if it already is — a double Release of one buffer would
     * otherwise hand the same heap block to two live tensors. A no-op
     * in regular builds, so the fast path takes no lock.
     */
#ifdef OVERLAP_SANITIZE
    void RegisterPooled(const void* base);
    void UnregisterPooled(const void* base);
#else
    void RegisterPooled(const void*) {}
    void UnregisterPooled(const void*) {}
#endif

  private:
    static constexpr int kNumBuckets = 40;

    static int BucketFor(size_t n);

    mutable std::mutex mu_;
    int64_t max_retained_bytes_;
    int64_t retained_bytes_ = 0;
    Stats stats_;
    std::vector<std::vector<float>> buckets_[kNumBuckets];
#ifdef OVERLAP_SANITIZE
    std::unordered_set<const void*> pooled_ptrs_;
#endif
};

}  // namespace overlap

#endif  // OVERLAP_TENSOR_ARENA_H_
