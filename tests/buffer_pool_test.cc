/**
 * @file
 * BufferPool contract tests: buffer reuse (hit accounting), no aliasing
 * between live tensors, explicit zero-fill after recycling a dirty
 * buffer, the retained-bytes cap, and a pool that retains nothing.
 */
#include "tensor/buffer_pool.h"

#include <gtest/gtest.h>

#include "tensor/tensor.h"

namespace overlap {
namespace {

TEST(BufferPoolTest, AcquireAfterReleaseReusesTheBuffer)
{
    BufferPool pool;
    std::vector<float> buffer = pool.Acquire(100);
    const float* block = buffer.data();
    pool.Release(std::move(buffer));
    EXPECT_EQ(pool.stats().pooled, 1);

    std::vector<float> again = pool.Acquire(100);
    EXPECT_EQ(again.size(), 100u);
    EXPECT_EQ(again.data(), block);
    EXPECT_EQ(pool.stats().hits, 1);
}

TEST(BufferPoolTest, HitsServeAnySizeInTheSameBucket)
{
    BufferPool pool;
    pool.Release(pool.Acquire(1000));
    // 700 rounds up to the same power-of-two bucket as 1000.
    std::vector<float> buffer = pool.Acquire(700);
    EXPECT_EQ(buffer.size(), 700u);
    EXPECT_EQ(pool.stats().hits, 1);
    // 5000 is a larger bucket: a miss.
    std::vector<float> big = pool.Acquire(5000);
    EXPECT_EQ(big.size(), 5000u);
    EXPECT_EQ(pool.stats().misses, 2);  // the first Acquire(1000) + this
}

TEST(BufferPoolTest, LiveTensorsNeverAlias)
{
    // Two tensors acquired without an intervening release must own
    // distinct heap blocks, even when shapes match.
    Tensor a(Shape(DType::kF32, {8, 8}));
    Tensor b(Shape(DType::kF32, {8, 8}));
    ASSERT_NE(a.data(), b.data());
    a.data()[0] = 1.0f;
    EXPECT_EQ(b.data()[0], 0.0f);
}

TEST(BufferPoolTest, RecycledDirtyBufferComesBackZeroFilled)
{
    // Dirty a buffer, recycle it, then construct a zero-initialized
    // tensor of the same shape: Tensor(Shape) must zero-fill explicitly
    // because pooled buffers keep their old contents.
    Tensor dirty = Tensor::Full(Shape(DType::kF32, {16, 16}), 7.0f);
    Tensor::Recycle(std::move(dirty));
    Tensor zeros(Shape(DType::kF32, {16, 16}));
    for (int64_t i = 0; i < zeros.shape().num_elements(); ++i) {
        ASSERT_EQ(zeros.data()[i], 0.0f) << "element " << i;
    }
}

TEST(BufferPoolTest, UninitializedReusesRecycledBuffer)
{
    BufferPool& pool = ThreadLocalBufferPool();
    pool.ResetStats();
    Tensor t = Tensor::Uninitialized(Shape(DType::kF32, {32, 32}));
    Tensor::Recycle(std::move(t));
    const int64_t pooled_before = pool.stats().pooled;
    EXPECT_GE(pooled_before, 1);
    Tensor u = Tensor::Uninitialized(Shape(DType::kF32, {32, 32}));
    EXPECT_GE(pool.stats().hits, 1);
}

TEST(BufferPoolTest, RetainedBytesAreCapped)
{
    BufferPool pool(/*max_retained_bytes=*/1024);
    pool.Release(pool.Acquire(128));  // 512 bytes: retained
    EXPECT_GT(pool.retained_bytes(), 0);
    const int64_t retained = pool.retained_bytes();
    pool.Release(pool.Acquire(100000));  // 400KB: over cap, dropped
    EXPECT_EQ(pool.retained_bytes(), retained);
    EXPECT_GE(pool.stats().dropped, 1);
}

TEST(BufferPoolTest, ZeroCapacityPoolAlwaysMissesAndDrops)
{
    BufferPool pool(/*max_retained_bytes=*/0);
    pool.Release(pool.Acquire(100));
    std::vector<float> buffer = pool.Acquire(100);
    EXPECT_EQ(pool.stats().hits, 0);
    EXPECT_EQ(pool.stats().misses, 2);
    EXPECT_EQ(pool.stats().pooled, 0);
    EXPECT_EQ(pool.stats().dropped, 1);
}

TEST(BufferPoolTest, HeapAllocCountGrowsOnlyOnMisses)
{
    BufferPool& pool = ThreadLocalBufferPool();
    pool.Clear();
    const int64_t before = TensorHeapAllocCount();
    Tensor t = Tensor::Uninitialized(Shape(DType::kF32, {64}));
    const int64_t after_fresh = TensorHeapAllocCount();
    EXPECT_GE(after_fresh, before + 1);
    Tensor::Recycle(std::move(t));
    Tensor u = Tensor::Uninitialized(Shape(DType::kF32, {64}));
    // The pooled hit must not count as a heap allocation.
    EXPECT_EQ(TensorHeapAllocCount(), after_fresh);
}

}  // namespace
}  // namespace overlap
