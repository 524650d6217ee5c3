/**
 * @file
 * Case-level fan-out equivalence for the oracle (run under TSan by
 * scripts/check_sanitize.sh): the difftest and SDC sweeps, fanned
 * across a ThreadPool, must produce summaries byte-identical to the
 * serial loop at every thread count.
 */
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "difftest/difftest.h"
#include "hlo/builder.h"

namespace overlap {
namespace {

using difftest::DiffTestConfig;
using difftest::RunDiffTest;
using difftest::RunSdcSweep;
using difftest::SdcSweepConfig;

TEST(ParallelEvalTest, DiffTestSliceByteIdenticalAcrossThreadCounts)
{
    DiffTestConfig config;
    config.num_cases = 64;
    config.seed = 1;
    config.threads = 1;
    auto serial = RunDiffTest(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (int64_t threads : {2, 4}) {
        config.threads = threads;
        auto parallel = RunDiffTest(config);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        EXPECT_EQ(serial->ToString(), parallel->ToString());
        EXPECT_EQ(serial->cases_run, parallel->cases_run);
        EXPECT_EQ(serial->variants_run, parallel->variants_run);
        EXPECT_EQ(serial->mismatches, parallel->mismatches);
        EXPECT_EQ(serial->failures.size(), parallel->failures.size());
        EXPECT_EQ(serial->cases_by_site, parallel->cases_by_site);
        EXPECT_EQ(serial->odd_extent_cases, parallel->odd_extent_cases);
        EXPECT_EQ(serial->even_extent_cases, parallel->even_extent_cases);
    }
}

TEST(ParallelEvalTest, DiffTestFailureListIdenticalUnderInjectedBug)
{
    // With the deliberate shard-id bug the sweep produces mismatches;
    // the failure list (order, contents, cap cut-off) must not depend
    // on the thread count.
    DiffTestConfig config;
    config.num_cases = 24;
    config.seed = 5;
    config.inject_shard_id_bug = true;
    config.max_failures = 8;
    config.threads = 1;
    auto serial = RunDiffTest(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_GT(serial->mismatches, 0);

    config.threads = 4;
    auto parallel = RunDiffTest(config);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(serial->ToString(), parallel->ToString());
    ASSERT_EQ(serial->failures.size(), parallel->failures.size());
    for (size_t i = 0; i < serial->failures.size(); ++i) {
        EXPECT_EQ(serial->failures[i].spec.ToString(),
                  parallel->failures[i].spec.ToString());
        EXPECT_EQ(serial->failures[i].variant,
                  parallel->failures[i].variant);
    }
}

TEST(ParallelEvalTest, SdcSweepByteIdenticalAcrossThreadCounts)
{
    // Each SDC case derives its corruption from DeriveTaskSeed(seed,
    // index), never from scheduling order, so fanning cases across a
    // pool must reproduce the serial summary byte for byte.
    SdcSweepConfig config;
    config.num_cases = 24;
    config.seed = 1;
    config.threads = 1;
    auto serial = RunSdcSweep(config);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_TRUE(serial->Clean()) << serial->ToString();
    EXPECT_EQ(serial->cases_run, 24);

    config.threads = 3;
    auto parallel = RunSdcSweep(config);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(parallel->Clean()) << parallel->ToString();
    EXPECT_EQ(serial->ToString(), parallel->ToString());
}

/**
 * An einsum's parse is filled once and then read without a lock: threads
 * racing to read it and to clone its computation all see one parse, and
 * a clone made after the fill shares it.
 */
TEST(ParallelEvalTest, EinsumCacheFillRacesCleanlyWithReadsAndClones)
{
    HloComputation comp("main");
    HloBuilder b(&comp);
    HloInstruction* x = b.Parameter(0, Shape({4, 8}));
    HloInstruction* w = b.Parameter(1, Shape({8, 2}));
    HloInstruction* einsum = b.Einsum(x, w, "bf,fh->bh");
    comp.set_root(einsum);

    constexpr size_t kThreads = 4;
    std::vector<const EinsumSpec*> seen(kThreads, nullptr);
    std::vector<const EinsumSpec*> seen_by_clone(kThreads, nullptr);
    std::vector<std::unique_ptr<HloComputation>> clones(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            clones[t] = comp.Clone();
            seen[t] = einsum->TryEinsum();
            seen_by_clone[t] = clones[t]->root()->TryEinsum();
        });
    }
    for (std::thread& thread : threads) thread.join();

    ASSERT_NE(seen[0], nullptr);
    for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(seen[t], seen[0]);
        ASSERT_NE(seen_by_clone[t], nullptr);
        EXPECT_EQ(seen_by_clone[t]->ToString(), "bf,fh->bh");
    }
    EXPECT_EQ(comp.Clone()->root()->TryEinsum(), seen[0]);
}

}  // namespace
}  // namespace overlap
