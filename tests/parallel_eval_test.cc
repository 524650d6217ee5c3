/**
 * @file
 * Case-level fan-out equivalence for the oracle (run under TSan by
 * scripts/check_sanitize.sh): the difftest and SDC sweeps, fanned
 * across a ThreadPool, must produce summaries byte-identical to the
 * serial loop at every thread count.
 */
#include <gtest/gtest.h>

#include "difftest/difftest.h"

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

}  // namespace
}  // namespace overlap
