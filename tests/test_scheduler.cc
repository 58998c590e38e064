/**
 * @file
 * parallelFor tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <mutex>

#include "host/scheduler.hh"

using namespace dphls::host;

TEST(ParallelFor, CoversEachIndexExactlyOnce)
{
    std::mutex m;
    std::set<int> seen;
    parallelFor(250, 8, [&](int i) {
        std::lock_guard lock(m);
        EXPECT_TRUE(seen.insert(i).second) << "duplicate index " << i;
    });
    EXPECT_EQ(seen.size(), 250u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 249);
}

TEST(ParallelFor, HandlesEmptyAndSingleThread)
{
    int calls = 0;
    parallelFor(0, 4, [&](int) { calls++; });
    EXPECT_EQ(calls, 0);
    parallelFor(5, 1, [&](int) { calls++; });
    EXPECT_EQ(calls, 5);
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> count{0};
    parallelFor(3, 16, [&](int) { count++; });
    EXPECT_EQ(count.load(), 3);
}
