/**
 * @file
 * Unit tests for host::percentile (nearest-rank, in-place) and the
 * ClassLatencyProbe.
 *
 * percentile() used to copy + fully sort per call and, worse, computed
 * the rank as p * (n - 1) truncated — a plain index interpolation that
 * returned the wrong element for common (n, p) pairs and read past the
 * minimum for p = 0 on unsorted input. These tests pin the
 * nearest-rank contract against a brute-force sorted-copy oracle and
 * the edge cases (empty, single element, p outside [0, 1], NaN p).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "host/latency_probe.hh"

namespace {

using dphls::host::percentile;

/** Brute-force nearest-rank reference: sort a copy, index ceil(p*n)-1. */
double
referencePercentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    if (!(p > 0))
        return values.front();
    if (p >= 1)
        return values.back();
    const size_t n = values.size();
    const size_t rank = std::min(
        n, static_cast<size_t>(std::max(
               1.0, std::ceil(p * static_cast<double>(n)))));
    return values[rank - 1];
}

TEST(Percentile, EmptyReturnsZero)
{
    std::vector<double> empty;
    EXPECT_EQ(percentile(empty, 0.5), 0.0);
    EXPECT_EQ(percentile(empty, 0.0), 0.0);
    EXPECT_EQ(percentile(empty, 1.0), 0.0);
}

TEST(Percentile, SingleElementForEveryP)
{
    for (double p : {-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 7.0}) {
        std::vector<double> one{42.5};
        EXPECT_EQ(percentile(one, p), 42.5) << "p=" << p;
    }
}

TEST(Percentile, ClampsPBelowZeroToMinimum)
{
    std::vector<double> v{9, 3, 7, 1, 5};
    EXPECT_EQ(percentile(v, -0.5), 1.0);
    v = {9, 3, 7, 1, 5};
    EXPECT_EQ(percentile(v, 0.0), 1.0);
}

TEST(Percentile, ClampsPAboveOneToMaximum)
{
    std::vector<double> v{9, 3, 7, 1, 5};
    EXPECT_EQ(percentile(v, 1.0), 9.0);
    v = {9, 3, 7, 1, 5};
    EXPECT_EQ(percentile(v, 2.5), 9.0);
}

TEST(Percentile, NanPTreatedAsMinimum)
{
    std::vector<double> v{4, 2, 8};
    EXPECT_EQ(percentile(v, std::numeric_limits<double>::quiet_NaN()),
              2.0);
}

TEST(Percentile, NearestRankOnKnownVector)
{
    // Ten distinct values: nearest-rank p50 of n=10 is the 5th order
    // statistic (ceil(0.5*10) = 5), p90 the 9th, p99 the 10th.
    const std::vector<double> base{10, 20, 30, 40, 50,
                                   60, 70, 80, 90, 100};
    std::vector<double> v = base;
    EXPECT_EQ(percentile(v, 0.50), 50.0);
    v = base;
    EXPECT_EQ(percentile(v, 0.90), 90.0);
    v = base;
    EXPECT_EQ(percentile(v, 0.99), 100.0);
    v = base;
    EXPECT_EQ(percentile(v, 0.05), 10.0);
}

TEST(Percentile, MatchesSortedCopyOracle)
{
    // Deterministic pseudo-random input (LCG) across sizes and p's.
    uint64_t state = 12345;
    auto nextVal = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(state >> 33) / 1e6;
    };
    for (size_t n : {2u, 3u, 7u, 64u, 1000u}) {
        std::vector<double> base(n);
        for (auto &x : base)
            x = nextVal();
        for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999}) {
            std::vector<double> v = base;
            EXPECT_EQ(percentile(v, p), referencePercentile(base, p))
                << "n=" << n << " p=" << p;
        }
    }
}

TEST(Percentile, ReordersInPlaceWithoutResizing)
{
    std::vector<double> v{5, 1, 4, 2, 3};
    const std::vector<double> sortedBefore = [&] {
        auto c = v;
        std::sort(c.begin(), c.end());
        return c;
    }();
    percentile(v, 0.5);
    EXPECT_EQ(v.size(), 5u);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sortedBefore); // same multiset, just permuted
}

TEST(Percentile, RvalueOverloadAcceptsTemporaries)
{
    EXPECT_EQ(percentile(std::vector<double>{3, 1, 2}, 1.0), 3.0);
}

TEST(ClassLatencyProbe, AccumulatesCumulativeCyclesPerClass)
{
    // 100 MHz: 1e8 cycles/second. Latency of each completion is the
    // channel's *cumulative* busy cycles at that instant.
    using dphls::host::ClassLatencyProbe;
    ClassLatencyProbe probe(100.0);
    probe.record(1'000'000, ClassLatencyProbe::Interactive); // 10 ms
    probe.record(1'000'000, ClassLatencyProbe::Bulk);        // 20 ms
    probe.record(2'000'000, ClassLatencyProbe::Interactive); // 40 ms
    const auto &interactive = probe.of(ClassLatencyProbe::Interactive);
    const auto &bulk = probe.of(ClassLatencyProbe::Bulk);
    ASSERT_EQ(interactive.size(), 2u);
    ASSERT_EQ(bulk.size(), 1u);
    EXPECT_TRUE(probe.of(ClassLatencyProbe::Realtime).empty());
    EXPECT_DOUBLE_EQ(interactive[0], 0.01);
    EXPECT_DOUBLE_EQ(bulk[0], 0.02);
    EXPECT_DOUBLE_EQ(interactive[1], 0.04);
}

} // namespace
