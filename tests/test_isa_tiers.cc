/**
 * @file
 * ISA-tier differential suite: every registry kernel, run through the
 * lane engine at every tier this host supports (plus the forced-scalar
 * fallback), must be bit-identical — scores, traceback endpoints,
 * CIGARs and cycle statistics — to the scalar wavefront engine. The
 * strip sweep's carried-row mode, which the streaming sDTW runs, is
 * driven directly at every vector tier and checked after every call
 * against rows built from Sdtw::peFunc; its full single-pair fill is
 * diffed against the wavefront engine in test_fastpath_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "host/tiling.hh"
#include "kernels/all.hh"
#include "kernels/registry.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"
#include "systolic/lane_sweep.hh"

using namespace dphls;

namespace {

/**
 * Mixed-shape workload for kernel @p K: lengths around the lane widths,
 * degenerate lanes (empty query/reference/both, single character) and —
 * for banded kernels — equal lengths so the band reaches the corner.
 */
template <typename K>
std::vector<test::Pair<typename K::CharT>>
tierPairs(seq::Rng &rng, int count, int max_len)
{
    std::vector<test::Pair<typename K::CharT>> pairs;
    for (int i = 0; i < count; i++) {
        const int qlen = 1 + static_cast<int>(rng.below(
                                 static_cast<uint64_t>(max_len)));
        const int rlen =
            K::banded ? qlen
                      : 1 + static_cast<int>(rng.below(
                                static_cast<uint64_t>(max_len)));
        pairs.push_back(test::shapedPair<K>(rng, qlen, rlen));
    }
    pairs.push_back(test::shapedPair<K>(rng, 0, K::banded ? 0 : 24));
    pairs.push_back(test::shapedPair<K>(rng, K::banded ? 0 : 24, 0));
    pairs.push_back(test::shapedPair<K>(rng, 1, 1));
    return pairs;
}

/**
 * Run @p pairs through a LaneAligner pinned to each tier in turn and
 * require results and cycle accounting identical to the wavefront
 * engine's, lane by lane.
 */
template <typename K>
void
expectTiersMatchScalar(
    const std::vector<test::Pair<typename K::CharT>> &pairs, int npe,
    int band)
{
    sim::EngineConfig cfg;
    cfg.numPe = npe;
    cfg.bandWidth = band;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    sim::SystolicAligner<K> engine(cfg);
    using Tr = core::ScoreTraits<typename K::ScoreT>;

    for (const sim::IsaTier tier : test::isaTiers()) {
        sim::EngineConfig tcfg = cfg;
        tcfg.isaTier = tier;
        sim::LaneAligner<K> lanes(tcfg);
        ASSERT_EQ(lanes.activeTier(), tier);

        std::vector<typename sim::LaneAligner<K>::LanePair> group;
        group.reserve(pairs.size());
        for (const auto &p : pairs)
            group.push_back({&p.query, &p.reference});
        const auto got = lanes.alignLanes(group);
        ASSERT_EQ(got.size(), pairs.size());

        for (size_t i = 0; i < pairs.size(); i++) {
            const auto gold =
                engine.align(pairs[i].query, pairs[i].reference);
            const std::string ctx = std::string(K::name) + " tier " +
                sim::isaTierName(tier) + " lane " + std::to_string(i) +
                " qlen=" + std::to_string(pairs[i].query.length()) +
                " rlen=" + std::to_string(pairs[i].reference.length());
            ASSERT_EQ(Tr::toDouble(gold.score),
                      Tr::toDouble(got[i].score)) << ctx;
            ASSERT_EQ(gold.end, got[i].end) << ctx;
            ASSERT_EQ(gold.start, got[i].start) << ctx;
            ASSERT_EQ(gold.ops, got[i].ops) << ctx;
            EXPECT_TRUE(engine.lastStats() == lanes.laneStats()[i])
                << ctx;
            EXPECT_EQ(engine.lastTotalCycles(),
                      lanes.laneTotalCycles(static_cast<int>(i)))
                << ctx;
        }
    }
}

template <typename K>
void
tierSweepKernel(uint64_t seed, int count, int max_len, int npe, int band)
{
    seq::Rng rng(seed);
    expectTiersMatchScalar<K>(tierPairs<K>(rng, count, max_len), npe,
                              band);
}

} // namespace

// --- Tier sweep: all 15 registry kernels x all available tiers -------

TEST(IsaTiers, RegistryHasFifteenKernels)
{
    // The per-kernel sweeps below cover exactly the registry: a 16th
    // kernel must show up here and get a sweep of its own.
    EXPECT_EQ(kernels::registry().size(), 15u);
}

TEST(IsaTiers, DnaLinearFamily)
{
    tierSweepKernel<kernels::GlobalLinear>(11, 9, 100, 16, 8);
    tierSweepKernel<kernels::LocalLinear>(12, 9, 100, 16, 8);
    tierSweepKernel<kernels::SemiGlobal>(13, 9, 100, 16, 8);
    tierSweepKernel<kernels::Overlap>(14, 9, 100, 16, 8);
}

TEST(IsaTiers, DnaAffineFamily)
{
    tierSweepKernel<kernels::GlobalAffine>(21, 9, 100, 16, 8);
    tierSweepKernel<kernels::LocalAffine>(22, 13, 90, 32, 16);
    tierSweepKernel<kernels::GlobalTwoPiece>(23, 7, 80, 16, 8);
}

TEST(IsaTiers, BandedFamily)
{
    tierSweepKernel<kernels::BandedGlobalLinear>(31, 9, 90, 32, 12);
    tierSweepKernel<kernels::BandedLocalAffine>(32, 9, 90, 32, 12);
    tierSweepKernel<kernels::BandedGlobalTwoPiece>(33, 9, 90, 32, 12);
}

TEST(IsaTiers, ProteinAndProfile)
{
    tierSweepKernel<kernels::ProteinLocal>(41, 9, 110, 32, 16);
    tierSweepKernel<kernels::ProfileAlignment>(42, 6, 60, 16, 8);
}

TEST(IsaTiers, FixedPointFamily)
{
    tierSweepKernel<kernels::Viterbi>(51, 6, 60, 16, 8);
    tierSweepKernel<kernels::Dtw>(52, 6, 60, 16, 8);
    tierSweepKernel<kernels::Sdtw>(53, 6, 70, 32, 16);
}

// --- Strip sweep: the streaming sDTW's systolic query strips ----------

namespace {

/** An sDTW sample: an int16 extreme, zero, or a random value. */
int32_t
stripSample(seq::Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return std::numeric_limits<int16_t>::min();
      case 1:
        return std::numeric_limits<int16_t>::max();
      case 2:
        return 0;
      default:
        return static_cast<int32_t>(rng.range(-2000, 2000));
    }
}

/** The DP row after @p q, built cell by cell from Sdtw::peFunc. */
std::vector<int32_t>
peFuncRow(const std::vector<int32_t> &prev, int32_t q,
          const std::vector<int32_t> &ref)
{
    using K = kernels::Sdtw;
    const K::Params params = K::defaultParams();
    std::vector<int32_t> row(prev.size());
    row[0] = K::initColScore(0, 0, params);
    for (size_t j = 1; j < row.size(); j++) {
        K::In in;
        in.up = {prev[j]};
        in.left = {row[j - 1]};
        in.diag = {prev[j - 1]};
        in.qryVal = seq::SignalSample{static_cast<int16_t>(q)};
        in.refVal = seq::SignalSample{static_cast<int16_t>(ref[j - 1])};
        row[j] = K::peFunc(in, params).score[0];
    }
    return row;
}

} // namespace

TEST(StripSweep, MatchesPeFuncAfterEveryCallAllTiers)
{
    using K = kernels::Sdtw;
    const K::Params params = K::defaultParams();
    const int32_t worst = core::scoreSentinelWorst<int32_t>(K::objective);
    constexpr size_t slack = sim::kMaxSweepLanes;
    seq::Rng rng(95);
    for (const sim::IsaTier tier : test::isaTiers()) {
        if (tier == sim::IsaTier::Scalar)
            continue;
        // A registration slip must fail here, not fall back to scalar.
        const auto sweep = sim::lookupStripSweep<K>(tier);
        ASSERT_NE(sweep.fn, nullptr) << sim::isaTierName(tier);
        const int w = sweep.lanes;
        ASSERT_EQ(w, sim::isaTierLanes(tier));
        for (const int rlen : {1, 2, w - 1, w, w + 1, 7 * w + 3, 300}) {
            for (const bool origin : {true, false}) {
                std::vector<int32_t> ref(static_cast<size_t>(rlen));
                for (auto &r : ref)
                    r = stripSample(rng);
                std::vector<int32_t> r32(ref.size() + 1 + slack, 0);
                std::copy(ref.begin(), ref.end(), r32.begin() + 1);
                // The origin row is the kernel's init row; a later row
                // has the sentinel left column and arbitrary scores.
                std::vector<int32_t> want(ref.size() + 1);
                want[0] = origin ? K::originScore(0, params) : worst;
                for (size_t j = 1; j < want.size(); j++) {
                    want[j] = origin
                        ? K::initRowScore(static_cast<int>(j), 0, params)
                        : static_cast<int32_t>(rng.below(1 << 20));
                }
                std::vector<int32_t> row(want.size() + slack, worst);
                std::copy(want.begin(), want.end(), row.begin());
                // Calls of one, several and partial strips.
                for (const int rows : {w, 1, 3 * w, w - 1, 2 * w + 1}) {
                    std::vector<int32_t> q32(
                        static_cast<size_t>(rows) + slack, 0);
                    for (int k = 0; k < rows; k++)
                        q32[static_cast<size_t>(k)] = stripSample(rng);
                    const std::vector<int32_t> col(
                        static_cast<size_t>(rows) + 1,
                        K::initColScore(1, 0, params));
                    int32_t *rp = row.data();
                    sim::StripSweepArgs<K> a;
                    a.qlen = rows;
                    a.rlen = rlen;
                    a.worstRaw = worst;
                    a.q32 = q32.data();
                    a.r32 = r32.data();
                    a.qStride = q32.size();
                    a.rStride = r32.size();
                    a.colInit = col.data();
                    a.rows = &rp;
                    a.params = &params;
                    sweep.fn(a);
                    for (int k = 0; k < rows; k++)
                        want = peFuncRow(want, q32[static_cast<size_t>(k)],
                                         ref);
                    ASSERT_EQ(std::vector<int32_t>(
                                  row.begin(),
                                  row.begin() + rlen + 1),
                              want)
                        << sim::isaTierName(tier) << " rlen " << rlen
                        << (origin ? " origin" : " later") << " rows "
                        << rows;
                }
            }
        }
    }
}

// --- Config surface --------------------------------------------------

TEST(IsaTiers, ParseAndNames)
{
    sim::IsaTier t = sim::IsaTier::Auto;
    EXPECT_TRUE(sim::parseIsaTier("sse2", t));
    EXPECT_EQ(t, sim::IsaTier::Sse2);
    EXPECT_TRUE(sim::parseIsaTier("avx512", t));
    EXPECT_EQ(t, sim::IsaTier::Avx512);
    EXPECT_TRUE(sim::parseIsaTier("auto", t));
    EXPECT_EQ(t, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::parseIsaTier("scalar", t));
    EXPECT_EQ(t, sim::IsaTier::Scalar);
    EXPECT_FALSE(sim::parseIsaTier("avx1024", t));
    EXPECT_FALSE(sim::parseIsaTier("", t));
    for (const auto tier : test::isaTiers()) {
        sim::IsaTier back = sim::IsaTier::Auto;
        ASSERT_TRUE(sim::parseIsaTier(sim::isaTierName(tier), back));
        EXPECT_EQ(back, tier);
    }
}

TEST(IsaTiers, ResolveAndUnsupportedThrow)
{
    // Auto resolves to a concrete, supported tier.
    const sim::IsaTier active = sim::resolveIsaTier(sim::IsaTier::Auto);
    EXPECT_NE(active, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::isaTierSupported(active));

    // An explicitly requested tier the host cannot execute must throw
    // at construction, not silently fall back (only testable on hosts
    // that actually lack a tier).
    for (const auto t : {sim::IsaTier::Avx2, sim::IsaTier::Avx512}) {
        if (!sim::isaTierSupported(t)) {
            EXPECT_THROW(sim::resolveIsaTier(t), std::invalid_argument);
            sim::EngineConfig cfg;
            cfg.isaTier = t;
            EXPECT_THROW(sim::LaneAligner<kernels::GlobalLinear>{cfg},
                         std::invalid_argument);
        }
    }
}

// --- Host plumbing ---------------------------------------------------

TEST(IsaTiers, PipelineStampsActiveTier)
{
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;
    host::BatchConfig cfg;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.cacheEntries = 0;
    Pipeline pipeline(cfg);

    const sim::IsaTier active = pipeline.activeIsaTier();
    EXPECT_NE(active, sim::IsaTier::Auto);
    EXPECT_TRUE(sim::isaTierSupported(active));

    seq::Rng rng(606);
    std::vector<typename Pipeline::Job> jobs;
    for (int i = 0; i < 4; i++) {
        auto p = test::randomDnaPair(rng, 60);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    auto ticket = pipeline.submit(std::move(jobs));
    ticket->wait();
    const auto stats = pipeline.collect(ticket);
    EXPECT_STREQ(stats.isaTier, sim::isaTierName(active));
}

TEST(IsaTiers, TilingIsTierTransparent)
{
    using K = kernels::GlobalAffine;
    seq::Rng rng(1010);
    const auto pair = test::shapedPair<K>(rng, 1800, 1750);

    sim::EngineConfig ecfg;
    ecfg.numPe = 32;
    ecfg.maxQueryLength = 1024;
    ecfg.maxReferenceLength = 1024;
    ecfg.isaTier = sim::IsaTier::Scalar;
    sim::SystolicAligner<K> scalar(ecfg);
    const host::TilingConfig tiling;
    const auto want =
        host::tiledAlign(scalar, pair.query, pair.reference, tiling);
    for (const sim::IsaTier tier : test::isaTiers()) {
        ecfg.isaTier = tier;
        sim::SystolicAligner<K> engine(ecfg);
        const auto got =
            host::tiledAlign(engine, pair.query, pair.reference, tiling);
        EXPECT_EQ(want.ops, got.ops) << sim::isaTierName(tier);
        EXPECT_EQ(want.tiles, got.tiles) << sim::isaTierName(tier);
        EXPECT_EQ(want.totalCycles, got.totalCycles)
            << sim::isaTierName(tier);
    }
}
