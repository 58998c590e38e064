/**
 * @file
 * Result-cache tests: hash stability and sensitivity, LRU behavior of
 * the sharded cache, and end-to-end transparency inside StreamPipeline
 * (repeated pairs skip the engine but results and cycle accounting stay
 * bit-identical to an uncached run).
 */

#include <gtest/gtest.h>

#include "helpers.hh"
#include "host/backend.hh"
#include "host/stream_pipeline.hh"
#include "host/result_cache.hh"
#include "kernels/all.hh"
#include "systolic/engine.hh"

using namespace dphls;

TEST(PairHash, StableAndContentSensitive)
{
    const auto q1 = seq::dnaFromString("ACGTACGT");
    const auto r1 = seq::dnaFromString("ACGGACGT");
    const auto params = kernels::LocalAffine::defaultParams();

    // Same contents, different objects (names ignored).
    auto q2 = seq::dnaFromString("ACGTACGT", "other-name");
    const auto h1 = host::pairHash(q1, r1, params);
    const auto h2 = host::pairHash(q2, r1, params);
    EXPECT_EQ(h1, h2);

    // Any content change flips the digest.
    const auto r2 = seq::dnaFromString("ACGGACGA");
    EXPECT_FALSE(h1 == host::pairHash(q1, r2, params));

    // Swapping query and reference is a different job.
    EXPECT_FALSE(h1 == host::pairHash(r1, q1, params));

    // Length boundary shifts must not alias (domain separation).
    const auto a = seq::dnaFromString("ACGTA");
    const auto b = seq::dnaFromString("CGT");
    const auto c = seq::dnaFromString("ACGT");
    const auto d = seq::dnaFromString("ACGT");
    EXPECT_FALSE(host::pairHash(a, b, params) ==
                 host::pairHash(c, d, params));

    // Parameter changes flip the digest too.
    auto p2 = params;
    p2.gapOpen += 1;
    EXPECT_FALSE(h1 == host::pairHash(q1, r1, p2));
}

TEST(PairHash, ConfigSaltSeparatesKeys)
{
    const auto q = seq::dnaFromString("ACGTACGT");
    const auto r = seq::dnaFromString("ACGGACGT");
    const auto params = kernels::BandedGlobalLinear::defaultParams();

    // Different salts yield different keys for the same job...
    const auto h1 = host::pairHash(q, r, params, 1);
    const auto h2 = host::pairHash(q, r, params, 2);
    EXPECT_FALSE(h1 == h2);
    // ...and the same salt is stable.
    EXPECT_EQ(h1, host::pairHash(q, r, params, 1));

    // Every result- or cycle-affecting EngineConfig field flips the
    // derived salt: band width, NPE, maxima, traceback, cycle options.
    sim::EngineConfig base;
    const uint64_t s0 = host::engineConfigSalt(base);
    auto salted = [&](auto mutate) {
        sim::EngineConfig cfg;
        mutate(cfg);
        return host::engineConfigSalt(cfg);
    };
    EXPECT_EQ(s0, host::engineConfigSalt(base)); // deterministic
    EXPECT_NE(s0, salted([](auto &c) { c.bandWidth = 8; }));
    EXPECT_NE(s0, salted([](auto &c) { c.numPe = 16; }));
    EXPECT_NE(s0, salted([](auto &c) { c.maxQueryLength = 512; }));
    EXPECT_NE(s0, salted([](auto &c) { c.skipTraceback = true; }));
    EXPECT_NE(s0, salted([](auto &c) { c.cycles.pipelineDepth = 9; }));
}

TEST(ShardedResultCache, CrossConfigBackendsDoNotAlias)
{
    // Regression: two backends with different band widths sharing one
    // cache must never replay each other's results for the same pair.
    // A 12-base insertion forces the path off the diagonal, so the
    // narrow band scores it very differently from the wide one.
    using K = kernels::BandedGlobalLinear;
    using Result = core::AlignResult<K::ScoreT>;
    const auto params = K::defaultParams();
    auto q = seq::dnaFromString(std::string(40, 'A'));
    auto r = seq::dnaFromString("GGGGGGGGGGGG" + std::string(40, 'A'));

    sim::EngineConfig narrow_cfg, wide_cfg;
    narrow_cfg.bandWidth = 2;
    wide_cfg.bandWidth = 32;

    host::ShardedResultCache<Result> cache(64, 2);
    host::DeviceChannelBackend<K> narrow(narrow_cfg, params, 1, 0, 250.0,
                                         &cache);
    host::DeviceChannelBackend<K> wide(wide_cfg, params, 1, 0, 250.0,
                                       &cache);

    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    jobs.push_back({q, r});
    const std::vector<int> indices{0};
    Result narrow_res, wide_res;
    uint64_t narrow_cycles = 0, wide_cycles = 0;
    host::ChannelStats acct;
    host::StageRunControl ctl;
    narrow.run(jobs, indices, &narrow_res, &narrow_cycles, acct, ctl);
    wide.run(jobs, indices, &wide_res, &wide_cycles, acct, ctl);

    // Both computed (no cross-config hit), and each matches a fresh
    // uncached engine at its own configuration.
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 2u);
    sim::SystolicAligner<K> narrow_engine(narrow_cfg, params);
    sim::SystolicAligner<K> wide_engine(wide_cfg, params);
    const auto narrow_want = narrow_engine.align(q, r);
    const uint64_t narrow_want_cycles = narrow_engine.lastTotalCycles();
    const auto wide_want = wide_engine.align(q, r);
    const uint64_t wide_want_cycles = wide_engine.lastTotalCycles();
    EXPECT_EQ(narrow_res.score, narrow_want.score);
    EXPECT_EQ(narrow_res.ops, narrow_want.ops);
    EXPECT_EQ(narrow_cycles, narrow_want_cycles);
    EXPECT_EQ(wide_res.score, wide_want.score);
    EXPECT_EQ(wide_res.ops, wide_want.ops);
    EXPECT_EQ(wide_cycles, wide_want_cycles);
    // The two configurations genuinely disagree, so aliasing would
    // have been visible.
    EXPECT_NE(narrow_want.score, wide_want.score);

    // Same-config repeats still hit.
    narrow.run(jobs, indices, &narrow_res, &narrow_cycles, acct, ctl);
    EXPECT_EQ(cache.counters().hits, 1u);
    EXPECT_EQ(narrow_res.score, narrow_want.score);
}

TEST(ShardedResultCache, LruEvictionPerShard)
{
    host::ShardedResultCache<int> cache(4, 1); // one shard, 4 entries
    ASSERT_TRUE(cache.enabled());
    for (uint64_t i = 0; i < 4; i++)
        cache.insert({i + 1, i + 100}, static_cast<int>(i), i);
    EXPECT_EQ(cache.size(), 4u);

    // Touch key 1 so key 2 becomes the LRU tail, then overflow.
    EXPECT_TRUE(cache.lookup({1, 100}).has_value());
    cache.insert({9, 109}, 9, 9);
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_TRUE(cache.lookup({1, 100}).has_value());
    EXPECT_FALSE(cache.lookup({2, 101}).has_value());
    EXPECT_EQ(cache.counters().evictions, 1u);

    const auto hit = cache.lookup({9, 109});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, 9);
    EXPECT_EQ(hit->cycles, 9u);
}

TEST(ShardedResultCache, ZeroCapacityDisables)
{
    host::ShardedResultCache<int> cache(0);
    EXPECT_FALSE(cache.enabled());
    cache.insert({1, 2}, 3, 4);
    EXPECT_FALSE(cache.lookup({1, 2}).has_value());
    EXPECT_EQ(cache.counters().hits + cache.counters().misses, 0u);
}

TEST(StreamPipelineBatch, CacheIsResultAndAccountingTransparent)
{
    seq::Rng rng(42);
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;

    // 8 distinct pairs, each submitted 4 times.
    std::vector<typename Pipeline::Job> jobs;
    for (int rep = 0; rep < 4; rep++) {
        seq::Rng gen(7); // same stream every rep -> identical pairs
        for (int i = 0; i < 8; i++) {
            auto p = test::randomDnaPair(gen, 90, true);
            jobs.push_back({std::move(p.query), std::move(p.reference)});
        }
    }

    host::BatchConfig ccfg;
    ccfg.nk = 2;
    ccfg.nb = 2;
    ccfg.cacheEntries = 256;
    host::BatchConfig ncfg = ccfg;
    ncfg.cacheEntries = 0;

    Pipeline cached(ccfg), uncached(ncfg);
    std::vector<typename Pipeline::Result> cres, nres;
    std::vector<uint64_t> ccyc, ncyc;
    const auto cstats = cached.runAll(jobs, &cres, &ccyc);
    const auto nstats = uncached.runAll(jobs, &nres, &ncyc);

    ASSERT_EQ(cres.size(), nres.size());
    for (size_t i = 0; i < cres.size(); i++) {
        ASSERT_EQ(cres[i].score, nres[i].score) << i;
        ASSERT_EQ(cres[i].end, nres[i].end) << i;
        ASSERT_EQ(cres[i].ops, nres[i].ops) << i;
    }
    ASSERT_EQ(ccyc, ncyc);
    EXPECT_EQ(cstats.makespanCycles, nstats.makespanCycles);
    EXPECT_EQ(cstats.totalCycles, nstats.totalCycles);
    EXPECT_EQ(cstats.paths.matches, nstats.paths.matches);

    const auto counters = cached.cacheCounters();
    EXPECT_GT(counters.hits, 0u);
    EXPECT_EQ(uncached.cacheCounters().hits, 0u);
    // Every repeat of a distinct pair can hit once computed; with the
    // 2-channel round-robin shard both channels may compute a pair once,
    // so hits are at least total - 2 * distinct.
    EXPECT_GE(counters.hits, static_cast<uint64_t>(jobs.size()) - 2 * 8);
}

TEST(StreamPipelineBatch, CacheComposesWithLanes)
{
    seq::Rng rng(77);
    using K = kernels::GlobalAffine;
    using Pipeline = host::StreamPipeline<K>;

    std::vector<typename Pipeline::Job> jobs;
    for (int rep = 0; rep < 3; rep++) {
        seq::Rng gen(11);
        for (int i = 0; i < 10; i++) {
            auto p = test::randomDnaPair(gen, 70, true);
            jobs.push_back({std::move(p.query), std::move(p.reference)});
        }
    }

    host::BatchConfig base;
    base.nk = 1;
    base.nb = 2;
    base.cacheEntries = 0;
    base.laneWidth = 1;
    host::BatchConfig both = base;
    both.cacheEntries = 128;
    both.laneWidth = 8;

    Pipeline plain(base), accel(both);
    std::vector<typename Pipeline::Result> pres, ares;
    std::vector<uint64_t> pcyc, acyc;
    plain.runAll(jobs, &pres, &pcyc);
    accel.runAll(jobs, &ares, &acyc);

    ASSERT_EQ(pres.size(), ares.size());
    for (size_t i = 0; i < pres.size(); i++) {
        ASSERT_EQ(pres[i].score, ares[i].score) << i;
        ASSERT_EQ(pres[i].ops, ares[i].ops) << i;
    }
    ASSERT_EQ(pcyc, acyc);
    EXPECT_GT(accel.cacheCounters().hits, 0u);
}
