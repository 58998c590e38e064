/**
 * @file
 * Differential suite for the engine's execution paths: the fast path
 * must be bit-identical to the wavefront reference path in score,
 * optimum cell, traceback walk (CIGAR ops + start cell) AND every
 * cycle-statistics field, for every registered kernel, across
 * deterministic edge shapes (empty sequences, qlen < NPE, band edges,
 * lengths around every strip height W) and randomized configurations.
 *
 * Every case runs the fast path at IsaTier::Scalar (the row-major loop)
 * and at every SIMD tier this host supports (the strip sweep, whose
 * registration is asserted so a miss cannot fall back silently). This
 * is the contract that lets the engine pick the fast path by default:
 * anything observable through align()/lastStats() is indistinguishable
 * between paths and tiers.
 */

#include <gtest/gtest.h>

#include "core/cigar.hh"
#include "helpers.hh"
#include "kernels/all.hh"
#include "systolic/engine.hh"
#include "systolic/lane_sweep.hh"

using namespace dphls;

namespace {

void
expectStatsEqual(const sim::CycleStats &w, const sim::CycleStats &f,
                 const std::string &ctx)
{
    EXPECT_EQ(w.seqLoad, f.seqLoad) << ctx;
    EXPECT_EQ(w.init, f.init) << ctx;
    EXPECT_EQ(w.fill, f.fill) << ctx;
    EXPECT_EQ(w.fillTrips, f.fillTrips) << ctx;
    EXPECT_EQ(w.chunks, f.chunks) << ctx;
    EXPECT_EQ(w.reduction, f.reduction) << ctx;
    EXPECT_EQ(w.traceback, f.traceback) << ctx;
    EXPECT_EQ(w.writeback, f.writeback) << ctx;
    EXPECT_EQ(w.extra, f.extra) << ctx;
    EXPECT_TRUE(w == f) << ctx;
}

template <typename K>
void
expectPathsIdentical(const seq::Sequence<typename K::CharT> &q,
                     const seq::Sequence<typename K::CharT> &r, int npe,
                     int band, bool skip_tb = false,
                     sim::CycleModelOptions cycles = {})
{
    sim::EngineConfig cfg;
    cfg.numPe = npe;
    cfg.bandWidth = band;
    cfg.maxQueryLength = 8192;
    cfg.maxReferenceLength = 8192;
    cfg.skipTraceback = skip_tb;
    cfg.cycles = cycles;

    cfg.path = sim::EnginePath::Wavefront;
    sim::SystolicAligner<K> wave(cfg);
    ASSERT_EQ(wave.activePath(), sim::EnginePath::Wavefront);
    const auto a = wave.align(q, r);

    for (const sim::IsaTier tier : test::isaTiers()) {
        cfg.path = sim::EnginePath::Fast;
        cfg.isaTier = tier;
        sim::SystolicAligner<K> fast(cfg);
        ASSERT_EQ(fast.activePath(), sim::EnginePath::Fast);
        const auto b = fast.align(q, r);

        const std::string ctx = std::string(K::name) + " tier " +
            sim::isaTierName(tier) + " npe=" + std::to_string(npe) +
            " band=" + std::to_string(band) +
            " qlen=" + std::to_string(q.length()) +
            " rlen=" + std::to_string(r.length()) +
            (skip_tb ? " skip_tb" : "");
        using Tr = core::ScoreTraits<typename K::ScoreT>;
        ASSERT_EQ(Tr::toDouble(a.score), Tr::toDouble(b.score)) << ctx;
        ASSERT_EQ(a.end, b.end) << ctx;
        ASSERT_EQ(a.start, b.start) << ctx;
        ASSERT_EQ(a.ops, b.ops) << ctx;
        expectStatsEqual(wave.lastStats(), fast.lastStats(), ctx);
        ASSERT_EQ(wave.lastTotalCycles(), fast.lastTotalCycles()) << ctx;
    }
}

/**
 * Full sweep for one kernel: deterministic edge shapes (empty inputs,
 * qlen < / == / > NPE, band-edge and band-excluded geometries) crossed
 * with several NPE and band widths; every pairing of lengths 0, 1,
 * W-1, W, W+1 and 2W+1 for W = 4, 8 and 16 (bands 0, 1, 2, W and 64 on
 * banded kernels, traceback on and off); plus a randomized tail.
 */
template <typename K>
void
sweepKernel()
{
    // Every SIMD tier must run the strip sweep, not the fallback.
    for (const sim::IsaTier tier : test::isaTiers()) {
        if (tier != sim::IsaTier::Scalar) {
            ASSERT_NE(sim::lookupStripSweep<K>(tier).fn, nullptr)
                << K::name << " tier " << sim::isaTierName(tier);
        }
    }

    seq::Rng rng(static_cast<uint64_t>(K::kernelId) * 1000003ULL + 17);

    const int npes[] = {1, 3, 32};
    const int bands[] = {2, 8, 33};
    const std::pair<int, int> shapes[] = {
        {0, 0},   {0, 7},  {7, 0},   {1, 1},   {1, 40},  {40, 1},
        {3, 37},  {31, 33}, {32, 32}, {33, 31}, {64, 64}, {65, 63},
        {97, 113},
    };

    for (const int npe : npes) {
        for (const auto &[qlen, rlen] : shapes) {
            const auto p = test::shapedPair<K>(rng, qlen, rlen);
            for (const int band : bands) {
                expectPathsIdentical<K>(p.query, p.reference, npe, band);
                if (!K::banded)
                    break; // band is inert for unbanded kernels
            }
        }
    }

    const int lens[] = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};
    for (const int qlen : lens) {
        for (const int rlen : lens) {
            const auto p = test::shapedPair<K>(rng, qlen, rlen);
            for (const int band : {0, 1, 2, 4, 8, 16, 64}) {
                for (const bool skip_tb : {false, true})
                    expectPathsIdentical<K>(p.query, p.reference, 5, band,
                                            skip_tb);
                if (!K::banded)
                    break;
            }
        }
    }

    // Randomized configurations, including non-default cycle options.
    for (int t = 0; t < 20; t++) {
        const int qlen = static_cast<int>(rng.below(140));
        const int rlen = static_cast<int>(rng.below(140));
        const int npe = 1 + static_cast<int>(rng.below(64));
        const int band = 1 + static_cast<int>(rng.below(48));
        sim::CycleModelOptions cycles;
        cycles.overlapLoadInit = t % 2 == 0;
        cycles.pipelineDepth = 1 + static_cast<int>(rng.below(12));
        cycles.tracebackCyclesPerStep = 1 + static_cast<int>(rng.below(3));
        cycles.hostStreamCyclesPerChar = static_cast<int>(rng.below(3));
        const auto p = test::shapedPair<K>(rng, qlen, rlen);
        expectPathsIdentical<K>(p.query, p.reference, npe, band,
                                t % 5 == 4, cycles);
    }
}

} // namespace

TEST(FastPathEquivalence, GlobalLinear)
{
    sweepKernel<kernels::GlobalLinear>();
}
TEST(FastPathEquivalence, GlobalAffine)
{
    sweepKernel<kernels::GlobalAffine>();
}
TEST(FastPathEquivalence, LocalLinear)
{
    sweepKernel<kernels::LocalLinear>();
}
TEST(FastPathEquivalence, LocalAffine)
{
    sweepKernel<kernels::LocalAffine>();
}
TEST(FastPathEquivalence, GlobalTwoPiece)
{
    sweepKernel<kernels::GlobalTwoPiece>();
}
TEST(FastPathEquivalence, Overlap) { sweepKernel<kernels::Overlap>(); }
TEST(FastPathEquivalence, SemiGlobal)
{
    sweepKernel<kernels::SemiGlobal>();
}
TEST(FastPathEquivalence, ProfileAlignment)
{
    sweepKernel<kernels::ProfileAlignment>();
}
TEST(FastPathEquivalence, Dtw) { sweepKernel<kernels::Dtw>(); }
TEST(FastPathEquivalence, Viterbi) { sweepKernel<kernels::Viterbi>(); }
TEST(FastPathEquivalence, BandedGlobalLinear)
{
    sweepKernel<kernels::BandedGlobalLinear>();
}
TEST(FastPathEquivalence, BandedLocalAffine)
{
    sweepKernel<kernels::BandedLocalAffine>();
}
TEST(FastPathEquivalence, BandedGlobalTwoPiece)
{
    sweepKernel<kernels::BandedGlobalTwoPiece>();
}
TEST(FastPathEquivalence, Sdtw) { sweepKernel<kernels::Sdtw>(); }
TEST(FastPathEquivalence, ProteinLocal)
{
    sweepKernel<kernels::ProteinLocal>();
}

/**
 * Long banded pairs (many strips, each stepping only over its band
 * window), length skews right at, inside and beyond the band (the last
 * has no in-band corner, so every path must report the same
 * no-eligible-cell outcome), and the narrowest bands.
 */
TEST(FastPathEquivalence, LongAndBandEdgeShapes)
{
    seq::Rng rng(61);
    const auto shaped = [&](auto kernel, int qlen, int rlen, int band) {
        using K = decltype(kernel);
        const auto p = test::shapedPair<K>(rng, qlen, rlen);
        expectPathsIdentical<K>(p.query, p.reference, 32, band);
    };
    shaped(kernels::BandedGlobalLinear{}, 700, 700, 32);
    shaped(kernels::BandedLocalAffine{}, 500, 500, 24);
    shaped(kernels::BandedGlobalTwoPiece{}, 400, 400, 16);
    shaped(kernels::BandedGlobalLinear{}, 200, 184, 16);
    shaped(kernels::BandedGlobalLinear{}, 200, 185, 16);
    shaped(kernels::BandedGlobalLinear{}, 200, 150, 16);
    shaped(kernels::BandedGlobalLinear{}, 60, 60, 1);
    shaped(kernels::BandedGlobalLinear{}, 60, 60, 0);
    shaped(kernels::BandedGlobalLinear{}, 1, 60, 8);
    shaped(kernels::GlobalAffine{}, 160, 120, 8);
    shaped(kernels::LocalLinear{}, 150, 90, 8);
    shaped(kernels::ProteinLocal{}, 120, 100, 8);
}

/**
 * Golden tie-break pins: the family cell helpers decode the traceback
 * source from equality tests in priority order (Diag > Up/Ix > Left/Iy
 * > long-gap layers). The differential suites all run the same
 * helpers, so these literal CIGARs on tie-heavy inputs are the
 * independent anchor that a decode-order regression cannot slip past.
 * (The "1D1M"/"1I1M" cases are hand-derivable: at the final cell the
 * match and gap candidates tie, and Diag must win the tie.)
 */
template <typename K>
void
expectGolden(const char *q, const char *r, double score,
             const char *cigar, core::Coord start, core::Coord end)
{
    sim::SystolicAligner<K> engine;
    const auto res =
        engine.align(seq::dnaFromString(q), seq::dnaFromString(r));
    const std::string ctx =
        std::string(K::name) + " q=" + q + " r=" + r;
    EXPECT_EQ(res.scoreAsDouble(), score) << ctx;
    EXPECT_EQ(res.ops.empty() ? "-" : core::toCigar(res.ops), cigar)
        << ctx;
    EXPECT_EQ(res.start, start) << ctx;
    EXPECT_EQ(res.end, end) << ctx;
}

TEST(FastPathEquivalence, TieBreakGoldens)
{
    using core::Coord;
    expectGolden<kernels::GlobalLinear>("A", "AA", 0, "1D1M", Coord{0, 0},
                                        Coord{1, 2});
    expectGolden<kernels::GlobalLinear>("AA", "A", 0, "1I1M", Coord{0, 0},
                                        Coord{2, 1});
    expectGolden<kernels::GlobalLinear>("ACAC", "CACA", 1, "1D3M1I",
                                        Coord{0, 0}, Coord{4, 4});
    expectGolden<kernels::GlobalAffine>("ACGTACGT", "ACGT", 1, "4I4M",
                                        Coord{0, 0}, Coord{8, 4});
    expectGolden<kernels::GlobalAffine>("ACAC", "CACA", -2, "1D3M1I",
                                        Coord{0, 0}, Coord{4, 4});
    expectGolden<kernels::GlobalTwoPiece>("AAAAAAAAAA", "AAAA", -6,
                                          "6I4M", Coord{0, 0},
                                          Coord{10, 4});
    expectGolden<kernels::LocalAffine>("GGACGTGG", "TTACGTTT", 8, "4M",
                                       Coord{2, 2}, Coord{6, 6});
    // All-mismatch local input: every cell clamps to zero, so the
    // first eligible cell in (row, col) order wins with an empty walk.
    expectGolden<kernels::LocalAffine>("AC", "GT", 0, "-", Coord{1, 1},
                                       Coord{1, 1});
    expectGolden<kernels::SemiGlobal>("ACGT", "TTACGTTT", 4, "4M",
                                      Coord{0, 2}, Coord{4, 6});
    expectGolden<kernels::Overlap>("ACGTAC", "GTACGG", 4, "4M",
                                   Coord{2, 0}, Coord{6, 4});
}

TEST(FastPathEquivalence, AutoSelectsFastWithoutTrace)
{
    sim::EngineConfig cfg;
    sim::SystolicAligner<kernels::LocalAffine> engine(cfg);
    EXPECT_EQ(engine.activePath(), sim::EnginePath::Fast);

    sim::ScheduleTrace trace;
    cfg.trace = &trace;
    sim::SystolicAligner<kernels::LocalAffine> traced(cfg);
    EXPECT_EQ(traced.activePath(), sim::EnginePath::Wavefront);
}

TEST(FastPathEquivalence, FastPathRejectsTrace)
{
    sim::ScheduleTrace trace;
    sim::EngineConfig cfg;
    cfg.path = sim::EnginePath::Fast;
    cfg.trace = &trace;
    EXPECT_THROW(sim::SystolicAligner<kernels::GlobalLinear>{cfg},
                 std::invalid_argument);
}
