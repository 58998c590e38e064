/**
 * @file
 * Seed–chain–extend mapper coverage:
 *
 *  - minimizer scheme invariants (shared seeds between a read and its
 *    source window, leftmost-tie canonicality, short-input behavior);
 *  - differential extension: the mapper's planned jobs aligned through
 *    the StreamPipeline must match the full-matrix golden model
 *    bit-for-bit (score, optimum cell, traceback path);
 *  - placement: simulated reads land on their true locus, INCLUDING a
 *    read taken from the very last read-length window of the
 *    reference — unreachable before the simulateRead off-by-one fix;
 *  - MAPQ: unique placements score high, a read from a duplicated
 *    region scores 0 confidence;
 *  - the long-read path (GACT tiling) maps and places reads the
 *    device window cannot hold.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "host/stream_pipeline.hh"
#include "kernels/semi_global.hh"
#include "reference/matrix_aligner.hh"
#include "seq/read_simulator.hh"
#include "workloads/mapper.hh"

using namespace dphls;
using workloads::MapperConfig;
using workloads::MinimizerIndex;
using workloads::ReadMapper;

namespace {

host::BatchConfig
smallConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 2;
    cfg.threads = 2;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 512;
    cfg.hostOverheadCycles = 0;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

MapperConfig
smallMapper()
{
    MapperConfig cfg;
    cfg.k = 11;
    cfg.window = 5;
    return cfg;
}

} // namespace

TEST(Minimizers, ReadSharesSeedsWithItsSourceWindow)
{
    seq::Rng rng(21);
    const auto genome = seq::randomDna(4000, rng);
    seq::DnaSequence window;
    window.chars.assign(genome.chars.begin() + 1000,
                        genome.chars.begin() + 1200);
    const auto a = MinimizerIndex::minimizers(window, 11, 5);
    ASSERT_FALSE(a.empty());
    // The same positions relative to the genome carry the same hashes:
    // an exact substring yields exactly the window's minimizer set.
    const auto b = MinimizerIndex::minimizers(genome, 11, 5);
    for (const auto &[h, pos] : a) {
        const bool found = std::any_of(
            b.begin(), b.end(), [&, hh = h, pp = pos](const auto &e) {
                return e.first == hh && e.second == pp + 1000;
            });
        EXPECT_TRUE(found) << "window minimizer at " << pos
                           << " missing from the genome set";
    }
}

TEST(Minimizers, ShortInputsStillSeedOrYieldNothing)
{
    seq::Rng rng(22);
    // Shorter than one k-mer: nothing.
    EXPECT_TRUE(MinimizerIndex::minimizers(seq::randomDna(8, rng), 11, 5)
                    .empty());
    // At least one k-mer but fewer than one window: exactly one seed.
    const auto m =
        MinimizerIndex::minimizers(seq::randomDna(13, rng), 11, 5);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Mapper, ExtensionMatchesGoldenModelBitForBit)
{
    seq::Rng rng(23);
    const auto genome = seq::makeReferenceGenome(6000, rng);
    ReadMapper mapper(genome, smallMapper());
    ReadMapper::Pipeline pipeline(smallConfig());
    const ref::MatrixAligner<kernels::SemiGlobal> golden(
        kernels::SemiGlobal::defaultParams(), smallConfig().bandWidth);

    seq::ReadSimConfig rcfg;
    rcfg.readLength = 150;
    rcfg.errorRate = 0.05;
    for (int i = 0; i < 12; i++) {
        const auto sim = seq::simulateRead(genome, rcfg, rng);
        const auto pending = mapper.submit(pipeline, sim.read);
        ASSERT_FALSE(pending.plan.longRead);
        if (!pending.ticket)
            continue;
        pending.ticket->wait();
        const auto jobs = mapper.extensionJobs(sim.read, pending.plan);
        ASSERT_EQ(jobs.size(), pending.ticket->results().size());
        for (size_t c = 0; c < jobs.size(); c++) {
            const auto want =
                golden.align(jobs[c].query, jobs[c].reference);
            const auto &got = pending.ticket->results()[c];
            EXPECT_EQ(got.score, want.score);
            EXPECT_EQ(got.end, want.end);
            EXPECT_EQ(got.start, want.start);
            EXPECT_EQ(got.ops, want.ops);
        }
    }
}

TEST(Mapper, SimulatedReadsPlaceOnTheirTrueLocus)
{
    seq::Rng rng(24);
    const auto genome = seq::makeReferenceGenome(8000, rng);
    ReadMapper mapper(genome, smallMapper());
    ReadMapper::Pipeline pipeline(smallConfig());

    seq::ReadSimConfig rcfg;
    rcfg.readLength = 150;
    rcfg.errorRate = 0.03;
    int placed = 0, total = 0;
    for (int i = 0; i < 20; i++) {
        const auto sim = seq::simulateRead(genome, rcfg, rng);
        const auto m = mapper.mapRead(pipeline, sim.read);
        total++;
        if (m.mapped && std::abs(m.refStart - sim.refStart) <= 16)
            placed++;
    }
    // Random 8 kb genomes give essentially unique 150-mers; a seeded
    // run maps nearly everything. Demand a strong majority so the test
    // stays robust to knob tweaks without going flaky.
    EXPECT_GE(placed, (total * 3) / 4);
}

TEST(Mapper, LastReferenceWindowIsMappable)
{
    seq::Rng rng(25);
    const auto genome = seq::makeReferenceGenome(4096, rng);
    ReadMapper mapper(genome, smallMapper());
    ReadMapper::Pipeline pipeline(smallConfig());

    // A read that IS the final 150-base window. Before the simulator
    // off-by-one fix this origin could never be drawn, so nothing
    // exercised placement flush against the reference end.
    const int len = 150;
    const int start = genome.length() - len;
    seq::DnaSequence read;
    read.chars.assign(genome.chars.begin() + start, genome.chars.end());

    const auto m = mapper.mapRead(pipeline, read);
    ASSERT_TRUE(m.mapped);
    EXPECT_EQ(m.refStart, start);
    EXPECT_EQ(m.refEnd, genome.length());
    EXPECT_EQ(m.score, static_cast<double>(len)); // all matches at +1
    EXPECT_GT(m.mapq, 30);
}

TEST(Mapper, DuplicatedRegionDropsMapq)
{
    seq::Rng rng(26);
    auto genome = seq::makeReferenceGenome(3000, rng);
    // Duplicate a 400-base segment far away: reads from it have two
    // equally good placements.
    genome.chars.insert(genome.chars.end(), genome.chars.begin() + 500,
                        genome.chars.begin() + 900);
    ReadMapper mapper(genome, smallMapper());
    ReadMapper::Pipeline pipeline(smallConfig());

    seq::DnaSequence dup_read;
    dup_read.chars.assign(genome.chars.begin() + 600,
                          genome.chars.begin() + 750);
    const auto dup = mapper.mapRead(pipeline, dup_read);
    ASSERT_TRUE(dup.mapped);
    EXPECT_EQ(dup.candidates, 2);
    EXPECT_EQ(dup.secondScore, dup.score); // exact copy ties
    EXPECT_EQ(dup.mapq, 0);

    seq::DnaSequence uniq_read;
    uniq_read.chars.assign(genome.chars.begin() + 1500,
                           genome.chars.begin() + 1650);
    const auto uniq = mapper.mapRead(pipeline, uniq_read);
    ASSERT_TRUE(uniq.mapped);
    EXPECT_GT(uniq.mapq, dup.mapq);
}

TEST(Mapper, LongReadsTakeTheTilingPath)
{
    seq::Rng rng(27);
    const auto genome = seq::makeReferenceGenome(12000, rng);
    const MapperConfig mcfg = smallMapper();
    ReadMapper mapper(genome, mcfg);
    ReadMapper::Pipeline pipeline(smallConfig()); // maxQueryLength 256

    seq::ReadSimConfig rcfg;
    rcfg.readLength = 1200; // over the device window
    rcfg.errorRate = 0.05;
    const auto sim = seq::simulateRead(genome, rcfg, rng);
    const auto m = mapper.mapRead(pipeline, sim.read);
    ASSERT_TRUE(m.longRead);
    ASSERT_TRUE(m.mapped);
    // Placement slack: the chain anchors the window to within
    // windowPad, and 5% indels can drift the aligned start a few more
    // bases inside it.
    EXPECT_LE(std::abs(m.refStart - sim.refStart), mcfg.windowPad + 16);
    EXPECT_GT(m.cycles, 0u);
    // The stitched path must consume the whole read.
    EXPECT_EQ(core::pathQuerySpan(m.ops), sim.read.length());
}

TEST(Mapper, MapqFormulaBounds)
{
    EXPECT_EQ(ReadMapper::mapqFrom(0, 0, 10), 0);
    EXPECT_EQ(ReadMapper::mapqFrom(-5, 0, 10), 0);
    EXPECT_EQ(ReadMapper::mapqFrom(100, 100, 20), 0); // exact tie
    EXPECT_EQ(ReadMapper::mapqFrom(100, 0, 20), 60);  // unique, supported
    const int mid = ReadMapper::mapqFrom(100, 50, 20);
    EXPECT_GT(mid, 0);
    EXPECT_LT(mid, 60);
    // Thin anchor support caps confidence.
    EXPECT_LT(ReadMapper::mapqFrom(100, 0, 1), 10);
}
