/**
 * @file
 * Shard executor tests: one producer (cache replay + fill) feeding one
 * consumer (traceback + writeback), with the consumer inline on the
 * worker or overlapped on its own thread behind a bounded FIFO.
 *
 * Both placements share the producer, so neither is a reference for
 * the other: each is checked per job against the engine itself
 * (SystolicAligner::align on the wavefront path, cycles =
 * lastTotalCycles() + hostOverheadCycles) for every registered kernel,
 * at lane widths 1 and 4, at every FIFO depth, with preemption armed or
 * not; channel accounting must also agree between the two placements,
 * since cycle accounting is analytic (trip-count formulas, not
 * execution timing). Preemption that actually fires may split a
 * shard's arbiter accounting across resumptions (busy cycles are then
 * a sum of per-resumption makespans), but per-job results and cycles
 * must still match the never-preempted run exactly, with no lost or
 * duplicated writebacks. A cancel() landing mid-shard must drop only
 * not-yet-started jobs and still close the epoch: alignments +
 * cancelled == jobs, and the completion mask's population count ==
 * alignments. Preemption and cancel run under both placements.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/cigar.hh"
#include "helpers.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"

using namespace dphls;

namespace {

using test::shapedPair;

template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
shapedJobs(uint64_t seed)
{
    seq::Rng rng(seed);
    const std::pair<int, int> shapes[] = {
        {0, 0},   {1, 40},  {40, 1},   {3, 37},  {31, 33},
        {33, 31}, {64, 64}, {97, 113}, {17, 90}, {120, 45},
        {80, 80}, {5, 5},   {113, 97}, {48, 96}, {96, 48},
    };
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    for (const auto &[qlen, rlen] : shapes) {
        auto p = shapedPair<K>(rng, qlen, rlen);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

/** A uniform batch of @p n pairs, all @p len x @p len. */
template <typename K>
std::vector<typename host::StreamPipeline<K>::Job>
uniformJobs(uint64_t seed, int n, int len)
{
    seq::Rng rng(seed);
    std::vector<typename host::StreamPipeline<K>::Job> jobs;
    jobs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
        auto p = shapedPair<K>(rng, len, len);
        jobs.push_back({std::move(p.query), std::move(p.reference)});
    }
    return jobs;
}

template <typename K>
void
expectSameOutputs(
    const std::vector<typename host::StreamPipeline<K>::Result> &want,
    const std::vector<uint64_t> &want_cycles,
    const std::vector<typename host::StreamPipeline<K>::Result> &got,
    const std::vector<uint64_t> &got_cycles, const char *what)
{
    using Tr = core::ScoreTraits<typename K::ScoreT>;
    ASSERT_EQ(want.size(), got.size()) << K::name << " " << what;
    ASSERT_EQ(want_cycles, got_cycles) << K::name << " " << what;
    for (size_t i = 0; i < want.size(); i++) {
        const std::string ctx = std::string(K::name) + " " + what +
            " job " + std::to_string(i);
        ASSERT_EQ(Tr::toDouble(want[i].score), Tr::toDouble(got[i].score))
            << ctx;
        ASSERT_EQ(want[i].end, got[i].end) << ctx;
        ASSERT_EQ(want[i].start, got[i].start) << ctx;
        ASSERT_EQ(core::toCigar(want[i].ops), core::toCigar(got[i].ops))
            << ctx;
    }
}

host::BatchConfig
baseConfig(int lane_width)
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 2;
    cfg.nk = 3;
    cfg.threads = 2;
    cfg.laneWidth = lane_width;
    cfg.bandWidth = 16;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.cacheEntries = 0; // keep hit/miss effects out of the diff
    return cfg;
}

/**
 * Independent reference: every job aligned directly on the engine the
 * device channels wrap, on the wavefront path (its own DP fill, not
 * the fast/lane fills the channels split into stages), with the
 * pipeline's per-alignment host overhead added to the engine's cycle
 * total.
 */
template <typename K>
void
engineReference(const host::BatchConfig &cfg,
                const std::vector<typename host::StreamPipeline<K>::Job> &jobs,
                std::vector<typename host::StreamPipeline<K>::Result> &want,
                std::vector<uint64_t> &want_cycles)
{
    sim::EngineConfig ecfg;
    ecfg.numPe = cfg.npe;
    ecfg.bandWidth = cfg.bandWidth;
    ecfg.maxQueryLength = cfg.maxQueryLength;
    ecfg.maxReferenceLength = cfg.maxReferenceLength;
    ecfg.skipTraceback = cfg.skipTraceback;
    ecfg.cycles = cfg.cycles;
    ecfg.path = sim::EnginePath::Wavefront;
    sim::SystolicAligner<K> engine(ecfg);
    want.clear();
    want_cycles.clear();
    for (const auto &job : jobs) {
        want.push_back(engine.align(job.query, job.reference));
        want_cycles.push_back(engine.lastTotalCycles() +
                              cfg.hostOverheadCycles);
    }
}

/**
 * The acceptance differential: with the consumer inline and overlapped
 * (at the given lane width and FIFO depth, optionally with preemption
 * armed but never firing), every job's result and cycles must equal
 * the engine's, and the two placements must agree on totals, makespan
 * and per-channel busy cycles and alignments.
 */
template <typename K>
void
placementsMatchEngine(int lane_width, int fifo_depth, bool preemption)
{
    using Pipeline = host::StreamPipeline<K>;
    auto jobs = shapedJobs<K>(static_cast<uint64_t>(K::kernelId) * 193 +
                              static_cast<uint64_t>(lane_width));

    host::BatchConfig cfg = baseConfig(lane_width);
    cfg.stageFifoDepth = fifo_depth;
    cfg.preemption = preemption;
    std::vector<typename Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    engineReference<K>(cfg, jobs, want, want_cycles);
    uint64_t want_total = 0;
    for (const uint64_t c : want_cycles)
        want_total += c;

    host::BatchStats stats[2]; // [0] inline, [1] overlapped
    for (int leg = 0; leg < 2; leg++) {
        const bool overlap = leg == 1;
        cfg.stagePipeline = overlap;
        Pipeline pipeline(cfg);
        std::vector<typename Pipeline::Result> got;
        std::vector<uint64_t> got_cycles;
        stats[leg] = pipeline.runAll(jobs, &got, &got_cycles);

        const std::string what = std::string(overlap ? "overlapped"
                                                     : "inline") +
            " lanes=" + std::to_string(lane_width) + " fifo=" +
            std::to_string(fifo_depth) + (preemption ? " preempt" : "");
        expectSameOutputs<K>(want, want_cycles, got, got_cycles,
                             what.c_str());
        EXPECT_EQ(stats[leg].alignments, static_cast<int>(jobs.size()))
            << K::name << " " << what;
        EXPECT_EQ(stats[leg].totalCycles, want_total)
            << K::name << " " << what;
        EXPECT_EQ(stats[leg].preemptions, 0) << K::name << " " << what;
    }

    const host::BatchStats &in = stats[0], &ov = stats[1];
    EXPECT_EQ(in.makespanCycles, ov.makespanCycles) << K::name;
    ASSERT_EQ(in.channels.size(), ov.channels.size());
    for (size_t c = 0; c < in.channels.size(); c++) {
        EXPECT_EQ(in.channels[c].busyCycles, ov.channels[c].busyCycles)
            << K::name << " channel " << c;
        EXPECT_EQ(in.channels[c].totalCycles, ov.channels[c].totalCycles)
            << K::name << " channel " << c;
        EXPECT_EQ(in.channels[c].alignments, ov.channels[c].alignments)
            << K::name << " channel " << c;
    }
}

template <typename K>
void
placementDifferential()
{
    placementsMatchEngine<K>(4, 4, false); // lane groups
    placementsMatchEngine<K>(1, 4, false); // scalar engine per job
}

/**
 * One channel, one worker, lane width 4 (the contended-slot case), with
 * the consumer inline or overlapped.
 */
host::BatchConfig
contendedConfig(bool overlap, bool preemption)
{
    host::BatchConfig cfg = baseConfig(4);
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 256;
    cfg.stagePipeline = overlap;
    cfg.preemption = preemption;
    return cfg;
}

/** Preemption and cancel tests, with the consumer inline and overlapped. */
class ConsumerPlacement : public ::testing::TestWithParam<bool>
{};

} // namespace

TEST(StagePipeline, BothConsumerPlacementsMatchEngineAllKernels)
{
    placementDifferential<kernels::GlobalLinear>();
    placementDifferential<kernels::GlobalAffine>();
    placementDifferential<kernels::LocalLinear>();
    placementDifferential<kernels::LocalAffine>();
    placementDifferential<kernels::GlobalTwoPiece>();
    placementDifferential<kernels::Overlap>();
    placementDifferential<kernels::SemiGlobal>();
    placementDifferential<kernels::ProfileAlignment>();
    placementDifferential<kernels::Dtw>();
    placementDifferential<kernels::Viterbi>();
    placementDifferential<kernels::BandedGlobalLinear>();
    placementDifferential<kernels::BandedLocalAffine>();
    placementDifferential<kernels::BandedGlobalTwoPiece>();
    placementDifferential<kernels::Sdtw>();
    placementDifferential<kernels::ProteinLocal>();
}

TEST(StagePipeline, FifoCapacityOneDegeneratesToLockstep)
{
    // Depth 1 serializes the stage hand-off (producer blocks on every
    // push until the consumer drains) — the degenerate schedule must
    // still be bit-identical.
    placementsMatchEngine<kernels::GlobalAffine>(4, 1, false);
    placementsMatchEngine<kernels::BandedLocalAffine>(1, 1, false);
    placementsMatchEngine<kernels::Dtw>(4, 1, false);
}

TEST(StagePipeline, ArmedPreemptionThatNeverFiresIsTransparent)
{
    // Single-class workload: the token is registered but never
    // requested, so the armed run must match the engine bit for bit.
    placementsMatchEngine<kernels::GlobalLinear>(4, 4, true);
    placementsMatchEngine<kernels::LocalAffine>(1, 4, true);
    placementsMatchEngine<kernels::ProteinLocal>(4, 2, true);
}

TEST_P(ConsumerPlacement, PreemptedRunIsBitIdenticalToUnpreempted)
{
    const bool overlap = GetParam();
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    const int n_bulk = 600;
    auto bulk = uniformJobs<K>(2026, n_bulk, 96);
    auto urgent = uniformJobs<K>(7, 4, 64);

    const host::BatchConfig cfg = contendedConfig(overlap, true);

    // Golden leg: same config, each batch alone (nothing to preempt).
    std::vector<Pipeline::Result> want_bulk, want_urgent;
    std::vector<uint64_t> want_bulk_cycles, want_urgent_cycles;
    {
        Pipeline golden(cfg);
        golden.runAll(bulk, &want_bulk, &want_bulk_cycles);
        golden.runAll(urgent, &want_urgent, &want_urgent_cycles);
    }

    // Contended leg: the bulk shard occupies the only channel when the
    // higher-priority ticket arrives, which requests its token; the
    // shard yields at a job or lane-group boundary and the remainder
    // resumes after the urgent ticket drains.
    Pipeline pipeline(cfg);
    auto t_bulk = pipeline.submit(bulk);
    host::TicketOptions hi;
    hi.priority = 10;
    auto t_urgent = pipeline.submit(urgent, hi);

    std::vector<Pipeline::Result> got_bulk, got_urgent;
    std::vector<uint64_t> got_bulk_cycles, got_urgent_cycles;
    const auto bulk_stats =
        pipeline.collect(t_bulk, &got_bulk, &got_bulk_cycles);
    pipeline.collect(t_urgent, &got_urgent, &got_urgent_cycles);

    // No lost or duplicated writebacks, and bit-identical outputs in
    // spite of any number of preempt/resume rounds (zero is legal:
    // the bulk shard may win the race and finish first).
    const char *leg = overlap ? "overlapped" : "inline";
    expectSameOutputs<K>(want_bulk, want_bulk_cycles, got_bulk,
                         got_bulk_cycles, leg);
    expectSameOutputs<K>(want_urgent, want_urgent_cycles, got_urgent,
                         got_urgent_cycles, leg);
    EXPECT_EQ(bulk_stats.alignments, n_bulk) << leg;
    int completed = 0;
    for (const uint8_t c : t_bulk->completed())
        completed += c;
    EXPECT_EQ(completed, n_bulk) << leg;
    EXPECT_GE(bulk_stats.preemptions, 0);
    // Sections close: preemptions ride along per backend without
    // entering the jobs closure.
    int sec_preempts = 0;
    for (const auto &b : bulk_stats.backends)
        sec_preempts += b.preemptions;
    EXPECT_EQ(sec_preempts, bulk_stats.preemptions) << leg;
}

TEST_P(ConsumerPlacement, ForcedPreemptionFiresAndStaysIdentical)
{
    const bool overlap = GetParam();
    using K = kernels::GlobalAffine;
    using Pipeline = host::StreamPipeline<K>;

    const int n_bulk = 800;
    auto bulk = uniformJobs<K>(11, n_bulk, 96);
    auto urgent = uniformJobs<K>(13, 2, 64);

    const host::BatchConfig cfg = contendedConfig(overlap, true);

    std::vector<Pipeline::Result> want_bulk;
    std::vector<uint64_t> want_bulk_cycles;
    {
        Pipeline golden(cfg);
        golden.runAll(bulk, &want_bulk, &want_bulk_cycles);
    }

    // Retry until a preemption actually lands: the request is
    // asynchronous, so a single attempt can lose the race when the
    // bulk shard drains before the urgent submit reaches the token —
    // or, on a single-CPU host, when the urgent submit lands before
    // the worker thread ever starts the bulk shard (so the urgent
    // ticket is simply dispatched first and nothing is running to
    // preempt). The sleep yields the CPU so the shard gets going; the
    // sleep grows with the attempt to cover slow/loaded machines.
    bool fired = false;
    for (int attempt = 0; attempt < 10 && !fired; attempt++) {
        Pipeline pipeline(cfg);
        auto t_bulk = pipeline.submit(bulk);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + attempt));
        host::TicketOptions hi;
        hi.priority = 10;
        auto t_urgent = pipeline.submit(urgent, hi);
        std::vector<Pipeline::Result> got_bulk;
        std::vector<uint64_t> got_bulk_cycles;
        const auto stats =
            pipeline.collect(t_bulk, &got_bulk, &got_bulk_cycles);
        pipeline.collect(t_urgent);
        expectSameOutputs<K>(want_bulk, want_bulk_cycles, got_bulk,
                             got_bulk_cycles,
                             overlap ? "forced preempt overlapped"
                                     : "forced preempt inline");
        EXPECT_EQ(stats.alignments, n_bulk);
        fired = stats.preemptions > 0;
    }
    EXPECT_TRUE(fired)
        << "no preemption fired in 10 attempts of an 800-job bulk "
           "shard contended by a priority-10 ticket, "
        << (overlap ? "overlapped" : "inline");
}

TEST_P(ConsumerPlacement, CancelMidShardDropsUnstartedStagesAndClosesEpoch)
{
    const bool overlap = GetParam();
    using K = kernels::GlobalLinear;
    using Pipeline = host::StreamPipeline<K>;

    const int n = 500;
    auto jobs = uniformJobs<K>(31, n, 96);

    const host::BatchConfig cfg = contendedConfig(overlap, false);

    // Every interleaving must close the epoch: cancel before the shard
    // starts (all jobs cancelled), mid-shard (the done/remainder
    // split), or after completion (nothing cancelled).
    for (const int spin : {0, 1000, 200000}) {
        Pipeline pipeline(cfg);
        std::atomic<int> callbacks{0};
        auto ticket = pipeline.submit(
            jobs, [&](host::BatchTicket<K> &) { callbacks++; });
        for (int i = 0; i < spin; i++) {
            asm volatile("" ::: "memory"); // spin the optimizer can't fold
        }
        ticket->cancel();
        ticket->wait();
        const std::string ctx = "spin " + std::to_string(spin) +
            (overlap ? " overlapped" : " inline");
        const auto &stats = ticket->stats();
        EXPECT_EQ(stats.alignments + stats.cancelled, n) << ctx;
        int completed = 0;
        for (const uint8_t c : ticket->completed())
            completed += c;
        EXPECT_EQ(completed, stats.alignments) << ctx;
        // Completed jobs hold live outputs; dropped ones defaults.
        const auto &results = ticket->results();
        const auto &cycles = ticket->cycles();
        for (size_t i = 0; i < results.size(); i++) {
            if (ticket->completed()[i]) {
                EXPECT_GT(cycles[i], 0u) << "job " << i;
            } else {
                EXPECT_EQ(cycles[i], 0u) << "job " << i;
                EXPECT_TRUE(results[i].ops.empty()) << "job " << i;
            }
        }
        // Per-backend sections close over the partial epoch.
        int sec_aligns = 0, sec_cancelled = 0;
        for (const auto &b : stats.backends) {
            sec_aligns += b.alignments;
            sec_cancelled += b.cancelled;
        }
        EXPECT_EQ(sec_aligns, stats.alignments) << ctx;
        EXPECT_EQ(sec_cancelled, stats.cancelled) << ctx;
        EXPECT_EQ(callbacks.load(), 1) << ctx;
    }
}

INSTANTIATE_TEST_SUITE_P(InlineAndOverlapped, ConsumerPlacement,
                         ::testing::Bool());

TEST(StagePipeline, StagedTicketsCoexistWithCpuFallback)
{
    // Mixed routing: the CPU backend has no stage boundaries (it runs
    // its shard in one pass and marks every job done), so a hetero
    // batch exercises both the overlapped device channels and the
    // one-pass fallback in one ticket. Outputs must match the inline
    // hetero pipeline.
    using K = kernels::LocalAffine;
    using Pipeline = host::StreamPipeline<K>;
    auto jobs = shapedJobs<K>(401);

    host::BatchConfig cfg = baseConfig(4);
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 8;
    cfg.cpuModeledCellsPerSec = 4e8;

    Pipeline mono(cfg);
    std::vector<Pipeline::Result> want;
    std::vector<uint64_t> want_cycles;
    const auto want_stats = mono.runAll(jobs, &want, &want_cycles);

    host::BatchConfig scfg = cfg;
    scfg.stagePipeline = true;
    scfg.preemption = true;
    Pipeline staged(scfg);
    std::vector<Pipeline::Result> got;
    std::vector<uint64_t> got_cycles;
    const auto got_stats = staged.runAll(jobs, &got, &got_cycles);

    expectSameOutputs<K>(want, want_cycles, got, got_cycles,
                         "hetero staged");
    EXPECT_EQ(want_stats.alignments, got_stats.alignments);
    EXPECT_EQ(want_stats.totalCycles, got_stats.totalCycles);
    EXPECT_EQ(want_stats.cpu.alignments, got_stats.cpu.alignments);
}
