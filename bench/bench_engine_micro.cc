/**
 * @file
 * google-benchmark micro-benchmarks of the systolic engine itself, plus
 * ablations of the design decisions called out in DESIGN.md: phase
 * overlap, chunking (NPE), banding, and traceback on/off.
 *
 * These measure *simulator* wall-clock (host cell-updates/s) and report
 * modeled device cycles as counters, so regressions in either the
 * simulator or the cycle model are visible.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_json.hh"
#include "host/latency_probe.hh"
#include "host/stream_pipeline.hh"
#include "kernels/all.hh"
#include "seq/read_simulator.hh"
#include "seq/squiggle.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"
#include "workloads/mixed_demo.hh"

using namespace dphls;

namespace {

seq::DnaSequence
dnaOf(int len, uint64_t seed)
{
    seq::Rng rng(seed);
    return seq::randomDna(len, rng);
}

} // namespace

/** Fill throughput of the engine across NPE (chunking ablation). */
static void
BM_GlobalLinearNpe(benchmark::State &state)
{
    const int npe = static_cast<int>(state.range(0));
    const auto q = dnaOf(256, 1);
    const auto r = dnaOf(256, 2);
    sim::EngineConfig cfg;
    cfg.numPe = npe;
    sim::SystolicAligner<kernels::GlobalLinear> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] =
        static_cast<double>(cycles);
    state.counters["cells_per_sec"] = benchmark::Counter(
        256.0 * 256.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GlobalLinearNpe)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

/** Banding ablation: band width vs device cycles and host time. */
static void
BM_BandedGlobalLinearBand(benchmark::State &state)
{
    const int band = static_cast<int>(state.range(0));
    const auto q = dnaOf(256, 3);
    const auto r = dnaOf(256, 4);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.bandWidth = band;
    sim::SystolicAligner<kernels::BandedGlobalLinear> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_BandedGlobalLinearBand)->Arg(8)->Arg(32)->Arg(128);

/** Phase-overlap ablation (the Fig. 4 mechanism). */
static void
BM_OverlapAblation(benchmark::State &state)
{
    const bool overlap = state.range(0) != 0;
    const auto q = dnaOf(256, 5);
    const auto r = dnaOf(256, 6);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.cycles.overlapLoadInit = overlap;
    sim::SystolicAligner<kernels::GlobalAffine> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_OverlapAblation)->Arg(0)->Arg(1);

/** Traceback on/off ablation. */
static void
BM_TracebackAblation(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    const auto q = dnaOf(256, 7);
    const auto r = dnaOf(256, 8);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.skipTraceback = skip;
    sim::SystolicAligner<kernels::LocalAffine> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_TracebackAblation)->Arg(0)->Arg(1);

/** Multi-layer kernels: per-cell cost of 1 vs 3 vs 5 layers. */
static void
BM_LayerCount(benchmark::State &state)
{
    const auto q = dnaOf(192, 9);
    const auto r = dnaOf(192, 10);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    const int layers = static_cast<int>(state.range(0));
    for (auto _ : state) {
        switch (layers) {
          case 1: {
            sim::SystolicAligner<kernels::GlobalLinear> e(cfg);
            benchmark::DoNotOptimize(e.align(q, r));
            break;
          }
          case 3: {
            sim::SystolicAligner<kernels::GlobalAffine> e(cfg);
            benchmark::DoNotOptimize(e.align(q, r));
            break;
          }
          default: {
            sim::SystolicAligner<kernels::GlobalTwoPiece> e(cfg);
            benchmark::DoNotOptimize(e.align(q, r));
            break;
          }
        }
    }
}
BENCHMARK(BM_LayerCount)->Arg(1)->Arg(3)->Arg(5);

/** sDTW streaming workload. */
static void
BM_Sdtw(benchmark::State &state)
{
    const auto pairs = seq::sampleSquigglePairs(1, 320, 96, 11);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    sim::SystolicAligner<kernels::Sdtw> engine(cfg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.align(pairs[0].query, pairs[0].reference));
    }
}
BENCHMARK(BM_Sdtw);

/**
 * Execution-path ablation: wavefront reference vs the fast path (the
 * strip sweep at the active ISA tier), 1k x 1k local-affine DNA with
 * traceback on. Same results, same cycle stats — only host throughput
 * differs.
 */
static void
BM_ExecPath1kLocalAffine(benchmark::State &state)
{
    const bool fast = state.range(0) != 0;
    const auto q = dnaOf(1024, 21);
    const auto r = dnaOf(1024, 22);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.path = fast ? sim::EnginePath::Fast : sim::EnginePath::Wavefront;
    sim::SystolicAligner<kernels::LocalAffine> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] = static_cast<double>(cycles);
    state.counters["cells_per_sec"] = benchmark::Counter(
        1024.0 * 1024.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ExecPath1kLocalAffine)->Arg(0)->Arg(1);

namespace {

/**
 * Mixed-length lane workload: short and long pairs interleaved in
 * submission order, the shape on which length-aware lane grouping pays
 * off (a group mixing 96- and 768-base pairs pads every lane to the
 * longest member; sorting by (qlen, rlen) first clusters like-sized
 * pairs).
 */
struct MixedLaneWorkload
{
    static constexpr int pairs = 32;
    static constexpr int groupWidth = 8;
    std::vector<seq::DnaSequence> qs, rs;
    double usefulCells = 0; //!< sum of qlen x rlen over all pairs

    MixedLaneWorkload()
    {
        for (int i = 0; i < pairs; i++) {
            const int len = i % 2 == 0 ? 96 : 768;
            qs.push_back(dnaOf(len, 100 + 2 * static_cast<uint64_t>(i)));
            rs.push_back(dnaOf(len, 101 + 2 * static_cast<uint64_t>(i)));
            usefulCells += static_cast<double>(len) * len;
        }
    }

    /** Pair order: submission order, or sorted by (qlen, rlen). */
    std::vector<int>
    order(bool sorted) const
    {
        std::vector<int> idx(pairs);
        for (int i = 0; i < pairs; i++)
            idx[static_cast<size_t>(i)] = i;
        if (sorted) {
            std::sort(idx.begin(), idx.end(), [&](int a, int b) {
                const auto ka = std::make_tuple(
                    qs[static_cast<size_t>(a)].length(),
                    rs[static_cast<size_t>(a)].length(), a);
                const auto kb = std::make_tuple(
                    qs[static_cast<size_t>(b)].length(),
                    rs[static_cast<size_t>(b)].length(), b);
                return ka < kb;
            });
        }
        return idx;
    }
};

/** One sweep over the mixed workload; returns summed per-job cycles. */
uint64_t
runMixedLaneSweep(sim::LaneAligner<kernels::LocalAffine> &lanes,
                  const MixedLaneWorkload &w, const std::vector<int> &order)
{
    using Lane = sim::LaneAligner<kernels::LocalAffine>::LanePair;
    uint64_t cycles = 0;
    for (size_t g = 0; g < order.size();
         g += static_cast<size_t>(MixedLaneWorkload::groupWidth)) {
        const size_t count =
            std::min(static_cast<size_t>(MixedLaneWorkload::groupWidth),
                     order.size() - g);
        std::vector<Lane> group(count);
        for (size_t m = 0; m < count; m++) {
            const int idx = order[g + m];
            group[m] = Lane{&w.qs[static_cast<size_t>(idx)],
                            &w.rs[static_cast<size_t>(idx)]};
        }
        benchmark::DoNotOptimize(lanes.alignLanes(group));
        for (size_t m = 0; m < count; m++)
            cycles += lanes.laneTotalCycles(static_cast<int>(m));
    }
    return cycles;
}

} // namespace

/**
 * Length-aware lane grouping on a mixed-length batch: Arg(0) groups in
 * submission order (interleaved short/long), Arg(1) groups after the
 * (qlen, rlen) sort the StreamPipeline applies per shard. Device cycles
 * are analytic per lane and identical either way; only the padded host
 * iteration space — and so useful cells/sec — changes.
 */
static void
BM_LaneMixedLengthGrouping(benchmark::State &state)
{
    const bool sorted = state.range(0) != 0;
    const MixedLaneWorkload w;
    const auto order = w.order(sorted);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    sim::LaneAligner<kernels::LocalAffine> lanes(cfg);
    uint64_t cycles = 0;
    for (auto _ : state)
        cycles = runMixedLaneSweep(lanes, w, order);
    state.counters["device_cycles"] = static_cast<double>(cycles);
    state.counters["useful_cells_per_sec"] = benchmark::Counter(
        w.usefulCells, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LaneMixedLengthGrouping)->Arg(0)->Arg(1);

/** SIMD lane engine: 8 x (256 x 256) local-affine pairs in lockstep. */
static void
BM_LaneEngine8xLocalAffine(benchmark::State &state)
{
    using K = kernels::LocalAffine;
    std::vector<seq::DnaSequence> qs, rs;
    for (uint64_t i = 0; i < 8; i++) {
        qs.push_back(dnaOf(256, 31 + 2 * i));
        rs.push_back(dnaOf(256, 32 + 2 * i));
    }
    sim::LaneAligner<K> lanes;
    std::vector<sim::LaneAligner<K>::LanePair> group;
    for (size_t i = 0; i < 8; i++)
        group.push_back({&qs[i], &rs[i]});
    for (auto _ : state)
        benchmark::DoNotOptimize(lanes.alignLanes(group));
    state.counters["cells_per_sec"] = benchmark::Counter(
        8.0 * 256.0 * 256.0,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LaneEngine8xLocalAffine);

/** Lane engine at a pinned ISA tier (Arg = IsaTier enum value). */
static void
BM_LaneIsaTier(benchmark::State &state)
{
    const auto tier = static_cast<sim::IsaTier>(state.range(0));
    if (!sim::isaTierSupported(tier)) {
        state.SkipWithError("tier unsupported on this host");
        return;
    }
    using K = kernels::LocalAffine;
    std::vector<seq::DnaSequence> qs, rs;
    for (uint64_t i = 0; i < 8; i++) {
        qs.push_back(dnaOf(256, 31 + 2 * i));
        rs.push_back(dnaOf(256, 32 + 2 * i));
    }
    sim::EngineConfig cfg;
    cfg.isaTier = tier;
    sim::LaneAligner<K> lanes(cfg);
    std::vector<sim::LaneAligner<K>::LanePair> group;
    for (size_t i = 0; i < 8; i++)
        group.push_back({&qs[i], &rs[i]});
    for (auto _ : state)
        benchmark::DoNotOptimize(lanes.alignLanes(group));
    state.counters["cells_per_sec"] = benchmark::Counter(
        8.0 * 256.0 * 256.0,
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LaneIsaTier)
    ->Arg(static_cast<int>(sim::IsaTier::Scalar))
    ->Arg(static_cast<int>(sim::IsaTier::Sse2))
    ->Arg(static_cast<int>(sim::IsaTier::Avx2))
    ->Arg(static_cast<int>(sim::IsaTier::Avx512));

/**
 * One ~100kb banded pair per path (Arg: 0 wavefront, 1 the strip sweep
 * at the active tier, 2 the row-major fill at IsaTier::Scalar).
 */
static void
BM_LongBandedPairPath(benchmark::State &state)
{
    constexpr int len = 100000, band = 64;
    seq::Rng rng(77);
    auto q = seq::randomDna(len, rng);
    auto r = seq::mutateDna(q, 0.08, 0.04, rng);
    r.chars.resize(static_cast<size_t>(len));
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.bandWidth = band;
    cfg.maxQueryLength = len;
    cfg.maxReferenceLength = len;
    cfg.path = state.range(0) == 0 ? sim::EnginePath::Wavefront
                                   : sim::EnginePath::Fast;
    cfg.isaTier =
        state.range(0) == 2 ? sim::IsaTier::Scalar : sim::IsaTier::Auto;
    sim::SystolicAligner<kernels::BandedGlobalLinear> engine(cfg);
    uint64_t cycles = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.align(q, r));
        cycles = engine.lastTotalCycles();
    }
    state.counters["device_cycles"] = static_cast<double>(cycles);
    state.counters["cells_per_sec"] = benchmark::Counter(
        static_cast<double>(len) * (2.0 * band + 1.0),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_LongBandedPairPath)->Arg(0)->Arg(1)->Arg(2);

namespace {

/** Wall-clock cells/sec of one path on 1k x 1k local-affine DNA. */
double
measurePathCellsPerSec(sim::EnginePath path, uint64_t *device_cycles)
{
    const auto q = dnaOf(1024, 21);
    const auto r = dnaOf(1024, 22);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.path = path;
    sim::SystolicAligner<kernels::LocalAffine> engine(cfg);

    engine.align(q, r); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    int iters = 0;
    double elapsed = 0;
    do {
        benchmark::DoNotOptimize(engine.align(q, r));
        iters++;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < 0.5);
    *device_cycles = engine.lastTotalCycles();
    return 1024.0 * 1024.0 * iters / elapsed;
}

/**
 * Wall-clock cells/sec of the SIMD lane engine on the same workload,
 * pinned to @p tier (Auto = the host's widest supported tier).
 */
double
measureLaneCellsPerSec(sim::IsaTier tier, uint64_t *device_cycles)
{
    using K = kernels::LocalAffine;
    std::vector<seq::DnaSequence> qs, rs;
    for (uint64_t i = 0; i < 8; i++) {
        qs.push_back(dnaOf(1024, 21 + 2 * i));
        rs.push_back(dnaOf(1024, 22 + 2 * i));
    }
    sim::EngineConfig lcfg;
    lcfg.isaTier = tier;
    sim::LaneAligner<K> lanes(lcfg);
    std::vector<sim::LaneAligner<K>::LanePair> group;
    for (size_t i = 0; i < 8; i++)
        group.push_back({&qs[i], &rs[i]});

    lanes.alignLanes(group); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    int iters = 0;
    double elapsed = 0;
    do {
        benchmark::DoNotOptimize(lanes.alignLanes(group));
        iters++;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < 0.5);
    *device_cycles = lanes.laneTotalCycles(0);
    return 8.0 * 1024.0 * 1024.0 * iters / elapsed;
}

/**
 * Wall-clock band cells/sec of one execution path and ISA tier on a
 * single long banded-global pair — the intra-pair shape: one alignment
 * in flight, no sibling pairs to fill inter-pair lanes, so the fast
 * path's strip sweep is the only SIMD on offer.
 */
double
measureLongBandedPair(sim::EnginePath path, sim::IsaTier tier, int len,
                      int band, uint64_t *device_cycles)
{
    using K = kernels::BandedGlobalLinear;
    seq::Rng rng(77);
    auto q = seq::randomDna(len, rng);
    auto r = seq::mutateDna(q, 0.08, 0.04, rng);
    r.chars.resize(static_cast<size_t>(len));
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.bandWidth = band;
    cfg.maxQueryLength = len;
    cfg.maxReferenceLength = len;
    cfg.path = path;
    cfg.isaTier = tier;
    sim::SystolicAligner<K> engine(cfg);

    engine.align(q, r); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    int iters = 0;
    double elapsed = 0;
    do {
        benchmark::DoNotOptimize(engine.align(q, r));
        iters++;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < 0.3);
    *device_cycles = engine.lastTotalCycles();
    const double band_cells =
        static_cast<double>(len) * (2.0 * band + 1.0);
    return band_cells * iters / elapsed;
}

/**
 * Wall-clock useful cells/sec of the mixed-length lane workload with
 * the given grouping order; also reports the summed per-job device
 * cycles (analytic, so grouping must not change them).
 */
double
measureMixedLaneCellsPerSec(bool sorted, uint64_t *device_cycles)
{
    const MixedLaneWorkload w;
    const auto order = w.order(sorted);
    sim::EngineConfig cfg;
    cfg.numPe = 32;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    sim::LaneAligner<kernels::LocalAffine> lanes(cfg);

    *device_cycles = runMixedLaneSweep(lanes, w, order); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    int iters = 0;
    double elapsed = 0;
    do {
        runMixedLaneSweep(lanes, w, order);
        iters++;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < 0.5);
    return w.usefulCells * iters / elapsed;
}

/** Outcome of one dispatch-policy run on the mixed-shape workload. */
struct DispatchOutcome
{
    double alignsPerSec = 0;
    int deviceAligns = 0, cpuAligns = 0, gpuAligns = 0;
    std::vector<double> scores; //!< per-job, for the policy-identity check
};

/**
 * Modeled useful aligns/sec of a mixed-shape local-affine batch under
 * the given dispatch policy. Shapes deliberately stress the router:
 * short pairs (invocation overhead matters), medium pairs (the
 * device's sweet spot), and oversized pairs the device cannot take at
 * all. Both policies run with the same backends enabled (CPU fallback
 * with a pinned deterministic rate, the GASAL2-LOCAL GPU model) so the
 * only difference is routing: the threshold rule cuts on shape, the
 * cost model balances estimated completion times. All accounting is
 * cycle-domain/modeled, so the resulting aligns/sec are deterministic
 * and safe for bench_diff's hard gate.
 */
DispatchOutcome
measureDispatchPolicy(host::DispatchPolicy policy)
{
    using K = kernels::LocalAffine;
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 2;
    cfg.nk = 2;
    cfg.threads = 2;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.dispatch = policy;
    cfg.cpuFallback = true;
    cfg.cpuFloorLen = 48; // threshold rule: tiny pairs to the CPU
    cfg.cpuModeledCellsPerSec = 5e8;
    cfg.gpuModel = true;
    cfg.laneWidth = 8;
    cfg.collectPathStats = false;
    host::StreamPipeline<K> pipeline(cfg);

    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    seq::Rng rng(2024);
    auto push = [&](int len, int count) {
        for (int i = 0; i < count; i++) {
            host::AlignmentJob<seq::DnaChar> j;
            j.query = seq::randomDna(len, rng);
            j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
            j.reference.chars.resize(static_cast<size_t>(len));
            jobs.push_back(std::move(j));
        }
    };
    push(32, 24);  // tiny: DMA/invocation overhead dominates
    push(96, 24);  // short
    push(256, 24); // medium: device sweet spot
    push(700, 8);  // oversized: device-infeasible, CPU or GPU only

    std::vector<host::StreamPipeline<K>::Result> results;
    const auto stats = pipeline.runAll(jobs, &results);

    DispatchOutcome out;
    out.alignsPerSec = stats.alignsPerSec;
    for (const auto &ch : stats.channels)
        out.deviceAligns += ch.alignments;
    out.cpuAligns = stats.cpu.alignments;
    out.gpuAligns = stats.gpu.alignments;
    out.scores.reserve(results.size());
    for (const auto &r : results)
        out.scores.push_back(r.scoreAsDouble());
    return out;
}

/** Per-class modeled ticket latencies of the two-class workload. */
struct PriorityOutcome
{
    std::vector<double> interactiveLat, bulkLat; //!< seconds, per ticket
    std::vector<double> scores; //!< per ticket+job, for the identity check
};

/**
 * Modeled per-ticket completion latency of a mixed two-class workload:
 * 6 bulk tickets (24 x 256-base local-affine pairs each — the
 * re-alignment batch class) interleaved with 12 interactive tickets
 * (one 64-base pair each), all queued while the pipeline is paused and
 * then released onto one channel served by one worker. Latency of a
 * ticket is the channel's cumulative busy cycles at its completion
 * converted at fmax — arrival is the shared release instant, so this
 * is pure modeled queueing + service time, deterministic across runs
 * and machines (safe for bench_diff's hard gate).
 *
 * With @p prioritized the interactive class is priority 5 and overtakes
 * every queued bulk ticket; without it everything is class 0 and the
 * dispatch order degrades to FIFO, so each interactive ticket waits
 * behind the bulk tickets submitted before it.
 */
PriorityOutcome
measurePriorityScheduling(bool prioritized)
{
    using K = kernels::LocalAffine;
    constexpr double fmax = 250.0;
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.fmaxMhz = fmax;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.collectPathStats = false;
    host::StreamPipeline<K> pipeline(cfg);

    PriorityOutcome out;
    auto probe = std::make_shared<host::ClassLatencyProbe>(fmax);
    std::vector<host::StreamPipeline<K>::Ticket> tickets;
    const auto submitClass = [&](std::vector<host::AlignmentJob<
                                     seq::DnaChar>> batch,
                                 bool interactive) {
        host::TicketOptions topt;
        topt.priority = interactive && prioritized ? 5 : 0;
        topt.tag = interactive ? "interactive" : "bulk";
        tickets.push_back(pipeline.submit(
            std::move(batch), std::move(topt),
            [probe, interactive](host::BatchTicket<K> &t) {
                using Probe = host::ClassLatencyProbe;
                probe->record(t.stats().makespanCycles,
                              interactive ? Probe::Interactive
                                          : Probe::Bulk);
            }));
    };

    const auto makeJobs = [](int count, int len, uint64_t seed) {
        std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
        seq::Rng rng(seed);
        for (int i = 0; i < count; i++) {
            host::AlignmentJob<seq::DnaChar> j;
            j.query = seq::randomDna(len, rng);
            j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
            j.reference.chars.resize(static_cast<size_t>(len));
            jobs.push_back(std::move(j));
        }
        return jobs;
    };

    pipeline.pause(); // queue the whole backlog, then release at once
    for (uint64_t b = 0; b < 6; b++) {
        submitClass(makeJobs(24, 256, 9000 + b), false);
        submitClass(makeJobs(1, 64, 9100 + 2 * b), true);
        submitClass(makeJobs(1, 64, 9101 + 2 * b), true);
    }
    pipeline.resume();
    for (const auto &t : tickets)
        t->wait();
    // Scores in submission order: the scheduler may only reorder
    // execution, never change results.
    for (const auto &t : tickets) {
        for (const auto &r : t->results())
            out.scores.push_back(r.scoreAsDouble());
    }
    pipeline.drain();
    out.interactiveLat = probe->of(host::ClassLatencyProbe::Interactive);
    out.bulkLat = probe->of(host::ClassLatencyProbe::Bulk);
    return out;
}

/** One inline-vs-overlapped run: modeled throughput plus host time. */
struct StageOutcome
{
    double modeledAlignsPerSec = 0; //!< cycle-domain, deterministic
    double wallSeconds = 0;         //!< host wall-clock of runAll()
    std::vector<double> scores;     //!< per job, for the identity check
};

/**
 * Traceback-heavy single-worker shard on one channel: 256 banded-global
 * 2048-base pairs at band 8, 8 SIMD lanes, traceback on. Narrow-band
 * long pairs are the shape where the traceback epilogue matters: fill
 * is O(len x band) and vectorized across lanes while traceback is an
 * O(len) scalar pointer walk per pair, so the two phases are
 * comparable in host time. With @p staged the shard's traceback
 * consumer runs on its own thread behind a depth-4 FIFO, so traceback
 * of lane group i overlaps fill of group i+1 on the host; without it
 * the consumer runs inline and the two phases serialize per group.
 * Modeled cycles (and therefore aligns_per_sec) are identical by
 * construction — only host wall-clock moves — so the modeled rate is
 * safe for bench_diff's hard gate while the wall-clock seconds stay
 * ungated.
 */
StageOutcome
measureStagePipeline(bool staged)
{
    using K = kernels::BandedGlobalLinear;
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.laneWidth = 8;
    cfg.bandWidth = 8;
    cfg.maxQueryLength = 2048;
    cfg.maxReferenceLength = 2048;
    cfg.collectPathStats = false;
    cfg.stagePipeline = staged;
    cfg.stageFifoDepth = 4;
    host::StreamPipeline<K> pipeline(cfg);

    std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
    seq::Rng rng(0xa11a5);
    for (int i = 0; i < 256; i++) {
        host::AlignmentJob<seq::DnaChar> j;
        j.query = seq::randomDna(2048, rng);
        j.reference = seq::mutateDna(j.query, 0.02, 0.002, rng);
        j.reference.chars.resize(2048);
        jobs.push_back(std::move(j));
    }

    StageOutcome out;
    std::vector<host::StreamPipeline<K>::Result> results;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = pipeline.runAll(jobs, &results);
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.modeledAlignsPerSec = stats.alignsPerSec;
    out.scores.reserve(results.size());
    for (const auto &r : results)
        out.scores.push_back(r.scoreAsDouble());
    return out;
}

/**
 * Preempt-to-dispatch latency: wall-clock from submitting a priority-10
 * single-pair ticket while a 512-pair bulk shard is mid-flight on the
 * only worker (staged execution + preemption on) until the urgent
 * ticket's completion callback fires. The bulk shard yields at its next
 * job boundary instead of running to completion, so this bounds the
 * scheduling latency a latency-critical ticket sees behind bulk work.
 * Pure wall-clock — reported for trend-watching, never gated.
 */
double
measurePreemptToDispatchMs()
{
    using K = kernels::GlobalAffine;
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 512;
    cfg.maxReferenceLength = 512;
    cfg.collectPathStats = false;
    cfg.stagePipeline = true;
    cfg.stageFifoDepth = 4;
    cfg.preemption = true;
    host::StreamPipeline<K> pipeline(cfg);

    const auto makeJobs = [](int count, int len, uint64_t seed) {
        std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
        seq::Rng rng(seed);
        for (int i = 0; i < count; i++) {
            host::AlignmentJob<seq::DnaChar> j;
            j.query = seq::randomDna(len, rng);
            j.reference = seq::mutateDna(j.query, 0.1, 0.05, rng);
            j.reference.chars.resize(static_cast<size_t>(len));
            jobs.push_back(std::move(j));
        }
        return jobs;
    };

    auto bulk = pipeline.submit(makeJobs(512, 288, 0xb01d));
    // Let the bulk shard actually start filling before the urgent
    // ticket lands, so the measurement includes a real mid-shard yield.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    std::atomic<double> ms{0.0};
    const auto t0 = std::chrono::steady_clock::now();
    host::TicketOptions topt;
    topt.priority = 10;
    topt.tag = "urgent";
    auto urgent = pipeline.submit(
        makeJobs(1, 64, 0xfa57), std::move(topt),
        [&ms, t0](host::BatchTicket<K> &) {
            ms.store(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count(),
                     std::memory_order_relaxed);
        });
    urgent->wait();
    bulk->wait();
    pipeline.drain();
    return ms.load(std::memory_order_relaxed);
}

/**
 * BENCH_engine_micro.json: the fast-path acceptance measurement —
 * cells/sec of the wavefront reference path, the row-major scalar fast
 * path, and the SIMD lane engine (8 pairs in lockstep), with speedups
 * and the device-cycle agreement check. All on 1k x 1k local-affine
 * DNA with traceback on.
 */
void
writeJson(const std::string &path)
{
    uint64_t wave_cycles = 0, fast_cycles = 0, lane_cycles = 0;
    const double wave =
        measurePathCellsPerSec(sim::EnginePath::Wavefront, &wave_cycles);
    const double fast =
        measurePathCellsPerSec(sim::EnginePath::Fast, &fast_cycles);
    const double lane =
        measureLaneCellsPerSec(sim::IsaTier::Auto, &lane_cycles);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    bench::JsonWriter w(f);
    w.beginObject();
    w.kv("bench", "engine_micro");
    w.kv("workload", "local-affine DNA 1024x1024, traceback on, NPE=32");
    w.key("paths");
    w.beginObject();
    w.key("wavefront");
    w.beginObject();
    w.kv("cells_per_sec", wave);
    w.kv("device_cycles", wave_cycles);
    w.endObject();
    w.key("fast");
    w.beginObject();
    w.kv("cells_per_sec", fast);
    w.kv("device_cycles", fast_cycles);
    w.endObject();
    w.key("lanes8");
    w.beginObject();
    w.kv("cells_per_sec", lane);
    w.kv("device_cycles", lane_cycles);
    w.endObject();
    w.endObject();
    w.kv("fast_speedup", fast / wave);
    w.kv("lane_speedup", lane / wave);
    w.kv("device_cycles_identical", wave_cycles == fast_cycles &&
                                        wave_cycles == lane_cycles);

    // Per-tier lane throughput: the same 8 x 1k affine lane groups,
    // dispatched through every ISA tier this host supports plus the
    // forced-scalar fallback. The active tier's rate is the one the
    // pipeline actually runs at, so bench_diff gates it (hard) when
    // the previous artifact resolved the same tier.
    const sim::IsaTier active_tier =
        sim::resolveIsaTier(sim::IsaTier::Auto);
    double active_rate = 0, sse2_rate = 0, avx2_rate = 0;
    w.key("isa_tiers");
    w.beginObject();
    w.kv("active", sim::isaTierName(active_tier));
    w.kv("workload",
         "8 x local-affine DNA 1024x1024 lane groups, traceback on");
    w.key("tiers");
    w.beginObject();
    for (const auto tier : {sim::IsaTier::Scalar, sim::IsaTier::Sse2,
                            sim::IsaTier::Avx2, sim::IsaTier::Avx512}) {
        if (!sim::isaTierSupported(tier))
            continue;
        uint64_t tier_cycles = 0;
        const double rate = measureLaneCellsPerSec(tier, &tier_cycles);
        w.key(sim::isaTierName(tier));
        w.beginObject();
        w.kv("lane_cells_per_sec", rate);
        w.kv("device_cycles", tier_cycles);
        w.kv("device_cycles_identical", tier_cycles == wave_cycles);
        w.endObject();
        if (tier == active_tier)
            active_rate = rate;
        if (tier == sim::IsaTier::Sse2)
            sse2_rate = rate;
        if (tier == sim::IsaTier::Avx2)
            avx2_rate = rate;
    }
    w.endObject();
    w.kv("active_lane_cells_per_sec", active_rate);
    if (sse2_rate > 0 && avx2_rate > 0)
        w.kv("avx2_vs_sse2_speedup", avx2_rate / sse2_rate);
    w.endObject();

    // One ~100kb banded-global pair: the single-long-pair shape where
    // inter-pair lanes are empty. The fast path fills it as a strip at
    // the active tier and row-major at IsaTier::Scalar. Device cycles
    // are path-independent; only host band cells/sec moves.
    constexpr int kLongLen = 100000, kLongBand = 64;
    uint64_t lp_wave = 0, lp_strip = 0, lp_row = 0;
    const double lp_wave_rate =
        measureLongBandedPair(sim::EnginePath::Wavefront,
                              sim::IsaTier::Auto, kLongLen, kLongBand,
                              &lp_wave);
    const double lp_strip_rate =
        measureLongBandedPair(sim::EnginePath::Fast, sim::IsaTier::Auto,
                              kLongLen, kLongBand, &lp_strip);
    const double lp_row_rate =
        measureLongBandedPair(sim::EnginePath::Fast, sim::IsaTier::Scalar,
                              kLongLen, kLongBand, &lp_row);
    w.key("intra_pair");
    w.beginObject();
    w.kv("workload",
         "banded-global DNA 100000x100000, band 64, traceback on, "
         "single pair");
    w.kv("wavefront_cells_per_sec", lp_wave_rate);
    w.kv("strip_cells_per_sec", lp_strip_rate);
    w.kv("row_major_cells_per_sec", lp_row_rate);
    w.kv("strip_vs_row_major_speedup", lp_strip_rate / lp_row_rate);
    w.kv("device_cycles_identical",
         lp_wave == lp_strip && lp_wave == lp_row);
    w.endObject();

    // Length-aware lane grouping on a mixed-length batch (the
    // StreamPipeline's per-shard (qlen, rlen) sort): useful cells/sec
    // with submission-order vs sorted grouping, identical device
    // cycles either way.
    uint64_t unsorted_cycles = 0, sorted_cycles = 0;
    const double unsorted_rate =
        measureMixedLaneCellsPerSec(false, &unsorted_cycles);
    const double sorted_rate =
        measureMixedLaneCellsPerSec(true, &sorted_cycles);
    w.key("mixed_lane_grouping");
    w.beginObject();
    w.kv("workload",
         "32 local-affine DNA pairs, 96/768 bases interleaved, "
         "8-lane groups");
    w.kv("unsorted_useful_cells_per_sec", unsorted_rate);
    w.kv("sorted_useful_cells_per_sec", sorted_rate);
    w.kv("sorted_speedup", sorted_rate / unsorted_rate);
    w.kv("device_cycles_identical", unsorted_cycles == sorted_cycles);
    w.endObject();

    // Dispatch-policy section: modeled aligns/sec of the mixed-shape
    // batch under threshold vs cost-model routing. Deterministic
    // (cycle-domain device accounting, pinned CPU rate, modeled GPU),
    // so bench_diff hard-gates both throughput numbers across runs.
    const DispatchOutcome threshold =
        measureDispatchPolicy(host::DispatchPolicy::Threshold);
    const DispatchOutcome cost =
        measureDispatchPolicy(host::DispatchPolicy::CostModel);
    const bool same_results = threshold.scores == cost.scores;
    w.key("dispatch_policy");
    w.beginObject();
    w.kv("workload",
         "80 local-affine DNA pairs, 32/96/256/700 bases mixed, "
         "2 channels + CPU fallback (pinned 5e8 cells/s) + GPU model");
    w.key("threshold");
    w.beginObject();
    w.kv("aligns_per_sec", threshold.alignsPerSec);
    w.kv("device_aligns", threshold.deviceAligns);
    w.kv("cpu_aligns", threshold.cpuAligns);
    w.kv("gpu_aligns", threshold.gpuAligns);
    w.endObject();
    w.key("cost_model");
    w.beginObject();
    w.kv("aligns_per_sec", cost.alignsPerSec);
    w.kv("device_aligns", cost.deviceAligns);
    w.kv("cpu_aligns", cost.cpuAligns);
    w.kv("gpu_aligns", cost.gpuAligns);
    w.endObject();
    w.kv("cost_model_speedup",
         threshold.alignsPerSec > 0
             ? cost.alignsPerSec / threshold.alignsPerSec
             : 0.0);
    w.kv("result_sets_identical", same_results);
    w.endObject();

    // Priority-scheduling section: modeled p50/p99 completion latency
    // of the interactive class on the mixed two-class workload, FIFO vs
    // priority dispatch. Latencies are cycle-domain (deterministic);
    // the p99 service rates (1/p99) are aligns_per_sec metrics so
    // bench_diff hard-gates them across runs.
    PriorityOutcome fifo = measurePriorityScheduling(false);
    PriorityOutcome prio = measurePriorityScheduling(true);
    const double fifo_p50 = host::percentile(fifo.interactiveLat, 0.5);
    const double fifo_p99 = host::percentile(fifo.interactiveLat, 0.99);
    const double prio_p50 = host::percentile(prio.interactiveLat, 0.5);
    const double prio_p99 = host::percentile(prio.interactiveLat, 0.99);
    const bool prio_same_results = fifo.scores == prio.scores;
    w.key("priority_scheduling");
    w.beginObject();
    w.kv("workload",
         "12 interactive (1x64b) + 6 bulk (24x256b) local-affine "
         "tickets, 1 channel, 1 worker, modeled cycles @ 250 MHz");
    w.key("fifo");
    w.beginObject();
    w.kv("interactive_p50_latency_s", fifo_p50);
    w.kv("interactive_p99_latency_s", fifo_p99);
    w.kv("interactive_p99_aligns_per_sec",
         fifo_p99 > 0 ? 1.0 / fifo_p99 : 0.0);
    w.kv("bulk_p99_latency_s", host::percentile(fifo.bulkLat, 0.99));
    w.endObject();
    w.key("priority");
    w.beginObject();
    w.kv("interactive_p50_latency_s", prio_p50);
    w.kv("interactive_p99_latency_s", prio_p99);
    w.kv("interactive_p99_aligns_per_sec",
         prio_p99 > 0 ? 1.0 / prio_p99 : 0.0);
    w.kv("bulk_p99_latency_s", host::percentile(prio.bulkLat, 0.99));
    w.endObject();
    w.kv("interactive_p99_speedup",
         prio_p99 > 0 ? fifo_p99 / prio_p99 : 0.0);
    w.kv("result_sets_identical", prio_same_results);
    w.endObject();

    // Stage-pipeline section: host wall-clock of a traceback-heavy
    // shard with per-pair fill/traceback serialization vs the staged
    // FIFO overlap, plus the preempt-to-dispatch latency of a priority
    // ticket landing mid-bulk-shard. Modeled throughput is identical
    // across both paths (cycle accounting is analytic) and hard-gated;
    // the wall-clock seconds and latency are reported ungated.
    const StageOutcome mono_run = measureStagePipeline(false);
    const StageOutcome staged_run = measureStagePipeline(true);
    const double preempt_ms = measurePreemptToDispatchMs();
    const bool stage_same = mono_run.scores == staged_run.scores;
    w.key("stage_pipeline");
    w.beginObject();
    w.kv("workload",
         "256 banded-global DNA pairs 2048x2048 band 8, 8 lanes, "
         "traceback on, 1 channel, 1 worker, stage FIFO depth 4");
    // Overlap needs a second core for the consumer stage: on a 1-CPU
    // host the stages timeshare and the speedup reads ~1x or below.
    w.kv("host_cpus",
         static_cast<int>(std::thread::hardware_concurrency()));
    w.kv("modeled_aligns_per_sec", staged_run.modeledAlignsPerSec);
    w.kv("serialized_shard_seconds", mono_run.wallSeconds);
    w.kv("overlapped_shard_seconds", staged_run.wallSeconds);
    w.kv("overlap_speedup",
         staged_run.wallSeconds > 0
             ? mono_run.wallSeconds / staged_run.wallSeconds
             : 0.0);
    w.kv("preempt_to_dispatch_ms", preempt_ms);
    w.kv("modeled_rates_identical",
         mono_run.modeledAlignsPerSec == staged_run.modeledAlignsPerSec);
    w.kv("result_sets_identical", stage_same);
    w.endObject();

    // Mixed-workload section: realtime sDTW basecalling + interactive
    // read mapping + bulk batches sharing the modeled device, vs each
    // class isolated. Latencies are cycle-domain on one-channel,
    // one-worker pipelines, so the per-class p99 service rates are
    // deterministic and hard-gated (aligns_per_sec suffix); identity
    // of the result sets is the correctness gate.
    workloads::MixedDemoConfig mix_cfg =
        workloads::MixedDemoConfig::makeDefault();
    mix_cfg.seed = 7;
    const auto mix = workloads::runMixedDemo(mix_cfg, true);
    const auto mix_iso = workloads::runMixedDemo(mix_cfg, false);
    bool mix_same = mix.bulkScores == mix_iso.bulkScores &&
                    mix.mappings.size() == mix_iso.mappings.size() &&
                    mix.basecalls.size() == mix_iso.basecalls.size();
    for (size_t i = 0; mix_same && i < mix.mappings.size(); i++) {
        mix_same = mix.mappings[i].score == mix_iso.mappings[i].score &&
                   mix.mappings[i].refStart ==
                       mix_iso.mappings[i].refStart &&
                   mix.mappings[i].ops == mix_iso.mappings[i].ops;
    }
    for (size_t i = 0; mix_same && i < mix.basecalls.size(); i++) {
        mix_same = mix.basecalls[i].abandoned ==
                       mix_iso.basecalls[i].abandoned &&
                   mix.basecalls[i].deviceScore ==
                       mix_iso.basecalls[i].deviceScore;
    }
    auto rt_lat = mix.latencies.realtime;
    auto int_lat = mix.latencies.interactive;
    auto blk_lat = mix.latencies.bulk;
    const double rt_p99 = host::percentile(rt_lat, 0.99);
    const double int_p99 = host::percentile(int_lat, 0.99);
    w.key("workloads");
    w.beginObject();
    w.kv("workload",
         "mixed classes on shared pipelines: 8 squiggle streams "
         "(sDTW, early abandon) + 16 mapper reads (seed-chain-extend) "
         "+ 4 bulk batches, 1 channel per kernel, modeled cycles");
    w.kv("realtime_tickets", static_cast<int>(rt_lat.size()));
    w.kv("interactive_tickets", static_cast<int>(int_lat.size()));
    w.kv("bulk_tickets", static_cast<int>(blk_lat.size()));
    w.kv("realtime_p50_latency_s", host::percentile(rt_lat, 0.5));
    w.kv("realtime_p99_latency_s", rt_p99);
    w.kv("realtime_p99_aligns_per_sec",
         rt_p99 > 0 ? 1.0 / rt_p99 : 0.0);
    w.kv("interactive_p50_latency_s", host::percentile(int_lat, 0.5));
    w.kv("interactive_p99_latency_s", int_p99);
    w.kv("interactive_p99_aligns_per_sec",
         int_p99 > 0 ? 1.0 / int_p99 : 0.0);
    w.kv("bulk_p99_latency_s", host::percentile(blk_lat, 0.99));
    w.kv("result_sets_identical", mix_same);
    w.endObject();
    w.endObject();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("dispatch: threshold %.3g, cost-model %.3g modeled "
                "aligns/s (%.2fx), results identical: %s\n",
                threshold.alignsPerSec, cost.alignsPerSec,
                threshold.alignsPerSec > 0
                    ? cost.alignsPerSec / threshold.alignsPerSec
                    : 0.0,
                same_results ? "yes" : "NO");
    std::printf("wavefront %.3g, fast %.3g (%.2fx), lanes8 %.3g (%.2fx) "
                "cells/s; cycles identical: %s\n",
                wave, fast, fast / wave, lane, lane / wave,
                wave_cycles == fast_cycles && wave_cycles == lane_cycles
                    ? "yes" : "NO");
    std::printf("isa tiers: active %s @ %.3g lane cells/s, avx2/sse2 "
                "%.2fx\n",
                sim::isaTierName(active_tier), active_rate,
                sse2_rate > 0 ? avx2_rate / sse2_rate : 0.0);
    std::printf("intra-pair 100kb banded: wavefront %.3g, strip %.3g, "
                "row-major %.3g band cells/s (%.2fx strip vs row-major), "
                "cycles identical: %s\n",
                lp_wave_rate, lp_strip_rate, lp_row_rate,
                lp_strip_rate / lp_row_rate,
                lp_wave == lp_strip && lp_wave == lp_row ? "yes" : "NO");
    std::printf("mixed-length lanes: unsorted %.3g, sorted %.3g useful "
                "cells/s (%.2fx), cycles identical: %s -> %s\n",
                unsorted_rate, sorted_rate, sorted_rate / unsorted_rate,
                unsorted_cycles == sorted_cycles ? "yes" : "NO",
                path.c_str());
    std::printf("priority scheduling: interactive p99 %.3f ms FIFO vs "
                "%.3f ms prioritized (%.1fx), results identical: %s\n",
                1e3 * fifo_p99, 1e3 * prio_p99,
                prio_p99 > 0 ? fifo_p99 / prio_p99 : 0.0,
                prio_same_results ? "yes" : "NO");
    std::printf("stage pipeline: serialized %.3f s vs overlapped %.3f s "
                "(%.2fx), preempt-to-dispatch %.2f ms, results "
                "identical: %s\n",
                mono_run.wallSeconds, staged_run.wallSeconds,
                staged_run.wallSeconds > 0
                    ? mono_run.wallSeconds / staged_run.wallSeconds
                    : 0.0,
                preempt_ms, stage_same ? "yes" : "NO");
    std::printf("mixed workloads: realtime p99 %.3f ms, interactive "
                "p99 %.3f ms, %zu+%zu+%zu tickets, results identical: "
                "%s\n",
                1e3 * rt_p99, 1e3 * int_p99, rt_lat.size(),
                int_lat.size(), blk_lat.size(),
                mix_same ? "yes" : "NO");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json = bench::jsonPathFromArgs(argc, argv);
    if (!json.empty())
        writeJson(json);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
