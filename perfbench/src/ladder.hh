/**
 * @file
 * Layer ladder and golden-model checks on a workload's own shapes.
 *
 * The ladder's bottom rung is the engine alone on one thread: the lane
 * engine over length-sorted groups at the pipeline's lane width, the
 * scalar fast path one pair at a time, and the fast path split into its
 * fill and traceback stages. Dividing a workload's end-to-end cells/s by
 * these ceilings, measured in the same process, gives efficiencies in
 * which the runner's speed cancels out.
 */

#ifndef PERFBENCH_LADDER_HH
#define PERFBENCH_LADDER_HH

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "harness.hh"
#include "host/stream_pipeline.hh"
#include "reference/matrix_aligner.hh"
#include "seq/random.hh"
#include "systolic/engine.hh"
#include "systolic/lane_engine.hh"

namespace perfbench {

/** DP cells of one pair (the ladder's kernels are all unbanded). */
template <typename Job>
uint64_t
jobCells(const Job &job)
{
    return static_cast<uint64_t>(job.query.length()) *
           static_cast<uint64_t>(job.reference.length());
}

/**
 * Lane width of the lane-engine rung for workloads whose pipeline runs
 * one pair per group (dphls_align's default --lanes): what a lane-width
 * change could reach there.
 */
constexpr int kLadderLanes = 8;

/** One-thread engine rates on a sample of a workload's pairs. */
struct EngineLadder
{
    double laneCellsPerSec = 0;
    double scalarCellsPerSec = 0;
    double fillSecPerCell = 0;
    double tracebackSecPerCell = 0;
};

/**
 * Repeat @p pass over the sample until @p budget_s has elapsed (at
 * least once) and return cells per second.
 */
template <typename Pass>
double
cellsPerSecond(uint64_t cells_per_pass, double budget_s, Pass &&pass)
{
    const auto t0 = Clock::now();
    uint64_t cells = 0;
    do {
        pass();
        cells += cells_per_pass;
    } while (secondsSince(t0) < budget_s);
    return static_cast<double>(cells) / secondsSince(t0);
}

/**
 * The ladder's engine rungs for kernel @p K on @p sample, with the
 * engine configuration a pipeline built from @p cfg gives its channels
 * and lane groups of @p lane_width pairs; each rate is measured for at
 * least @p budget_s.
 */
template <core::KernelSpec K>
EngineLadder
measureEngine(const std::vector<host::AlignmentJob<typename K::CharT>> &sample,
              const host::BatchConfig &cfg, int lane_width, double budget_s)
{
    sim::EngineConfig ecfg;
    ecfg.numPe = cfg.npe;
    ecfg.bandWidth = cfg.bandWidth;
    ecfg.maxQueryLength = cfg.maxQueryLength;
    ecfg.maxReferenceLength = cfg.maxReferenceLength;
    ecfg.skipTraceback = cfg.skipTraceback;
    ecfg.cycles = cfg.cycles;
    ecfg.isaTier = cfg.isaTier;
    EngineLadder out;
    if (sample.empty())
        return out;
    uint64_t cells = 0;
    for (const auto &j : sample)
        cells += jobCells(j);

    // Lane engine: length-sorted groups, as the pipeline forms them.
    std::vector<size_t> order(sample.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const auto &x = sample[a];
        const auto &y = sample[b];
        return x.query.length() != y.query.length()
            ? x.query.length() < y.query.length()
            : x.reference.length() < y.reference.length();
    });
    using Lanes = sim::LaneAligner<K>;
    Lanes lanes(ecfg, K::defaultParams());
    const size_t width = static_cast<size_t>(
        std::clamp(lane_width, 1, Lanes::maxLanes));
    std::vector<std::vector<typename Lanes::LanePair>> groups;
    for (size_t g = 0; g < order.size(); g += width) {
        std::vector<typename Lanes::LanePair> group;
        for (size_t i = g; i < std::min(order.size(), g + width); i++)
            group.push_back({&sample[order[i]].query,
                             &sample[order[i]].reference});
        groups.push_back(std::move(group));
    }
    out.laneCellsPerSec = cellsPerSecond(cells, budget_s, [&] {
        for (const auto &g : groups)
            lanes.alignLanes(g);
    });

    sim::SystolicAligner<K> engine(ecfg, K::defaultParams());
    out.scalarCellsPerSec = cellsPerSecond(cells, budget_s, [&] {
        for (const auto &j : sample)
            engine.align(j.query, j.reference);
    });

    // Staged fast path: time the fill and traceback stages apart.
    if (engine.supportsStagedFill()) {
        double fill_s = 0, tb_s = 0;
        for (const auto &j : sample) {
            const auto t0 = Clock::now();
            auto st = engine.fillStage(j.query, j.reference);
            const auto t1 = Clock::now();
            engine.tracebackStage(st);
            tb_s += secondsSince(t1);
            fill_s += std::chrono::duration<double>(t1 - t0).count();
            engine.recycleStage(std::move(st));
        }
        out.fillSecPerCell = fill_s / static_cast<double>(cells);
        out.tracebackSecPerCell = tb_s / static_cast<double>(cells);
    }
    return out;
}

/** Every @p stride-th item starting at a seeded offset (spot checks). */
inline std::vector<size_t>
seededSample(size_t n, size_t want, uint64_t seed)
{
    std::vector<size_t> out;
    if (n == 0 || want == 0)
        return out;
    seq::Rng rng(seed ^ 0x5eedc0ffeeULL);
    const size_t stride = std::max<size_t>(1, n / want);
    for (size_t i = rng.below(stride); i < n && out.size() < want;
         i += stride)
        out.push_back(i);
    return out;
}

/**
 * True when @p got equals the full-matrix golden model on @p job:
 * score and optimum cell always, traceback start and path when the
 * kernel produces one.
 */
template <core::KernelSpec K>
bool
matchesGolden(const ref::MatrixAligner<K> &golden,
              const host::AlignmentJob<typename K::CharT> &job,
              const core::AlignResult<typename K::ScoreT> &got,
              bool with_path)
{
    const auto want = golden.align(job.query, job.reference);
    if (got.score != want.score)
        return false;
    if (!with_path)
        return true;
    return got.end == want.end && got.start == want.start &&
           got.ops == want.ops;
}

/** Report the engine rungs of the ladder as per-layer metrics. */
inline void
reportEngineLadder(Report &report, const EngineLadder &l,
                   double cells_per_round)
{
    report.set("systolic.lane_cells_per_s", l.laneCellsPerSec, "cells/s");
    report.set("systolic.scalar_cells_per_s", l.scalarCellsPerSec,
               "cells/s");
    report.set("systolic.fill_s", l.fillSecPerCell * cells_per_round, "s");
    report.set("systolic.traceback_s",
               l.tracebackSecPerCell * cells_per_round, "s");
    report.set("systolic.cells", cells_per_round, "cells");
}

} // namespace perfbench

#endif // PERFBENCH_LADDER_HH
