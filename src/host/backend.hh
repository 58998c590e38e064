/**
 * @file
 * Pluggable alignment backends for the streaming host executor.
 *
 * The paper's host front-end (step 6) feeds NK independent device
 * channels; real deployments additionally keep a CPU path for jobs the
 * device cannot take (sequences over the synthesized MAX_*_LENGTH) or
 * should not take (tiny pairs whose DMA/invocation overhead dominates).
 * AlignBackend is the seam between the two: the StreamPipeline routes
 * each job to a backend and aggregates per-backend accounting, so the
 * heterogeneous split stays visible in the epoch statistics.
 *
 * Three implementations:
 *
 *  - DeviceChannelBackend: one simulated device channel, run as one
 *    producer feeding one consumer (host/stage_flow.hh), the host copy
 *    of the kernel's fill -> traceback split. The producer replays
 *    cache hits and fills either lockstep SIMD lane groups (lane width
 *    over 1: jobs sorted by (qlen, rlen) so each group shares a similar
 *    padded iteration space) or one pair at a time on the scalar
 *    engine; the consumer runs traceback, cache insert and writeback.
 *    Per-job device cycles are the engine's analytic totals plus the
 *    configured host overhead, identical at every lane width and
 *    consumer placement; channel busy cycles are the makespan of the
 *    greedy NB-block arbiter, run in shard order.
 *  - CpuBaselineBackend: the classic full-matrix CPU implementation
 *    (the golden model the engine is verified against) executed across
 *    host threads with cpu_runner's wall-clock methodology; cycles are
 *    derived from measured seconds at a configurable equivalent clock,
 *    and its "blocks" are the host threads.
 *  - GpuModelBackend: the iso-cost GPU throughput model
 *    (baselines/gpu_model.hh) promoted onto the backend seam. Results
 *    come from the same full-matrix golden model; cycles and busy time
 *    are modeled from the published GASAL2 / CUDASW++ GCUPS plus a
 *    per-batch launch overhead, for the kernels the paper benchmarks
 *    on a GPU (Fig. 6B).
 *
 * Every backend also answers estimate(job): a cost-model service-time
 * estimate (device channels from the analytic cycle formulas in
 * engine_common.hh, the CPU backend from an EWMA of measured cells/sec,
 * the GPU model from its GCUPS) that the StreamPipeline's cost-model
 * dispatch policy combines with its per-slot queued-work signal to
 * pick the backend with the lowest estimated completion time.
 */

#ifndef DPHLS_HOST_BACKEND_HH
#define DPHLS_HOST_BACKEND_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "baselines/cpu_runner.hh"
#include "baselines/gpu_model.hh"
#include "host/result_cache.hh"
#include "host/scheduler.hh"
#include "host/stage_flow.hh"
#include "reference/matrix_aligner.hh"
#include "systolic/engine.hh"
#include "systolic/isa_tier.hh"
#include "systolic/lane_engine.hh"

namespace dphls::host {

/**
 * Digest of the result- and cycle-affecting EngineConfig fields, mixed
 * into every cache key so backends with different band widths, PE
 * counts, maxima, traceback or cycle options can share one
 * ShardedResultCache without aliasing each other's entries.
 */
inline uint64_t
engineConfigSalt(const sim::EngineConfig &cfg)
{
    PairHash h{detail::fnvBasis1, detail::fnvBasis2};
    // Field-by-field (never the raw struct bytes: padding after the
    // bools is unspecified and would make logically equal configs hash
    // differently, silently splitting a shared cache).
    const int32_t fields[] = {cfg.numPe,
                              cfg.bandWidth,
                              cfg.maxQueryLength,
                              cfg.maxReferenceLength,
                              cfg.skipTraceback ? 1 : 0,
                              cfg.cycles.overlapLoadInit ? 1 : 0,
                              cfg.cycles.pipelineDepth,
                              cfg.cycles.tracebackCyclesPerStep,
                              cfg.cycles.writebackOpsPerCycle,
                              cfg.cycles.hostStreamCyclesPerChar};
    detail::fnvMix(h, fields, sizeof(fields));
    return h.h1 ^ (h.h2 * detail::fnvPrime);
}

/** One alignment job: a query/reference pair. */
template <typename CharT>
struct AlignmentJob
{
    seq::Sequence<CharT> query;
    seq::Sequence<CharT> reference;
};

/** Accounting of one backend run (a channel shard or a CPU shard). */
struct ChannelStats
{
    uint64_t busyCycles = 0;  //!< makespan of the backend's blocks/slots
    uint64_t totalCycles = 0; //!< sum of job cycles on this backend
    int alignments = 0;       //!< jobs this backend processed
    /** Jobs dropped from this backend's queue by a ticket cancel(). */
    int cancelled = 0;
    /** Jobs that completed after their ticket's deadline had passed. */
    int deadlineMisses = 0;
    /** In-flight shards that yielded the slot at a preemption point. */
    int preemptions = 0;
};

/**
 * Cost-model service-time estimate for one job on one backend. The
 * estimate is a routing signal, not an accounting value: it may be
 * approximate (traceback length is unknown before the alignment runs)
 * but must be deterministic for a given backend state so dispatch
 * decisions are reproducible.
 */
struct CostEstimate
{
    double seconds = 0;   //!< estimated marginal service time
    bool feasible = true; //!< false when the backend cannot run the job
};

/**
 * Greedy block arbiter: the jobs that wrote back (done[k]) land, in
 * shard order, on the earliest-free of @p blocks (zeroed by the
 * caller); adds their cycles and the block makespan (busy cycles) to
 * @p acct.
 */
inline void
arbitrateBlocks(std::vector<uint64_t> &blocks,
                const std::vector<int> &indices,
                const std::vector<uint8_t> &done, const uint64_t *cycles,
                ChannelStats &acct)
{
    for (size_t k = 0; k < indices.size(); k++) {
        if (!done[k])
            continue;
        const uint64_t c = cycles[static_cast<size_t>(indices[k])];
        *std::min_element(blocks.begin(), blocks.end()) += c;
        acct.totalCycles += c;
        acct.alignments++;
    }
    acct.busyCycles += *std::max_element(blocks.begin(), blocks.end());
}

/**
 * A backend that can align a set of jobs. run() fills the per-job
 * output slots (indexed by job index, so submission-order collation is
 * free), marks in its StageRunControl which jobs wrote back, and folds
 * its arbiter accounting for those jobs into @p acct. Implementations
 * are stateful (engines, scratch buffers); the pipeline serializes
 * run() calls per device channel.
 */
template <core::KernelSpec K>
class AlignBackend
{
  public:
    using CharT = typename K::CharT;
    using ScoreT = typename K::ScoreT;
    using Result = core::AlignResult<ScoreT>;
    using Job = AlignmentJob<CharT>;
    using Params = typename K::Params;

    virtual ~AlignBackend() = default;

    /** Stable backend name used in per-backend stats sections. */
    virtual const char *name() const = 0;
    /** Clock the backend's cycles are counted at (MHz). */
    virtual double clockMhz() const = 0;

    /** Estimated marginal service time for @p job on this backend. */
    virtual CostEstimate estimate(const Job &job) const = 0;

    /**
     * Fixed cost the backend pays once per submitted shard regardless
     * of its size (the GPU model's kernel-launch overhead). The router
     * charges it to the first job it routes to this backend within a
     * batch, so small batches see the backend's true marginal cost.
     */
    virtual double batchOverheadSeconds() const { return 0; }

    /**
     * Align jobs[indices[k]] for every k; write each job's result and
     * cycle count into results[idx] / cycles[idx]; set ctl.done[k] for
     * every job that wrote back; add those jobs' arbiter accounting to
     * @p acct. A backend with job boundaries polls ctl.shouldYield()
     * at each of them and may return early, leaving the rest not done.
     */
    virtual void run(const std::vector<Job> &jobs,
                     const std::vector<int> &indices, Result *results,
                     uint64_t *cycles, ChannelStats &acct,
                     StageRunControl &ctl) = 0;
};

/**
 * One simulated device channel: the systolic engine (scalar per pair,
 * or SIMD lane groups at lane width over 1), the shared result cache,
 * and the greedy NB-block arbiter.
 *
 * Each shard runs as one producer feeding one consumer (runStages).
 * The producer walks the shard (sorted by (qlen, rlen, index) when
 * lane groups form), replays cache hits, fills full lane groups with
 * fillLanes() and single pairs with fillStage() (the engine's strip
 * sweep); a single on the wavefront path finishes in the producer. The
 * consumer runs traceback, cache insert and writeback, then hands the
 * traceback bank back for the next fill.
 * Results and per-job cycles are the engine's, bit for bit, at every
 * lane width and consumer placement; the arbiter runs in shard order,
 * so channel accounting is grouping-independent too.
 */
template <core::KernelSpec K>
class DeviceChannelBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    DeviceChannelBackend(const sim::EngineConfig &ecfg, const Params &params,
                         int nb, uint64_t host_overhead_cycles,
                         double fmax_mhz, ShardedResultCache<Result> *cache,
                         int lane_width = 1, bool sort_by_length = true)
        : _engine(ecfg, params), _lanes(ecfg, params), _params(params),
          _cache(cache), _cfgSalt(engineConfigSalt(ecfg)),
          _hostOverhead(host_overhead_cycles), _fmaxMhz(fmax_mhz),
          _blockFree(static_cast<size_t>(std::max(1, nb)), 0),
          _width(std::clamp(lane_width, 1, sim::LaneAligner<K>::maxLanes)),
          _sortByLength(sort_by_length)
    {}

    const char *name() const override { return "device"; }
    double clockMhz() const override { return _fmaxMhz; }

    /**
     * Analytic service-time estimate from the engine_common cycle
     * formulas: load/init/fill are exact (they are the same formulas
     * the engine accounts with); traceback is bounded by the worst-case
     * walk length since the real path is unknown before alignment. The
     * NB blocks serve jobs concurrently, so the marginal completion
     * contribution of one job is its cycles divided by the arbiter
     * width.
     */
    CostEstimate
    estimate(const Job &job) const override
    {
        const sim::EngineConfig &ecfg = _engine.config();
        const int qlen = job.query.length();
        const int rlen = job.reference.length();
        if (qlen > ecfg.maxQueryLength || rlen > ecfg.maxReferenceLength)
            return {0, false};
        sim::CycleStats cs;
        sim::accountLoadInit<K>(ecfg, qlen, rlen, cs);
        sim::accountFill<K>(ecfg, qlen, rlen, cs);
        if (!ecfg.skipTraceback && K::hasTraceback) {
            const uint64_t steps = static_cast<uint64_t>(qlen + rlen);
            cs.traceback = steps *
                static_cast<uint64_t>(ecfg.cycles.tracebackCyclesPerStep);
            // writebackOpsPerCycle is a user-configurable knob; a 0
            // must degrade to the slowest rate, not divide by zero on
            // the routing hot path.
            cs.writeback = steps /
                static_cast<uint64_t>(
                    std::max(1, ecfg.cycles.writebackOpsPerCycle));
        }
        const uint64_t cycles =
            sim::totalCycles(cs, ecfg.cycles) + _hostOverhead;
        const double width =
            static_cast<double>(std::max<size_t>(1, _blockFree.size()));
        return {static_cast<double>(cycles) / (_fmaxMhz * 1e6 * width),
                true};
    }

    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        using LaneFill = typename sim::LaneAligner<K>::LaneFillState;
        enum class Kind : uint8_t
        {
            Ready,  //!< result known (cache hit or producer-finished)
            Single, //!< one fast-path fill state
            Group   //!< one lane group's fill states
        };
        struct Item
        {
            Kind kind = Kind::Ready;
            size_t k = 0;        //!< Ready/Single: position in indices
            PairHash key;        //!< Ready/Single: cache key
            bool cached = false; //!< Ready: replayed, not computed
            Result res;          //!< Ready: the result
            uint64_t engineCycles = 0; //!< Ready: its engine cycles
            sim::FastFillState<K> fill;
            std::vector<LaneFill> states;
            std::vector<size_t> ks; //!< Group: per-lane positions
            std::vector<PairHash> keys;
        };

        const bool use_cache = cacheEnabled();
        const size_t n = indices.size();
        ctl.done.assign(n, 0);
        const auto jobAt = [&](size_t k) -> const Job & {
            return jobs[static_cast<size_t>(indices[k])];
        };

        const auto produce = [&](auto &&emit) {
            // Lane groups form in (qlen, rlen, index) order so lockstep
            // lanes share a padded iteration space; results and cycles
            // are grouping-independent, and the arbiter below runs in
            // shard order, so nothing observable depends on the order.
            std::vector<size_t> order;
            if (_width > 1 && _sortByLength && n > 1) {
                order.resize(n);
                std::iota(order.begin(), order.end(), size_t{0});
                std::sort(order.begin(), order.end(),
                          [&](size_t a, size_t b) {
                              const Job &ja = jobAt(a);
                              const Job &jb = jobAt(b);
                              return std::make_tuple(ja.query.length(),
                                                     ja.reference.length(),
                                                     indices[a]) <
                                     std::make_tuple(jb.query.length(),
                                                     jb.reference.length(),
                                                     indices[b]);
                          });
            }

            const auto single = [&](size_t k, const PairHash &key) {
                const Job &job = jobAt(k);
                Item item;
                item.k = k;
                item.key = key;
                if (_engine.supportsStagedFill()) {
                    item.kind = Kind::Single;
                    item.fill = _engine.fillStage(job.query, job.reference);
                } else {
                    item.res = _engine.align(job.query, job.reference);
                    item.engineCycles = _engine.lastTotalCycles();
                }
                emit(std::move(item));
            };

            std::vector<size_t> group;
            std::vector<PairHash> group_keys;
            if (_width > 1) {
                group.reserve(static_cast<size_t>(_width));
                group_keys.reserve(static_cast<size_t>(_width));
            }
            const auto flushGroup = [&] {
                if (group.size() == 1) {
                    single(group[0], group_keys[0]);
                } else if (group.size() > 1) {
                    using Lane = typename sim::LaneAligner<K>::LanePair;
                    std::vector<Lane> lanes;
                    lanes.reserve(group.size());
                    for (const size_t k : group)
                        lanes.push_back(
                            Lane{&jobAt(k).query, &jobAt(k).reference});
                    Item item;
                    item.kind = Kind::Group;
                    item.states = _lanes.fillLanes(lanes);
                    item.ks = group;
                    item.keys = group_keys;
                    emit(std::move(item));
                }
                group.clear();
                group_keys.clear();
            };

            for (size_t m = 0; m < n; m++) {
                if (ctl.shouldYield()) {
                    // The partly formed group never started: its jobs
                    // stay not done and re-queue with the remainder.
                    return;
                }
                const size_t k = order.empty() ? m : order[m];
                const Job &job = jobAt(k);
                PairHash key;
                if (use_cache) {
                    key = pairHash(job.query, job.reference, _params,
                                   _cfgSalt);
                    if (auto hit = _cache->lookup(key)) {
                        Item item;
                        item.k = k;
                        item.cached = true;
                        item.res = std::move(hit->result);
                        item.engineCycles = hit->cycles;
                        emit(std::move(item));
                        continue;
                    }
                }
                if (_width == 1) {
                    single(k, key);
                    continue;
                }
                group.push_back(k);
                group_keys.push_back(key);
                if (group.size() >= static_cast<size_t>(_width))
                    flushGroup();
            }
            flushGroup();
        };

        const sim::CycleModelOptions &cycle_model = _engine.config().cycles;
        const auto writeback = [&](size_t k, const PairHash *key,
                                   Result &&res, uint64_t engine_cycles) {
            if (key != nullptr && use_cache)
                _cache->insert(*key, res, engine_cycles);
            const size_t idx = static_cast<size_t>(indices[k]);
            cycles[idx] = engine_cycles + _hostOverhead;
            results[idx] = std::move(res);
            ctl.done[k] = 1;
        };
        const auto consume = [&](Item &item) {
            if (item.kind == Kind::Ready) {
                writeback(item.k, item.cached ? nullptr : &item.key,
                          std::move(item.res), item.engineCycles);
            } else if (item.kind == Kind::Single) {
                Result res = _engine.tracebackStage(item.fill);
                writeback(item.k, &item.key, std::move(res),
                          sim::totalCycles(item.fill.stats, cycle_model));
                _engine.recycleStage(std::move(item.fill));
            } else {
                size_t m = 0;
                for (LaneFill &st : item.states) {
                    for (int lane = 0; lane < st.count; lane++, m++) {
                        sim::CycleStats stats;
                        Result res = _lanes.laneTraceback(st, lane, stats);
                        writeback(item.ks[m], &item.keys[m], std::move(res),
                                  sim::totalCycles(stats, cycle_model));
                    }
                    _lanes.recycleBank(std::move(st));
                }
            }
        };

        runStages<Item>(ctl, produce, consume);
        // Device cycles are independent of block placement, so the
        // arbiter runs as a separate phase after the compute; a
        // preempted shard's makespan sums with its resumption's.
        std::fill(_blockFree.begin(), _blockFree.end(), 0);
        arbitrateBlocks(_blockFree, indices, ctl.done, cycles, acct);
    }

  private:
    bool cacheEnabled() const { return _cache && _cache->enabled(); }

    sim::SystolicAligner<K> _engine;
    sim::LaneAligner<K> _lanes;
    Params _params;
    ShardedResultCache<Result> *_cache;
    uint64_t _cfgSalt;
    uint64_t _hostOverhead;
    double _fmaxMhz;
    std::vector<uint64_t> _blockFree;
    int _width;
    bool _sortByLength;
};

/**
 * Full-matrix cell count of one job as the CPU/GPU baselines pay it:
 * banded kernels only sweep the band's columns per row.
 */
template <core::KernelSpec K, typename Job>
inline double
baselineCells(const Job &job, int band_width)
{
    const double qlen = static_cast<double>(job.query.length());
    const double rlen = static_cast<double>(job.reference.length());
    if (K::banded) {
        const double band_cols =
            std::min(rlen, 2.0 * std::max(1, band_width) + 1.0);
        return std::max(1.0, qlen * band_cols);
    }
    return std::max(1.0, qlen * rlen);
}

/**
 * CPU fallback backend: the classic full-matrix implementation (the
 * golden model the systolic engine is verified against bit-for-bit, so
 * in-range jobs produce identical results) executed across host
 * threads. There is no analytic cycle model for the host CPU; cycles
 * are derived from per-job wall-clock measurements at an equivalent
 * clock, cpu_runner's baseline methodology. The backend's "blocks" are
 * its host threads: busy cycles are the greedy makespan over them.
 *
 * The cost model's service-time estimate comes from an EWMA of the
 * measured cells/sec, updated after every completed job — the backend
 * learns the host's actual throughput instead of assuming one. Passing
 * modeled_cells_per_sec > 0 pins the rate AND derives cycles from it
 * instead of the wall clock, making accounting deterministic (benches
 * and differential tests use this; real hosts leave it 0).
 */
template <core::KernelSpec K>
class CpuBaselineBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    CpuBaselineBackend(const Params &params, int band_width,
                       double cpu_mhz, int threads,
                       bool skip_traceback,
                       double modeled_cells_per_sec = 0)
        : _aligner(params, band_width), _bandWidth(band_width),
          _cpuMhz(cpu_mhz), _threads(std::max(1, threads)),
          _skipTraceback(skip_traceback),
          _modeledCellsPerSec(modeled_cells_per_sec)
    {
        // Seed every bucket's throughput estimate from the host's
        // detected ISA tier (isa_tier.hh) instead of a fixed constant:
        // the first routing decisions on an AVX-512 host shouldn't
        // assume an SSE2-era rate. Measurements take over per bucket
        // after its first job.
        const double seed = modeled_cells_per_sec > 0
            ? modeled_cells_per_sec
            : sim::isaTierSeedCellsPerSec(sim::detectIsaTier());
        for (auto &b : _ewmaCellsPerSec)
            b.store(seed, std::memory_order_relaxed);
    }

    const char *name() const override { return "cpu"; }
    double clockMhz() const override { return _cpuMhz; }

    /**
     * Current cells/sec estimate for a job of @p cells DP cells: the
     * EWMA of the job's log2-cell-count shape bucket (or the pinned
     * modeled rate). Bucketing keeps one long job from skewing the
     * estimates of short jobs — cache behavior and per-job overhead
     * make measured cells/sec strongly shape-dependent.
     */
    double
    cellsPerSecEstimate(double cells) const
    {
        return _ewmaCellsPerSec[bucketOf(cells)].load(
            std::memory_order_relaxed);
    }

    CostEstimate
    estimate(const Job &job) const override
    {
        const double cells = baselineCells<K>(job, _bandWidth);
        const double rate = cellsPerSecEstimate(cells);
        // The host threads serve jobs concurrently, so one job's
        // marginal completion contribution shrinks with the pool.
        return {cells / (rate * _threads), true};
    }

    /** One parallel pass with no job boundaries: every job runs. */
    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        ctl.done.assign(indices.size(), 1);
        const int n = static_cast<int>(indices.size());
        parallelFor(n, std::min(_threads, std::max(1, n)), [&](int k) {
            const int idx = indices[static_cast<size_t>(k)];
            const auto &job = jobs[static_cast<size_t>(idx)];
            const double cells = baselineCells<K>(job, _bandWidth);
            const auto t0 = std::chrono::steady_clock::now();
            Result res = _aligner.align(job.query, job.reference);
            double seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            if (_modeledCellsPerSec > 0)
                seconds = cells / _modeledCellsPerSec; // pinned rate
            else if (seconds > 0)
                updateEwma(cells, cells / seconds);
            if (_skipTraceback) {
                res.ops.clear();
                res.start = res.end;
            }
            cycles[static_cast<size_t>(idx)] =
                baseline::wallClockCycles(seconds, _cpuMhz);
            results[static_cast<size_t>(idx)] = std::move(res);
        });

        // Host threads as slots: greedy earliest-free packing, same
        // arbiter shape as the device channels' NB blocks. The slot
        // vector is run-local: the pipeline's CPU dispatch slot has
        // capacity > 1, so run() calls for different tickets may
        // execute concurrently (this backend has no other mutable
        // state — MatrixAligner::align is const).
        std::vector<uint64_t> slot_free(
            static_cast<size_t>(_threads), 0);
        arbitrateBlocks(slot_free, indices, ctl.done, cycles, acct);
    }

  private:
    /** Shape buckets: log2(cell count), clamped. 2^31 cells tops out
     *  well past the longest dispatchable pairs. */
    static constexpr int kEwmaBuckets = 32;

    static size_t
    bucketOf(double cells)
    {
        const int b = static_cast<int>(std::log2(std::max(1.0, cells)));
        return static_cast<size_t>(std::clamp(b, 0, kEwmaBuckets - 1));
    }

    /**
     * Relaxed-atomic per-bucket EWMA (alpha 0.25): concurrent updates
     * may drop a sample, which only costs estimate freshness, never
     * correctness.
     */
    void
    updateEwma(double cells, double rate)
    {
        std::atomic<double> &slot = _ewmaCellsPerSec[bucketOf(cells)];
        const double prev = slot.load(std::memory_order_relaxed);
        slot.store(prev + 0.25 * (rate - prev),
                   std::memory_order_relaxed);
    }

    ref::MatrixAligner<K> _aligner;
    int _bandWidth;
    double _cpuMhz;
    int _threads;
    bool _skipTraceback;
    double _modeledCellsPerSec;
    std::array<std::atomic<double>, kEwmaBuckets> _ewmaCellsPerSec;
};

/**
 * Modeled GPU backend: baselines/gpu_model promoted onto the backend
 * seam for the kernels the paper benchmarks on a GPU (GASAL2 for the
 * DNA global/local/banded-local families, CUDASW++ for protein local).
 * Functional results come from the same full-matrix golden model the
 * CPU backend uses (bit-identical to the device for in-range shapes);
 * accounting is modeled, not measured: each run() is one batched
 * kernel launch — a fixed launch overhead plus the batch's DP cells at
 * the published iso-cost GCUPS — with per-job cycles proportional to
 * each job's cells, all counted at the V100 clock. The "arbiter" is
 * the GPU itself: one fully-shared slot whose busy time is the modeled
 * batch service time.
 */
template <core::KernelSpec K>
class GpuModelBackend : public AlignBackend<K>
{
  public:
    using Base = AlignBackend<K>;
    using typename Base::Job;
    using typename Base::Params;
    using typename Base::Result;

    /** True when the paper has a GPU baseline for kernel @p K. */
    static bool covered() { return baseline::hasGpuBaseline(K::kernelId); }

    GpuModelBackend(const Params &params, int band_width, int threads,
                    bool skip_traceback)
        : _aligner(params, band_width), _bandWidth(band_width),
          _threads(std::max(1, threads)), _skipTraceback(skip_traceback)
    {}

    const char *name() const override { return "gpu"; }
    double clockMhz() const override { return baseline::gpuModelClockMhz(); }

    CostEstimate
    estimate(const Job &job) const override
    {
        if (!covered())
            return {0, false};
        // Pure service cost; the per-launch overhead is reported via
        // batchOverheadSeconds() so the router charges it exactly once
        // per shard (run() accounts it the same way).
        const double cells = baselineCells<K>(job, _bandWidth);
        return {baseline::gpuModelServiceSec(K::kernelId, cells), true};
    }

    double
    batchOverheadSeconds() const override
    {
        return baseline::gpuModelLaunchOverheadSec();
    }

    /** One batched launch with no job boundaries: every job runs. */
    void
    run(const std::vector<Job> &jobs, const std::vector<int> &indices,
        Result *results, uint64_t *cycles, ChannelStats &acct,
        StageRunControl &ctl) override
    {
        ctl.done.assign(indices.size(), 1);
        // Functional pass on host threads (the model has no GPU to run
        // on); accounting below is purely analytic.
        const int n = static_cast<int>(indices.size());
        parallelFor(n, std::min(_threads, std::max(1, n)), [&](int k) {
            const int idx = indices[static_cast<size_t>(k)];
            const auto &job = jobs[static_cast<size_t>(idx)];
            Result res = _aligner.align(job.query, job.reference);
            if (_skipTraceback) {
                res.ops.clear();
                res.start = res.end;
            }
            cycles[static_cast<size_t>(idx)] = std::max<uint64_t>(
                1, baseline::gpuModelServiceCycles(
                       K::kernelId, baselineCells<K>(job, _bandWidth)));
            results[static_cast<size_t>(idx)] = std::move(res);
        });

        // One batched launch: overhead + total cells at the tool's
        // GCUPS. The batch runs concurrently on the GPU, so busy time
        // is the batch service time, not a per-job sum.
        double batch_cells = 0;
        for (const int idx : indices) {
            batch_cells +=
                baselineCells<K>(jobs[static_cast<size_t>(idx)],
                                 _bandWidth);
            acct.totalCycles += cycles[static_cast<size_t>(idx)];
            acct.alignments++;
        }
        acct.busyCycles +=
            static_cast<uint64_t>(baseline::gpuModelLaunchOverheadSec() *
                                  baseline::gpuModelClockMhz() * 1e6) +
            baseline::gpuModelServiceCycles(K::kernelId, batch_cells);
    }

  private:
    ref::MatrixAligner<K> _aligner;
    int _bandWidth;
    int _threads;
    bool _skipTraceback;
};

} // namespace dphls::host

#endif // DPHLS_HOST_BACKEND_HH
