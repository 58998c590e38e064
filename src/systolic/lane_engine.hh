/**
 * @file
 * Batch-level SIMD lanes: lockstep row-major DP over several pairs.
 *
 * CPU aligners (the BSW baseline in `baselines/bsw.*`) recover SIMD
 * throughput by running one alignment per vector lane — inter-sequence
 * parallelism. LaneAligner is the host-simulator analog: up to 16
 * same-kernel pairs advance through a struct-of-arrays row buffer in
 * lockstep, with the lane loop innermost and contiguous (stride-1 per
 * (layer, column) slot).
 *
 * The vector row sweep itself is compiled once per ISA tier (SSE2 /
 * AVX2 / AVX-512, see lane_sweep_impl.hh) and dispatched at runtime
 * through the sweep registry: the constructor resolves the configured
 * tier (EngineConfig::isaTier, default Auto = widest the CPU supports)
 * once, and each group runs the widest registered sweep at that tier.
 * Kernels without a registered sweep — custom kernels, or any kernel
 * under IsaTier::Scalar — run the scalar per-lane fallback loop, which
 * carries a `#pragma omp simd` hint for the auto-vectorizer.
 *
 * Pairs of different lengths share one padded (max-q x max-r) iteration
 * space. Per-lane results stay bit-identical to the scalar fast path
 * because
 *
 *  - init row/column values depend only on (index, layer, params),
 *    never on the pair, so every lane sees its own exact boundary;
 *  - cells beyond a lane's own (qlen, rlen) compute garbage that no
 *    in-range cell of that lane ever reads (DP dependencies only point
 *    down-right);
 *  - optimum eligibility is masked per lane with the lane's own
 *    dimensions, preserving the first-optimum-in-(row,col)-order
 *    reduction semantics;
 *  - cycle statistics are analytic per lane (same trip-count formulas
 *    as the scalar paths, over the lane's own dimensions).
 *
 * Enforced by tests/test_lane_batching.cc and (across every host tier)
 * tests/test_isa_tiers.cc.
 */

#ifndef DPHLS_SYSTOLIC_LANE_ENGINE_HH
#define DPHLS_SYSTOLIC_LANE_ENGINE_HH

#include <array>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "kernels/detail_simd.hh"
#include "systolic/engine_common.hh"
#include "systolic/lane_sweep.hh"

#if defined(_OPENMP) || defined(DPHLS_OPENMP_SIMD)
#define DPHLS_SIMD_LOOP _Pragma("omp simd")
#else
#define DPHLS_SIMD_LOOP
#endif

namespace dphls::sim {

/**
 * Lockstep multi-pair aligner for kernel @p K. One group of at most
 * `maxLanes` pairs per alignLanes() call; the host (StreamPipeline)
 * forms the groups.
 */
template <core::KernelSpec K>
class LaneAligner
{
  public:
    using ScoreT = typename K::ScoreT;
    using CharT = typename K::CharT;
    using Params = typename K::Params;
    using Result = core::AlignResult<ScoreT>;
    static constexpr int nLayers = K::nLayers;
    static constexpr int maxLanes = 16;

    /** One lane: non-owning views of a query/reference pair. */
    struct LanePair
    {
        const seq::Sequence<CharT> *query = nullptr;
        const seq::Sequence<CharT> *reference = nullptr;
    };

    /**
     * Fill output of one native-width sub-group: everything the
     * per-lane traceback epilogue needs. The state owns the traceback
     * bank (moved out of the workspace), so laneTraceback() may run on
     * a consumer thread while this aligner fills the next group —
     * staged shard execution's lane-group boundary.
     */
    struct LaneFillState
    {
        int count = 0; //!< lanes actually occupied in this sub-group
        int packW = 0; //!< pack width the sub-group ran at (tb stride)
        int maxr = 0;
        int band = 0;
        bool keepTb = false;
        std::array<int, maxLanes> qlen{}, rlen{};
        std::array<uint8_t, maxLanes> found{};
        std::array<ScoreT, maxLanes> bestScore{};
        std::array<int, maxLanes> bestI{}, bestJ{};
        std::vector<core::TbPtr> tb;
        std::vector<int64_t> rowBase;
    };

    explicit LaneAligner(EngineConfig cfg = {},
                         Params params = K::defaultParams())
        : _cfg(cfg), _params(params), _tier(resolveIsaTier(cfg.isaTier))
    {
        if (_cfg.numPe < 1)
            throw std::invalid_argument("numPe must be >= 1");
    }

    const EngineConfig &config() const { return _cfg; }

    /** The resolved runtime ISA tier this aligner dispatches to. */
    IsaTier activeTier() const { return _tier; }

    /** Per-lane cycle statistics of the most recent alignLanes() call. */
    const std::vector<CycleStats> &laneStats() const { return _laneStats; }

    /** Total cycles of lane @p lane per the cycle model. */
    uint64_t
    laneTotalCycles(int lane) const
    {
        return totalCycles(_laneStats[static_cast<size_t>(lane)],
                           _cfg.cycles);
    }

    /** Align a group of pairs in lockstep; returns one result per lane. */
    std::vector<Result>
    alignLanes(const std::vector<LanePair> &lanes)
    {
        const int n = static_cast<int>(lanes.size());
        if (n == 0)
            return {};
        if (n > maxLanes)
            throw std::invalid_argument("lane group exceeds maxLanes");
        for (const auto &lp : lanes) {
            if (lp.query->length() > _cfg.maxQueryLength)
                throw std::invalid_argument(
                    "query exceeds MAX_QUERY_LENGTH");
            if (lp.reference->length() > _cfg.maxReferenceLength)
                throw std::invalid_argument(
                    "reference exceeds MAX_REFERENCE_LENGTH");
        }

        // Split into native-width sub-groups of the resolved tier
        // (also shrinks the padded iteration space when lengths vary
        // across the group).
        const size_t native = static_cast<size_t>(isaTierLanes(_tier));
        std::vector<Result> results;
        std::vector<CycleStats> stats;
        results.reserve(lanes.size());
        stats.reserve(lanes.size());
        for (size_t g = 0; g < lanes.size(); g += native) {
            const size_t count = std::min(native, lanes.size() - g);
            const std::vector<LanePair> sub(
                lanes.begin() + static_cast<ptrdiff_t>(g),
                lanes.begin() + static_cast<ptrdiff_t>(g + count));
            auto sub_results = dispatch(sub);
            results.insert(results.end(),
                           std::make_move_iterator(sub_results.begin()),
                           std::make_move_iterator(sub_results.end()));
            stats.insert(stats.end(), _laneStats.begin(),
                         _laneStats.end());
        }
        _laneStats = std::move(stats);
        return results;
    }

    /**
     * Fill stage of a lane group: the same native-width sub-group split
     * as alignLanes(), stopping before the per-lane epilogue. Returns
     * one state per sub-group; feed each lane of each state through
     * laneTraceback() to obtain the bit-identical result and cycles.
     */
    std::vector<LaneFillState>
    fillLanes(const std::vector<LanePair> &lanes)
    {
        const int n = static_cast<int>(lanes.size());
        if (n == 0)
            return {};
        if (n > maxLanes)
            throw std::invalid_argument("lane group exceeds maxLanes");
        for (const auto &lp : lanes) {
            if (lp.query->length() > _cfg.maxQueryLength)
                throw std::invalid_argument(
                    "query exceeds MAX_QUERY_LENGTH");
            if (lp.reference->length() > _cfg.maxReferenceLength)
                throw std::invalid_argument(
                    "reference exceeds MAX_REFERENCE_LENGTH");
        }
        const size_t native = static_cast<size_t>(isaTierLanes(_tier));
        std::vector<LaneFillState> states;
        states.reserve((lanes.size() + native - 1) / native);
        for (size_t g = 0; g < lanes.size(); g += native) {
            const size_t count = std::min(native, lanes.size() - g);
            const std::vector<LanePair> sub(
                lanes.begin() + static_cast<ptrdiff_t>(g),
                lanes.begin() + static_cast<ptrdiff_t>(g + count));
            states.push_back(dispatchFill(sub));
        }
        return states;
    }

    /**
     * Traceback epilogue of one lane of a fill state. Touches no
     * workspace (only the state's bank and the immutable config), so it
     * is safe concurrently with fillLanes() on this same aligner.
     */
    Result
    laneTraceback(const LaneFillState &st, int lane,
                  CycleStats &stats) const
    {
        const size_t lu = static_cast<size_t>(lane);
        const int ql = st.qlen[lu];
        const int rl = st.rlen[lu];
        stats = CycleStats{};
        accountLoadInit<K>(_cfg, ql, rl, stats);
        accountFill<K>(_cfg, ql, rl, stats);
        const auto fetch = [&](int fi, int fj) {
            const int flo = bandJLo<K>(fi, st.band);
            if (fj < flo || fj > bandJHi<K>(fi, st.maxr, st.band))
                return core::TbPtr{};
            return st.tb[static_cast<size_t>(
                             st.rowBase[static_cast<size_t>(fi - 1)] +
                             (fj - flo)) *
                             static_cast<size_t>(st.packW) +
                         lu];
        };
        return finishResult<K>(_cfg, _params, ql, rl, st.found[lu] != 0,
                               st.bestScore[lu],
                               core::Coord{st.bestI[lu], st.bestJ[lu]},
                               st.keepTb, fetch, stats);
    }

    /**
     * Hand a finished group's buffers back for reuse. The staged
     * consumer calls this after the last laneTraceback() of a state so
     * the producer's next fillLanes() reuses the traceback bank instead
     * of paying a fresh allocation (and first-touch faults) per group —
     * the same amortization the monolithic run() gets by moving the
     * bank back into the workspace. Keeps the single largest bank;
     * thread-safe against fillLanes() on this same aligner.
     */
    void
    recycleBank(LaneFillState &&st)
    {
        std::lock_guard lock(_spareMutex);
        if (st.tb.capacity() > _spareTb.capacity())
            _spareTb = std::move(st.tb);
        if (st.rowBase.capacity() > _spareRowBase.capacity())
            _spareRowBase = std::move(st.rowBase);
    }

  private:
    std::vector<Result>
    dispatch(const std::vector<LanePair> &lanes)
    {
        // Pick the narrowest pack that still fits the group: packs
        // wider than the tier's native registers would be split into
        // slow multi-op sequences, so the tier caps the width.
        const int n = static_cast<int>(lanes.size());
        const int native = isaTierLanes(_tier);
        if (native >= 16 && n > 8)
            return run<16>(lanes);
        if (native >= 8 && n > 4)
            return run<8>(lanes);
        return run<4>(lanes);
    }

    LaneFillState
    dispatchFill(const std::vector<LanePair> &lanes)
    {
        const int n = static_cast<int>(lanes.size());
        const int native = isaTierLanes(_tier);
        if (native >= 16 && n > 8)
            return fillRun<16>(lanes);
        if (native >= 8 && n > 4)
            return fillRun<8>(lanes);
        return fillRun<4>(lanes);
    }

    /** Monolithic group run: fill stage + per-lane epilogue in place. */
    template <int W>
    std::vector<Result>
    run(const std::vector<LanePair> &lanes)
    {
        LaneFillState st = fillRun<W>(lanes);
        const int n = st.count;
        std::vector<Result> results;
        results.reserve(static_cast<size_t>(n));
        _laneStats.assign(static_cast<size_t>(n), CycleStats{});
        for (int lane = 0; lane < n; lane++) {
            results.push_back(laneTraceback(
                st, lane, _laneStats[static_cast<size_t>(lane)]));
        }
        // Hand the bank back so lane groups keep amortizing allocations.
        _ws.tb = std::move(st.tb);
        _ws.rowBase = std::move(st.rowBase);
        return results;
    }

    template <int W>
    LaneFillState
    fillRun(const std::vector<LanePair> &lanes)
    {
        const int n = static_cast<int>(lanes.size());
        const int band = _cfg.bandWidth;
        const auto worst = core::scoreSentinelWorst<ScoreT>(K::objective);
        const bool keep_tb = K::hasTraceback && !_cfg.skipTraceback;

        // Unused lanes run as empty pairs: never eligible, cost nothing
        // beyond the lockstep arithmetic.
        std::array<int, W> qlen{}, rlen{};
        int maxq = 0, maxr = 0;
        for (int lane = 0; lane < n; lane++) {
            qlen[static_cast<size_t>(lane)] = lanes
                [static_cast<size_t>(lane)].query->length();
            rlen[static_cast<size_t>(lane)] = lanes
                [static_cast<size_t>(lane)].reference->length();
            maxq = std::max(maxq, qlen[static_cast<size_t>(lane)]);
            maxr = std::max(maxr, rlen[static_cast<size_t>(lane)]);
        }

        // Shared band-compressed traceback bank, [cell][lane]. When
        // traceback is off, every cell's store lands in one scratch
        // slot instead — the lane loop stays branch-free either way
        // (a conditional store would block vectorization). A staged run
        // moves the bank out per group; reclaim the consumer's recycled
        // one before falling back to a fresh allocation.
        if (_ws.tb.capacity() == 0 || _ws.rowBase.capacity() == 0) {
            std::lock_guard lock(_spareMutex);
            if (_ws.tb.capacity() == 0)
                _ws.tb = std::move(_spareTb);
            if (_ws.rowBase.capacity() == 0)
                _ws.rowBase = std::move(_spareRowBase);
        }
        std::vector<core::TbPtr> &tb = _ws.tb;
        tb.clear();
        std::array<core::TbPtr, W> tb_scratch{};
        std::vector<int64_t> &row_base = _ws.rowBase;
        if (keep_tb) {
            const int64_t cells =
                buildTbStripBase<K>(maxq, maxr, band, 1, row_base);
            tb.resize(static_cast<size_t>(cells) * W);
        } else {
            row_base.assign(static_cast<size_t>(maxq), 0);
        }

        std::array<uint8_t, W> found{};
        std::array<ScoreT, W> best_score{};
        std::array<int, W> best_i{}, best_j{};

        bool swept = false;
#ifdef DPHLS_VEC
        if constexpr (laneSweepEnabled<K>) {
            const LaneSweepFn<K> fn = _tier == IsaTier::Scalar
                ? nullptr : lookupLaneSweep<K, W>(_tier);
            if (fn) {
                runSweep<W>(fn, lanes, qlen, rlen, maxq, maxr, band,
                            LaneScoreTraits<ScoreT>::toRaw(worst), keep_tb,
                            tb, tb_scratch, row_base, found, best_score,
                            best_i, best_j);
                swept = true;
            }
        }
#endif
        if (!swept) {
            runScalar<W>(lanes, qlen, rlen, maxq, maxr, band, worst,
                         keep_tb, tb, tb_scratch, row_base, found,
                         best_score, best_i, best_j);
        }

        LaneFillState st;
        st.count = n;
        st.packW = W;
        st.maxr = maxr;
        st.band = band;
        st.keepTb = keep_tb;
        for (int lane = 0; lane < n; lane++) {
            const size_t lu = static_cast<size_t>(lane);
            st.qlen[lu] = qlen[lu];
            st.rlen[lu] = rlen[lu];
            st.found[lu] = found[lu];
            st.bestScore[lu] = best_score[lu];
            st.bestI[lu] = best_i[lu];
            st.bestJ[lu] = best_j[lu];
        }
        st.tb = std::move(tb);
        st.rowBase = std::move(row_base);
        return st;
    }

#ifdef DPHLS_VEC
    /**
     * Tier-compiled vector sweep: marshal the group into the raw-lane
     * SoA layout (64-byte-aligned int32 buffers, multi-plane character
     * codes, precomputed boundary tables) and hand it to the registered
     * sweep for the resolved tier. See lane_sweep.hh for the layout
     * contract and why raw int32 lanes are exact for ApFixed scores.
     */
    template <int W>
    void
    runSweep(LaneSweepFn<K> fn, const std::vector<LanePair> &lanes,
             const std::array<int, W> &qlen, const std::array<int, W> &rlen,
             int maxq, int maxr, int band, int32_t worst_raw, bool keep_tb,
             std::vector<core::TbPtr> &tb,
             std::array<core::TbPtr, W> &tb_scratch,
             const std::vector<int64_t> &row_base,
             std::array<uint8_t, W> &found,
             std::array<ScoreT, W> &best_score, std::array<int, W> &best_i,
             std::array<int, W> &best_j)
    {
        using CharTr = LaneCharTraits<CharT>;
        constexpr int planes = CharTr::planes;
        const int n = static_cast<int>(lanes.size());

        // Widened character planes, [pos][plane][lane]; padding lanes
        // stay zero (a valid code for the gather-style cells).
        RawLaneBuf &qp = _ws.qplanes;
        RawLaneBuf &rp = _ws.rplanes;
        qp.assign(static_cast<size_t>(maxq) * planes * W, 0);
        rp.assign(static_cast<size_t>(maxr) * planes * W, 0);
        for (int lane = 0; lane < n; lane++) {
            const auto &q = *lanes[static_cast<size_t>(lane)].query;
            const auto &r = *lanes[static_cast<size_t>(lane)].reference;
            for (int i = 0; i < q.length(); i++)
                for (int pl = 0; pl < planes; pl++)
                    qp[(static_cast<size_t>(i) * planes +
                        static_cast<size_t>(pl)) * W +
                       static_cast<size_t>(lane)] = CharTr::plane(q[i], pl);
            for (int j = 0; j < r.length(); j++)
                for (int pl = 0; pl < planes; pl++)
                    rp[(static_cast<size_t>(j) * planes +
                        static_cast<size_t>(pl)) * W +
                       static_cast<size_t>(lane)] = CharTr::plane(r[j], pl);
        }

        // Raw boundary tables: some kernels' init-column values depend
        // on the row index (Viterbi), so the sweep gets a full table.
        RawLaneBuf &col_init = _ws.colInitRaw;
        col_init.assign(static_cast<size_t>(maxq + 1) * nLayers, 0);
        for (int i = 1; i <= maxq; i++)
            for (int l = 0; l < nLayers; l++)
                col_init[static_cast<size_t>(i) * nLayers +
                         static_cast<size_t>(l)] =
                    LaneScoreTraits<ScoreT>::toRaw(
                        K::initColScore(i, l, _params));

        // Raw SoA row buffers with the origin/init-row boundary, same
        // values as the scalar path's ScoreT rows.
        std::array<int32_t *, nLayers> row_prev{}, row_cur{};
        for (int l = 0; l < nLayers; l++) {
            RawLaneBuf &prev = _ws.rowRawPrev[static_cast<size_t>(l)];
            RawLaneBuf &cur = _ws.rowRawCur[static_cast<size_t>(l)];
            prev.assign(static_cast<size_t>(maxr + 1) * W, worst_raw);
            cur.assign(static_cast<size_t>(maxr + 1) * W, worst_raw);
            const int32_t origin = LaneScoreTraits<ScoreT>::toRaw(
                K::originScore(l, _params));
            for (int lane = 0; lane < W; lane++)
                prev[static_cast<size_t>(lane)] = origin;
            for (int j = 1; j <= maxr; j++) {
                const int32_t v = LaneScoreTraits<ScoreT>::toRaw(
                    K::initRowScore(j, l, _params));
                for (int lane = 0; lane < W; lane++)
                    prev[static_cast<size_t>(j) * W +
                         static_cast<size_t>(lane)] = v;
            }
            row_prev[static_cast<size_t>(l)] = prev.data();
            row_cur[static_cast<size_t>(l)] = cur.data();
        }

        std::array<int32_t, W> qlen32{}, rlen32{};
        for (int lane = 0; lane < W; lane++) {
            qlen32[static_cast<size_t>(lane)] =
                qlen[static_cast<size_t>(lane)];
            rlen32[static_cast<size_t>(lane)] =
                rlen[static_cast<size_t>(lane)];
        }
        std::array<int32_t, W> out_found{}, out_best{}, out_i{}, out_j{};

        LaneSweepArgs<K> args;
        args.maxq = maxq;
        args.maxr = maxr;
        args.band = band;
        args.worstRaw = worst_raw;
        args.keepTb = keep_tb;
        args.qch32 = qp.data();
        args.rch32 = rp.data();
        args.colInit = col_init.data();
        args.rowPrev = row_prev.data();
        args.rowCur = row_cur.data();
        args.tb = tb.data();
        args.tbScratch = tb_scratch.data();
        args.rowBase = row_base.data();
        args.qlen = qlen32.data();
        args.rlen = rlen32.data();
        args.params = &_params;
        args.found = out_found.data();
        args.bestRaw = out_best.data();
        args.bestI = out_i.data();
        args.bestJ = out_j.data();
        fn(args);

        for (int lane = 0; lane < W; lane++) {
            const size_t lu = static_cast<size_t>(lane);
            found[lu] = out_found[lu] != 0;
            best_score[lu] =
                LaneScoreTraits<ScoreT>::fromRaw(out_best[lu]);
            best_i[lu] = out_i[lu];
            best_j[lu] = out_j[lu];
        }
    }
#endif // DPHLS_VEC

    /**
     * Scalar per-lane fallback: branch-free lockstep lane loop the
     * auto-vectorizer can lift. Used for kernels without a registered
     * sweep and under IsaTier::Scalar.
     */
    template <int W>
    void
    runScalar(const std::vector<LanePair> &lanes,
              const std::array<int, W> &qlen,
              const std::array<int, W> &rlen, int maxq, int maxr, int band,
              ScoreT worst, bool keep_tb, std::vector<core::TbPtr> &tb,
              std::array<core::TbPtr, W> &tb_scratch,
              const std::vector<int64_t> &row_base,
              std::array<uint8_t, W> &found,
              std::array<ScoreT, W> &best_score, std::array<int, W> &best_i,
              std::array<int, W> &best_j)
    {
        const int n = static_cast<int>(lanes.size());

        // Struct-of-arrays padded character buffers: [pos][lane].
        std::vector<CharT> &qch = _ws.qch;
        std::vector<CharT> &rch = _ws.rch;
        qch.assign(static_cast<size_t>(maxq) * W, CharT{});
        rch.assign(static_cast<size_t>(maxr) * W, CharT{});
        for (int lane = 0; lane < n; lane++) {
            const auto &q = *lanes[static_cast<size_t>(lane)].query;
            const auto &r = *lanes[static_cast<size_t>(lane)].reference;
            for (int i = 0; i < q.length(); i++)
                qch[static_cast<size_t>(i) * W +
                    static_cast<size_t>(lane)] = q[i];
            for (int j = 0; j < r.length(); j++)
                rch[static_cast<size_t>(j) * W +
                    static_cast<size_t>(lane)] = r[j];
        }

        const auto j_lo = [&](int i) { return bandJLo<K>(i, band); };
        const auto j_hi = [&](int i) { return bandJHi<K>(i, maxr, band); };

        // SoA row buffers: [layer][column][lane].
        std::array<std::vector<ScoreT>, nLayers> &row_prev = _ws.rowPrev;
        std::array<std::vector<ScoreT>, nLayers> &row_cur = _ws.rowCur;
        for (int l = 0; l < nLayers; l++) {
            auto &prev = row_prev[static_cast<size_t>(l)];
            auto &cur = row_cur[static_cast<size_t>(l)];
            prev.assign(static_cast<size_t>(maxr + 1) * W, worst);
            cur.assign(static_cast<size_t>(maxr + 1) * W, worst);
            const ScoreT origin = K::originScore(l, _params);
            for (int lane = 0; lane < W; lane++)
                prev[static_cast<size_t>(lane)] = origin;
            for (int j = 1; j <= maxr; j++) {
                const ScoreT v = K::initRowScore(j, l, _params);
                for (int lane = 0; lane < W; lane++)
                    prev[static_cast<size_t>(j) * W +
                         static_cast<size_t>(lane)] = v;
            }
        }

        for (int i = 1; i <= maxq; i++) {
            const int jlo = j_lo(i);
            const int jhi = j_hi(i);
            if (jlo > jhi)
                continue; // band fully outside this row

            for (int l = 0; l < nLayers; l++) {
                const ScoreT bval = jlo == 1
                    ? K::initColScore(i, l, _params) : worst;
                auto *cur = row_cur[static_cast<size_t>(l)].data() +
                            static_cast<size_t>(jlo - 1) * W;
                for (int lane = 0; lane < W; lane++)
                    cur[lane] = bval;
            }

            const CharT *qv = qch.data() + static_cast<size_t>(i - 1) * W;
            core::TbPtr *tb_row = keep_tb
                ? tb.data() + static_cast<size_t>(
                      row_base[static_cast<size_t>(i - 1)]) * W
                : tb_scratch.data();
            const size_t tb_stride = keep_tb ? W : 0;

            for (int j = jlo; j <= jhi; j++) {
                const CharT *rv =
                    rch.data() + static_cast<size_t>(j - 1) * W;
                core::TbPtr *tb_cell =
                    tb_row + static_cast<size_t>(j - jlo) * tb_stride;
                // The lane body is branch-free by construction (plain
                // selects, non-short-circuit masks, unconditional
                // stores) so the compiler can if-convert and vectorize
                // the whole recurrence across lanes.
                DPHLS_SIMD_LOOP
                for (int lane = 0; lane < W; lane++) {
                    // Layer loops are unrolled via fold expressions:
                    // a runtime inner loop would read as control flow
                    // and defeat the vectorizer.
                    core::PeIn<ScoreT, CharT, nLayers> in;
                    const size_t js = static_cast<size_t>(j) * W +
                                      static_cast<size_t>(lane);
                    [&]<size_t... L>(std::index_sequence<L...>) {
                        ((in.up[L] = row_prev[L][js]), ...);
                        ((in.diag[L] = row_prev[L][js - W]), ...);
                        ((in.left[L] = row_cur[L][js - W]), ...);
                    }(std::make_index_sequence<
                        static_cast<size_t>(nLayers)>{});
                    in.qryVal = qv[lane];
                    in.refVal = rv[lane];
                    in.row = i;
                    in.col = j;
                    const auto out = K::peFunc(in, _params);
                    [&]<size_t... L>(std::index_sequence<L...>) {
                        ((row_cur[L][js] = out.score[L]), ...);
                    }(std::make_index_sequence<
                        static_cast<size_t>(nLayers)>{});
                    tb_cell[lane] = out.tbPtr;

                    // Per-lane optimum mask over the lane's own
                    // dimensions; select-style update keeps the lane
                    // loop branch-free.
                    const int ql = qlen[static_cast<size_t>(lane)];
                    const int rl = rlen[static_cast<size_t>(lane)];
                    bool elig;
                    if constexpr (K::alignKind ==
                                  core::AlignmentKind::Local) {
                        elig = (i <= ql) & (j <= rl);
                    } else if constexpr (K::alignKind ==
                                         core::AlignmentKind::Global) {
                        elig = (i == ql) & (j == rl);
                    } else if constexpr (
                        K::alignKind == core::AlignmentKind::SemiGlobal) {
                        elig = (i == ql) & (j <= rl);
                    } else { // Overlap
                        elig = ((i == ql) & (j <= rl)) |
                               ((j == rl) & (i <= ql));
                    }
                    const ScoreT v = out.score[0];
                    const size_t lu = static_cast<size_t>(lane);
                    const bool better = elig &
                        (!found[lu] |
                         core::isBetter(K::objective, v, best_score[lu]));
                    best_score[lu] = better ? v : best_score[lu];
                    best_i[lu] = better ? i : best_i[lu];
                    best_j[lu] = better ? j : best_j[lu];
                    found[lu] = found[lu] | static_cast<uint8_t>(better);
                }
            }
            if (jhi < maxr) {
                for (int l = 0; l < nLayers; l++) {
                    auto *cur = row_cur[static_cast<size_t>(l)].data() +
                                static_cast<size_t>(jhi + 1) * W;
                    for (int lane = 0; lane < W; lane++)
                        cur[lane] = worst;
                }
            }
            for (int l = 0; l < nLayers; l++) {
                std::swap(row_prev[static_cast<size_t>(l)],
                          row_cur[static_cast<size_t>(l)]);
            }
        }
    }

    /**
     * Reusable buffers amortized across alignLanes() calls (the batch
     * host calls once per lane group; reallocating multi-megabyte
     * traceback banks per group would dominate).
     */
    struct Workspace
    {
        std::vector<CharT> qch, rch;
        RawLaneBuf qplanes, rplanes, colInitRaw;
        std::array<RawLaneBuf, nLayers> rowRawPrev, rowRawCur;
        std::vector<core::TbPtr> tb;
        std::vector<int64_t> rowBase;
        std::array<std::vector<ScoreT>, nLayers> rowPrev, rowCur;
    };

    EngineConfig _cfg;
    Params _params;
    IsaTier _tier;
    std::vector<CycleStats> _laneStats;
    Workspace _ws;
    std::mutex _spareMutex; //!< guards the recycled-bank pool below
    std::vector<core::TbPtr> _spareTb;
    std::vector<int64_t> _spareRowBase;
};

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_LANE_ENGINE_HH
