/**
 * @file
 * The fast functional path of the systolic engine.
 *
 * The wavefront schedule in `wavefront_path.hh` is what the hardware
 * executes, but its cycle statistics are *analytic* (trip-count formulas
 * over the chunk bounds) — nothing about the cycle numbers requires the
 * host simulator to actually visit cells in wavefront order. This path
 * exploits that. Its fill runs one of two loops over the same
 * recurrence, both handling the fixed band with loop bounds instead of
 * per-cell validity branches and writing traceback pointers into one
 * pre-reserved band-compressed bank (buildTbStripBase):
 *
 *  - the strip sweep (lane_sweep_impl.hh), at every SIMD tier: W query
 *    rows ride the W lanes of the engine's ISA tier, the reference
 *    shifts through them one column per step, and the strip's last row
 *    carries into the next strip — DP-HLS's PE array (Fig. 2C) on SIMD
 *    lanes;
 *  - the scalar row-major loop, at IsaTier::Scalar, for kernels
 *    without a lane cell, and on builds without vector extensions.
 *
 * Both reproduce the PE reduction exactly: first optimum in (row, col)
 * scan order, which is what the per-PE tracking plus the reduction
 * tree's tie-break produce.
 *
 * Equivalence argument (enforced by tests/test_fastpath_equivalence.cc
 * at every tier):
 *
 *  - kernel PE functions depend only on the three neighbor scores and
 *    the two characters, never on the schedule;
 *  - the wavefront path feeds `worst` for every neighbor outside the
 *    band (invalid cells write `worst`, stale preserved-row entries
 *    fetch `worst`), which is exactly the boundary value both loops
 *    maintain at the band edges;
 *  - cycle statistics are recomputed from the same trip-count formulas
 *    (`accountFill`), so they are bit-identical by construction.
 */

#ifndef DPHLS_SYSTOLIC_FAST_PATH_HH
#define DPHLS_SYSTOLIC_FAST_PATH_HH

#include <array>
#include <bit>
#include <vector>

#include "systolic/engine_common.hh"
#include "systolic/lane_sweep.hh"

namespace dphls::sim {

/**
 * Reusable buffers of the fast path. Owning them in the aligner object
 * lets batch hosts amortize the fill buffers and the traceback bank
 * across alignments instead of reallocating per pair.
 */
template <core::KernelSpec K>
struct FastWorkspace
{
    /** Row-major loop: previous and current row, per layer. */
    std::array<std::vector<typename K::ScoreT>, K::nLayers> rowPrev;
    std::array<std::vector<typename K::ScoreT>, K::nLayers> rowCur;
    /** Strip sweep: raw character planes and init column (see
     *  StripSweepArgs), and the carried rows, per layer. */
    std::vector<int32_t> qPlanes, rPlanes, colInit;
    std::array<std::vector<int32_t>, K::nLayers> rows;
    /** Band-compressed traceback bank (buildTbStripBase layout). */
    std::vector<core::TbPtr> tb;
    /** Offset of each strip's first cell inside `tb`. */
    std::vector<int64_t> stripBase;
};

/**
 * Everything the traceback stage needs after the DP fill of one pair.
 *
 * Staged executors move the traceback bank out of the workspace so the
 * traceback of pair i can run on another thread while pair i+1 fills
 * into fresh buffers; `fastAlign` moves the buffers back afterwards to
 * keep the monolithic path's allocation amortization. `stats` holds the
 * load/init + fill components on return from `fastFill`; the traceback
 * stage adds its reduction/traceback/writeback components in place.
 */
template <core::KernelSpec K>
struct FastFillState
{
    int qlen = 0;
    int rlen = 0;
    int band = 0;
    int lanes = 1; //!< strip height W of the bank layout
    bool keepTb = false;
    bool found = false;
    typename K::ScoreT bestScore{};
    core::Coord bestCell{};
    CycleStats stats;
    std::vector<core::TbPtr> tb;
    std::vector<int64_t> stripBase;
};

/**
 * Scalar row-major fill into a bank sized for W = 1; sets the state's
 * optimum.
 */
template <core::KernelSpec K>
void
rowMajorFill(const typename K::Params &params,
             const seq::Sequence<typename K::CharT> &query,
             const seq::Sequence<typename K::CharT> &reference, int band,
             bool keep_tb, FastWorkspace<K> &ws, FastFillState<K> &st)
{
    using ScoreT = typename K::ScoreT;
    constexpr int nLayers = K::nLayers;

    const int qlen = query.length();
    const int rlen = reference.length();
    const auto worst = core::scoreSentinelWorst<ScoreT>(K::objective);

    const auto j_lo = [&](int i) { return bandJLo<K>(i, band); };
    const auto j_hi = [&](int i) { return bandJHi<K>(i, rlen, band); };

    // Row score buffers: previous and current row, per layer. Row 0 is
    // the init row; column 0 carries the init column value of the row.
    for (int l = 0; l < nLayers; l++) {
        auto &prev = ws.rowPrev[static_cast<size_t>(l)];
        auto &cur = ws.rowCur[static_cast<size_t>(l)];
        prev.assign(static_cast<size_t>(rlen + 1), worst);
        cur.assign(static_cast<size_t>(rlen + 1), worst);
        prev[0] = K::originScore(l, params);
        for (int j = 1; j <= rlen; j++)
            prev[static_cast<size_t>(j)] = K::initRowScore(j, l, params);
    }

    bool found = false;
    ScoreT best_score{};
    int best_i = 0, best_j = 0;
    const auto consider = [&](ScoreT v, int i, int j) {
        if (!found || core::isBetter(K::objective, v, best_score)) {
            found = true;
            best_score = v;
            best_i = i;
            best_j = j;
        }
    };

    core::PeIn<ScoreT, typename K::CharT, nLayers> in;
    const typename K::CharT *qdata = query.chars.data();
    const typename K::CharT *rdata = reference.chars.data();
    int i = 1;

    // Two-row cache blocking for unbanded kernels: rows (a, b) advance
    // together through one column sweep. Row b's up/diag/left all come
    // from registers (row a's outputs and its own carries), so the
    // block does ONE score load per layer per two cells. Row b writes
    // in place over the previous row's buffer — always after row a has
    // consumed that column — so no swap is needed and ws.rowPrev ends
    // every block holding the newest row.
    if constexpr (!K::banded) {
        core::PeIn<ScoreT, typename K::CharT, nLayers> ina, inb;
        for (; rlen > 0 && i + 1 <= qlen; i += 2) {
            const int a = i;
            const int b = i + 1;
            // Row a is never stored: row b consumes it entirely from
            // registers, and nothing after the block reads it (the next
            // block's input is row b, scores after the DP are only read
            // at the tracked optimum).
            ScoreT *pb[nLayers]; //!< row a-1 input / row b output
            for (int l = 0; l < nLayers; l++)
                pb[l] = ws.rowPrev[static_cast<size_t>(l)].data();
            for (int l = 0; l < nLayers; l++) {
                const size_t ls = static_cast<size_t>(l);
                const ScoreT ea = K::initColScore(a, l, params);
                const ScoreT eb = K::initColScore(b, l, params);
                ina.left[ls] = ea;
                ina.diag[ls] = pb[l][0]; // read before the overwrite
                inb.left[ls] = eb;
                inb.diag[ls] = ea;
                pb[l][0] = eb;
            }
            ina.qryVal = qdata[a - 1];
            inb.qryVal = qdata[b - 1];
            ina.row = a;
            inb.row = b;
            core::TbPtr *tb_data = keep_tb ? ws.tb.data() : nullptr;
            const int64_t tba =
                keep_tb ? ws.stripBase[static_cast<size_t>(a - 1)] - 1 : 0;
            const int64_t tbb =
                keep_tb ? ws.stripBase[static_cast<size_t>(b - 1)] - 1 : 0;

            // In-row optimum tracking: first candidate unconditionally
            // (j == 1), then strictly-better only — the per-row merge
            // below preserves the (row, col)-order reduction exactly.
            constexpr bool track_all =
                K::alignKind == core::AlignmentKind::Local;
            const bool track_a = track_all;
            const bool track_b = track_all ||
                ((K::alignKind == core::AlignmentKind::SemiGlobal ||
                  K::alignKind == core::AlignmentKind::Overlap) &&
                 b == qlen);
            ScoreT rsa = worst, rsb = worst;
            int rja = 1, rjb = 1;
            ScoreT last_a{}; // row a's final-column score (Overlap merge)

            for (int j = 1; j <= rlen; j++) {
                for (int l = 0; l < nLayers; l++)
                    ina.up[static_cast<size_t>(l)] = pb[l][j];
                ina.refVal = rdata[j - 1];
                ina.col = j;
                const auto outa = K::peFunc(ina, params);
                inb.refVal = ina.refVal;
                inb.col = j;
                for (int l = 0; l < nLayers; l++)
                    inb.up[static_cast<size_t>(l)] =
                        outa.score[static_cast<size_t>(l)];
                const auto outb = K::peFunc(inb, params);
                for (int l = 0; l < nLayers; l++) {
                    const size_t ls = static_cast<size_t>(l);
                    pb[l][j] = outb.score[ls];
                    ina.diag[ls] = ina.up[ls];
                    ina.left[ls] = outa.score[ls];
                    inb.diag[ls] = outa.score[ls];
                    inb.left[ls] = outb.score[ls];
                }
                if constexpr (K::alignKind == core::AlignmentKind::Overlap)
                    last_a = j == rlen ? outa.score[0] : last_a;
                if (keep_tb) {
                    tb_data[tba + j] = outa.tbPtr;
                    tb_data[tbb + j] = outb.tbPtr;
                }
                if (track_a) {
                    const ScoreT v = outa.score[0];
                    const bool w = (j == 1) |
                        core::isBetter(K::objective, v, rsa);
                    rsa = w ? v : rsa;
                    rja = w ? j : rja;
                }
                if (track_b) {
                    const ScoreT v = outb.score[0];
                    const bool w = (j == 1) |
                        core::isBetter(K::objective, v, rsb);
                    rsb = w ? v : rsb;
                    rjb = w ? j : rjb;
                }
            }

            // Merge the rows' candidates in (row, col) order.
            if constexpr (K::alignKind == core::AlignmentKind::Local) {
                consider(rsa, a, rja);
                consider(rsb, b, rjb);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::SemiGlobal) {
                if (b == qlen)
                    consider(rsb, b, rjb);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::Overlap) {
                consider(last_a, a, rlen);
                if (b == qlen)
                    consider(rsb, b, rjb);
                else
                    consider(pb[0][rlen], b, rlen);
            } else { // Global
                if (b == qlen)
                    consider(pb[0][rlen], b, rlen);
            }
        }
    }

    for (; i <= qlen; i++) {
        const int jlo = j_lo(i);
        const int jhi = j_hi(i);
        if (jlo > jhi)
            continue; // band fully outside this row

        // Raw row pointers hoisted out of the hot loop (the two rows
        // never alias each other).
        const ScoreT *prev[nLayers];
        ScoreT *cur[nLayers];
        for (int l = 0; l < nLayers; l++) {
            prev[l] = ws.rowPrev[static_cast<size_t>(l)].data();
            cur[l] = ws.rowCur[static_cast<size_t>(l)].data();
        }

        // Band-edge boundary values: the left edge is the init column
        // (j == 1) or the out-of-band sentinel; they feed this row's
        // first `left` and the next row's first `diag`. `left`/`diag`
        // then stay in registers across the row: left(j) is the cell
        // just computed, diag(j+1) is up(j).
        for (int l = 0; l < nLayers; l++) {
            const ScoreT edge =
                jlo == 1 ? K::initColScore(i, l, params) : worst;
            cur[l][jlo - 1] = edge;
            in.left[static_cast<size_t>(l)] = edge;
            in.diag[static_cast<size_t>(l)] = prev[l][jlo - 1];
        }
        in.qryVal = qdata[i - 1];
        in.row = i;
        core::TbPtr *tb_data = keep_tb ? ws.tb.data() : nullptr;
        const int64_t tb_base =
            keep_tb ? ws.stripBase[static_cast<size_t>(i - 1)] - jlo : 0;

        for (int j = jlo; j <= jhi; j++) {
            for (int l = 0; l < nLayers; l++)
                in.up[static_cast<size_t>(l)] = prev[l][j];
            in.refVal = rdata[j - 1];
            in.col = j;
            const auto out = K::peFunc(in, params);
            for (int l = 0; l < nLayers; l++) {
                const size_t ls = static_cast<size_t>(l);
                cur[l][j] = out.score[ls];
                in.diag[ls] = in.up[ls];
                in.left[ls] = out.score[ls];
            }
            if (keep_tb)
                tb_data[tb_base + j] = out.tbPtr;

            // Optimum tracking in scan order == first optimum in
            // (row, col) order, matching the PE reduction tree.
            if constexpr (K::alignKind == core::AlignmentKind::Local) {
                consider(out.score[0], i, j);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::SemiGlobal) {
                if (i == qlen)
                    consider(out.score[0], i, j);
            } else if constexpr (K::alignKind ==
                                 core::AlignmentKind::Overlap) {
                if (i == qlen || j == rlen)
                    consider(out.score[0], i, j);
            }
        }
        if constexpr (K::alignKind == core::AlignmentKind::Global) {
            if (i == qlen && rlen >= jlo && rlen <= jhi)
                consider(cur[0][rlen], qlen, rlen);
        }
        // Out-of-band sentinel past the right band edge: the next row
        // reads it as `up` at its last cell (the band moves right by at
        // most one column per row).
        if (jhi < rlen) {
            for (int l = 0; l < nLayers; l++)
                cur[l][jhi + 1] = worst;
        }
        for (int l = 0; l < nLayers; l++) {
            std::swap(ws.rowPrev[static_cast<size_t>(l)],
                      ws.rowCur[static_cast<size_t>(l)]);
        }
    }

    st.found = found;
    st.bestScore = best_score;
    st.bestCell = core::Coord{best_i, best_j};
}

/**
 * Strip-sweep fill through @p fn into a bank sized for its W: marshal
 * the pair into the sweep's raw layout (StripSweepArgs), seed the
 * carried rows with the init row, and set the state's optimum.
 */
template <core::KernelSpec K>
void
stripFill(StripSweepFn<K> fn, const typename K::Params &params,
          const seq::Sequence<typename K::CharT> &query,
          const seq::Sequence<typename K::CharT> &reference, int band,
          bool keep_tb, FastWorkspace<K> &ws, FastFillState<K> &st)
{
    using ScoreTr = LaneScoreTraits<typename K::ScoreT>;
    using CharTr = LaneCharTraits<typename K::CharT>;
    constexpr int nLayers = K::nLayers;
    constexpr int planes = CharTr::planes;
    const int qlen = query.length();
    const int rlen = reference.length();
    const int32_t worst_raw = ScoreTr::toRaw(
        core::scoreSentinelWorst<typename K::ScoreT>(K::objective));

    const size_t q_stride = static_cast<size_t>(qlen) + kMaxSweepLanes;
    const size_t r_stride = static_cast<size_t>(rlen) + 1 + kMaxSweepLanes;
    ws.qPlanes.assign(q_stride * planes, 0);
    ws.rPlanes.assign(r_stride * planes, 0);
    for (int pl = 0; pl < planes; pl++) {
        int32_t *q = ws.qPlanes.data() + static_cast<size_t>(pl) * q_stride;
        int32_t *r = ws.rPlanes.data() + static_cast<size_t>(pl) * r_stride;
        for (int i = 0; i < qlen; i++)
            q[i] = CharTr::plane(query[i], pl);
        for (int j = 0; j < rlen; j++)
            r[j + 1] = CharTr::plane(reference[j], pl);
    }
    ws.colInit.resize(static_cast<size_t>(qlen + 1) * nLayers);
    for (int i = 1; i <= qlen; i++)
        for (int l = 0; l < nLayers; l++)
            ws.colInit[static_cast<size_t>(i * nLayers + l)] =
                ScoreTr::toRaw(K::initColScore(i, l, params));
    std::array<int32_t *, nLayers> rows{};
    for (int l = 0; l < nLayers; l++) {
        auto &row = ws.rows[static_cast<size_t>(l)];
        row.assign(r_stride, worst_raw);
        row[0] = ScoreTr::toRaw(K::originScore(l, params));
        for (int j = 1; j <= rlen; j++)
            row[static_cast<size_t>(j)] =
                ScoreTr::toRaw(K::initRowScore(j, l, params));
        rows[static_cast<size_t>(l)] = row.data();
    }

    int32_t found = 0, best = 0, best_i = 0, best_j = 0;
    StripSweepArgs<K> a;
    a.qlen = qlen;
    a.rlen = rlen;
    a.band = band;
    a.worstRaw = worst_raw;
    a.keepTb = keep_tb;
    a.track = true;
    a.q32 = ws.qPlanes.data();
    a.r32 = ws.rPlanes.data();
    a.qStride = q_stride;
    a.rStride = r_stride;
    a.colInit = ws.colInit.data();
    a.rows = rows.data();
    a.tb = ws.tb.data();
    a.stripBase = ws.stripBase.data();
    a.params = &params;
    a.found = &found;
    a.bestRaw = &best;
    a.bestI = &best_i;
    a.bestJ = &best_j;
    fn(a);
    st.found = found != 0;
    st.bestScore = ScoreTr::fromRaw(best);
    st.bestCell = core::Coord{best_i, best_j};
}

/**
 * Fill stage of the fast path: DP fill + optimum tracking, no
 * traceback. Runs @p sweep's strips when it has one, else the
 * row-major loop.
 */
template <core::KernelSpec K>
void
fastFill(const EngineConfig &cfg, const typename K::Params &params,
         const seq::Sequence<typename K::CharT> &query,
         const seq::Sequence<typename K::CharT> &reference,
         const StripSweep<K> &sweep, FastWorkspace<K> &ws,
         FastFillState<K> &st)
{
    const int qlen = query.length();
    const int rlen = reference.length();
    const int band = cfg.bandWidth;
    const bool keep_tb = K::hasTraceback && !cfg.skipTraceback;
    const int lanes = sweep.fn ? sweep.lanes : 1;

    st.stats = CycleStats{};
    accountLoadInit<K>(cfg, qlen, rlen, st.stats);
    accountFill<K>(cfg, qlen, rlen, st.stats);

    // Pre-reserve the whole traceback bank once: strip offsets are the
    // running sum of band-window sizes (the address-coalescing analog).
    if (keep_tb) {
        const int64_t cells =
            buildTbStripBase<K>(qlen, rlen, band, lanes, ws.stripBase);
        ws.tb.resize(static_cast<size_t>(cells));
    }
    bool swept = false;
    if constexpr (laneSweepEnabled<K>) {
        if (sweep.fn) {
            stripFill<K>(sweep.fn, params, query, reference, band, keep_tb,
                         ws, st);
            swept = true;
        }
    }
    if (!swept)
        rowMajorFill<K>(params, query, reference, band, keep_tb, ws, st);

    st.qlen = qlen;
    st.rlen = rlen;
    st.band = band;
    st.lanes = lanes;
    st.keepTb = keep_tb;
    st.tb = std::move(ws.tb);
    st.stripBase = std::move(ws.stripBase);
}

/** Traceback stage over a fill state; adds its cycles into `st.stats`. */
template <core::KernelSpec K>
core::AlignResult<typename K::ScoreT>
fastTraceback(const EngineConfig &cfg, const typename K::Params &params,
              FastFillState<K> &st)
{
    const int band = st.band;
    const int rlen = st.rlen;
    const int lane_shift =
        std::countr_zero(static_cast<unsigned>(st.lanes));
    const auto fetch = [&](int i, int j) {
        if (j < bandJLo<K>(i, band) || j > bandJHi<K>(i, rlen, band))
            return core::TbPtr{};
        return st.tb[static_cast<size_t>(
            tbStripIndex<K>(st.stripBase, lane_shift, band, i, j))];
    };
    return finishResult<K>(cfg, params, st.qlen, st.rlen, st.found,
                           st.bestScore, st.bestCell, st.keepTb, fetch,
                           st.stats);
}

/** Align one pair on the fast path. */
template <core::KernelSpec K>
core::AlignResult<typename K::ScoreT>
fastAlign(const EngineConfig &cfg, const typename K::Params &params,
          const seq::Sequence<typename K::CharT> &query,
          const seq::Sequence<typename K::CharT> &reference,
          const StripSweep<K> &sweep, CycleStats &stats,
          FastWorkspace<K> &ws)
{
    FastFillState<K> st;
    fastFill<K>(cfg, params, query, reference, sweep, ws, st);
    auto res = fastTraceback<K>(cfg, params, st);
    stats = st.stats;
    // Hand the bank back so batch hosts keep amortizing allocations.
    ws.tb = std::move(st.tb);
    ws.stripBase = std::move(st.stripBase);
    return res;
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_FAST_PATH_HH
