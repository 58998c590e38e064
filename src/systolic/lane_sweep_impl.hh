/**
 * @file
 * Tier-compiled sweep bodies. Included ONLY by the per-tier translation
 * units (lane_sweep_{sse2,avx2,avx512}.cc), each of which defines
 *
 *   DPHLS_SWEEP_NS    - tier namespace (sweep_sse2, ...)
 *   DPHLS_SWEEP_TIER  - the IsaTier enumerator
 *   DPHLS_SWEEP_WIDTH - the tier's native lane count (4, 8, 16)
 *
 * before including this file, and is compiled with the matching -m
 * flags. A static registrar publishes the instantiations (all registry
 * kernels: lane sweeps at every width up to native, strip sweeps at
 * native width) into the sweep registry; everything
 * here lives in a tier-specific namespace and every helper it calls is
 * force-inlined, so no tier's instructions can leak into another TU
 * through COMDAT folding.
 *
 * The bodies mirror the scalar engines cell for cell:
 *
 *  - laneSweep: the lane engine's lockstep row loop (inter-pair SIMD),
 *    identical to LaneAligner's scalar per-lane fallback in visit
 *    order, boundary handling and optimum masking.
 *  - stripSweep: one pair's fill, W query rows at a time as a systolic
 *    strip over a carried row (fast_path.hh, sdtw_stream.hh). Each
 *    lane sees exactly the neighbour values of the row-major fill, and
 *    its per-lane optimum merges in row order, so it reproduces that
 *    fill's scores, pointers and first optimum in (row, col) order.
 */

#ifndef DPHLS_SWEEP_NS
#error "lane_sweep_impl.hh must be included by a tier TU"
#endif

#include <cstring>
#include <type_traits>
#include <utility>

#include "kernels/all.hh"
#include "systolic/lane_sweep.hh"

namespace dphls::sim::DPHLS_SWEEP_NS {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wignored-attributes"

constexpr IsaTier kTier = DPHLS_SWEEP_TIER;
constexpr int kNativeW = DPHLS_SWEEP_WIDTH;

namespace simd = kernels::detail::simd;

/** Per-lane eligibility mask of the optimum reduction (both sweeps). */
template <typename K, typename V>
DPHLS_SIMD_INLINE V
eligMask(V vi, V vj, V vql, V vrl)
{
    if constexpr (K::alignKind == core::AlignmentKind::Local)
        return (vi <= vql) & (vj <= vrl);
    else if constexpr (K::alignKind == core::AlignmentKind::Global)
        return (vi == vql) & (vj == vrl);
    else if constexpr (K::alignKind == core::AlignmentKind::SemiGlobal)
        return (vi == vql) & (vj <= vrl);
    else // Overlap
        return ((vi == vql) & (vj <= vrl)) | ((vj == vrl) & (vi <= vql));
}

/** Dispatch to the kernel's single-plane or multi-plane lane cell. */
template <typename K, typename V>
DPHLS_SIMD_INLINE void
callLaneCell(const V *up, const V *lf, const V *dg, const V *qry,
             const V *ref, const typename K::Params &params, V *sc, V &ptr)
{
    if constexpr (KernelHasLaneCellPlanes<K, V>)
        K::template laneCellPlanes<V>(up, lf, dg, qry, ref, params, sc,
                                      ptr);
    else
        K::template laneCell<V>(up, lf, dg, qry[0], ref[0], params, sc,
                                ptr);
}

/**
 * Inter-pair lockstep row sweep over W lanes (the lane engine's vector
 * path). See LaneAligner for the surrounding buffer layout contract.
 */
template <typename K, int W>
void
laneSweep(const LaneSweepArgs<K> &a)
{
    using V = typename simd::VecPack<W>::I32;
    using U8V = typename simd::VecPack<W>::U8;
    constexpr int nLayers = K::nLayers;
    constexpr int planes = LaneCharTraits<typename K::CharT>::planes;

    const int maxq = a.maxq, maxr = a.maxr, band = a.band;
    const V worst = simd::splat<V>(a.worstRaw);

    V vql, vrl;
    std::memcpy(&vql, a.qlen, sizeof(V));
    std::memcpy(&vrl, a.rlen, sizeof(V));
    V vbs{}, vbi{}, vbj{}, vfound{};

    int32_t *row_prev[nLayers], *row_cur[nLayers];
    for (int l = 0; l < nLayers; l++) {
        row_prev[l] = a.rowPrev[l];
        row_cur[l] = a.rowCur[l];
    }

    for (int i = 1; i <= maxq; i++) {
        const int jlo = K::banded ? (i - band > 1 ? i - band : 1) : 1;
        const int jhi =
            K::banded ? (i + band < maxr ? i + band : maxr) : maxr;
        if (jlo > jhi)
            continue; // band fully outside this row

        // Left-edge boundary + in-register diag/left packs. Row
        // buffers are 64-byte aligned with stride-W slots, so slot
        // pointers are naturally aligned for direct vector loads.
        V dg[nLayers], lf[nLayers];
        for (int l = 0; l < nLayers; l++) {
            const int32_t bval =
                jlo == 1 ? a.colInit[i * nLayers + l] : a.worstRaw;
            const V bv = simd::splat<V>(bval);
            *reinterpret_cast<V *>(
                row_cur[l] + static_cast<size_t>(jlo - 1) * W) = bv;
            dg[l] = *reinterpret_cast<const V *>(
                row_prev[l] + static_cast<size_t>(jlo - 1) * W);
            lf[l] = bv;
        }

        V qry[planes];
        for (int pl = 0; pl < planes; pl++) {
            qry[pl] = *reinterpret_cast<const V *>(
                a.qch32 +
                (static_cast<size_t>(i - 1) * planes +
                 static_cast<size_t>(pl)) * W);
        }

        core::TbPtr *tb_row =
            a.keepTb ? a.tb + static_cast<size_t>(a.rowBase[i - 1]) * W
                     : a.tbScratch;
        const size_t tb_stride = a.keepTb ? W : 0;
        const V vi = simd::splat<V>(i);

        for (int j = jlo; j <= jhi; j++) {
            V up[nLayers], sc[nLayers];
            for (int l = 0; l < nLayers; l++) {
                up[l] = *reinterpret_cast<const V *>(
                    row_prev[l] + static_cast<size_t>(j) * W);
            }
            V ref[planes];
            for (int pl = 0; pl < planes; pl++) {
                ref[pl] = *reinterpret_cast<const V *>(
                    a.rch32 +
                    (static_cast<size_t>(j - 1) * planes +
                     static_cast<size_t>(pl)) * W);
            }
            V vptr{};
            callLaneCell<K, V>(up, lf, dg, qry, ref, *a.params, sc, vptr);
            for (int l = 0; l < nLayers; l++) {
                *reinterpret_cast<V *>(
                    row_cur[l] + static_cast<size_t>(j) * W) = sc[l];
                dg[l] = up[l];
                lf[l] = sc[l];
            }
            const U8V nb = __builtin_convertvector(vptr, U8V);
            std::memcpy(static_cast<void *>(
                            tb_row +
                            static_cast<size_t>(j - jlo) * tb_stride),
                        &nb, sizeof(nb));

            // Per-lane optimum masks, identical to the scalar lane
            // loop's select chain.
            const V vj = simd::splat<V>(j);
            const V elig = eligMask<K, V>(vi, vj, vql, vrl);
            const V v = sc[0];
            const V is_better = K::objective == core::Objective::Maximize
                                    ? (v > vbs)
                                    : (v < vbs);
            const V better = elig & (~vfound | is_better);
            vbs = simd::sel(better, v, vbs);
            vbi = simd::sel(better, vi, vbi);
            vbj = simd::sel(better, vj, vbj);
            vfound |= better;
        }
        if (jhi < maxr) {
            for (int l = 0; l < nLayers; l++) {
                *reinterpret_cast<V *>(
                    row_cur[l] + static_cast<size_t>(jhi + 1) * W) = worst;
            }
        }
        for (int l = 0; l < nLayers; l++) {
            int32_t *tmp = row_prev[l];
            row_prev[l] = row_cur[l];
            row_cur[l] = tmp;
        }
    }

    std::memcpy(a.found, &vfound, sizeof(V));
    std::memcpy(a.bestRaw, &vbs, sizeof(V));
    std::memcpy(a.bestI, &vbi, sizeof(V));
    std::memcpy(a.bestJ, &vbj, sizeof(V));
}

/**
 * Shift @p v up one lane with @p x entering lane 0: lane 0 takes x[0]
 * and lane k takes v[k - 1]. One two-source shuffle with a constant
 * mask (a vpermt2d on AVX-512).
 */
template <typename V, int... I>
DPHLS_SIMD_INLINE V
shiftUp(V v, V x, std::integer_sequence<int, I...>)
{
    return __builtin_shufflevector(v, x, static_cast<int>(sizeof...(I)) + 1,
                                   I...);
}

/**
 * Per-strip constants of stripSweep. Lane k holds row first + k; a
 * lane is live while its row is <= qlen, and the last live lane is
 * lastLane. In band-window terms, lane k computes an in-band cell at
 * steps [lo[k], hi[k]] = [jlo + k, jhi + k] of its row, holds its
 * row's left edge value at step lo[k] - 1, and the sentinel elsewhere.
 */
template <typename K, int W>
struct StripFrame
{
    using V = typename simd::VecPack<W>::I32;
    static constexpr int nLayers = K::nLayers;
    static constexpr int planes = LaneCharTraits<typename K::CharT>::planes;

    int first = 1;
    int lastLane = 0;
    int tStart = 0; //!< lane 0 at its left edge column
    int tEnd = 0;   //!< last live lane at its last in-band column
    int64_t tb0 = 0; //!< bank index of step 0, lane 0
    V vi{}, lo{}, loEdge{}, hi{};
    V edge[nLayers];
    V qry[planes];
};

/** One strip's per-lane optimum: found mask, score and column. */
template <int W>
struct LaneBest
{
    using V = typename simd::VecPack<W>::I32;
    V found{}, score{}, col{};
};

/** Call @p fn with @p flag as a std::bool_constant. */
template <typename Fn>
DPHLS_SIMD_INLINE void
withFlag(bool flag, Fn &&fn)
{
    if (flag)
        fn(std::true_type{});
    else
        fn(std::false_type{});
}

/**
 * Fill one strip, steps tStart..tEnd. Every operand is a register:
 *
 *   up   (i-1, j)   -> the last step's vector shifted up one lane, the
 *                      carried row's R[t] entering lane 0
 *   diag (i-1, j-1) -> the last step's up
 *   left (i,   j-1) -> the lane's own last vector
 *   ref  r[j]       -> a shift register per plane, r[t] entering lane 0
 *
 * The last live lane writes its column t - lastLane back into the
 * carried rows. That write trails lane 0's read of R[t], so the rows
 * update in place. Masked steps pin every lane outside its band window
 * to its edge or sentinel value, which is exactly what the row-major
 * fill keeps at its band edges; only banded kernels and the first W
 * steps (lanes at column <= 0) need them, so the steady loop of an
 * unbanded kernel has neither masks nor bounds checks. A lane past
 * column rlen only feeds lanes further past it.
 */
template <typename K, int W, bool Store, bool Track, bool Full>
LaneBest<W>
sweepStrip(const StripSweepArgs<K> &a, StripFrame<K, W> f,
           int32_t *const *rows)
{
    using V = typename StripFrame<K, W>::V;
    using U8V = typename simd::VecPack<W>::U8;
    constexpr int nLayers = K::nLayers;
    constexpr int planes = StripFrame<K, W>::planes;
    constexpr auto shift = std::make_integer_sequence<int, W - 1>{};

    // Everything the steps read lives in locals: the write-back and
    // bank stores could otherwise alias the argument structs and force
    // reloads every step.
    const typename K::Params params = *a.params;
    const V worst = simd::splat<V>(a.worstRaw);
    const V vql = simd::splat<V>(a.qlen);
    const V vrl = simd::splat<V>(a.rlen);
    V iota{};
    for (int k = 0; k < W; k++)
        iota[k] = k;
    const int last = Full ? W - 1 : f.lastLane;
    const int t_end = f.tEnd;
    core::TbPtr *const tb = a.tb;
    int32_t *row[nLayers];
    for (int l = 0; l < nLayers; l++)
        row[l] = rows[l];
    const int32_t *r32[planes];
    for (int pl = 0; pl < planes; pl++)
        r32[pl] = a.r32 + static_cast<size_t>(pl) * a.rStride;
    LaneBest<W> best;

    V cur[nLayers], up[nLayers], ref[planes];
    for (int l = 0; l < nLayers; l++)
        cur[l] = up[l] = worst;
    for (int pl = 0; pl < planes; pl++)
        ref[pl] = V{};

    // Each flag is a std::bool_constant, so every call site compiles
    // its own branch-free step.
    const auto step = [&](int t, auto masked, auto guarded, auto store) {
        V dg[nLayers], sc[nLayers], ptr;
        for (int l = 0; l < nLayers; l++) {
            dg[l] = up[l];
            up[l] = shiftUp(cur[l], simd::splat<V>(row[l][t]), shift);
        }
        for (int pl = 0; pl < planes; pl++)
            ref[pl] = shiftUp(ref[pl], simd::splat<V>(r32[pl][t]), shift);
        callLaneCell<K, V>(up, cur, dg, f.qry, ref, params, sc, ptr);
        const V vt = simd::splat<V>(t);
        V in_band{};
        if constexpr (decltype(masked)::value) {
            in_band = (vt >= f.lo) & (vt <= f.hi);
            const V at_edge = vt == f.loEdge;
            for (int l = 0; l < nLayers; l++)
                cur[l] = simd::sel(in_band, sc[l],
                                   simd::sel(at_edge, f.edge[l], worst));
        } else {
            for (int l = 0; l < nLayers; l++)
                cur[l] = sc[l];
        }
        if (!decltype(guarded)::value || t >= last) {
            for (int l = 0; l < nLayers; l++)
                row[l][t - last] = cur[l][last];
        }
        if constexpr (!decltype(store)::value)
            return;
        if constexpr (Store) {
            const U8V nb = __builtin_convertvector(ptr, U8V);
            std::memcpy(static_cast<void *>(
                            tb + (f.tb0 + static_cast<int64_t>(t) * W)),
                        &nb, sizeof(nb));
        }
        if constexpr (Track) {
            // First strictly-better eligible cell per lane, in column
            // order; stripSweep merges the lanes in row order.
            const V vj = vt - iota;
            V elig = eligMask<K, V>(f.vi, vj, vql, vrl);
            if constexpr (decltype(masked)::value)
                elig &= in_band;
            const V v = sc[0];
            const V is_better = K::objective == core::Objective::Maximize
                                    ? (v > best.score)
                                    : (v < best.score);
            const V better = elig & (~best.found | is_better);
            best.score = simd::sel(better, v, best.score);
            best.col = simd::sel(better, vj, best.col);
            best.found |= better;
        }
    };

    // Prologue: lane 0 enters at its left edge column, which holds no
    // cell to store; until step W some lane sits at a column <= 0 and
    // the write-back may fall left of column 0. Then the steady loop.
    constexpr std::true_type yes{};
    constexpr std::false_type no{};
    constexpr std::bool_constant<K::banded> steady_masked{};
    int t = f.tStart;
    step(t++, yes, yes, no);
    for (; t <= t_end && t < W; t++)
        step(t, yes, yes, yes);
    for (; t <= t_end; t++)
        step(t, steady_masked, no, yes);
    return best;
}

/**
 * The strip sweep: one pair's DP fill as DP-HLS runs it (Fig. 2C), the
 * W lanes being the PEs of a chunk. Strip s holds rows sW+1..sW+W and
 * steps only over its band window. The carried rows stand in for the
 * preserved-row buffer between strips; see StripSweepArgs for the bank
 * layout and the optimum rule.
 */
template <typename K, int W>
void
stripSweep(const StripSweepArgs<K> &a)
{
    using V = typename StripFrame<K, W>::V;
    constexpr int nLayers = K::nLayers;
    constexpr int planes = StripFrame<K, W>::planes;
    const int qlen = a.qlen, rlen = a.rlen, band = a.band;
    const auto jlo = [&](int i) {
        return K::banded ? (i - band > 1 ? i - band : 1) : 1;
    };
    const auto jhi = [&](int i) {
        return K::banded ? (i + band < rlen ? i + band : rlen) : rlen;
    };

    int32_t *row[nLayers];
    for (int l = 0; l < nLayers; l++)
        row[l] = a.rows[l];
    int32_t found = 0, best = 0, bi = 0, bj = 0;

    StripFrame<K, W> f;
    for (int s = 0; s * W < qlen; s++) {
        f.first = s * W + 1;
        const int jlo_first = jlo(f.first);
        // Once the band leaves the matrix it stays out (jlo only grows).
        if (jlo_first > jhi(f.first))
            break;
        f.lastLane = (qlen - f.first < W ? qlen - f.first : W - 1);
        const int last_row = f.first + f.lastLane;
        f.tStart = jlo_first - 1;
        f.tEnd = jhi(last_row) + f.lastLane;
        f.tb0 = a.keepTb ? a.stripBase[s] -
                               static_cast<int64_t>(jlo_first) * W
                         : 0;
        for (int k = 0; k < W; k++) {
            const int i = f.first + k;
            f.vi[k] = i;
            f.lo[k] = jlo(i) + k;
            f.loEdge[k] = f.lo[k] - 1;
            f.hi[k] = jhi(i) + k;
            for (int l = 0; l < nLayers; l++)
                f.edge[l][k] = i <= qlen && jlo(i) == 1
                    ? a.colInit[i * nLayers + l]
                    : a.worstRaw;
        }
        for (int pl = 0; pl < planes; pl++)
            std::memcpy(&f.qry[pl],
                        a.q32 + static_cast<size_t>(pl) * a.qStride +
                            static_cast<size_t>(f.first - 1),
                        sizeof(V));

        // Global and SemiGlobal kernels have eligible cells only in
        // row qlen.
        const bool track = a.track &&
            (K::alignKind == core::AlignmentKind::Local ||
             K::alignKind == core::AlignmentKind::Overlap ||
             last_row == qlen);
        LaneBest<W> lanes;
        withFlag(a.keepTb, [&](auto store) {
            withFlag(track, [&](auto trk) {
                // A full strip's write-back lane is a constant index.
                withFlag(f.lastLane == W - 1, [&](auto full) {
                    lanes = sweepStrip<K, W, decltype(store)::value,
                                       decltype(trk)::value,
                                       decltype(full)::value>(a, f, row);
                });
            });
        });
        // The sentinel right of the last row's band window, where the
        // next strip's first row may read `up`.
        const int after = jhi(last_row) + 1;
        if (after <= rlen) {
            for (int l = 0; l < nLayers; l++)
                row[l][after] = a.worstRaw;
        }
        if (!track)
            continue;
        for (int k = 0; k <= f.lastLane; k++) {
            if (!lanes.found[k])
                continue;
            const bool better = K::objective == core::Objective::Maximize
                                    ? lanes.score[k] > best
                                    : lanes.score[k] < best;
            if (!found || better) {
                found = 1;
                best = lanes.score[k];
                bi = f.first + k;
                bj = lanes.col[k];
            }
        }
    }
    if (a.track) {
        *a.found = found;
        *a.bestRaw = best;
        *a.bestI = bi;
        *a.bestJ = bj;
    }
}

/** Register every width this tier natively covers for one kernel. */
template <typename K>
void
registerKernelSweeps()
{
    if constexpr (laneSweepEnabled<K>) {
        registerSweep(typeid(LaneSweepTag<K, 4>), kTier,
                      reinterpret_cast<SweepFnErased>(&laneSweep<K, 4>));
        if constexpr (kNativeW >= 8) {
            registerSweep(
                typeid(LaneSweepTag<K, 8>), kTier,
                reinterpret_cast<SweepFnErased>(&laneSweep<K, 8>));
        }
        if constexpr (kNativeW >= 16) {
            registerSweep(
                typeid(LaneSweepTag<K, 16>), kTier,
                reinterpret_cast<SweepFnErased>(&laneSweep<K, 16>));
        }
        registerSweep(
            typeid(StripSweepTag<K>), kTier,
            reinterpret_cast<SweepFnErased>(&stripSweep<K, kNativeW>));
    }
}

inline bool
registerAllSweeps()
{
    registerKernelSweeps<kernels::GlobalLinear>();
    registerKernelSweeps<kernels::GlobalAffine>();
    registerKernelSweeps<kernels::GlobalTwoPiece>();
    registerKernelSweeps<kernels::LocalLinear>();
    registerKernelSweeps<kernels::LocalAffine>();
    registerKernelSweeps<kernels::SemiGlobal>();
    registerKernelSweeps<kernels::Overlap>();
    registerKernelSweeps<kernels::BandedGlobalLinear>();
    registerKernelSweeps<kernels::BandedLocalAffine>();
    registerKernelSweeps<kernels::BandedGlobalTwoPiece>();
    registerKernelSweeps<kernels::ProfileAlignment>();
    registerKernelSweeps<kernels::Dtw>();
    registerKernelSweeps<kernels::Viterbi>();
    registerKernelSweeps<kernels::Sdtw>();
    registerKernelSweeps<kernels::ProteinLocal>();
    return true;
}

namespace {
[[maybe_unused]] const bool kSweepsRegistered = registerAllSweeps();
} // namespace

#pragma GCC diagnostic pop

} // namespace dphls::sim::DPHLS_SWEEP_NS
