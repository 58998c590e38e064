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
 * kernels x widths up to native, plus the sDTW strip sweep at native
 * width) into the sweep registry; everything
 * here lives in a tier-specific namespace and every helper it calls is
 * force-inlined, so no tier's instructions can leak into another TU
 * through COMDAT folding.
 *
 * The bodies mirror the scalar engines cell for cell:
 *
 *  - laneSweep: the lane engine's lockstep row loop (inter-pair SIMD),
 *    identical to LaneAligner's scalar per-lane fallback in visit
 *    order, boundary handling and optimum masking.
 *  - diagSweep: the intra-pair anti-diagonal loop (diag_path.hh),
 *    whose optimum reduction re-establishes the scalar paths'
 *    first-optimum-in-(row,col)-order semantics explicitly, because
 *    anti-diagonal visit order differs from row-major.
 *  - stripSweep: the streaming sDTW's row update (sdtw_stream.hh), W
 *    query rows at a time as a systolic strip over a carried row.
 */

#ifndef DPHLS_SWEEP_NS
#error "lane_sweep_impl.hh must be included by a tier TU"
#endif

#include <cstring>
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
            a.keepTb ? a.tb + static_cast<size_t>(a.rowBase[i]) * W
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
 * Intra-pair anti-diagonal sweep: one alignment, W cells of each
 * anti-diagonal advance in lockstep. Cell (i, j) of diagonal d = i + j
 * lives at slot i of that diagonal's buffer, so the dependencies are
 *
 *   up   (i-1, j)   -> diagonal d-1, slot i-1
 *   left (i,   j-1) -> diagonal d-1, slot i
 *   diag (i-1, j-1) -> diagonal d-2, slot i-1
 *
 * and a chunk of W consecutive i values loads each operand as one
 * (unaligned) vector. Boundary slots (i == 0 and j == 0) are refreshed
 * after every diagonal from the precomputed init tables; out-of-band /
 * out-of-matrix slots hold the sentinel-worst value, exactly what the
 * row-sweep engines expose to their in-band neighbours, so every cell
 * consumes bit-identical inputs to the scalar row-major engine.
 *
 * The per-diagonal compute range [ilo, ihi] is nondecreasing in ilo
 * and grows by at most one cell per diagonal in ihi, so writing slots
 * [ilo-1, ihi+1] each diagonal covers every future read of that
 * buffer; diagonals with no in-band cells (odd diagonals at band 0)
 * still refresh their two boundary/sentinel slots.
 */
template <typename K, int W>
void
diagSweep(const DiagSweepArgs<K> &a)
{
    using V = typename simd::VecPack<W>::I32;
    constexpr int nLayers = K::nLayers;
    constexpr int planes = LaneCharTraits<typename K::CharT>::planes;

    const int qlen = a.qlen, rlen = a.rlen, band = a.band;
    const V worst = simd::splat<V>(a.worstRaw);
    const V vql = simd::splat<V>(qlen);
    const V vrl = simd::splat<V>(rlen);
    V iota{};
    for (int k = 0; k < W; k++)
        iota[k] = k;

    int32_t *d2[nLayers], *d1[nLayers], *cur[nLayers];
    for (int l = 0; l < nLayers; l++) {
        d2[l] = a.d2[l];
        d1[l] = a.d1[l];
        cur[l] = a.cur[l];
    }

    V vbs{}, vbi{}, vbj{}, vfound{};

    for (int d = 2; d <= qlen + rlen; d++) {
        int ilo = d - rlen > 1 ? d - rlen : 1;
        int ihi = d - 1 < qlen ? d - 1 : qlen;
        if constexpr (K::banded) {
            // |2i - d| <= band  <=>  ceil((d-band)/2) <= i <= (d+band)/2
            if (d - band > 0 && (d - band + 1) / 2 > ilo)
                ilo = (d - band + 1) / 2;
            if ((d + band) / 2 < ihi)
                ihi = (d + band) / 2;
        }

        for (int i0 = ilo; i0 <= ihi; i0 += W) {
            V up[nLayers], lf[nLayers], dg[nLayers], sc[nLayers];
            for (int l = 0; l < nLayers; l++) {
                std::memcpy(&up[l], d1[l] + (i0 - 1), sizeof(V));
                std::memcpy(&lf[l], d1[l] + i0, sizeof(V));
                std::memcpy(&dg[l], d2[l] + (i0 - 1), sizeof(V));
            }
            V qry[planes], ref[planes];
            for (int pl = 0; pl < planes; pl++) {
                std::memcpy(&qry[pl],
                            a.q32 + static_cast<size_t>(pl) * a.qStride +
                                (i0 - 1),
                            sizeof(V));
                std::memcpy(&ref[pl],
                            a.rrev32 + static_cast<size_t>(pl) * a.rStride +
                                (rlen - d + i0),
                            sizeof(V));
            }
            V vptr{};
            callLaneCell<K, V>(up, lf, dg, qry, ref, *a.params, sc, vptr);

            const V vi = simd::splat<V>(i0) + iota;
            const V vj = simd::splat<V>(d) - vi;
            const V in_range = vi <= simd::splat<V>(ihi);
            for (int l = 0; l < nLayers; l++) {
                const V out = simd::sel(in_range, sc[l], worst);
                std::memcpy(cur[l] + i0, &out, sizeof(V));
            }
            if (a.keepTb) {
                const int kmax = ihi - i0 + 1 < W ? ihi - i0 + 1 : W;
                for (int k = 0; k < kmax; k++) {
                    const int i = i0 + k;
                    const int j = d - i;
                    const int jlo_row =
                        K::banded ? (i - band > 1 ? i - band : 1) : 1;
                    a.tb[a.rowBase[i] + (j - jlo_row)] =
                        core::TbPtr{static_cast<uint8_t>(vptr[k])};
                }
            }

            // Optimum reduction with an explicit row-major-first
            // tie-break: anti-diagonal order visits a row-major-later
            // cell before a row-major-earlier one whenever the earlier
            // cell sits on a later diagonal, so equal scores must
            // still prefer the (row, col)-smaller cell to reproduce
            // the scalar engines' keep-first-optimum semantics.
            const V cand = eligMask<K, V>(vi, vj, vql, vrl) & in_range;
            const V v = sc[0];
            const V is_better = K::objective == core::Objective::Maximize
                                    ? (v > vbs)
                                    : (v < vbs);
            const V earlier =
                (vi < vbi) | ((vi == vbi) & (vj < vbj));
            const V take =
                cand & (~vfound | is_better | ((v == vbs) & earlier));
            vbs = simd::sel(take, v, vbs);
            vbi = simd::sel(take, vi, vbi);
            vbj = simd::sel(take, vj, vbj);
            vfound |= take;
        }

        // Boundary / sentinel slots around the computed range.
        const int wlo = ilo - 1 > 0 ? ilo - 1 : 0;
        const int whi = ihi + 1 < qlen + 1 ? ihi + 1 : qlen + 1;
        for (int s = wlo; s <= whi; s++) {
            if (s >= ilo && s <= ihi)
                continue;
            for (int l = 0; l < nLayers; l++) {
                int32_t raw = a.worstRaw;
                if (s == 0 && d <= rlen)
                    raw = a.rowInit[d * nLayers + l];
                else if (s == d && d <= qlen)
                    raw = a.colInit[d * nLayers + l];
                cur[l][s] = raw;
            }
        }

        for (int l = 0; l < nLayers; l++) {
            int32_t *tmp = d2[l];
            d2[l] = d1[l];
            d1[l] = cur[l];
            cur[l] = tmp;
        }
    }

    // Cross-lane reduction, same row-major-first tie-break.
    int32_t found = 0, best = 0, bi = 0, bj = 0;
    for (int k = 0; k < W; k++) {
        if (!vfound[k])
            continue;
        bool take = !found;
        if (found) {
            const bool better = K::objective == core::Objective::Maximize
                                    ? vbs[k] > best
                                    : vbs[k] < best;
            take = better ||
                   (vbs[k] == best &&
                    (vbi[k] < bi || (vbi[k] == bi && vbj[k] < bj)));
        }
        if (take) {
            found = 1;
            best = vbs[k];
            bi = vbi[k];
            bj = vbj[k];
        }
    }
    *a.found = found;
    *a.bestRaw = best;
    *a.bestI = bi;
    *a.bestJ = bj;
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
 * One systolic step of the strip sweep: @p top (the carried row's R[t])
 * and @p rin (the reference sample r[t-1]) enter lane 0, and every lane
 * computes its next cell from register operands only.
 */
template <typename K, int W, typename V>
DPHLS_SIMD_INLINE void
stripStep(V &cur, V &up, V &ref, V qry, int32_t top, int32_t rin,
          const typename K::Params &params)
{
    constexpr auto lanes = std::make_integer_sequence<int, W - 1>{};
    const V dg = up;
    up = shiftUp(cur, simd::splat<V>(top), lanes);
    ref = shiftUp(ref, simd::splat<V>(rin), lanes);
    V sc[1], ptr;
    callLaneCell<K, V>(&up, &cur, &dg, &qry, &ref, params, sc, ptr);
    cur = sc[0];
}

/**
 * Row-carrying strip sweep, DP-HLS's query chunking (Fig. 2C) on SIMD
 * lanes: the W lanes are the PEs, lane k holding query row k of the
 * strip, and the reference streams through them one column per step,
 * so at step t lane k computes column j = t - k. Every operand is a
 * register:
 *
 *   up   (k-1, j)   -> the previous step's vector shifted up one lane,
 *                      the carried row's R[t] entering lane 0
 *   diag (k-1, j-1) -> the previous step's up
 *   left (k,   j-1) -> the previous step's own vector
 *   ref  r[j-1]     -> a second shift register, r[t-1] entering lane 0
 *
 * The last lane writes column t - W + 1 back into the carried row. That
 * write trails lane 0's read of R[t] by W - 1 columns, so the row is
 * updated in place. During the first W steps the lanes at column <= 0
 * hold the sentinel, column 0 being the kernel's sentinel left column
 * (the last lane stores it as the new R[0]). A lane past the last
 * column only feeds lanes further past it, so the W - 1 drain steps
 * shift in don't-care values.
 */
template <typename K, int W>
void
stripSweep(const StripSweepArgs<K> &a)
{
    static_assert(K::nLayers == 1 &&
                  LaneCharTraits<typename K::CharT>::planes == 1);
    using V = typename simd::VecPack<W>::I32;

    const int rlen = a.rlen;
    int32_t *const row = a.row;
    const typename K::Params &params = *a.params;
    const V worst = simd::splat<V>(a.worstRaw);
    V qry;
    std::memcpy(&qry, a.q32, sizeof(V));
    V iota{};
    for (int k = 0; k < W; k++)
        iota[k] = k;

    V cur = worst, up = worst, ref{};
    // Prologue: lanes k >= t sit at column <= 0. On a reference shorter
    // than the strip, lane 0 already runs past the last column here.
    for (int t = 0; t < W; t++) {
        stripStep<K, W>(cur, up, ref, qry, t <= rlen ? row[t] : 0,
                        t >= 1 && t <= rlen ? a.r32[t - 1] : 0, params);
        cur = simd::sel(iota < simd::splat<V>(t), cur, worst);
    }
    row[0] = cur[W - 1];
    for (int t = W; t <= rlen; t++) {
        stripStep<K, W>(cur, up, ref, qry, row[t], a.r32[t - 1], params);
        row[t - W + 1] = cur[W - 1];
    }
    // Drain: lane 0 has passed the last column.
    for (int t = rlen + 1 > W ? rlen + 1 : W; t < rlen + W; t++) {
        stripStep<K, W>(cur, up, ref, qry, 0, 0, params);
        row[t - W + 1] = cur[W - 1];
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
        registerSweep(typeid(DiagSweepTag<K, 4>), kTier,
                      reinterpret_cast<SweepFnErased>(&diagSweep<K, 4>));
        if constexpr (kNativeW >= 8) {
            registerSweep(
                typeid(LaneSweepTag<K, 8>), kTier,
                reinterpret_cast<SweepFnErased>(&laneSweep<K, 8>));
            registerSweep(
                typeid(DiagSweepTag<K, 8>), kTier,
                reinterpret_cast<SweepFnErased>(&diagSweep<K, 8>));
        }
        if constexpr (kNativeW >= 16) {
            registerSweep(
                typeid(LaneSweepTag<K, 16>), kTier,
                reinterpret_cast<SweepFnErased>(&laneSweep<K, 16>));
            registerSweep(
                typeid(DiagSweepTag<K, 16>), kTier,
                reinterpret_cast<SweepFnErased>(&diagSweep<K, 16>));
        }
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
    registerSweep(typeid(StripSweepTag<kernels::Sdtw>), kTier,
                  reinterpret_cast<SweepFnErased>(
                      &stripSweep<kernels::Sdtw, kNativeW>));
    return true;
}

namespace {
[[maybe_unused]] const bool kSweepsRegistered = registerAllSweeps();
} // namespace

#pragma GCC diagnostic pop

} // namespace dphls::sim::DPHLS_SWEEP_NS
