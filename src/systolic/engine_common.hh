/**
 * @file
 * Shared vocabulary of the systolic back-end's execution paths.
 *
 * The engine decouples *functional* DP computation from *schedule*
 * (cycle) accounting: cycle statistics are analytic functions of the
 * wavefront trip counts, so any execution order that reproduces the
 * per-cell data flow produces bit-identical results AND bit-identical
 * cycle numbers. This header holds everything the paths share:
 *
 *  - EngineConfig and the execution-path selector;
 *  - the chunk/wavefront loop-bound formulas (Section 4, step 1.6) used
 *    both to schedule the reference path and to account cycles for the
 *    fast path;
 *  - the analytic per-phase cycle accounting;
 *  - optimum-eligibility per traceback strategy and the shared result
 *    epilogue (reduction semantics, traceback walk, empty/band-excluded
 *    fallbacks).
 *
 * Concrete paths: `wavefront_path.hh` (the cycle-faithful reference
 * schedule, required for ScheduleTrace) and `fast_path.hh` (strip-sweep
 * or row-major functional path). `engine.hh` is the facade selecting
 * between them.
 */

#ifndef DPHLS_SYSTOLIC_ENGINE_COMMON_HH
#define DPHLS_SYSTOLIC_ENGINE_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/alignment.hh"
#include "core/kernel_concept.hh"
#include "core/traceback_walk.hh"
#include "core/types.hh"
#include "seq/alphabet.hh"
#include "systolic/cycle_model.hh"
#include "systolic/isa_tier.hh"
#include "systolic/trace.hh"

namespace dphls::sim {

/** Bits per streamed character, used by the sequence-load cycle model. */
template <typename C>
struct CharBits
{
    static constexpr int value = C::bits;
};
template <>
struct CharBits<seq::ProfileColumn>
{
    static constexpr int value = 80; // 5 x 16-bit frequencies
};
template <>
struct CharBits<seq::ComplexSample>
{
    static constexpr int value = 64; // two 32-bit fixed-point samples
};
template <>
struct CharBits<seq::SignalSample>
{
    static constexpr int value = 16;
};

/**
 * Which execution path align() runs.
 *
 * Both paths produce bit-identical results and cycle statistics; they
 * differ only in host-side speed and in what they can observe:
 *
 *  - Wavefront: the cycle-faithful reference schedule. Required when a
 *    ScheduleTrace is attached (it is the only path that actually visits
 *    cells in wavefront order).
 *  - Fast: the functional path (fast_path.hh): a systolic strip of
 *    query rows on the SIMD lanes of the configured ISA tier, or the
 *    scalar row-major loop at IsaTier::Scalar; many times faster on
 *    the host, no schedule observability.
 *  - Auto: Fast unless a trace sink is attached.
 */
enum class EnginePath : uint8_t
{
    Auto,
    Wavefront,
    Fast,
};

/** Configuration of one systolic block (paper front-end steps 1 and 5). */
struct EngineConfig
{
    int numPe = 32;             //!< NPE: processing elements per block
    int bandWidth = 64;         //!< fixed band half-width (banded kernels)
    int maxQueryLength = 1024;  //!< MAX_QUERY_LENGTH
    int maxReferenceLength = 1024; //!< MAX_REFERENCE_LENGTH
    bool skipTraceback = false; //!< disable traceback (GPU-baseline mode)
    CycleModelOptions cycles{}; //!< phase-overlap model
    EnginePath path = EnginePath::Auto; //!< execution-path selection
    /**
     * Host SIMD tier for the lane and strip sweeps (isa_tier.hh).
     * Dispatch-time only — every tier is bit-identical in results and
     * cycle stats, so this field is deliberately absent from
     * host::engineConfigSalt.
     */
    IsaTier isaTier = IsaTier::Auto;
    /** Optional structural schedule sink (testing/inspection only). */
    ScheduleTrace *trace = nullptr;
};

/** 64-bit-bus transfer cycles for a sequence of alphabet @p CharT. */
template <typename CharT>
inline uint64_t
busCycles(int len)
{
    const int bits = CharBits<CharT>::value;
    return static_cast<uint64_t>((static_cast<int64_t>(len) * bits + 63) /
                                 64);
}

inline int
log2Ceil(int v)
{
    int l = 0;
    while ((1 << l) < v)
        l++;
    return l;
}

/** Number of NPE-row query chunks for a query of @p qlen rows. */
inline int
numChunks(int qlen, int npe)
{
    return qlen > 0 ? (qlen + npe - 1) / npe : 0;
}

/**
 * Wavefront loop bounds of chunk @p c; banding narrows them (Section 4,
 * step 1.6). A chunk whose band window is empty (wLo > wHi) is skipped
 * entirely by the hardware and contributes no fill cycles.
 */
struct ChunkBounds
{
    int row0 = 1;  //!< first query row of the chunk (1-based)
    int rows = 0;  //!< active rows (== PEs) in the chunk
    int wLo = 0;   //!< first wavefront index
    int wHi = -1;  //!< last wavefront index

    bool active() const { return wLo <= wHi; }
    int trips() const { return active() ? wHi - wLo + 1 : 0; }
};

template <core::KernelSpec K>
inline ChunkBounds
chunkBounds(int c, int npe, int band, int qlen, int rlen)
{
    ChunkBounds b;
    b.row0 = c * npe + 1;
    b.rows = std::min(npe, qlen - c * npe);
    b.wLo = 0;
    b.wHi = rlen + b.rows - 2;
    if (K::banded) {
        b.wLo = std::max(b.wLo, b.row0 - band - 1);
        b.wHi = std::min(b.wHi, b.row0 + 2 * (b.rows - 1) + band - 1);
    }
    return b;
}

/** Sequence-load / init / host-stream phases (identical on all paths). */
template <core::KernelSpec K>
inline void
accountLoadInit(const EngineConfig &cfg, int qlen, int rlen,
                CycleStats &stats)
{
    using CharT = typename K::CharT;
    stats.seqLoad = busCycles<CharT>(qlen) + busCycles<CharT>(rlen);
    stats.init = static_cast<uint64_t>(std::max(qlen, rlen));
    stats.extra =
        static_cast<uint64_t>(cfg.cycles.hostStreamCyclesPerChar) *
        static_cast<uint64_t>(qlen + rlen);
}

/**
 * Matrix-fill phase accounting, derived purely from the wavefront
 * trip-count formulas. Returns the total trips over all active chunks,
 * which is also the per-PE traceback-bank depth (address coalescing maps
 * one bank slot per wavefront trip).
 */
template <core::KernelSpec K>
inline uint64_t
accountFill(const EngineConfig &cfg, int qlen, int rlen, CycleStats &stats)
{
    uint64_t total_trips = 0;
    const int n_chunks = numChunks(qlen, cfg.numPe);
    for (int c = 0; c < n_chunks; c++) {
        const auto b =
            chunkBounds<K>(c, cfg.numPe, cfg.bandWidth, qlen, rlen);
        if (!b.active())
            continue;
        const uint64_t trips = static_cast<uint64_t>(b.trips());
        total_trips += trips;
        stats.fillTrips += trips;
        stats.fill += trips * static_cast<uint64_t>(K::ii) +
                      static_cast<uint64_t>(cfg.cycles.pipelineDepth);
        stats.chunks++;
    }
    return total_trips;
}

/**
 * In-band column range of row @p i when the band is applied as loop
 * bounds (the fast path and the lane engine). Must agree with the
 * wavefront validity predicate |i - j| <= band.
 */
template <core::KernelSpec K>
inline int
bandJLo(int i, int band)
{
    return K::banded ? std::max(1, i - band) : 1;
}

template <core::KernelSpec K>
inline int
bandJHi(int i, int rlen, int band)
{
    return K::banded ? std::min(rlen, i + band) : rlen;
}

/**
 * Band-compressed traceback-bank layout of a fill that runs query rows
 * in strips of @p lanes rows (the strip sweep's W; 1 for a row-major
 * fill). Strip s holds rows sW+1..sW+W, and cell (i, j) of its lane
 * k = i - sW - 1 lives at base[s] + (j + k - bandJLo(sW + 1)) * W + k:
 * one W-cell vector per step of the strip's band window, steps
 * bandJLo(sW + 1) through bandJHi(last row) + last lane. At W = 1 that
 * is row i's in-band cells at base[i - 1] + (j - bandJLo(i)). Strips
 * from the first one whose first row lies wholly outside the band are
 * empty. Returns the total cell count so the bank is sized once.
 */
template <core::KernelSpec K>
inline int64_t
buildTbStripBase(int qlen, int rlen, int band, int lanes,
                 std::vector<int64_t> &base)
{
    const int strips = (qlen + lanes - 1) / lanes;
    base.assign(static_cast<size_t>(strips), 0);
    int64_t off = 0;
    for (int s = 0; s < strips; s++) {
        base[static_cast<size_t>(s)] = off;
        const int first = s * lanes + 1;
        const int last_lane = std::min(lanes, qlen - first + 1) - 1;
        const int jlo = bandJLo<K>(first, band);
        if (jlo > bandJHi<K>(first, rlen, band))
            continue;
        const int steps =
            bandJHi<K>(first + last_lane, rlen, band) + last_lane - jlo + 1;
        off += static_cast<int64_t>(steps) * lanes;
    }
    return off;
}

/**
 * Bank index of cell (i, j) in the buildTbStripBase layout, W = 1 <<
 * @p lane_shift.
 */
template <core::KernelSpec K>
inline int64_t
tbStripIndex(const std::vector<int64_t> &base, int lane_shift, int band,
             int i, int j)
{
    const int s = (i - 1) >> lane_shift;
    const int k = (i - 1) & ((1 << lane_shift) - 1);
    const int jlo = bandJLo<K>((s << lane_shift) + 1, band);
    return base[static_cast<size_t>(s)] +
           (static_cast<int64_t>(j + k - jlo) << lane_shift) + k;
}

/** Cells eligible for optimum tracking under the traceback strategy. */
template <core::KernelSpec K>
inline bool
cellEligible(int i, int j, int qlen, int rlen)
{
    switch (K::alignKind) {
      case core::AlignmentKind::Global:
        return i == qlen && j == rlen;
      case core::AlignmentKind::Local:
        return true;
      case core::AlignmentKind::SemiGlobal:
        return i == qlen;
      case core::AlignmentKind::Overlap:
        return i == qlen || j == rlen;
    }
    return false;
}

/**
 * Result when no eligible cell was computed: empty input, or the band
 * excludes the whole eligible region. Matches the full-matrix reference
 * semantics exactly: a global alignment reads the (possibly
 * sentinel/init) end cell, other strategies report a zero score at the
 * origin.
 */
template <core::KernelSpec K>
inline core::AlignResult<typename K::ScoreT>
noEligibleResult(const typename K::Params &params, int qlen, int rlen,
                 bool keep_tb)
{
    using ScoreT = typename K::ScoreT;
    core::AlignResult<ScoreT> res;
    if (K::alignKind == core::AlignmentKind::Global) {
        if (qlen == 0 && rlen == 0) {
            res.score = K::originScore(0, params);
        } else if (qlen == 0) {
            res.score = K::initRowScore(rlen, 0, params);
        } else if (rlen == 0) {
            res.score = K::initColScore(qlen, 0, params);
        } else {
            // Band excludes the end cell.
            res.score = core::scoreSentinelWorst<ScoreT>(K::objective);
        }
        res.end = core::Coord{qlen, rlen};
        if (keep_tb && (qlen == 0 || rlen == 0)) {
            // Border-only path: the walker needs no pointers.
            auto walk = core::walkTraceback<K>(
                res.end, [](int, int) { return core::TbPtr{}; });
            res.ops = std::move(walk.ops);
            res.start = walk.start;
            return res;
        }
    } else {
        res.score = typename K::ScoreT{};
        res.end = core::Coord{0, 0};
    }
    res.start = res.end;
    return res;
}

/**
 * Shared result epilogue: reduction-phase accounting, traceback walk and
 * traceback/write-back cycle accounting. @p fetch resolves a (row, col)
 * cell to its stored traceback pointer in whatever layout the calling
 * path used. The optimum handed in must already follow the
 * first-optimum-in-(row,col)-order semantics of the PE reduction tree.
 */
template <core::KernelSpec K, typename Fetch>
inline core::AlignResult<typename K::ScoreT>
finishResult(const EngineConfig &cfg, const typename K::Params &params,
             int qlen, int rlen, bool found,
             typename K::ScoreT best_score, core::Coord best_cell,
             bool keep_tb, Fetch &&fetch, CycleStats &stats)
{
    using Result = core::AlignResult<typename K::ScoreT>;
    if (!found)
        return noEligibleResult<K>(params, qlen, rlen, keep_tb);

    Result res;
    res.score = best_score;
    res.end = best_cell;
    if (K::alignKind != core::AlignmentKind::Global)
        stats.reduction = static_cast<uint64_t>(log2Ceil(cfg.numPe) + 2);

    if (keep_tb) {
        auto walk =
            core::walkTraceback<K>(res.end, std::forward<Fetch>(fetch));
        res.ops = std::move(walk.ops);
        res.start = walk.start;
        stats.traceback = static_cast<uint64_t>(walk.steps) *
            static_cast<uint64_t>(cfg.cycles.tracebackCyclesPerStep);
        stats.writeback = (res.ops.size() +
            static_cast<size_t>(cfg.cycles.writebackOpsPerCycle) - 1) /
            static_cast<size_t>(cfg.cycles.writebackOpsPerCycle);
    } else {
        res.start = res.end;
    }
    return res;
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_ENGINE_COMMON_HH
