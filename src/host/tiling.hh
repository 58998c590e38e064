/**
 * @file
 * GACT-style tiling for long-read alignment (paper Section 6.2 and
 * contribution 5).
 *
 * The device kernels operate on fixed MAX_QUERY/MAX_REFERENCE windows;
 * long alignments are handled host-side with the tiling heuristic of
 * Darwin's GACT [11]: align a TxT tile globally, commit the traceback
 * path except for the last `overlap` cells, advance the tile origin to
 * the end of the committed path, repeat. The committed path is provably
 * independent of sequence length for a fixed tile size, which is what
 * makes the approach hardware-friendly.
 */

#ifndef DPHLS_HOST_TILING_HH
#define DPHLS_HOST_TILING_HH

#include <cstdint>
#include <vector>

#include "core/alignment.hh"
#include "host/scheduler.hh"
#include "seq/alphabet.hh"
#include "systolic/engine.hh"

namespace dphls::host {

/** Tiling parameters (GACT defaults). */
struct TilingConfig
{
    int tileSize = 512;
    int tileOverlap = 128;
    /**
     * Cooperative preemption flag polled between tiles (null = run to
     * completion). A tiled long read cannot overlap its stages — tile
     * t's committed traceback determines tile t+1's origin — so the
     * tile boundary is its only scheduling point: when the token is
     * requested, tiledAlign stops before the next tile and reports
     * the committed resume origin. At least one tile always runs, so
     * a resume loop is guaranteed progress.
     */
    const PreemptToken *preempt = nullptr;
};

/** Outcome of a tiled long alignment. */
struct TiledAlignment
{
    std::vector<core::AlnOp> ops; //!< full stitched path
    int tiles = 0;                //!< tiles executed
    uint64_t totalCycles = 0;     //!< device cycles across all tiles
    /** Stopped at a tile boundary on a preemption request; ops holds
     *  the committed prefix and resume* the next tile's origin. */
    bool preempted = false;
    int resumeQuery = 0;     //!< query chars committed so far
    int resumeReference = 0; //!< reference chars committed so far
};

/**
 * Truncate a tile's committed path: keep ops until the query or the
 * reference has consumed (tile - overlap) characters; returns the number
 * of ops kept (at least one, to guarantee progress).
 */
int committedOps(const std::vector<core::AlnOp> &ops, int tile_q,
                 int tile_r, int overlap, bool last_tile);

/**
 * Tiled global alignment of a long pair using the given aligner (any
 * global-strategy kernel engine). A tiled long read is one alignment at
 * a time, so each tile fills on the engine's own path: on the fast
 * path, a systolic strip on the SIMD lanes of its ISA tier.
 */
template <core::KernelSpec K>
TiledAlignment
tiledAlign(sim::SystolicAligner<K> &engine,
           const seq::Sequence<typename K::CharT> &query,
           const seq::Sequence<typename K::CharT> &reference,
           const TilingConfig &cfg)
{
    static_assert(K::alignKind == core::AlignmentKind::Global,
                  "tiling drives a global-strategy kernel per tile");
    TiledAlignment out;
    const int qlen = query.length();
    const int rlen = reference.length();
    int qi = 0;
    int rj = 0;

    while (qi < qlen || rj < rlen) {
        if (out.tiles > 0 && cfg.preempt != nullptr &&
            cfg.preempt->requested()) {
            out.preempted = true;
            break;
        }
        const int tq = std::min(cfg.tileSize, qlen - qi);
        const int tr = std::min(cfg.tileSize, rlen - rj);
        seq::Sequence<typename K::CharT> qs, rs;
        qs.chars.assign(query.chars.begin() + qi,
                        query.chars.begin() + qi + tq);
        rs.chars.assign(reference.chars.begin() + rj,
                        reference.chars.begin() + rj + tr);

        const auto res = engine.align(qs, rs);
        out.totalCycles += engine.lastTotalCycles();
        out.tiles++;

        const bool last = tq == qlen - qi && tr == rlen - rj;
        const int keep =
            committedOps(res.ops, tq, tr, cfg.tileOverlap, last);
        int dq = 0, dr = 0;
        for (int k = 0; k < keep; k++) {
            const auto op = res.ops[static_cast<size_t>(k)];
            out.ops.push_back(op);
            if (op != core::AlnOp::Del)
                dq++;
            if (op != core::AlnOp::Ins)
                dr++;
        }
        qi += dq;
        rj += dr;
        if (last)
            break;
    }
    out.resumeQuery = qi;
    out.resumeReference = rj;
    return out;
}

/**
 * Re-score a stitched global path under affine gap scoring; used to
 * compare tiled scores against the optimal untiled alignment. Params must
 * expose match/mismatch/gapOpen/gapExtend.
 */
template <typename CharT, typename ParamsT>
int64_t
rescoreAffinePath(const seq::Sequence<CharT> &query,
                  const seq::Sequence<CharT> &reference,
                  const std::vector<core::AlnOp> &ops, const ParamsT &p)
{
    int64_t score = 0;
    int qi = 0, rj = 0;
    core::AlnOp prev = core::AlnOp::Match;
    for (const auto op : ops) {
        switch (op) {
          case core::AlnOp::Match:
            score += query[qi] == reference[rj] ? p.match : p.mismatch;
            qi++;
            rj++;
            break;
          case core::AlnOp::Ins:
            score -= (prev == core::AlnOp::Ins) ? p.gapExtend : p.gapOpen;
            qi++;
            break;
          case core::AlnOp::Del:
            score -= (prev == core::AlnOp::Del) ? p.gapExtend : p.gapOpen;
            rj++;
            break;
        }
        prev = op;
    }
    return score;
}

} // namespace dphls::host

#endif // DPHLS_HOST_TILING_HH
