/**
 * @file
 * The wavefront-scheduled reference path of the systolic engine.
 *
 * This path executes the exact micro-architecture the paper's HLS
 * pragmas produce (Fig. 2C): NPE-row query chunks, one anti-diagonal per
 * pipeline initiation interval, the two previous wavefronts in the DP
 * memory buffer, a preserved-row score buffer carrying the last PE's row
 * into the next chunk, address-coalesced per-PE traceback banks, per-PE
 * local-optimum tracking and the reduction tree (Section 5.2).
 *
 * It is the only path that visits cells in schedule order, so it is the
 * ground truth for `ScheduleTrace` consumers and structural tests. The
 * fast path (`fast_path.hh`) must stay bit-identical to it in
 * results and cycle statistics (enforced by
 * tests/test_fastpath_equivalence.cc).
 */

#ifndef DPHLS_SYSTOLIC_WAVEFRONT_PATH_HH
#define DPHLS_SYSTOLIC_WAVEFRONT_PATH_HH

#include <array>
#include <cstdlib>
#include <vector>

#include "systolic/engine_common.hh"

namespace dphls::sim {

/**
 * Preserved-row fetch guarded by row stamps: the current generation,
 * then the shadow (read-before-write) generation, else a sentinel
 * (stale entry outside a banded chunk's window).
 */
template <core::KernelSpec K>
inline typename K::ScoreT
preservedFetch(
    const std::array<std::vector<typename K::ScoreT>, K::nLayers> &preserved,
    const std::array<std::vector<typename K::ScoreT>, K::nLayers> &shadow,
    const std::vector<int> &row_of, const std::vector<int> &shadow_row_of,
    int l, int j, int expect_row, typename K::ScoreT worst)
{
    if (row_of[static_cast<size_t>(j)] == expect_row)
        return preserved[static_cast<size_t>(l)][static_cast<size_t>(j)];
    if (shadow_row_of[static_cast<size_t>(j)] == expect_row)
        return shadow[static_cast<size_t>(l)][static_cast<size_t>(j)];
    return worst;
}

/** Align one pair on the wavefront-scheduled reference path. */
template <core::KernelSpec K>
core::AlignResult<typename K::ScoreT>
wavefrontAlign(const EngineConfig &cfg, const typename K::Params &params,
               const seq::Sequence<typename K::CharT> &query,
               const seq::Sequence<typename K::CharT> &reference,
               CycleStats &stats)
{
    using ScoreT = typename K::ScoreT;
    constexpr int nLayers = K::nLayers;

    const int qlen = query.length();
    const int rlen = reference.length();
    const int npe = cfg.numPe;
    const int band = cfg.bandWidth;
    const auto worst = core::scoreSentinelWorst<ScoreT>(K::objective);
    const bool keep_tb = K::hasTraceback && !cfg.skipTraceback;

    stats = CycleStats{};
    accountLoadInit<K>(cfg, qlen, rlen, stats);
    const uint64_t total_trips = accountFill<K>(cfg, qlen, rlen, stats);

    // Init score buffers (front-end step 2); index 0 is the origin.
    std::array<std::vector<ScoreT>, nLayers> init_row, init_col;
    for (int l = 0; l < nLayers; l++) {
        auto &row = init_row[static_cast<size_t>(l)];
        auto &col = init_col[static_cast<size_t>(l)];
        row.assign(static_cast<size_t>(rlen + 1), worst);
        col.assign(static_cast<size_t>(qlen + 1), worst);
        row[0] = col[0] = K::originScore(l, params);
        for (int j = 1; j <= rlen; j++)
            row[static_cast<size_t>(j)] = K::initRowScore(j, l, params);
        for (int i = 1; i <= qlen; i++)
            col[static_cast<size_t>(i)] = K::initColScore(i, l, params);
    }

    // Preserved row score buffer: scores of row (chunk * NPE), plus a
    // row stamp so banded chunks never read stale entries. A single
    // shadow generation models the hardware's read-before-write
    // register: in chunks with one active row the same PE reads row
    // i-1 from an entry it overwrites with row i one cycle earlier.
    std::array<std::vector<ScoreT>, nLayers> preserved, shadow;
    std::vector<int> preserved_row_of(static_cast<size_t>(rlen + 1), 0);
    std::vector<int> shadow_row_of(static_cast<size_t>(rlen + 1), -1);
    for (int l = 0; l < nLayers; l++) {
        preserved[static_cast<size_t>(l)] = init_row[static_cast<size_t>(l)];
        shadow[static_cast<size_t>(l)] = init_row[static_cast<size_t>(l)];
    }

    // Per-PE wavefront buffers (N-1th and N-2th wavefronts).
    std::array<std::vector<ScoreT>, nLayers> prev1, prev2, cur;
    for (int l = 0; l < nLayers; l++) {
        prev1[static_cast<size_t>(l)].assign(static_cast<size_t>(npe),
                                             worst);
        prev2[static_cast<size_t>(l)].assign(static_cast<size_t>(npe),
                                             worst);
        cur[static_cast<size_t>(l)].assign(static_cast<size_t>(npe), worst);
    }

    // Traceback memory: one bank per PE, address-coalesced by wavefront
    // within each chunk. The total bank depth is the analytic trip count,
    // so each bank is sized exactly once up front instead of re-growing
    // chunk by chunk.
    std::vector<std::vector<core::TbPtr>> tb_mem;
    if (keep_tb) {
        tb_mem.assign(static_cast<size_t>(npe), {});
        for (auto &bank : tb_mem)
            bank.resize(static_cast<size_t>(total_trips));
    }
    std::vector<int> chunk_base, chunk_wstart;

    // Per-PE local optimum over the eligible region.
    struct Best
    {
        ScoreT score{};
        core::Coord cell;
        bool valid = false;
    };
    std::vector<Best> best(static_cast<size_t>(npe));

    const int n_chunks = numChunks(qlen, npe);
    core::PeIn<ScoreT, typename K::CharT, nLayers> in;
    int tb_offset = 0;

    for (int c = 0; c < n_chunks; c++) {
        const auto cb = chunkBounds<K>(c, npe, band, qlen, rlen);
        const int row0 = cb.row0;
        const int rows = cb.rows;
        const int w_lo = cb.wLo;
        const int w_hi = cb.wHi;
        chunk_wstart.push_back(w_lo);
        chunk_base.push_back(tb_offset);
        if (!cb.active())
            continue;
        tb_offset += cb.trips();

        for (int l = 0; l < nLayers; l++) {
            std::fill(prev1[static_cast<size_t>(l)].begin(),
                      prev1[static_cast<size_t>(l)].end(), worst);
            std::fill(prev2[static_cast<size_t>(l)].begin(),
                      prev2[static_cast<size_t>(l)].end(), worst);
        }

        for (int w = w_lo; w <= w_hi; w++) {
            for (int p = 0; p < rows; p++) {
                const int i = row0 + p;
                const int j = w - p + 1;
                const bool valid = j >= 1 && j <= rlen &&
                    (!K::banded || std::abs(i - j) <= band);
                core::TbPtr ptr{};
                if (!valid) {
                    for (int l = 0; l < nLayers; l++)
                        cur[static_cast<size_t>(l)][static_cast<size_t>(p)] =
                            worst;
                } else {
                    for (int l = 0; l < nLayers; l++) {
                        const size_t ls = static_cast<size_t>(l);
                        const size_t ps = static_cast<size_t>(p);
                        if (j == 1) {
                            in.left[ls] =
                                init_col[ls][static_cast<size_t>(i)];
                            in.diag[ls] =
                                init_col[ls][static_cast<size_t>(i - 1)];
                            in.up[ls] = p == 0
                                ? preservedFetch<K>(preserved, shadow,
                                                    preserved_row_of,
                                                    shadow_row_of, l, 1,
                                                    i - 1, worst)
                                : prev1[ls][ps - 1];
                        } else {
                            in.left[ls] = prev1[ls][ps];
                            if (p == 0) {
                                in.up[ls] = preservedFetch<K>(
                                    preserved, shadow, preserved_row_of,
                                    shadow_row_of, l, j, i - 1, worst);
                                in.diag[ls] = preservedFetch<K>(
                                    preserved, shadow, preserved_row_of,
                                    shadow_row_of, l, j - 1, i - 1, worst);
                            } else {
                                in.up[ls] = prev1[ls][ps - 1];
                                in.diag[ls] = prev2[ls][ps - 1];
                            }
                        }
                    }
                    in.qryVal = query[i - 1];
                    in.refVal = reference[j - 1];
                    in.row = i;
                    in.col = j;
                    const auto out = K::peFunc(in, params);
                    for (int l = 0; l < nLayers; l++) {
                        cur[static_cast<size_t>(l)][static_cast<size_t>(p)] =
                            out.score[static_cast<size_t>(l)];
                    }
                    ptr = out.tbPtr;

                    // Local optimum tracking (Section 5.2): strictly
                    // better only, so the per-PE best is the first
                    // optimum in (row, col) order.
                    if (cellEligible<K>(i, j, qlen, rlen)) {
                        auto &b = best[static_cast<size_t>(p)];
                        const ScoreT v = out.score[0];
                        if (!b.valid ||
                            core::isBetter(K::objective, v, b.score)) {
                            b.score = v;
                            b.cell = core::Coord{i, j};
                            b.valid = true;
                        }
                    }
                }
                if (keep_tb) {
                    tb_mem[static_cast<size_t>(p)]
                          [static_cast<size_t>(chunk_base.back() +
                                               (w - w_lo))] = ptr;
                }
                if (cfg.trace) {
                    ScheduleEvent ev;
                    ev.chunk = c;
                    ev.wavefront = w - w_lo;
                    ev.pe = p;
                    ev.row = i;
                    ev.col = j;
                    ev.valid = valid;
                    ev.tbAddr =
                        keep_tb ? chunk_base.back() + (w - w_lo) : -1;
                    cfg.trace->push_back(ev);
                }
                // Preserved-row update by the chunk's last PE; the old
                // value drops into the shadow generation.
                if (p == rows - 1 && j >= 1 && j <= rlen) {
                    for (int l = 0; l < nLayers; l++) {
                        const size_t ls = static_cast<size_t>(l);
                        const size_t js = static_cast<size_t>(j);
                        shadow[ls][js] = preserved[ls][js];
                        preserved[ls][js] =
                            cur[ls][static_cast<size_t>(p)];
                    }
                    shadow_row_of[static_cast<size_t>(j)] =
                        preserved_row_of[static_cast<size_t>(j)];
                    preserved_row_of[static_cast<size_t>(j)] = i;
                }
            }
            for (int l = 0; l < nLayers; l++) {
                std::swap(prev2[static_cast<size_t>(l)],
                          prev1[static_cast<size_t>(l)]);
                std::swap(prev1[static_cast<size_t>(l)],
                          cur[static_cast<size_t>(l)]);
            }
        }
    }

    // Reduction over the PEs' local optima (Section 5.2).
    bool found = false;
    ScoreT best_score{};
    core::Coord best_cell;
    for (const auto &b : best) {
        if (!b.valid)
            continue;
        const bool better = !found ||
            core::isBetter(K::objective, b.score, best_score) ||
            (b.score == best_score &&
             (b.cell.row < best_cell.row ||
              (b.cell.row == best_cell.row &&
               b.cell.col < best_cell.col)));
        if (better) {
            best_score = b.score;
            best_cell = b.cell;
            found = true;
        }
    }

    auto fetch = [&](int i, int j) {
        const int c = (i - 1) / npe;
        const int p = (i - 1) % npe;
        const int w = (j - 1) + p;
        const int addr = chunk_base[static_cast<size_t>(c)] +
                         (w - chunk_wstart[static_cast<size_t>(c)]);
        return tb_mem[static_cast<size_t>(p)][static_cast<size_t>(addr)];
    };
    return finishResult<K>(cfg, params, qlen, rlen, found, best_score,
                           best_cell, keep_tb, fetch, stats);
}

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_WAVEFRONT_PATH_HH
