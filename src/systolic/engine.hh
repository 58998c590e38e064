/**
 * @file
 * The DP-HLS back-end: a cycle-level linear systolic array engine.
 *
 * `SystolicAligner` executes any kernel satisfying core::KernelSpec
 * through one of two execution paths that decouple functional DP
 * computation from schedule modeling:
 *
 *  - the **wavefront reference path** (`wavefront_path.hh`) runs the
 *    exact micro-architecture the paper's HLS pragmas produce (Fig. 2C):
 *    NPE-row chunks, one anti-diagonal per initiation interval,
 *    preserved-row buffer, address-coalesced traceback banks, per-PE
 *    optimum tracking and reduction (Section 5.2), fixed banding via
 *    wavefront loop bounds (Section 4, step 1.6);
 *  - the **fast functional path** (`fast_path.hh`) fills the same
 *    recurrence as a systolic strip of W query rows on the SIMD lanes
 *    of the engine's ISA tier (a scalar row-major loop at
 *    IsaTier::Scalar), with the band handled by loop bounds — many
 *    times faster on the host. The tier and its strip sweep are
 *    resolved once, at construction.
 *
 * Cycle statistics are analytic functions of the wavefront trip counts
 * (`engine_common.hh`), so results AND cycle numbers are bit-identical
 * across paths (enforced by tests/test_fastpath_equivalence.cc). The
 * engine selects the fast path automatically unless a ScheduleTrace is
 * attached; `EngineConfig::path` overrides the selection.
 *
 * Functional results are bit-identical to the full-matrix reference
 * aligner (enforced by the test suite); cycle counts per phase feed the
 * throughput model.
 */

#ifndef DPHLS_SYSTOLIC_ENGINE_HH
#define DPHLS_SYSTOLIC_ENGINE_HH

#include <mutex>
#include <stdexcept>

#include "systolic/engine_common.hh"
#include "systolic/fast_path.hh"
#include "systolic/wavefront_path.hh"

namespace dphls::sim {

/**
 * Systolic-array aligner for kernel @p K: one DP-HLS block of NPE PEs.
 */
template <core::KernelSpec K>
class SystolicAligner
{
  public:
    using ScoreT = typename K::ScoreT;
    using CharT = typename K::CharT;
    using Params = typename K::Params;
    using Result = core::AlignResult<ScoreT>;
    static constexpr int nLayers = K::nLayers;

    explicit SystolicAligner(EngineConfig cfg = {},
                             Params params = K::defaultParams())
        : _cfg(cfg), _params(params),
          _strip(lookupStripSweep<K>(resolveIsaTier(cfg.isaTier)))
    {
        if (_cfg.numPe < 1)
            throw std::invalid_argument("numPe must be >= 1");
        if (_cfg.path == EnginePath::Fast && _cfg.trace != nullptr)
            throw std::invalid_argument(
                "ScheduleTrace requires the wavefront path");
    }

    const EngineConfig &config() const { return _cfg; }
    const Params &params() const { return _params; }

    /** The execution path align() runs under the current config. */
    EnginePath
    activePath() const
    {
        if (_cfg.path == EnginePath::Auto) {
            return _cfg.trace == nullptr ? EnginePath::Fast
                                         : EnginePath::Wavefront;
        }
        return _cfg.path;
    }

    /** Cycle statistics of the most recent align() call. */
    const CycleStats &lastStats() const { return _stats; }

    /** Total cycles of the most recent align() call per the cycle model. */
    uint64_t
    lastTotalCycles() const
    {
        return totalCycles(_stats, _cfg.cycles);
    }

    /** Align one pair; returns score/optimum/traceback path. */
    Result
    align(const seq::Sequence<CharT> &query,
          const seq::Sequence<CharT> &reference)
    {
        if (query.length() > _cfg.maxQueryLength)
            throw std::invalid_argument("query exceeds MAX_QUERY_LENGTH");
        if (reference.length() > _cfg.maxReferenceLength)
            throw std::invalid_argument(
                "reference exceeds MAX_REFERENCE_LENGTH");

        if (activePath() == EnginePath::Fast)
            return fastAlign<K>(_cfg, _params, query, reference, _strip,
                                _stats, _fastWs);
        return wavefrontAlign<K>(_cfg, _params, query, reference, _stats);
    }

    /**
     * True when align() would run the fast path, whose DP fill and
     * traceback can execute as separate pipeline stages.
     */
    bool
    supportsStagedFill() const
    {
        return activePath() == EnginePath::Fast;
    }

    /**
     * Fill stage of one pair. The returned state owns the traceback
     * bank, so tracebackStage() may run on another thread while this
     * engine fills the next pair. Does not touch lastStats(): staged
     * callers read cycles out of the state's CycleStats instead.
     */
    FastFillState<K>
    fillStage(const seq::Sequence<CharT> &query,
              const seq::Sequence<CharT> &reference)
    {
        if (query.length() > _cfg.maxQueryLength)
            throw std::invalid_argument("query exceeds MAX_QUERY_LENGTH");
        if (reference.length() > _cfg.maxReferenceLength)
            throw std::invalid_argument(
                "reference exceeds MAX_REFERENCE_LENGTH");
        // fastFill moves the workspace bank into the returned state, so
        // a staged run would otherwise allocate (and first-touch fault)
        // a fresh bank per pair; reclaim the consumer's recycled one.
        if (_fastWs.tb.capacity() == 0 ||
            _fastWs.stripBase.capacity() == 0) {
            std::lock_guard lock(_spareMutex);
            if (_fastWs.tb.capacity() == 0)
                _fastWs.tb = std::move(_spareTb);
            if (_fastWs.stripBase.capacity() == 0)
                _fastWs.stripBase = std::move(_spareStripBase);
        }
        FastFillState<K> st;
        fastFill<K>(_cfg, _params, query, reference, _strip, _fastWs, st);
        return st;
    }

    /**
     * Traceback stage over a fill state. Reads only the immutable
     * config/params, so it is safe to call concurrently with
     * fillStage() on this same engine (the staged-shard consumer).
     */
    Result
    tracebackStage(FastFillState<K> &st) const
    {
        return fastTraceback<K>(_cfg, _params, st);
    }

    /**
     * Hand a finished fill state's buffers back for reuse. The staged
     * consumer calls this after tracebackStage() so the producer's next
     * fillStage() reuses the traceback bank instead of paying a fresh
     * allocation per pair (the monolithic path amortizes the same way
     * by moving the bank back into the workspace). Keeps the single
     * largest bank; thread-safe against fillStage() on this engine.
     */
    void
    recycleStage(FastFillState<K> &&st)
    {
        std::lock_guard lock(_spareMutex);
        if (st.tb.capacity() > _spareTb.capacity())
            _spareTb = std::move(st.tb);
        if (st.stripBase.capacity() > _spareStripBase.capacity())
            _spareStripBase = std::move(st.stripBase);
    }

  private:
    EngineConfig _cfg;
    Params _params;
    StripSweep<K> _strip;
    CycleStats _stats;
    FastWorkspace<K> _fastWs;
    std::mutex _spareMutex; //!< guards the recycled-bank pool below
    std::vector<core::TbPtr> _spareTb;
    std::vector<int64_t> _spareStripBase;
};

} // namespace dphls::sim

#endif // DPHLS_SYSTOLIC_ENGINE_HH
