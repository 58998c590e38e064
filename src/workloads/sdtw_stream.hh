/**
 * @file
 * Incremental semi-global DTW over a growing query signal.
 *
 * The sDTW kernel (#14) scores a whole read signal against a target's
 * expected signal; a *streaming* basecaller sees the read one chunk at
 * a time and wants to eject off-target reads early (read-until). This
 * class keeps exactly one DP row between feed() calls, so feeding a
 * signal in chunks of any size reproduces the whole-signal DP
 * bit-for-bit (the recurrence is row-local; chunk boundaries are
 * invisible to it — tests/test_workload_basecall.cc locks this against
 * the full-matrix golden model).
 *
 * The row advances the way the device does it (DP-HLS Fig. 2C): W
 * samples at a time as a systolic strip, one sample per SIMD lane, the
 * reference streaming through the lanes and the carried row serving as
 * the preserved row between strips. That is the engine's own strip
 * sweep (systolic/lane_sweep.hh, W the native lane count of the host's
 * ISA tier), run with traceback and optimum tracking off. At the
 * scalar tier every sample takes the scalar row loop instead; both run
 * the kernel's recurrence, so the choice changes no score.
 *
 * Early-abandon soundness: every sDTW cell adds a non-negative cost
 * |q - r| to the minimum of its three neighbors, so the minimum of row
 * i+1 is >= the minimum of row i (induction along the row: each new
 * cell is >= the smaller of row i's minimum and the already-bounded
 * cells to its left; the sentinel left column never helps). The final
 * score is the minimum of the *last* row, hence
 *
 *     score(prefix fed so far)  <=  score(any extension)
 *
 * — score() is an admissible lower bound, and abandoning a read when
 * the bound already exceeds a rejection threshold can never misjudge a
 * read the full signal would have accepted, nor change any surviving
 * read's score (survivors run the identical DP).
 */

#ifndef DPHLS_WORKLOADS_SDTW_STREAM_HH
#define DPHLS_WORKLOADS_SDTW_STREAM_HH

#include <cstdint>
#include <vector>

#include "kernels/sdtw.hh"
#include "seq/alphabet.hh"
#include "systolic/lane_sweep.hh"

namespace dphls::workloads {

class SdtwStream
{
  public:
    /** Resolves the host's ISA tier and its strip sweep once, here. */
    explicit SdtwStream(const seq::SignalSequence &reference);

    /** Append query samples; the DP advances one row per sample. */
    void feed(const seq::SignalSample *samples, size_t count);
    void feed(const seq::SignalSequence &chunk)
    {
        feed(chunk.chars.data(), chunk.chars.size());
    }

    /** Query samples consumed so far. */
    int samplesFed() const { return _rows; }

    /**
     * Semi-global sDTW score of the prefix fed so far — identical to
     * running the whole prefix through the kernel in one shot, and an
     * admissible lower bound on the score of any extension (see the
     * file comment). Degenerate inputs score 0, matching the golden
     * model's empty-query/empty-reference semantics.
     */
    int32_t score() const;

    /** score() normalized by samples fed (0 before the first sample). */
    double
    scorePerSample() const
    {
        return _rows == 0
            ? 0.0
            : static_cast<double>(score()) / static_cast<double>(_rows);
    }

    /** Drop all fed samples and start a new read against the same
     *  reference. */
    void reset();

  private:
    /** Samples per strip-sweep call; bounds the buffers below. */
    static constexpr int kFeedRows = 256;

    int _rlen = 0;
    std::vector<int32_t> _ref;     //!< widened, the sweep's layout
    std::vector<int32_t> _row;     //!< current DP row, cols 0..rlen
    std::vector<int32_t> _q32;     //!< one call's samples, plus slack
    std::vector<int32_t> _colInit; //!< the sentinel left column
    sim::StripSweepFn<kernels::Sdtw> _sweep = nullptr; //!< null: scalar
    int _rows = 0;
};

} // namespace dphls::workloads

#endif // DPHLS_WORKLOADS_SDTW_STREAM_HH
