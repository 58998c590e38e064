#include "workloads/sdtw_stream.hh"

#include <algorithm>
#include <cstdlib>

#include "core/types.hh"
#include "systolic/isa_tier.hh"

namespace dphls::workloads {

namespace {

/** The kernel's unreachable-cell sentinel (Minimize objective). */
constexpr int32_t
sentinel()
{
    return core::scoreSentinelWorst<int32_t>(
        kernels::Sdtw::objective);
}

} // namespace

SdtwStream::SdtwStream(const seq::SignalSequence &reference)
    : _rlen(reference.length())
{
    _ref.assign(static_cast<size_t>(_rlen) + 1 + sim::kMaxSweepLanes, 0);
    for (int j = 0; j < _rlen; j++)
        _ref[static_cast<size_t>(j) + 1] =
            reference.chars[static_cast<size_t>(j)].value;
    _sweep = sim::lookupStripSweep<kernels::Sdtw>(sim::detectIsaTier()).fn;
    _q32.assign(kFeedRows + sim::kMaxSweepLanes, 0);
    _colInit.assign(kFeedRows + 1, sentinel());
    reset();
}

void
SdtwStream::reset()
{
    // Row 0 is the kernel's init row: origin 0 plus a zero top row
    // (free start anywhere along the reference).
    _row.assign(static_cast<size_t>(_rlen) + 1 + sim::kMaxSweepLanes, 0);
    _rows = 0;
}

void
SdtwStream::feed(const seq::SignalSample *samples, size_t count)
{
    _rows += static_cast<int>(count);
    if (_sweep) {
        const kernels::Sdtw::Params params{};
        int32_t *row = _row.data();
        sim::StripSweepArgs<kernels::Sdtw> a;
        a.rlen = _rlen;
        a.worstRaw = sentinel();
        a.q32 = _q32.data();
        a.r32 = _ref.data();
        a.qStride = _q32.size();
        a.rStride = _ref.size();
        a.colInit = _colInit.data();
        a.rows = &row;
        a.params = &params;
        for (size_t s = 0; s < count; s += kFeedRows) {
            const size_t n = std::min<size_t>(kFeedRows, count - s);
            for (size_t k = 0; k < n; k++)
                _q32[k] = samples[s + k].value;
            a.qlen = static_cast<int>(n);
            _sweep(a);
        }
        return;
    }
    for (size_t s = 0; s < count; s++) {
        const int32_t q = samples[s].value;
        // In-place row update: `diag` carries the overwritten value of
        // the cell up-left of the one being computed. This is the
        // kernel's peFunc verbatim (3-way min plus |q - r|), so chunked
        // feeding is bit-identical to the one-shot DP.
        int32_t diag = _row[0];
        _row[0] = sentinel(); // the query cannot be skipped
        for (int j = 1; j <= _rlen; j++) {
            const size_t sj = static_cast<size_t>(j);
            const int32_t up = _row[sj];
            const int32_t d = std::abs(q - _ref[sj]);
            const int32_t best =
                std::min(diag, std::min(up, _row[sj - 1]));
            _row[sj] = best + d;
            diag = up;
        }
    }
}

int32_t
SdtwStream::score() const
{
    // Degenerate inputs (no samples fed, or an empty reference) score 0
    // with no optimum cell — the golden model's semantics: its
    // bottom-row scan skips degenerate shapes and leaves the
    // default-constructed score.
    if (_rows == 0 || _rlen == 0)
        return 0;
    return *std::min_element(_row.begin() + 1, _row.begin() + _rlen + 1);
}

} // namespace dphls::workloads
