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
{
    _ref.reserve(reference.chars.size());
    for (const auto &s : reference.chars)
        _ref.push_back(s.value);
    const sim::IsaTier tier = sim::detectIsaTier();
    _sweep = sim::lookupStripSweep<kernels::Sdtw>(tier);
    _lanes = sim::isaTierLanes(tier);
    reset();
}

void
SdtwStream::reset()
{
    // Row 0 is the kernel's init row: origin 0 plus a zero top row
    // (free start anywhere along the reference).
    _row.assign(_ref.size() + 1, 0);
    _rows = 0;
}

void
SdtwStream::feed(const seq::SignalSample *samples, size_t count)
{
    const int rlen = static_cast<int>(_ref.size());
    size_t s = 0;
    if (_sweep) {
        // Whole strips, one sample per lane, through the tier's sweep.
        const size_t lanes = static_cast<size_t>(_lanes);
        const kernels::Sdtw::Params params{};
        int32_t q32[sim::kMaxSweepLanes];
        sim::StripSweepArgs<kernels::Sdtw> a;
        a.rlen = rlen;
        a.worstRaw = sentinel();
        a.q32 = q32;
        a.r32 = _ref.data();
        a.row = _row.data();
        a.params = &params;
        for (; count - s >= lanes; s += lanes) {
            for (size_t k = 0; k < lanes; k++)
                q32[k] = samples[s + k].value;
            _sweep(a);
        }
    }
    for (; s < count; s++) {
        const int32_t q = samples[s].value;
        // In-place row update: `diag` carries the overwritten value of
        // the cell up-left of the one being computed. This is the
        // kernel's peFunc verbatim (3-way min plus |q - r|), so chunked
        // feeding is bit-identical to the one-shot DP.
        int32_t diag = _row[0];
        _row[0] = sentinel(); // the query cannot be skipped
        for (int j = 1; j <= rlen; j++) {
            const size_t sj = static_cast<size_t>(j);
            const int32_t up = _row[sj];
            const int32_t d = std::abs(q - _ref[sj - 1]);
            const int32_t best =
                std::min(diag, std::min(up, _row[sj - 1]));
            _row[sj] = best + d;
            diag = up;
        }
    }
    _rows += static_cast<int>(count);
}

int32_t
SdtwStream::score() const
{
    // Degenerate inputs (no samples fed, or an empty reference) score 0
    // with no optimum cell — the golden model's semantics: its
    // bottom-row scan skips degenerate shapes and leaves the
    // default-constructed score.
    if (_rows == 0 || _ref.empty())
        return 0;
    int32_t best = _row[1];
    for (size_t j = 2; j < _row.size(); j++)
        best = std::min(best, _row[j]);
    return best;
}

} // namespace dphls::workloads
