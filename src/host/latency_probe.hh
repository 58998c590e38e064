/**
 * @file
 * Modeled ticket-latency probe for class-scheduling workloads, plus the
 * percentile helper every latency report uses.
 *
 * Shared by the mixed workload (workloads/mixed_demo.hh, `dphls_align
 * --workload mixed`) and bench_engine_micro's `priority_scheduling` and
 * `workloads` sections: each queues a ticket mix on a paused
 * one-channel pipeline, releases it, and records each ticket's
 * completion latency as the channel's cumulative busy cycles at that
 * completion converted at fmax — arrival is the shared release
 * instant, so the latency is pure modeled queueing + service time and
 * deterministic across runs and machines.
 */

#ifndef DPHLS_HOST_LATENCY_PROBE_HH
#define DPHLS_HOST_LATENCY_PROBE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "host/check.hh"

namespace dphls::host {

/**
 * p-th percentile (nearest-rank) of @p values; 0 when empty. @p p is
 * clamped into [0, 1] (non-finite p included): p <= 0 returns the
 * minimum, p >= 1 the maximum, and a single-element vector returns its
 * element for every p. O(n) via std::nth_element on the caller's
 * vector — the hot two-class probes call this repeatedly per report,
 * so the old by-value copy + full sort per call was pure overhead. The
 * vector is partially reordered (any permutation yields the same
 * percentile), never resized.
 */
inline double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0;
    if (!(p > 0)) // also catches NaN
        p = 0;
    else if (p > 1)
        p = 1;
    const size_t n = values.size();
    const size_t rank = std::min(
        n, static_cast<size_t>(std::max(
               1.0, std::ceil(p * static_cast<double>(n)))));
    const auto nth = values.begin() +
                     static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

/** percentile() over a temporary (single-use callers). */
inline double
percentile(std::vector<double> &&values, double p)
{
    return percentile(values, p);
}

/**
 * Accumulates per-class modeled completion latencies. Call record()
 * from each ticket's completion callback with the ticket's makespan
 * cycles; thread-safe. The cumulative busy-cycle clock is per probe, so
 * attach one probe per pipeline, and read of() only after every ticket
 * has completed.
 */
class ClassLatencyProbe
{
  public:
    enum Class
    {
        Realtime = 0,
        Interactive = 1,
        Bulk = 2
    };

    explicit ClassLatencyProbe(double fmax_mhz) : _fmaxMhz(fmax_mhz) {}

    void
    record(uint64_t makespan_cycles, Class cls)
    {
        std::lock_guard lock(_mutex);
        _cumCycles += makespan_cycles;
        const double seconds =
            static_cast<double>(_cumCycles) / (_fmaxMhz * 1e6);
        _latencies[cls].push_back(seconds);
    }

    const std::vector<double> &of(Class cls) const
    {
        return _latencies[cls];
    }

  private:
    double _fmaxMhz;
    DebugMutex _mutex{lockrank::kLatencyProbe, "latency-probe"};
    uint64_t _cumCycles = 0;
    std::vector<double> _latencies[3];
};

} // namespace dphls::host

#endif // DPHLS_HOST_LATENCY_PROBE_HH
