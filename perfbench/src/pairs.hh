/**
 * @file
 * The short-read pair shape shared by align_batch and serve_load, and
 * the computed lane fill of a request-size mix.
 */

#ifndef PERFBENCH_PAIRS_HH
#define PERFBENCH_PAIRS_HH

#include <vector>

#include "host/stream_pipeline.hh"
#include "seq/random.hh"
#include "seq/read_simulator.hh"

namespace perfbench {

using DnaJob = host::AlignmentJob<seq::DnaChar>;

/** One 100-300 bp pair with ~5% substitutions and ~2% indels. */
inline DnaJob
shortReadPair(seq::Rng &rng)
{
    DnaJob job;
    job.query = seq::randomDna(static_cast<int>(rng.range(100, 300)), rng);
    job.reference = seq::mutateDna(job.query, 0.05, 0.02, rng);
    return job;
}

/**
 * Share of lane slots holding a pair when each request of
 * @p request_sizes pairs is sharded round-robin over @p channels
 * channels and every shard is cut into groups of @p lane_width lanes.
 * Computed from sizes, not measured inside the engine.
 */
inline double
computedLaneFill(const std::vector<int> &request_sizes, int channels,
                 int lane_width)
{
    double pairs = 0, slots = 0;
    for (const int n : request_sizes) {
        std::vector<int> idx(static_cast<size_t>(n));
        for (int i = 0; i < n; i++)
            idx[static_cast<size_t>(i)] = i;
        for (const auto &shard : host::shardIndicesRoundRobin(idx, channels)) {
            const int s = static_cast<int>(shard.size());
            const int groups = (s + lane_width - 1) / lane_width;
            pairs += s;
            slots += static_cast<double>(groups) * lane_width;
        }
    }
    return slots > 0 ? pairs / slots : 0;
}

} // namespace perfbench

#endif // PERFBENCH_PAIRS_HH
