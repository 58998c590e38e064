/**
 * @file
 * Mixed-workload driver: read mapping (interactive), streaming sDTW
 * basecalling (realtime) and bulk batch alignment (class 0) running
 * concurrently against the modeled device, with per-class modeled
 * completion latencies.
 *
 * One seeded input set — genome, short reads with known loci, squiggle
 * chunk streams, bulk re-alignment batches — is served two ways:
 *
 *  - **concurrent**: the whole backlog of all three classes is queued
 *    on paused pipelines (mapper extensions and bulk batches share ONE
 *    StreamPipeline<SemiGlobal>; basecaller survivors run on a
 *    StreamPipeline<Sdtw>), released at a single instant, and the
 *    per-ticket completion latency is recorded in the cycle domain —
 *    deterministic, machine-independent;
 *  - **isolated**: each class runs alone on fresh pipelines.
 *
 * Scheduling only reorders work, it never touches a DP: the two runs
 * must produce bit-identical mappings, classifications and bulk scores
 * (tests/test_mixed_workloads.cc), while the latency report shows what
 * the priority scheduler buys the realtime and interactive classes.
 * Shared by `dphls_align --workload mixed`, examples/mixed_workloads
 * and bench_engine_micro's `workloads` section.
 */

#ifndef DPHLS_WORKLOADS_MIXED_DEMO_HH
#define DPHLS_WORKLOADS_MIXED_DEMO_HH

#include <cstdint>
#include <vector>

#include "host/stream_pipeline.hh"
#include "workloads/basecaller.hh"
#include "workloads/mapper.hh"

namespace dphls::workloads {

/** Deterministic input/scale knobs of the mixed demo. */
struct MixedDemoConfig
{
    uint64_t seed = 1;        //!< drives every simulated input
    int genomeLength = 16000; //!< shared mapping reference
    // Interactive class: short reads mapped seed-chain-extend.
    int shortReads = 16;
    int shortReadLength = 150;
    double readErrorRate = 0.03;
    // Realtime class: squiggle chunk streams classified + scored.
    int squiggleReads = 8;
    int squiggleBases = 120;   //!< DNA bases behind each squiggle read
    int targetBases = 300;     //!< on-target reference stretch
    int chunkSamples = 64;     //!< samples per streamed chunk
    double realtimeDeadlineMs = 5.0;
    // Bulk class: re-alignment batches.
    int bulkBatches = 4;
    int bulkBatchJobs = 12;
    int bulkPairLength = 180;
    // Scheduling classes (mirror serve's traffic classes).
    int interactivePriority = 10;
    int realtimePriority = 20;
    MapperConfig mapper{};     //!< k/window sized by makeDefault()
    BasecallConfig basecall{}; //!< abandon threshold set by makeDefault()

    /** Defaults tuned so the demo exercises every path (some squiggle
     *  reads abandon, every class gets device time). */
    static MixedDemoConfig makeDefault();
};

/** Modeled per-class completion latencies, seconds at kernel fmax. */
struct ClassLatencies
{
    std::vector<double> realtime;
    std::vector<double> interactive;
    std::vector<double> bulk;
};

/** Everything one run produced (compare across runs for identity). */
struct MixedDemoResult
{
    std::vector<ReadMapping> mappings;    //!< per short read
    std::vector<int> trueLoci;            //!< simulated origin of each
    std::vector<ReadOutcome> basecalls;   //!< per squiggle read
    std::vector<std::vector<double>> bulkScores; //!< per batch
    ClassLatencies latencies; //!< empty vectors in isolated runs
    int tickets = 0;          //!< tickets submitted across classes
};

/**
 * Run the seeded mixed workload. @p concurrent selects the shared
 * paused-release run (latencies recorded) vs the per-class isolated
 * run (latencies empty). Both use the same @p cfg inputs, so all
 * result fields except `latencies`/`tickets` must match exactly.
 */
MixedDemoResult runMixedDemo(const MixedDemoConfig &cfg, bool concurrent);

} // namespace dphls::workloads

#endif // DPHLS_WORKLOADS_MIXED_DEMO_HH
