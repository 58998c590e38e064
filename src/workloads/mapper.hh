/**
 * @file
 * Seed–chain–extend read mapper over the streaming device executor.
 *
 * The paper's kernels align a read against a *given* reference window;
 * a real mapping workload first has to find that window. This module
 * reproduces the standard minimizer pipeline (minimap2-style, heavily
 * simplified) on top of the repo's existing layers:
 *
 *  1. **Seed**: a MinimizerIndex over the reference — every window of
 *     `window` consecutive k-mers contributes its minimum-hash k-mer,
 *     so matching reads and reference regions share seeds regardless
 *     of the sampling phase. Exact-match lookups of a read's
 *     minimizers yield anchors (qpos, rpos).
 *  2. **Chain**: a bounded O(n·lookback) DP over anchors sorted by
 *     reference position scores co-linear anchor runs with a
 *     diagonal-drift gap cost; the best non-overlapping chains become
 *     candidate reference windows.
 *  3. **Extend**: candidate windows are aligned with the semi-global
 *     kernel (#7) — one AlignmentJob per candidate, submitted as ONE
 *     StreamPipeline ticket so the mapper rides the same priority /
 *     deadline / admission machinery as every other workload. Long
 *     reads (over the device MAX_*_LENGTH) instead run the GACT tiling
 *     layer host-side, each tile filled by the engine's strip sweep.
 *  4. **MAPQ**: best-vs-second-best extension scores (chain scores on
 *     the long-read path), a simplified minimap2-style confidence.
 *
 * Planning (seed + chain) is pure and deterministic; extension results
 * are the engine's, which are bit-identical to the full-matrix golden
 * model — tests/test_workload_mapper.cc aligns the planned jobs through
 * ref::MatrixAligner and requires identical scores and paths.
 */

#ifndef DPHLS_WORKLOADS_MAPPER_HH
#define DPHLS_WORKLOADS_MAPPER_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "host/stream_pipeline.hh"
#include "host/tiling.hh"
#include "kernels/global_affine.hh"
#include "kernels/semi_global.hh"
#include "seq/alphabet.hh"

namespace dphls::workloads {

/** Mapper tuning knobs (defaults sized for the simulated workloads). */
struct MapperConfig
{
    int k = 15;              //!< minimizer k-mer size (<= 31)
    int window = 10;         //!< k-mers per minimizer window
    /** Reference positions above which a minimizer is considered
     *  repetitive and skipped at query time. */
    int maxOccurrences = 64;
    int maxAnchors = 4096;   //!< anchor cap per read (keeps DP bounded)
    int chainLookback = 64;  //!< chaining DP predecessor cap
    /** Max query/reference advance between chained anchors. */
    int maxChainGap = 512;
    int maxCandidates = 4;   //!< extension candidates per read
    int windowPad = 64;      //!< reference slack either side of a chain
    /** Long-read extension path (GACT tiling). */
    host::TilingConfig tiling{};
};

/** One exact seed match: read offset against reference offset. */
struct Anchor
{
    int qpos = 0;
    int rpos = 0;
};

/** One candidate reference window produced by chaining. */
struct CandidateWindow
{
    int refStart = 0;
    int refEnd = 0;      //!< one past the end
    double chainScore = 0;
    int anchors = 0;
};

/** Deterministic seed+chain outcome for one read. */
struct MapPlan
{
    std::vector<CandidateWindow> candidates;
    bool longRead = false; //!< extension must take the tiling path
};

/** Final placement of one read on the reference. */
struct ReadMapping
{
    bool mapped = false;
    int refStart = 0;
    int refEnd = 0;  //!< one past the end
    double score = 0;
    double secondScore = 0; //!< runner-up extension (0 when absent)
    int mapq = 0;           //!< 0..60 best-vs-second confidence
    std::vector<core::AlnOp> ops;
    uint64_t cycles = 0; //!< modeled device cycles spent extending
    int candidates = 0;  //!< windows the read was extended against
    bool longRead = false;
};

/**
 * Minimizer index over one reference sequence: hash → sorted positions.
 * Hashing is an invertible SplitMix64 finalizer over the 2-bit packed
 * k-mer, so equal k-mers always collide and distinct ones essentially
 * never do (within 2k bits).
 */
class MinimizerIndex
{
  public:
    MinimizerIndex(const seq::DnaSequence &reference, int k, int window);

    /**
     * The (hash, position) minimizers of @p dna under scheme (k, w):
     * each window of w consecutive k-mers contributes its min-hash
     * k-mer once (ties keep the leftmost, the canonical choice).
     * Sequences shorter than one k-mer yield none.
     */
    static std::vector<std::pair<uint64_t, int>>
    minimizers(const seq::DnaSequence &dna, int k, int window);

    /** Reference positions of @p hash; nullptr when absent. */
    const std::vector<int32_t> *lookup(uint64_t hash) const;

    int k() const { return _k; }
    int window() const { return _window; }
    size_t distinctMinimizers() const { return _table.size(); }

  private:
    int _k;
    int _window;
    std::unordered_map<uint64_t, std::vector<int32_t>> _table;
};

/**
 * The mapper: owns the reference, its index, and the long-read tiling
 * engine. Extension of short reads goes through a caller-provided
 * StreamPipeline<SemiGlobal> so many mappers/workloads can share one
 * modeled device.
 */
class ReadMapper
{
  public:
    using Kernel = kernels::SemiGlobal;
    using Pipeline = host::StreamPipeline<Kernel>;
    using Job = Pipeline::Job;
    using Result = Pipeline::Result;

    /** An in-flight short-read mapping: plan + extension ticket. */
    struct Pending
    {
        MapPlan plan;
        Pipeline::Ticket ticket; //!< null when the plan had no candidates
    };

    explicit ReadMapper(seq::DnaSequence reference, MapperConfig cfg = {});

    /** Seed + chain (pure): candidate windows for @p read, best first.
     *  @p max_query_len / @p max_ref_len are the device maxima that
     *  decide whether extension must take the long-read path. */
    MapPlan plan(const seq::DnaSequence &read, int max_query_len,
                 int max_ref_len) const;

    /** The semi-global extension jobs of a short-read plan, one per
     *  candidate window, in candidate order. */
    std::vector<Job> extensionJobs(const seq::DnaSequence &read,
                                   const MapPlan &plan) const;

    /**
     * Submit a short read's extensions as one ticket (empty-candidate
     * plans return a null ticket; long-read plans must go through
     * mapLong instead — submit() routes them there via mapRead()).
     */
    Pending submit(Pipeline &pipeline, const seq::DnaSequence &read,
                   host::TicketOptions options = {},
                   Pipeline::Callback callback = nullptr);

    /** Fold a completed ticket back into a placement. */
    ReadMapping finish(const seq::DnaSequence &read,
                       const Pending &pending) const;

    /** Synchronous convenience: plan, extend (device ticket or tiling
     *  path as the shape demands), place. */
    ReadMapping mapRead(Pipeline &pipeline, const seq::DnaSequence &read,
                        host::TicketOptions options = {});

    /** Long-read extension: GACT tiling over the best chain's window. */
    ReadMapping mapLong(const seq::DnaSequence &read, const MapPlan &plan);

    const seq::DnaSequence &reference() const { return _reference; }
    const MinimizerIndex &index() const { return _index; }
    const MapperConfig &config() const { return _cfg; }

    /** Anchors of @p read against the index (exposed for tests). */
    std::vector<Anchor> anchors(const seq::DnaSequence &read) const;

    /** Best-vs-second MAPQ on 0..60 (pure; exposed for tests). */
    static int mapqFrom(double best, double second, int anchor_count);

  private:
    seq::DnaSequence _reference;
    MapperConfig _cfg;
    MinimizerIndex _index;
    /** Long-read tiling engine (global affine per tile). */
    sim::SystolicAligner<kernels::GlobalAffine> _tileEngine;
};

} // namespace dphls::workloads

#endif // DPHLS_WORKLOADS_MAPPER_HH
