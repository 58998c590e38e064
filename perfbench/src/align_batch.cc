/**
 * @file
 * align_batch: FASTA pairs in the short-read shape through the path
 * dphls_align takes — seq::FastaStream, StreamPipeline tickets of
 * --chunk pairs, the lane engine, the result cache and core::toCigar
 * line formatting — with dphls_align's defaults except the worker
 * count, which leaves the caller thread its own core.
 *
 * A seeded share of pairs repeats an earlier pair. A repeat reaches back
 * less than the cache's capacity (a hit) or, for pairs far enough into
 * the round to have one, with even odds at least twice the capacity
 * (evicted, so a miss): about a third of all repeats at full size.
 */

#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cigar.hh"
#include "harness.hh"
#include "host/stream_pipeline.hh"
#include "kernels/global_affine.hh"
#include "ladder.hh"
#include "model/frequency_model.hh"
#include "pairs.hh"
#include "seq/fasta.hh"
#include "spans.hh"

namespace perfbench {

namespace {

using K = kernels::GlobalAffine;
using Pipeline = host::StreamPipeline<K>;

constexpr int kPairs = 24000;          //!< pairs per round at scale 1
constexpr int kChunk = 256;            //!< dphls_align --chunk default
constexpr size_t kCacheEntries = 4096; //!< dphls_align's cache capacity
constexpr double kRepeatShare = 0.2;
constexpr int kNearMax = 1024;  //!< near repeats: within cache capacity
constexpr int kFarMin = 8192;   //!< far repeats: beyond cache capacity
constexpr int kSetupBatch = 8; //!< pipeline constructions per sample
constexpr size_t kGoldenSample = 48;

/** dphls_align's defaults, workers capped to the thread budget. */
host::BatchConfig
alignConfig(const Options &opt)
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 4;
    cfg.threads = opt.workers();
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.bandWidth = 64;
    cfg.maxQueryLength = 4096;
    cfg.maxReferenceLength = 4096;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = 8;
    cfg.cacheEntries = kCacheEntries;
    return cfg;
}

struct Inputs
{
    std::string queryPath;
    std::string referencePath;
    std::vector<DnaJob> jobs; //!< the pairs, in file order
};

Inputs
makeInputs(const Options &opt, uint64_t seed, int pairs,
           const std::string &tag)
{
    seq::Rng rng(seed);
    Inputs in;
    in.jobs.reserve(static_cast<size_t>(pairs));
    for (int i = 0; i < pairs; i++) {
        if (i > 0 && rng.chance(kRepeatShare)) {
            const bool far = i > kFarMin && rng.chance(0.5);
            const int back =
                far ? static_cast<int>(rng.range(kFarMin, i))
                    : static_cast<int>(rng.range(1, std::min(i, kNearMax)));
            in.jobs.push_back(in.jobs[static_cast<size_t>(i - back)]);
        } else {
            in.jobs.push_back(shortReadPair(rng));
        }
    }
    std::vector<seq::FastaRecord> q, r;
    for (size_t i = 0; i < in.jobs.size(); i++) {
        const std::string id = std::to_string(i);
        q.push_back({'q' + id, seq::dnaToString(in.jobs[i].query)});
        r.push_back({'r' + id, seq::dnaToString(in.jobs[i].reference)});
    }
    in.queryPath = opt.workDir + "/align_" + tag + "_query.fa";
    in.referencePath = opt.workDir + "/align_" + tag + "_reference.fa";
    for (const auto &[path, recs] :
         {std::pair{in.queryPath, &q}, std::pair{in.referencePath, &r}}) {
        std::ofstream f(path);
        seq::writeFasta(f, *recs);
        if (!f)
            throw std::runtime_error("cannot write " + path);
    }
    return in;
}

/** A spot-check sample: global pair index and the pipeline's result. */
struct Kept
{
    size_t index;
    Pipeline::Result result;
};

struct Pending
{
    Pipeline::Ticket ticket;
    Clock::time_point submitted;
    size_t base; //!< global index of the ticket's first pair
};

/**
 * One round: parse both FASTA files in chunks, submit each chunk as a
 * ticket, and write back completed tickets in submission order as
 * dphls_align's output lines, hashed instead of printed.
 */
RoundOutcome
alignRound(Pipeline &pipeline, const Inputs &in, SpanRecorder *rec,
           const std::vector<size_t> &sample, std::vector<Kept> *kept)
{
    RoundOutcome out;
    out.checksum = kFnvBasis;
    const size_t max_pending =
        4 + static_cast<size_t>(pipeline.threadCount());
    std::deque<Pending> pending;
    size_t sample_at = 0;
    std::string text;

    const auto retire = [&]() {
        Pending p = std::move(pending.front());
        pending.pop_front();
        {
            ScopedSpan s(rec, "pipeline.wait", p.base);
            p.ticket->wait();
        }
        out.deadlineMisses += pipeline.collect(p.ticket).deadlineMisses;
        out.latenciesMs.push_back(
            1e3 * std::chrono::duration<double>(Clock::now() - p.submitted)
                      .count());
        ScopedSpan s(rec, "core.format", p.base);
        const auto &jobs = p.ticket->jobs();
        const auto &results = p.ticket->results();
        const auto &cycles = p.ticket->cycles();
        text.clear();
        char line[128];
        for (size_t i = 0; i < jobs.size(); i++) {
            const auto &res = results[i];
            std::snprintf(line, sizeof(line),
                          "%-20.20s %-20.20s %-10.0f %-12llu ",
                          jobs[i].query.name.c_str(),
                          jobs[i].reference.name.c_str(),
                          res.scoreAsDouble(),
                          static_cast<unsigned long long>(cycles[i]));
            text += line;
            text += res.ops.empty() ? "-" : core::toCigar(res.ops);
            text += '\n';
            out.cycles += cycles[i];
        }
        out.checksum = fnv(out.checksum, text.data(), text.size());
        while (kept && sample_at < sample.size() &&
               sample[sample_at] < p.base + jobs.size()) {
            kept->push_back(
                {sample[sample_at], results[sample[sample_at] - p.base]});
            sample_at++;
        }
    };

    ScopedSpan root(rec, "round");
    const auto t0 = Clock::now();
    seq::FastaStream queries(in.queryPath);
    seq::FastaStream references(in.referencePath);
    size_t next_index = 0;
    for (bool done = false; !done;) {
        std::vector<Pipeline::Job> jobs;
        {
            ScopedSpan s(rec, "seq.parse", next_index);
            jobs.reserve(kChunk);
            seq::FastaRecord q, r;
            while (jobs.size() < static_cast<size_t>(kChunk)) {
                if (!queries.next(q) || !references.next(r)) {
                    done = true;
                    break;
                }
                Pipeline::Job job;
                job.query = seq::dnaFromString(q.residues, q.name);
                job.reference = seq::dnaFromString(r.residues, r.name);
                jobs.push_back(std::move(job));
            }
            if (rec)
                rec->count("seq.records", 2.0 * jobs.size());
        }
        if (!jobs.empty()) {
            const size_t n = jobs.size();
            ScopedSpan s(rec, "pipeline.submit", next_index);
            pending.push_back(
                {pipeline.submit(std::move(jobs)), Clock::now(), next_index});
            next_index += n;
        }
        while (!pending.empty() &&
               (pending.front().ticket->done() ||
                pending.size() > max_pending))
            retire();
    }
    while (!pending.empty())
        retire();
    out.seconds = secondsSince(t0);
    out.work = static_cast<double>(next_index);
    out.items = next_index;
    return out;
}

} // namespace

void
runAlignBatch(const Options &opt, Report &report)
{
    const host::BatchConfig cfg = alignConfig(opt);
    const int pairs = opt.scaled(kPairs, 2 * kChunk);
    const Inputs warm = makeInputs(opt, opt.seed ^ 0xa11a5eedULL,
                                   std::max(kChunk, pairs / 8), "warmup");
    const Inputs in = makeInputs(opt, opt.seed, pairs, "round");

    {
        Pipeline pipeline(cfg);
        alignRound(pipeline, warm, nullptr, {}, nullptr);
    }

    const auto sample = seededSample(in.jobs.size(), kGoldenSample, opt.seed);
    std::vector<Kept> kept;
    SpanRecorder rec;
    double hits = 0, lookups = 0, deadline_misses = 0;
    std::vector<double> setup;
    const RoundSeries rounds = runRounds(opt, report, 3, [&](bool traced) {
        setup.push_back(timeSetupBatch(
            kSetupBatch, [&] { return std::make_unique<Pipeline>(cfg); }));
        Pipeline pipeline(cfg);
        RoundOutcome o = alignRound(pipeline, in, traced ? &rec : nullptr,
                                    sample, kept.empty() ? &kept : nullptr);
        if (traced) {
            const auto cc = pipeline.cacheCounters();
            hits += static_cast<double>(cc.hits);
            lookups += static_cast<double>(cc.hits + cc.misses);
            deadline_misses += o.deadlineMisses;
        }
        return o;
    });

    const ref::MatrixAligner<K> golden(K::defaultParams(), cfg.bandWidth);
    size_t golden_bad = 0;
    for (const auto &k : kept) {
        if (!matchesGolden(golden, in.jobs[k.index], k.result, true)) {
            golden_bad++;
            report.fail(1, "align_batch pair " + std::to_string(k.index) +
                               " differs from the golden model");
        }
    }
    report.fact("golden_checked", static_cast<double>(kept.size()));
    report.fact("work_per_round", pairs);

    reportEndToEnd(report, rounds, median(setup), "pairs/s");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    report.set("accuracy_frac",
               kept.empty() ? 0
                            : 1.0 - static_cast<double>(golden_bad) /
                                        static_cast<double>(kept.size()),
               "frac");
    if (!opt.trace)
        return;

    const double traced_rounds = static_cast<double>(rounds.traced.size());
    const auto per_round = [&](double v) { return v / traced_rounds; };
    report.set("seq.parse_s", per_round(rec.selfSeconds("seq.parse")), "s");
    report.set("seq.records", per_round(rec.counter("seq.records")),
               "count");
    report.set("core.format_s", per_round(rec.selfSeconds("core.format")),
               "s");
    reportCallerSpans(report, rec, traced_rounds);
    report.set("pipeline.deadline_misses", per_round(deadline_misses),
               "count");
    report.set("pipeline.cache_hit_frac",
               lookups > 0 ? hits / lookups : 0, "frac");

    std::vector<int> sizes;
    for (int left = pairs; left > 0; left -= kChunk)
        sizes.push_back(std::min(left, kChunk));
    report.set("systolic.lane_fill_frac",
               computedLaneFill(sizes, cfg.nk, cfg.laneWidth), "frac");

    // Ladder: the engine alone on the round's first pairs.
    const std::vector<DnaJob> ladder_sample(
        in.jobs.begin(),
        in.jobs.begin() + std::min<size_t>(in.jobs.size(), 1024));
    const EngineLadder ladder =
        measureEngine<K>(ladder_sample, cfg, cfg.laneWidth, 0.3);
    double cells = 0;
    for (const auto &j : in.jobs)
        cells += static_cast<double>(jobCells(j));
    reportEngineLadder(report, ladder, cells);
    report.set("systolic.modeled_cycles",
               static_cast<double>(rounds.untraced.front().cycles),
               "cycles");
    const double e2e_cells =
        cells * medianThroughput(rounds.untraced) / pairs;
    report.set("pipeline.efficiency",
               e2e_cells / (cfg.threads * ladder.laneCellsPerSec), "frac");
    reportTraceOverhead(report, rounds);
    if (!rec.write(opt.workDir + "/trace_align_batch.json"))
        std::fprintf(stderr, "perfbench: cannot write the span trace\n");
}

} // namespace perfbench
