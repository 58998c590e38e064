/**
 * @file
 * map_reads: workloads::ReadMapper over a seeded genome with diverged
 * repeat families, with dphls_map's pipeline defaults.
 *
 * The genome is large enough that the minimizer index outgrows the
 * last-level cache, and its repeat families give some reads several
 * candidate windows. Short reads stream through submit()/finish() with
 * a window of reads in flight, so both channels stay busy; the few long
 * reads go through mapRead(), which tiles them on the caller thread;
 * the few unmappable reads must come back unmapped.
 */

#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness.hh"
#include "ladder.hh"
#include "model/frequency_model.hh"
#include "seq/read_simulator.hh"
#include "spans.hh"
#include "workloads/mapper.hh"

namespace perfbench {

namespace {

using workloads::ReadMapper;
using workloads::ReadMapping;
using Pipeline = ReadMapper::Pipeline;
using K = ReadMapper::Kernel;

constexpr int kGenomeBases = 8000000;
constexpr int kFamilies = 60;        //!< repeat families in the genome
constexpr int kReads = 3000;         //!< reads per round at scale 1
constexpr int kShortLength = 150;
constexpr int kLongLength = 3000;
constexpr double kErrorRate = 0.03;
constexpr double kLongShare = 0.005;
constexpr double kUnmappableShare = 0.02;
constexpr size_t kInFlight = 64;     //!< short reads kept in flight
constexpr int kSetupSamples = 5;    //!< index + pipeline builds per run
constexpr int kSetupEvery = 4;      //!< rounds between set-up samples
constexpr size_t kGoldenSample = 32;

/** dphls_map's pipeline defaults (two channels, one worker each). */
host::BatchConfig
mapConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nk = 2;
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = std::max(1024, 2 * kShortLength);
    cfg.hostOverheadCycles = 0;
    cfg.collectPathStats = false;
    return cfg;
}

enum class Kind : uint8_t
{
    Short,
    Long,
    Unmappable
};

struct Inputs
{
    std::vector<seq::DnaSequence> reads;
    std::vector<Kind> kinds;
    std::vector<int> origins; //!< simulated locus (mappable reads)
};

/** Random genome overwritten with diverged copies of repeat families. */
seq::DnaSequence
makeGenome(seq::Rng &rng, int length)
{
    seq::DnaSequence genome = seq::makeReferenceGenome(length, rng);
    for (int f = 0; f < kFamilies; f++) {
        const auto consensus =
            seq::randomDna(static_cast<int>(rng.range(400, 2000)), rng);
        const int copies = static_cast<int>(rng.range(4, 24));
        for (int c = 0; c < copies; c++) {
            const double divergence = 0.02 + 0.10 * rng.uniform();
            const auto copy = seq::mutateDna(consensus, 0.8 * divergence,
                                             0.2 * divergence, rng);
            const auto at = static_cast<long>(rng.below(
                static_cast<uint64_t>(length - copy.length())));
            std::copy(copy.chars.begin(), copy.chars.end(),
                      genome.chars.begin() + at);
        }
    }
    return genome;
}

void
addReads(Inputs &in, const seq::DnaSequence &genome, seq::Rng &rng,
         int count)
{
    seq::ReadSimConfig short_cfg;
    short_cfg.readLength = kShortLength;
    short_cfg.errorRate = kErrorRate;
    seq::ReadSimConfig long_cfg = short_cfg;
    long_cfg.readLength = kLongLength;
    // Exact shares: a draw per read would let the number of long reads,
    // each tiled on the caller, vary by a quarter from seed to seed.
    const std::vector<int> labels =
        seededLabels(count, {kUnmappableShare, kLongShare}, rng);
    for (const int label : labels) {
        if (label == 1) {
            in.reads.push_back(seq::randomDna(kShortLength, rng));
            in.kinds.push_back(Kind::Unmappable);
            in.origins.push_back(-1);
            continue;
        }
        const bool is_long = label == 2;
        auto sim =
            seq::simulateRead(genome, is_long ? long_cfg : short_cfg, rng);
        in.reads.push_back(std::move(sim.read));
        in.kinds.push_back(is_long ? Kind::Long : Kind::Short);
        in.origins.push_back(sim.refStart);
    }
}

/** Per-round tallies of the mapper's own counters. */
struct Tally
{
    double placed = 0;          //!< reads whose outcome matches origin
    double shortReads = 0;
    double candidates = 0;      //!< candidate windows of short reads
    double extensionJobs = 0;   //!< jobs submitted for short reads
    double mappedShort = 0;
    double cells = 0;           //!< DP cells of the extension jobs
    double longReads = 0;
};

/** A spot-check sample: extension jobs and their pipeline results. */
struct Kept
{
    std::vector<Pipeline::Job> jobs;
    std::vector<Pipeline::Result> results;
};

struct InFlight
{
    size_t index;
    ReadMapper::Pending pending;
    Clock::time_point submitted;
};

RoundOutcome
mapRound(ReadMapper &mapper, Pipeline &pipeline, const Inputs &in,
         SpanRecorder *rec, Tally &tally, const std::vector<size_t> &sample,
         std::vector<Kept> *kept)
{
    RoundOutcome out;
    const int max_q = pipeline.config().maxQueryLength;
    const int max_r = pipeline.config().maxReferenceLength;
    const int pad = mapper.config().windowPad;
    std::deque<InFlight> window;
    size_t sample_at = 0;

    const auto account = [&](size_t i, const ReadMapping &m,
                             Clock::time_point submitted) {
        out.latenciesMs.push_back(
            1e3 * std::chrono::duration<double>(Clock::now() - submitted)
                      .count());
        out.cycles += m.cycles;
        // Long reads finish between short ones in timing-dependent
        // order, so the round digest sums per-read digests.
        uint64_t h = fnvValue(kFnvBasis, i);
        h = fnvValue(h, m.mapped);
        h = fnvValue(h, m.refStart);
        h = fnvValue(h, m.refEnd);
        h = fnvValue(h, m.score);
        h = fnvValue(h, m.secondScore);
        h = fnvValue(h, m.mapq);
        h = fnvValue(h, m.cycles);
        h = fnvValue(h, m.candidates);
        out.checksum += fnv(h, m.ops.data(), m.ops.size());
        const bool placed =
            in.kinds[i] == Kind::Unmappable
                ? !m.mapped
                : m.mapped && std::abs(m.refStart - in.origins[i]) <= pad;
        tally.placed += placed ? 1 : 0;
    };

    const auto retire = [&]() {
        InFlight f = std::move(window.front());
        window.pop_front();
        if (f.pending.ticket) {
            ScopedSpan s(rec, "pipeline.wait", f.index);
            f.pending.ticket->wait();
        }
        ReadMapping m;
        {
            ScopedSpan s(rec, "mapper.finish", f.index);
            m = mapper.finish(in.reads[f.index], f.pending);
        }
        tally.shortReads++;
        tally.candidates += m.candidates;
        tally.mappedShort += m.mapped ? 1 : 0;
        if (f.pending.ticket) {
            const auto &jobs = f.pending.ticket->jobs();
            tally.extensionJobs += static_cast<double>(jobs.size());
            for (const auto &j : jobs)
                tally.cells += static_cast<double>(jobCells(j));
            if (kept && sample_at < sample.size() &&
                sample[sample_at] <= f.index) {
                kept->push_back({jobs, f.pending.ticket->results()});
                sample_at++;
            }
        }
        account(f.index, m, f.submitted);
    };

    ScopedSpan root(rec, "round");
    const auto t0 = Clock::now();
    for (size_t i = 0; i < in.reads.size(); i++) {
        const auto &read = in.reads[i];
        const auto submitted = Clock::now();
        if (in.kinds[i] == Kind::Long) {
            // Long reads tile synchronously on the caller, as in dphls_map.
            tally.longReads++;
            ReadMapping m;
            if (rec) {
                workloads::MapPlan plan;
                {
                    ScopedSpan s(rec, "mapper.plan", i);
                    plan = mapper.plan(read, max_q, max_r);
                }
                ScopedSpan s(rec, "tiling", i);
                m = mapper.mapLong(read, plan);
            } else {
                m = mapper.mapRead(pipeline, read);
            }
            account(i, m, submitted);
            continue;
        }
        InFlight f{i, {}, submitted};
        if (rec) {
            // submit() unrolled into its steps so each gets a span.
            std::vector<Pipeline::Job> jobs;
            {
                ScopedSpan s(rec, "mapper.plan", i);
                f.pending.plan = mapper.plan(read, max_q, max_r);
                jobs = mapper.extensionJobs(read, f.pending.plan);
            }
            if (!jobs.empty()) {
                ScopedSpan s(rec, "pipeline.submit", i);
                f.pending.ticket = pipeline.submit(std::move(jobs));
            }
        } else {
            f.pending = mapper.submit(pipeline, read);
        }
        window.push_back(std::move(f));
        while (!window.empty() &&
               (!window.front().pending.ticket ||
                window.front().pending.ticket->done() ||
                window.size() > kInFlight))
            retire();
    }
    while (!window.empty())
        retire();
    out.seconds = secondsSince(t0);
    out.work = static_cast<double>(in.reads.size());
    out.items = in.reads.size();
    return out;
}

/**
 * Seconds to build the index and then the pipeline (index alone, then
 * both), timed in a forked child. Call only while this process runs a
 * single thread.
 */
std::pair<double, double>
timeSetupInChild(const seq::DnaSequence &genome, const host::BatchConfig &cfg)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        double times[2] = {0, 0};
        {
            const auto t0 = Clock::now();
            const ReadMapper mapper(genome);
            times[0] = secondsSince(t0);
            const Pipeline pipeline(cfg);
            times[1] = secondsSince(t0);
        }
        const bool ok = write(fds[1], times, sizeof(times)) ==
                        static_cast<ssize_t>(sizeof(times));
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double times[2] = {0, 0};
    const bool got = read(fds[0], times, sizeof(times)) ==
                     static_cast<ssize_t>(sizeof(times));
    close(fds[0]);
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
    if (!got || !reaped)
        throw std::runtime_error("set-up child failed");
    return {times[0], times[1]};
}

} // namespace

void
runMapReads(const Options &opt, Report &report)
{
    const host::BatchConfig cfg = mapConfig();
    seq::Rng rng(opt.seed);
    const seq::DnaSequence genome =
        makeGenome(rng, opt.scaled(kGenomeBases, 200000));
    Inputs in, warm;
    seq::Rng warm_rng(opt.seed ^ 0x3a95eedULL);
    addReads(warm, genome, warm_rng, opt.scaled(kReads / 4, 50));
    addReads(in, genome, rng, opt.scaled(kReads, 200));

    ReadMapper mapper(genome);
    Tally warm_tally;
    {
        Pipeline pipeline(cfg);
        mapRound(mapper, pipeline, warm, nullptr, warm_tally, {}, nullptr);
    }

    const auto sample = seededSample(in.reads.size(), kGoldenSample, opt.seed);
    std::vector<Kept> kept;
    SpanRecorder rec;
    Tally first, traced;
    bool have_first = false;
    // Set-up: index build plus pipeline, sampled every few rounds while
    // no pipeline runs, each in a forked child: a rebuild in this process
    // would start from the heap the last build left behind, and this
    // process's high-water mark would depend on that.
    std::vector<double> setup, index;
    int round_index = 0;
    const RoundSeries rounds = runRounds(opt, report, 3, [&](bool tr) {
        if (round_index++ % kSetupEvery == 0 &&
            setup.size() < static_cast<size_t>(kSetupSamples)) {
            const auto [index_s, setup_s] = timeSetupInChild(genome, cfg);
            index.push_back(index_s);
            setup.push_back(setup_s);
        }
        Pipeline pipeline(cfg);
        Tally t;
        RoundOutcome o = mapRound(mapper, pipeline, in, tr ? &rec : nullptr,
                                  t, sample, have_first ? nullptr : &kept);
        if (!have_first) {
            first = t;
            have_first = true;
        }
        if (tr)
            traced = t;
        return o;
    });

    const ref::MatrixAligner<K> golden(K::defaultParams(), cfg.bandWidth);
    size_t checked = 0;
    for (const auto &k : kept) {
        for (size_t j = 0; j < k.jobs.size(); j++) {
            checked++;
            if (!matchesGolden(golden, k.jobs[j], k.results[j], true))
                report.fail(1, "map_reads extension differs from the "
                               "golden model");
        }
    }
    report.fact("golden_checked", static_cast<double>(checked));
    report.fact("work_per_round", static_cast<double>(in.reads.size()));
    report.fact("genome_bases", genome.length());
    report.fact("index_minimizers",
                static_cast<double>(mapper.index().distinctMinimizers()));

    reportEndToEnd(report, rounds, median(setup), "reads/s");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    report.set("accuracy_frac",
               first.placed / static_cast<double>(in.reads.size()), "frac");
    if (!opt.trace)
        return;

    const double n = static_cast<double>(rounds.traced.size());
    const auto per_round = [&](double v) { return v / n; };
    report.set("mapper.index_s", median(index), "s");
    report.set("mapper.plan_s", per_round(rec.selfSeconds("mapper.plan")),
               "s");
    report.set("mapper.finish_s",
               per_round(rec.selfSeconds("mapper.finish")), "s");
    report.set("mapper.candidates_per_read",
               traced.candidates / std::max(1.0, traced.shortReads),
               "count");
    report.set("mapper.useful_ext_frac",
               traced.mappedShort / std::max(1.0, traced.extensionJobs),
               "frac");
    report.set("tiling.busy_s", per_round(rec.selfSeconds("tiling")), "s");
    report.set("tiling.reads", traced.longReads, "count");
    reportCallerSpans(report, rec, n);
    report.set("systolic.lane_fill_frac", 1.0, "frac"); // laneWidth 1

    // Ladder on the extension jobs of the first reads of the round.
    std::vector<Pipeline::Job> ladder_sample;
    for (size_t i = 0; i < in.reads.size() && ladder_sample.size() < 512;
         i++) {
        if (in.kinds[i] != Kind::Short)
            continue;
        const auto plan = mapper.plan(in.reads[i], cfg.maxQueryLength,
                                       cfg.maxReferenceLength);
        for (auto &j : mapper.extensionJobs(in.reads[i], plan))
            ladder_sample.push_back(std::move(j));
    }
    const EngineLadder ladder =
        measureEngine<K>(ladder_sample, cfg, kLadderLanes, 0.3);
    reportEngineLadder(report, ladder, traced.cells);
    report.set("systolic.modeled_cycles",
               static_cast<double>(rounds.untraced.front().cycles),
               "cycles");
    const double e2e_cells = traced.cells *
                             medianThroughput(rounds.untraced) /
                             static_cast<double>(in.reads.size());
    const int workers = std::min(cfg.nk, std::max(1, cfg.threads > 0
                                                         ? cfg.threads
                                                         : cfg.nk));
    report.set("pipeline.efficiency",
               e2e_cells / (workers * ladder.scalarCellsPerSec), "frac");
    reportTraceOverhead(report, rounds);
    if (!rec.write(opt.workDir + "/trace_map_reads.json"))
        std::fprintf(stderr, "perfbench: cannot write the span trace\n");
}

} // namespace perfbench
