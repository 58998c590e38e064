/**
 * @file
 * basecall_stream: framed chunk-stream bytes of simulated squiggle
 * reads, mostly off-target as in adaptive sampling. Each stream segment
 * interleaves the chunks of a group of reads, as pores deliver them; it
 * is decoded with workloads::chunk_io, every read is classified by
 * StreamingBasecaller with early abandon on the caller thread, and the
 * survivors are scored as Sdtw device tickets with reads kept in
 * flight. The device score of every survivor must equal its host
 * streaming score.
 */

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"
#include "ladder.hh"
#include "model/frequency_model.hh"
#include "seq/read_simulator.hh"
#include "seq/squiggle.hh"
#include "spans.hh"
#include "workloads/basecaller.hh"
#include "workloads/chunk_io.hh"

namespace perfbench {

namespace {

using workloads::ReadOutcome;
using workloads::StreamingBasecaller;
using Pipeline = StreamingBasecaller::Pipeline;
using K = StreamingBasecaller::Kernel;

constexpr int kReads = 2000;        //!< reads per round at scale 1
constexpr double kOnTargetShare = 0.1;
constexpr int kTargetBases = 1000;  //!< adaptive-sampling target
constexpr int kReadBases = 400;     //!< DNA behind each read's signal
constexpr int kChunkSamples = 64;
constexpr int kReadsPerSegment = 32; //!< reads interleaved per segment
constexpr size_t kInFlight = 64;    //!< survivors kept in flight
constexpr int kSetupBatch = 8; //!< set-ups per sample
constexpr size_t kGoldenSample = 8;

/** The mixed demo's signal pipeline, workers capped to the budget. */
host::BatchConfig
signalConfig(const Options &opt)
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.threads = opt.workers();
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.maxQueryLength = 4096;
    cfg.maxReferenceLength = 1024;
    cfg.skipTraceback = true; // sDTW is score-only
    cfg.hostOverheadCycles = 0;
    cfg.collectPathStats = false;
    return cfg;
}

/** The mixed demo's classification thresholds. */
workloads::BasecallConfig
basecallConfig()
{
    workloads::BasecallConfig cfg;
    cfg.abandonPerSample = 8.0;
    cfg.minSamplesBeforeAbandon = 48;
    return cfg;
}

struct Inputs
{
    seq::SignalSequence target;
    std::vector<std::vector<uint8_t>> segments; //!< encoded chunk streams
    std::vector<uint8_t> onTarget;              //!< origin, by read id
    double samples = 0;                         //!< all samples, all reads
};

Inputs
makeInputs(uint64_t seed, int reads)
{
    seq::Rng rng(seed);
    Inputs in;
    const seq::SquiggleConfig scfg;
    const auto target_dna = seq::randomDna(kTargetBases, rng);
    const auto background = seq::randomDna(20 * kTargetBases, rng);
    in.target = seq::expectedSignal(target_dna, scfg);
    seq::SquiggleConfig qcfg = scfg;
    qcfg.meanDwell = 2.0; // full signals stay within the device window
    // Exact share: on-target reads are fed in full on the caller, so
    // their number sets most of a round's work.
    const std::vector<int> on_target =
        seededLabels(reads, {kOnTargetShare}, rng);

    for (int first = 0; first < reads; first += kReadsPerSegment) {
        const int count = std::min(kReadsPerSegment, reads - first);
        std::vector<std::vector<workloads::SignalChunk>> per_read;
        for (int r = 0; r < count; r++) {
            const bool on = on_target[static_cast<size_t>(first + r)] != 0;
            const auto &origin = on ? target_dna : background;
            const int start = static_cast<int>(rng.below(
                static_cast<uint64_t>(origin.length() - kReadBases + 1)));
            seq::DnaSequence sub;
            sub.chars.assign(origin.chars.begin() + start,
                             origin.chars.begin() + start + kReadBases);
            const auto signal = seq::rawSignal(sub, qcfg, rng);
            const auto id = static_cast<uint32_t>(first + r);
            in.onTarget.push_back(on ? 1 : 0);
            in.samples += signal.length();
            std::vector<workloads::SignalChunk> chunks;
            for (int at = 0; at < signal.length(); at += kChunkSamples) {
                workloads::SignalChunk c;
                c.readId = id;
                const int end = std::min(signal.length(), at + kChunkSamples);
                c.last = end == signal.length();
                c.samples.chars.assign(signal.chars.begin() + at,
                                       signal.chars.begin() + end);
                chunks.push_back(std::move(c));
            }
            per_read.push_back(std::move(chunks));
        }
        // Interleave the group's chunks round-robin, one per pore turn.
        std::vector<workloads::SignalChunk> stream;
        for (size_t turn = 0;; turn++) {
            bool any = false;
            for (auto &chunks : per_read) {
                if (turn < chunks.size()) {
                    stream.push_back(std::move(chunks[turn]));
                    any = true;
                }
            }
            if (!any)
                break;
        }
        in.segments.push_back(workloads::encodeChunkStream(stream));
    }
    return in;
}

struct Tally
{
    double abandoned = 0;
    double samplesFed = 0;
    double correctCalls = 0;
    double survivorCells = 0;
};

/** A spot-check sample: a survivor's device job and score. */
struct Kept
{
    Pipeline::Job job;
    int32_t deviceScore;
};

struct InFlight
{
    uint32_t readId;
    StreamingBasecaller::Pending pending;
};

RoundOutcome
basecallRound(const StreamingBasecaller &caller, Pipeline &pipeline,
              const Inputs &in, SpanRecorder *rec, Tally &tally,
              Report &report, std::vector<Kept> *kept)
{
    RoundOutcome out;
    std::deque<InFlight> window;

    const auto retire = [&]() {
        InFlight f = std::move(window.front());
        window.pop_front();
        if (f.pending.ticket) {
            ScopedSpan s(rec, "pipeline.wait", f.readId);
            f.pending.ticket->wait();
        }
        const ReadOutcome o = caller.finish(f.pending);
        out.cycles += o.deviceCycles;
        uint64_t h = fnvValue(kFnvBasis, f.readId);
        h = fnvValue(h, o.abandoned);
        h = fnvValue(h, o.samplesConsumed);
        h = fnvValue(h, o.hostScore);
        h = fnvValue(h, o.deviceScored);
        h = fnvValue(h, o.deviceScore);
        h = fnvValue(h, o.deviceCycles);
        out.checksum += fnvValue(h, o.onTarget);
        tally.abandoned += o.abandoned ? 1 : 0;
        tally.samplesFed += o.samplesConsumed;
        tally.correctCalls +=
            o.onTarget == (in.onTarget[f.readId] != 0) ? 1 : 0;
        if (f.pending.ticket) {
            const auto &job = f.pending.ticket->jobs()[0];
            tally.survivorCells += static_cast<double>(jobCells(job));
            if (!o.deviceScored || o.deviceScore != o.hostScore)
                report.fail(1, "read " + std::to_string(f.readId) +
                                   ": device score differs from the host "
                                   "stream score");
            if (kept && kept->size() < kGoldenSample)
                kept->push_back({job, o.deviceScore});
        }
    };

    ScopedSpan root(rec, "round");
    const auto t0 = Clock::now();
    for (const auto &bytes : in.segments) {
        // A read's latency runs from its segment's arrival to the
        // eject-or-keep decision: the delay adaptive sampling cares
        // about. Device scoring of survivors is throughput, not latency.
        const auto arrived = Clock::now();
        std::vector<std::pair<uint32_t, std::vector<seq::SignalSequence>>>
            reads;
        {
            ScopedSpan s(rec, "chunk_io.decode");
            reads = workloads::groupChunksByRead(
                workloads::decodeChunkStream(bytes));
        }
        for (const auto &[id, chunks] : reads) {
            InFlight f{id, {}};
            if (rec) {
                // submit() unrolled into its steps so each gets a span.
                {
                    ScopedSpan s(rec, "basecaller.classify", id);
                    f.pending.outcome = caller.classify(chunks);
                }
                if (!f.pending.outcome.abandoned) {
                    ScopedSpan s(rec, "pipeline.submit", id);
                    Pipeline::Job job;
                    for (const auto &c : chunks)
                        job.query.chars.insert(job.query.chars.end(),
                                               c.chars.begin(),
                                               c.chars.end());
                    job.reference = caller.target();
                    std::vector<Pipeline::Job> jobs;
                    jobs.push_back(std::move(job));
                    f.pending.ticket = pipeline.submit(std::move(jobs));
                }
            } else {
                f.pending = caller.submit(pipeline, chunks);
            }
            out.latenciesMs.push_back(
                1e3 *
                std::chrono::duration<double>(Clock::now() - arrived).count());
            window.push_back(std::move(f));
            while (!window.empty() &&
                   (!window.front().pending.ticket ||
                    window.front().pending.ticket->done() ||
                    window.size() > kInFlight))
                retire();
        }
    }
    while (!window.empty())
        retire();
    out.seconds = secondsSince(t0);
    out.work = in.samples;
    out.items = in.onTarget.size();
    return out;
}

} // namespace

void
runBasecallStream(const Options &opt, Report &report)
{
    const host::BatchConfig cfg = signalConfig(opt);
    const Inputs warm = makeInputs(opt.seed ^ 0xb45ec411ULL,
                                   opt.scaled(kReads / 4, kReadsPerSegment));
    const Inputs in = makeInputs(opt.seed, opt.scaled(kReads, 64));

    const StreamingBasecaller warm_caller(warm.target, basecallConfig());
    {
        Pipeline pipeline(cfg);
        Tally t;
        basecallRound(warm_caller, pipeline, warm, nullptr, t, report,
                      nullptr);
    }

    const StreamingBasecaller caller(in.target, basecallConfig());
    std::vector<Kept> kept;
    SpanRecorder rec;
    Tally first, traced;
    bool have_first = false;
    // Set-up: the target signal's classifier plus the pipeline.
    std::vector<double> setup;
    const RoundSeries rounds = runRounds(opt, report, 3, [&](bool tr) {
        setup.push_back(timeSetupBatch(kSetupBatch, [&] {
            return std::pair{
                std::make_unique<StreamingBasecaller>(in.target,
                                                      basecallConfig()),
                std::make_unique<Pipeline>(cfg)};
        }));
        Pipeline pipeline(cfg);
        Tally t;
        RoundOutcome o = basecallRound(caller, pipeline, in,
                                       tr ? &rec : nullptr, t, report,
                                       have_first ? nullptr : &kept);
        if (!have_first) {
            first = t;
            have_first = true;
        }
        if (tr)
            traced = t;
        return o;
    });

    const ref::MatrixAligner<K> golden(K::defaultParams(), cfg.bandWidth);
    for (const auto &k : kept) {
        if (golden.align(k.job.query, k.job.reference).score != k.deviceScore)
            report.fail(1, "basecall survivor differs from the golden model");
    }
    const double reads = static_cast<double>(in.onTarget.size());
    report.fact("golden_checked", static_cast<double>(kept.size()));
    report.fact("work_per_round", in.samples);
    report.fact("reads_per_round", reads);

    reportEndToEnd(report, rounds, median(setup), "samples/s");
    report.set("peak_rss_mb", peakRssMb(), "MiB");
    report.set("accuracy_frac", first.correctCalls / reads, "frac");
    if (!opt.trace)
        return;

    const double n = static_cast<double>(rounds.traced.size());
    const auto per_round = [&](double v) { return v / n; };
    report.set("chunk_io.decode_s",
               per_round(rec.selfSeconds("chunk_io.decode")), "s");
    report.set("basecaller.classify_s",
               per_round(rec.selfSeconds("basecaller.classify")), "s");
    report.set("basecaller.abandon_frac", traced.abandoned / reads, "frac");
    report.set("basecaller.samples_skipped_frac",
               1.0 - traced.samplesFed / in.samples, "frac");
    report.set("basecaller.device_wait_s",
               per_round(rec.selfSeconds("pipeline.wait")), "s");
    reportCallerSpans(report, rec, n);
    report.set("systolic.lane_fill_frac", 1.0, "frac"); // laneWidth 1

    // Ladder on the survivors' device jobs.
    std::vector<Pipeline::Job> sample;
    for (const auto &k : kept)
        sample.push_back(k.job);
    const EngineLadder ladder =
        measureEngine<K>(sample, cfg, kLadderLanes, 0.3);
    reportEngineLadder(report, ladder, traced.survivorCells);
    report.set("systolic.modeled_cycles",
               static_cast<double>(rounds.untraced.front().cycles),
               "cycles");
    const double e2e_cells =
        traced.survivorCells * medianThroughput(rounds.untraced) / in.samples;
    report.set("pipeline.efficiency",
               e2e_cells / (cfg.threads * ladder.scalarCellsPerSec), "frac");
    reportTraceOverhead(report, rounds);
    if (!rec.write(opt.workDir + "/trace_basecall_stream.json"))
        std::fprintf(stderr, "perfbench: cannot write the span trace\n");
}

} // namespace perfbench
