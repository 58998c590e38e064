#include "workloads/mixed_demo.hh"

#include <utility>

#include "host/latency_probe.hh"
#include "model/frequency_model.hh"
#include "seq/read_simulator.hh"
#include "seq/squiggle.hh"

namespace dphls::workloads {

MixedDemoConfig
MixedDemoConfig::makeDefault()
{
    MixedDemoConfig cfg;
    cfg.mapper.k = 13;
    cfg.mapper.window = 6;
    // Threshold between clean on-target warps (~2-3 per sample) and
    // random background (~12-22): half the squiggle reads are
    // background and should abandon.
    cfg.basecall.abandonPerSample = 8.0;
    cfg.basecall.minSamplesBeforeAbandon = 48;
    return cfg;
}

namespace {

/** Everything the three classes consume, all derived from cfg.seed. */
struct DemoInputs
{
    seq::DnaSequence genome;
    std::vector<seq::DnaSequence> shortReads;
    std::vector<int> trueLoci;
    seq::SignalSequence targetSignal;
    std::vector<std::vector<seq::SignalSequence>> squiggles;
    std::vector<std::vector<host::AlignmentJob<seq::DnaChar>>> bulk;
};

std::vector<seq::SignalSequence>
chunkSignal(const seq::SignalSequence &signal, int chunk)
{
    std::vector<seq::SignalSequence> out;
    for (int at = 0; at < signal.length(); at += chunk) {
        seq::SignalSequence c;
        const int end = std::min(signal.length(), at + chunk);
        c.chars.assign(signal.chars.begin() + at,
                       signal.chars.begin() + end);
        out.push_back(std::move(c));
    }
    return out;
}

DemoInputs
buildInputs(const MixedDemoConfig &cfg)
{
    seq::Rng rng(cfg.seed);
    DemoInputs in;
    in.genome = seq::makeReferenceGenome(cfg.genomeLength, rng);

    seq::ReadSimConfig rcfg;
    rcfg.readLength = cfg.shortReadLength;
    rcfg.errorRate = cfg.readErrorRate;
    for (int i = 0; i < cfg.shortReads; i++) {
        auto sim = seq::simulateRead(in.genome, rcfg, rng);
        in.shortReads.push_back(std::move(sim.read));
        in.trueLoci.push_back(sim.refStart);
    }

    // Squiggle class: a target stretch of the genome is the adaptive-
    // sampling reference; even reads come from it (on-target), odd
    // reads from an unrelated background sequence (should abandon).
    const seq::SquiggleConfig scfg;
    seq::DnaSequence target;
    target.chars.assign(in.genome.chars.begin(),
                        in.genome.chars.begin() + cfg.targetBases);
    in.targetSignal = seq::expectedSignal(target, scfg);
    const auto background = seq::randomDna(cfg.targetBases, rng);
    seq::SquiggleConfig qcfg = scfg;
    qcfg.meanDwell = 2.0; // keep full signals within the device window
    for (int i = 0; i < cfg.squiggleReads; i++) {
        const auto &origin = i % 2 == 0 ? target : background;
        const int span = cfg.squiggleBases;
        const int start = static_cast<int>(
            rng.below(static_cast<uint64_t>(
                std::max(1, origin.length() - span + 1))));
        seq::DnaSequence sub;
        sub.chars.assign(origin.chars.begin() + start,
                         origin.chars.begin() + start + span);
        in.squiggles.push_back(
            chunkSignal(seq::rawSignal(sub, qcfg, rng),
                        cfg.chunkSamples));
    }

    for (int b = 0; b < cfg.bulkBatches; b++) {
        std::vector<host::AlignmentJob<seq::DnaChar>> jobs;
        for (int j = 0; j < cfg.bulkBatchJobs; j++) {
            host::AlignmentJob<seq::DnaChar> job;
            job.query = seq::randomDna(cfg.bulkPairLength, rng);
            job.reference = seq::mutateDna(job.query, 0.06, 0.02, rng);
            jobs.push_back(std::move(job));
        }
        in.bulk.push_back(std::move(jobs));
    }
    return in;
}

host::BatchConfig
dnaConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 2;
    cfg.nk = 1; // one channel: classes genuinely contend
    cfg.threads = 1;
    cfg.maxQueryLength = 256;
    cfg.maxReferenceLength = 512;
    cfg.hostOverheadCycles = 0;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

host::BatchConfig
signalConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 4096; // full concatenated survivor signals
    cfg.maxReferenceLength = 1024;
    cfg.skipTraceback = true; // sDTW is score-only
    cfg.hostOverheadCycles = 0;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

} // namespace

MixedDemoResult
runMixedDemo(const MixedDemoConfig &cfg, bool concurrent)
{
    const DemoInputs in = buildInputs(cfg);
    MixedDemoResult out;
    out.trueLoci = in.trueLoci;

    ReadMapper mapper(in.genome, cfg.mapper);
    const StreamingBasecaller caller(in.targetSignal, cfg.basecall);

    if (!concurrent) {
        // Isolated legs: each class alone on fresh pipelines, in turn.
        {
            ReadMapper::Pipeline pipeline(dnaConfig());
            for (const auto &read : in.shortReads) {
                out.mappings.push_back(mapper.mapRead(pipeline, read));
                out.tickets++;
            }
        }
        {
            StreamingBasecaller::Pipeline pipeline(signalConfig());
            for (const auto &chunks : in.squiggles) {
                out.basecalls.push_back(caller.process(pipeline, chunks));
                if (!out.basecalls.back().abandoned)
                    out.tickets++;
            }
        }
        {
            ReadMapper::Pipeline pipeline(dnaConfig());
            for (const auto &jobs : in.bulk) {
                std::vector<ReadMapper::Result> results;
                pipeline.runAll(jobs, &results);
                std::vector<double> scores;
                for (const auto &r : results)
                    scores.push_back(r.scoreAsDouble());
                out.bulkScores.push_back(std::move(scores));
                out.tickets++;
            }
        }
        return out;
    }

    // Concurrent leg: queue the entire three-class backlog on paused
    // pipelines, release both, and let the priority scheduler decide.
    ReadMapper::Pipeline dna(dnaConfig());
    StreamingBasecaller::Pipeline signal(signalConfig());
    const double dna_fmax =
        model::kernelFrequencyMhz<ReadMapper::Kernel>();
    const double sig_fmax =
        model::kernelFrequencyMhz<StreamingBasecaller::Kernel>();
    auto dna_probe = std::make_shared<host::ClassLatencyProbe>(dna_fmax);
    auto sig_probe = std::make_shared<host::ClassLatencyProbe>(sig_fmax);
    dna.pause();
    signal.pause();

    // Bulk first into the queue: the scheduler, not submission order,
    // must be what gets the realtime/interactive classes ahead.
    std::vector<ReadMapper::Pipeline::Ticket> bulk_tickets;
    for (const auto &jobs : in.bulk) {
        host::TicketOptions topt;
        topt.tag = "bulk";
        bulk_tickets.push_back(dna.submit(
            jobs, std::move(topt),
            [dna_probe](host::BatchTicket<ReadMapper::Kernel> &t) {
                dna_probe->record(t.stats().makespanCycles,
                                  host::ClassLatencyProbe::Bulk);
            }));
        out.tickets++;
    }

    std::vector<ReadMapper::Pending> map_pendings;
    for (const auto &read : in.shortReads) {
        host::TicketOptions topt;
        topt.priority = cfg.interactivePriority;
        topt.tag = "map";
        map_pendings.push_back(mapper.submit(
            dna, read, std::move(topt),
            [dna_probe](host::BatchTicket<ReadMapper::Kernel> &t) {
                dna_probe->record(t.stats().makespanCycles,
                                  host::ClassLatencyProbe::Interactive);
            }));
        if (map_pendings.back().ticket)
            out.tickets++;
    }

    std::vector<StreamingBasecaller::Pending> call_pendings;
    for (const auto &chunks : in.squiggles) {
        call_pendings.push_back(caller.submit(
            signal, chunks,
            host::TicketOptions::afterMs(cfg.realtimePriority,
                                         cfg.realtimeDeadlineMs, "rt"),
            [sig_probe](host::BatchTicket<StreamingBasecaller::Kernel>
                            &t) {
                sig_probe->record(t.stats().makespanCycles,
                                  host::ClassLatencyProbe::Realtime);
            }));
        if (call_pendings.back().ticket)
            out.tickets++;
    }

    dna.resume();
    signal.resume();

    for (size_t i = 0; i < map_pendings.size(); i++)
        out.mappings.push_back(
            mapper.finish(in.shortReads[i], map_pendings[i]));
    for (const auto &pending : call_pendings)
        out.basecalls.push_back(caller.finish(pending));
    for (const auto &ticket : bulk_tickets) {
        ticket->wait();
        std::vector<double> scores;
        for (const auto &r : ticket->results())
            scores.push_back(r.scoreAsDouble());
        out.bulkScores.push_back(std::move(scores));
    }
    dna.drain();
    signal.drain();

    out.latencies.realtime = sig_probe->of(host::ClassLatencyProbe::Realtime);
    out.latencies.interactive =
        dna_probe->of(host::ClassLatencyProbe::Interactive);
    out.latencies.bulk = dna_probe->of(host::ClassLatencyProbe::Bulk);
    return out;
}

} // namespace dphls::workloads
