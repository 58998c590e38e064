/**
 * @file
 * serve_load: the shipped dphls_serve daemon on a Unix socket, running
 * global-affine on align_batch's pair shape.
 *
 * One generator drives it over one connection as a closed loop: a
 * sender thread keeps a fixed window of requests outstanding and the
 * calling thread receives, so a slower daemon receives less load and
 * its latency is measured at capacity instead of as an open-loop queue
 * that grows. The request sequence is fixed and seeded: 1, 4, 16 or 64
 * pairs each, a share of them interactive with a generous deadline so
 * admission and priority ordering run without rejecting anything.
 */

#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness.hh"
#include "host/stream_pipeline.hh"
#include "kernels/global_affine.hh"
#include "ladder.hh"
#include "model/frequency_model.hh"
#include "pairs.hh"
#include "serve/socket_io.hh"
#include "spans.hh"

extern char **environ;

namespace perfbench {

namespace {

using K = kernels::GlobalAffine;

constexpr int kRequests = 2000;     //!< requests per round at scale 1
constexpr int kSizes[] = {1, 4, 16, 64};
constexpr double kInteractiveShare = 0.25;
constexpr uint64_t kDeadlineMicros = 10'000'000; //!< generous: 10 s
constexpr size_t kWindow = 16;      //!< outstanding requests
constexpr int kPoolPairs = 4096;    //!< distinct pairs requests draw on
constexpr int kGoldenEvery = 50;    //!< spot-check one job per N requests
constexpr int kInteractivePriority = 10; //!< dphls_serve's default
constexpr int kAgingEvery = 16;          //!< dphls_serve's default

struct Request
{
    serve::AlignRequest wire;
    std::vector<DnaJob> jobs; //!< the same pairs, decoded
};

std::vector<uint8_t>
codes(const seq::DnaSequence &s)
{
    std::vector<uint8_t> out;
    out.reserve(s.chars.size());
    for (const auto &c : s.chars)
        out.push_back(c.code);
    return out;
}

std::vector<Request>
makeRequests(uint64_t seed, int count)
{
    seq::Rng rng(seed);
    std::vector<DnaJob> pool;
    for (int i = 0; i < kPoolPairs; i++)
        pool.push_back(shortReadPair(rng));
    // Exact shares of each size and class, in seeded order.
    const std::vector<int> sizes =
        seededLabels(count, {0.25, 0.25, 0.25}, rng);
    const std::vector<int> classes =
        seededLabels(count, {kInteractiveShare}, rng);
    std::vector<Request> out;
    for (int i = 0; i < count; i++) {
        Request r;
        const auto at = static_cast<size_t>(i);
        const int size = kSizes[sizes[at]];
        const bool interactive = classes[at] != 0;
        r.wire.trafficClass = interactive ? serve::TrafficClass::Interactive
                                          : serve::TrafficClass::Bulk;
        r.wire.deadlineMicros = interactive ? kDeadlineMicros : 0;
        r.wire.tenant = interactive ? "interactive" : "bulk";
        for (int j = 0; j < size; j++) {
            const DnaJob &p = pool[rng.below(pool.size())];
            r.jobs.push_back(p);
            r.wire.jobs.push_back({codes(p.query), codes(p.reference)});
        }
        out.push_back(std::move(r));
    }
    return out;
}

/** One spawned dphls_serve process and the generator's connection. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &socket_path)
        : _socket(socket_path)
    {
        const std::string threads = std::to_string(opt.nproc);
        std::vector<std::string> args = {opt.serveBin, "--socket", _socket,
                                         "--kernel", "global-affine",
                                         "--threads", threads};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        const std::string log = opt.workDir + "/serve.log";
        posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
        const int rc = posix_spawn(&_pid, opt.serveBin.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            _pid = -1;
            throw std::runtime_error("cannot spawn " + opt.serveBin);
        }
        try {
            handshake();
        } catch (...) {
            stop();
            throw;
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int fd() const { return _conn.get(); }

    /** The daemon's resident high-water mark in MiB (0 if unreadable). */
    double
    peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(_pid) + "/status");
        std::string key;
        while (f >> key) {
            if (key == "VmHWM:") {
                double kib = 0;
                f >> kib;
                return kib / 1024.0;
            }
        }
        return 0;
    }

    /** Shutdown frame, then reap; true when the daemon exited 0. */
    bool
    shutdown()
    {
        serve::Frame frame;
        const bool acked =
            serve::writeFrame(_conn.get(), serve::MsgType::Shutdown, 0, {}) &&
            serve::readFrame(_conn.get(), frame) &&
            frame.type() == serve::MsgType::ShutdownOk;
        _conn.reset();
        int status = 0;
        const pid_t pid = _pid;
        _pid = -1;
        if (waitpid(pid, &status, 0) != pid)
            return false;
        return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    /** Connect once the daemon listens, then Hello -> HelloOk. */
    void
    handshake()
    {
        const auto t0 = Clock::now();
        while (!(_conn = serve::unixConnect(_socket)).valid()) {
            int status = 0;
            if (waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                throw std::runtime_error("dphls_serve exited at start-up");
            }
            if (secondsSince(t0) > 30)
                throw std::runtime_error("dphls_serve did not listen");
            usleep(50);
        }
        serve::Frame frame;
        if (!serve::writeFrame(_conn.get(), serve::MsgType::Hello, 0,
                               serve::encodeHello("global-affine")) ||
            !serve::readFrame(_conn.get(), frame) ||
            frame.type() != serve::MsgType::HelloOk)
            throw std::runtime_error("dphls_serve handshake failed");
    }

    /** Terminate and reap a daemon still running (error paths). */
    void
    stop()
    {
        _conn.reset();
        if (_pid > 0) {
            kill(_pid, SIGTERM);
            int status = 0;
            waitpid(_pid, &status, 0);
            _pid = -1;
        }
    }

    std::string _socket;
    pid_t _pid = -1;
    serve::Fd _conn;
};

/** A spot-check sample: request index and its first job's result. */
struct Kept
{
    size_t request;
    serve::WireJobResult result;
};

/** Client-side bytes and pairs of the traced rounds. */
struct Traffic
{
    double bytes = 0;
    double pairs = 0;
};

/**
 * One closed-loop round over @p fd: the sender thread keeps kWindow
 * requests outstanding, this thread receives and checks responses.
 */
RoundOutcome
serveRound(int fd, const std::vector<Request> &reqs, SpanRecorder *send_rec,
           SpanRecorder *recv_rec, Traffic *traffic, Report &report,
           std::vector<Kept> *kept)
{
    RoundOutcome out;
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    bool stop = false; //!< receiver gave up: the sender must not wait
    bool send_failed = false;
    std::vector<Clock::time_point> sent(reqs.size());
    double sent_bytes = 0;

    const auto t0 = Clock::now();
    std::thread sender([&] {
        ScopedSpan root(send_rec, "round");
        for (size_t i = 0; i < reqs.size(); i++) {
            {
                ScopedSpan s(send_rec, "serve.window_wait", i);
                std::unique_lock lk(mu);
                cv.wait(lk, [&] { return stop || outstanding < kWindow; });
                if (stop)
                    return;
                outstanding++;
                sent[i] = Clock::now();
            }
            std::vector<uint8_t> payload;
            {
                ScopedSpan s(send_rec, "serve.encode", i);
                payload = serve::encodeAlignRequest(reqs[i].wire);
            }
            sent_bytes += static_cast<double>(serve::kFrameHeaderBytes +
                                              payload.size());
            ScopedSpan s(send_rec, "pipeline.submit", i);
            // Request ids are 1-based; 0 tags the control frames.
            if (!serve::writeFrame(fd, serve::MsgType::Align, i + 1,
                                   payload)) {
                std::lock_guard lk(mu);
                send_failed = true;
                return;
            }
        }
    });

    ScopedSpan root(recv_rec, "round");
    size_t received = 0;
    double recv_bytes = 0;
    for (; received < reqs.size(); received++) {
        serve::Frame frame;
        bool ok = false;
        {
            ScopedSpan s(recv_rec, "pipeline.wait", received);
            ok = serve::readFrame(fd, frame);
        }
        const uint64_t i = frame.requestId() - 1;
        if (!ok || frame.requestId() == 0 || i >= reqs.size())
            break;
        const auto now = Clock::now();
        recv_bytes += static_cast<double>(serve::kFrameHeaderBytes +
                                          frame.payload.size());
        if (frame.type() != serve::MsgType::AlignOk) {
            report.fail(1, "serve_load: request " + std::to_string(i) +
                               " answered with message type " +
                               std::to_string(frame.header.type));
        } else {
            serve::AlignResponse res;
            {
                ScopedSpan s(recv_rec, "serve.decode", i);
                res = serve::decodeAlignResponse(frame);
            }
            const Request &req = reqs[i];
            bool complete = res.results.size() == req.jobs.size();
            uint64_t h = fnvValue(kFnvBasis, i);
            for (const auto &jr : res.results) {
                complete = complete && jr.completed;
                h = fnvValue(h, jr.score);
                h = fnvValue(h, jr.cycles);
                h = fnv(h, jr.runs.data(), jr.runs.size() * sizeof(uint32_t));
            }
            if (!complete || res.deadlineMissed)
                report.fail(1, "serve_load: request " + std::to_string(i) +
                                   " incomplete or late");
            out.checksum += h;
            out.cycles += res.totalCycles;
            if (kept && i % kGoldenEvery == 0 && !res.results.empty())
                kept->push_back({i, res.results[0]});
        }
        {
            std::lock_guard lk(mu);
            out.latenciesMs.push_back(
                1e3 * std::chrono::duration<double>(now - sent[i]).count());
            outstanding--;
        }
        cv.notify_one();
    }
    {
        std::lock_guard lk(mu);
        stop = true;
    }
    cv.notify_one();
    sender.join();
    out.seconds = secondsSince(t0);
    if (received < reqs.size() || send_failed)
        report.fail(reqs.size() - received,
                    "serve_load: connection lost mid-round");
    for (const auto &r : reqs)
        out.work += static_cast<double>(r.jobs.size());
    out.items = reqs.size();
    if (traffic) {
        traffic->bytes += sent_bytes + recv_bytes;
        traffic->pairs += out.work;
    }
    return out;
}

/** The daemon's pipeline configuration, for the in-process rung. */
host::BatchConfig
daemonConfig(const Options &opt)
{
    host::BatchConfig cfg;
    cfg.npe = 32;
    cfg.nb = 1;
    cfg.nk = 4;
    cfg.threads = opt.nproc;
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.bandWidth = 64;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = 8;
    cfg.dispatch = host::DispatchPolicy::CostModel;
    cfg.agingEvery = kAgingEvery;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

/**
 * The same closed loop in process: tickets straight into a pipeline
 * configured like the daemon's, no socket, protocol or admission.
 * Returns the median pairs per second of @p reps passes.
 */
double
inProcessPairsPerSec(const Options &opt, const std::vector<Request> &reqs,
                     int reps)
{
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    // Declared after what its callbacks touch: destroyed (drained) first.
    host::StreamPipeline<K> pipeline(daemonConfig(opt));
    double pairs = 0;
    for (const auto &r : reqs)
        pairs += static_cast<double>(r.jobs.size());
    std::vector<double> rates;
    for (int rep = 0; rep < reps; rep++) {
        const auto t0 = Clock::now();
        for (const auto &r : reqs) {
            {
                std::unique_lock lk(mu);
                cv.wait(lk, [&] { return outstanding < kWindow; });
                outstanding++;
            }
            host::TicketOptions topt;
            if (r.wire.deadlineMicros > 0) {
                topt = host::TicketOptions::afterMs(
                    kInteractivePriority,
                    static_cast<double>(r.wire.deadlineMicros) * 1e-3);
            }
            pipeline.submit(r.jobs, std::move(topt),
                            [&](host::BatchTicket<K> &) {
                                std::lock_guard lk(mu);
                                outstanding--;
                                cv.notify_one();
                            });
        }
        {
            std::unique_lock lk(mu);
            cv.wait(lk, [&] { return outstanding == 0; });
        }
        rates.push_back(pairs / secondsSince(t0));
        pipeline.drain();
    }
    return median(rates);
}

} // namespace

void
runServeLoad(const Options &opt, Report &report)
{
    if (opt.serveBin.empty())
        throw std::runtime_error("serve_load needs --serve-bin");
    std::signal(SIGPIPE, SIG_IGN);
    const std::vector<Request> warm =
        makeRequests(opt.seed ^ 0x5e77e5eedULL, opt.scaled(kRequests / 4, 8));
    const std::vector<Request> reqs =
        makeRequests(opt.seed, opt.scaled(kRequests, 32));
    const std::string sock_prefix =
        opt.workDir + "/serve-" + std::to_string(getpid()) + "-";

    // Every round gets a fresh daemon, as every in-process round gets a
    // fresh pipeline: its spawn-to-HelloOk time is a set-up sample, its
    // resident high-water mark a memory sample, and its Stats frame the
    // round's accounting check (closed, nothing rejected or lost).
    std::vector<double> setup, rss;
    serve::ServeStats traced_stats;
    Traffic traced_traffic;
    SpanRecorder send_rec(1), recv_rec(0);
    std::vector<Kept> kept;
    int spawned = 0;
    const auto withDaemon = [&](const std::vector<Request> &rs, bool warmup,
                                bool traced) {
        const auto t0 = Clock::now();
        Daemon daemon(opt, sock_prefix + std::to_string(spawned++) + ".sock");
        if (!warmup)
            setup.push_back(secondsSince(t0));
        RoundOutcome o = serveRound(
            daemon.fd(), rs, traced ? &send_rec : nullptr,
            traced ? &recv_rec : nullptr, traced ? &traced_traffic : nullptr,
            report, !warmup && kept.empty() ? &kept : nullptr);
        serve::Frame frame;
        if (!serve::writeFrame(daemon.fd(), serve::MsgType::Stats, 0, {}) ||
            !serve::readFrame(daemon.fd(), frame) ||
            frame.type() != serve::MsgType::StatsOk) {
            report.fail(1, "serve_load: no Stats answer");
        } else {
            const serve::ServeStats stats = serve::decodeStats(frame);
            if (!stats.accountingClosed)
                report.fail(1, "serve_load: daemon accounting not closed");
            if (stats.rejectedRequests() != 0 ||
                stats.acceptedRequests != rs.size())
                report.fail(stats.rejectedRequests() + 1,
                            "serve_load: daemon rejected or lost requests");
            if (traced) {
                traced_stats.rejectedDeadline += stats.rejectedDeadline;
                traced_stats.rejectedQuota += stats.rejectedQuota;
                traced_stats.rejectedUndispatchable +=
                    stats.rejectedUndispatchable;
                traced_stats.rejectedMalformed += stats.rejectedMalformed;
                traced_stats.deadlineMissJobs += stats.deadlineMissJobs;
            } else if (!warmup) {
                rss.push_back(daemon.peakRssMb());
            }
        }
        if (!daemon.shutdown())
            report.fail(1, "serve_load: daemon did not exit cleanly");
        return o;
    };

    withDaemon(warm, true, false);
    const RoundSeries rounds = runRounds(opt, report, 3, [&](bool traced) {
        return withDaemon(reqs, false, traced);
    });

    const ref::MatrixAligner<K> golden(K::defaultParams(), 64);
    size_t golden_bad = 0;
    for (const auto &k : kept) {
        const DnaJob &job = reqs[k.request].jobs[0];
        const auto want = golden.align(job.query, job.reference);
        if (want.scoreAsDouble() != k.result.score ||
            serve::decodeRuns(k.result.runs) != want.ops) {
            golden_bad++;
            report.fail(1, "serve_load: request " +
                               std::to_string(k.request) +
                               " differs from the golden model");
        }
    }
    report.fact("golden_checked", static_cast<double>(kept.size()));
    report.fact("work_per_round", static_cast<double>(reqs.size()));
    report.fact("window", static_cast<double>(kWindow));

    reportEndToEnd(report, rounds, median(setup), "pairs/s");
    report.set("peak_rss_mb", median(rss), "MiB");
    report.set("accuracy_frac",
               kept.empty() ? 0
                            : 1.0 - static_cast<double>(golden_bad) /
                                        static_cast<double>(kept.size()),
               "frac");
    if (!opt.trace)
        return;

    send_rec.merge(recv_rec);
    const SpanRecorder &rec = send_rec;
    const serve::ServeStats &stats = traced_stats;
    const double n = static_cast<double>(rounds.traced.size());
    const auto per_round = [&](double v) { return v / n; };
    report.set("serve.encode_s", per_round(rec.selfSeconds("serve.encode")),
               "s");
    report.set("serve.decode_s", per_round(rec.selfSeconds("serve.decode")),
               "s");
    report.set("serve.window_wait_s",
               per_round(rec.selfSeconds("serve.window_wait")), "s");
    report.set("serve.bytes_per_pair",
               traced_traffic.bytes / std::max(1.0, traced_traffic.pairs),
               "B/pair");
    report.set("serve.rejects.deadline",
               per_round(static_cast<double>(stats.rejectedDeadline)),
               "count");
    report.set("serve.rejects.quota",
               per_round(static_cast<double>(stats.rejectedQuota)), "count");
    report.set("serve.rejects.undispatchable",
               per_round(static_cast<double>(stats.rejectedUndispatchable)),
               "count");
    report.set("serve.rejects.malformed",
               per_round(static_cast<double>(stats.rejectedMalformed)),
               "count");
    reportCallerSpans(report, rec, n);
    report.set("pipeline.deadline_misses",
               per_round(static_cast<double>(stats.deadlineMissJobs)),
               "count");

    const host::BatchConfig cfg = daemonConfig(opt);
    std::vector<int> sizes;
    std::vector<DnaJob> ladder_sample;
    double cells = 0;
    for (const auto &r : reqs) {
        sizes.push_back(static_cast<int>(r.jobs.size()));
        for (const auto &j : r.jobs) {
            cells += static_cast<double>(jobCells(j));
            if (ladder_sample.size() < 1024)
                ladder_sample.push_back(j);
        }
    }
    report.set("systolic.lane_fill_frac",
               computedLaneFill(sizes, cfg.nk, cfg.laneWidth), "frac");
    const EngineLadder ladder =
        measureEngine<K>(ladder_sample, cfg, cfg.laneWidth, 0.3);
    reportEngineLadder(report, ladder, cells);
    report.set("systolic.modeled_cycles",
               static_cast<double>(rounds.untraced.front().cycles),
               "cycles");
    const double served = medianThroughput(rounds.untraced);
    double round_pairs = 0;
    for (const auto &r : reqs)
        round_pairs += static_cast<double>(r.jobs.size());
    report.set("pipeline.efficiency",
               cells * served / round_pairs /
                   (cfg.threads * ladder.laneCellsPerSec),
               "frac");
    report.set("serve.efficiency", served / inProcessPairsPerSec(opt, reqs, 3),
               "frac");
    reportTraceOverhead(report, rounds);
    if (!rec.write(opt.workDir + "/trace_serve_load.json"))
        std::fprintf(stderr, "perfbench: cannot write the span trace\n");
}

} // namespace perfbench
