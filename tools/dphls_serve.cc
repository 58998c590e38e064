/**
 * @file
 * Multi-tenant alignment daemon over the DP-HLS streaming pipeline.
 *
 * dphls_serve listens on a Unix-domain socket and speaks the compact
 * binary protocol of serve/protocol.hh: clients submit batches of
 * pre-encoded sequence pairs with a traffic class (bulk/interactive), a
 * relative deadline and a tenant id, and receive binary run-length
 * CIGARs, scores and modeled cycles as each ticket completes —
 * responses stream back in completion order, matched by request id.
 *
 * Scheduling is the point of the daemon:
 *  - traffic classes map onto ticket priorities
 *    (--interactive-priority), so interactive requests overtake queued
 *    bulk work;
 *  - --aging-every N bounds the overtaking: every N-th dispatch serves
 *    the oldest queued ticket regardless of class, so a saturating
 *    interactive stream cannot starve bulk indefinitely;
 *  - --quota N caps each tenant's in-flight jobs (counted in pairs,
 *    not requests), rejecting the excess with QuotaExceeded;
 *  - deadline admission control rejects, at submit time, requests
 *    whose modeled completion (live backlog + routed service estimate)
 *    already exceeds their deadline budget — RejectReason::
 *    DeadlineUnmeetable, accounted separately from deadline misses.
 *
 * A Stats frame returns the per-backend accounting sections plus the
 * admission counters; a Shutdown frame drains the pipeline and stops
 * the daemon (so CI can terminate it without signals; SIGINT/SIGTERM
 * also stop it).
 *
 * Usage:
 *   dphls_serve --socket PATH [--kernel NAME] [--npe N] [--band W]
 *               [--max-len L] [--nk K] [--nb B] [--threads T]
 *               [--lanes W] [--dispatch threshold|cost]
 *               [--cpu-fallback] [--cpu-floor L] [--gpu-model]
 *               [--aging-every N] [--quota N] [--no-admission]
 *               [--admission-slack X] [--interactive-priority P]
 *               [--realtime-priority P] [--stage-pipeline]
 *               [--stage-fifo-depth N] [--preempt]
 *               [--isa-tier auto|scalar|sse2|avx2|avx512]
 *
 * --preempt lets a higher-class request interrupt an in-flight device
 * shard at its next job or lane-group boundary; --stage-pipeline only
 * moves each shard's traceback/writeback onto its own thread. Either
 * works without the other.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "kernels/all.hh"
#include "model/frequency_model.hh"
#include "serve/service.hh"
#include "serve/socket_io.hh"

using namespace dphls;

namespace {

struct Options
{
    std::string socketPath;
    std::string kernel = "global-linear";
    int npe = 32;
    int band = 64;
    int maxLen = 1024;
    int nk = 4;
    int nb = 1;
    int threads = 0;
    int lanes = 8;
    int cpuFloor = 0;
    bool cpuFallback = false;
    bool gpuModel = false;
    std::string dispatch; //!< "", "threshold" or "cost"
    int agingEvery = 16;
    bool stagePipeline = false;
    int stageFifoDepth = 4;
    bool preempt = false;
    uint64_t quota = 0; //!< per-tenant in-flight job cap (0 = off)
    bool admission = true;
    double admissionSlack = 1.0;
    int interactivePriority = 10;
    int realtimePriority = 20;
    sim::IsaTier isaTier = sim::IsaTier::Auto;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: dphls_serve --socket PATH [--kernel NAME]\n"
        "                   [--npe N] [--band W] [--max-len L] [--nk K] "
        "[--nb B]\n"
        "                   [--threads T] [--lanes W] "
        "[--dispatch threshold|cost]\n"
        "                   [--cpu-fallback] [--cpu-floor L] "
        "[--gpu-model]\n"
        "                   [--aging-every N] [--quota N] "
        "[--no-admission]\n"
        "                   [--admission-slack X] "
        "[--interactive-priority P]\n"
        "                   [--realtime-priority P]\n"
        "                   [--stage-pipeline] [--stage-fifo-depth N] "
        "[--preempt]\n"
        "                   [--isa-tier auto|scalar|sse2|avx2|avx512]\n"
        "kernels: global-linear global-affine local-linear local-affine "
        "two-piece\n"
        "         overlap semi-global banded-global banded-local "
        "banded-two-piece protein-local\n");
}

/** Raw listener fd for the signal handler (shutdown() is signal-safe). */
std::atomic<int> g_listenFd{-1};
std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    const int fd = g_listenFd.load(std::memory_order_relaxed);
    if (fd >= 0)
        ::shutdown(fd, SHUT_RDWR);
}

/**
 * One accepted connection. Shared between the session thread and every
 * response sink the service captures, so completion callbacks landing
 * after the session thread exited (client vanished mid-flight) still
 * write to a live descriptor — the fd closes with the last reference,
 * never recycling under a pending callback.
 */
struct Connection
{
    explicit Connection(serve::Fd f) : fd(std::move(f)) {}

    serve::Fd fd;
    std::mutex writeMutex; //!< one frame at a time per connection
};

/** Serve one connection's frames until the client leaves or drains. */
template <typename K>
void
serveSession(const std::shared_ptr<Connection> &conn,
             serve::AlignService<K> &service, serve::UnixListener &listener)
{
    auto sink = [conn](serve::MsgType type, uint64_t rid,
                       std::vector<uint8_t> payload) {
        std::lock_guard<std::mutex> lk(conn->writeMutex);
        serve::writeFrame(conn->fd.get(), type, rid, payload);
    };
    serve::Frame frame;
    std::string err;
    while (serve::readFrame(conn->fd.get(), frame, &err)) {
        service.handleFrame(frame, sink);
        if (service.draining()) {
            // ShutdownOk is on the wire; stop accepting.
            g_stop.store(true, std::memory_order_relaxed);
            listener.close();
            return;
        }
    }
    if (!err.empty()) {
        // Malformed framing: answer once, then drop the session (the
        // stream offset is unrecoverable).
        sink(serve::MsgType::Error, 0,
             serve::encodeReject({serve::RejectReason::Malformed, err}));
    }
}

/** A session thread and the flag it raises once it is done. */
struct Session
{
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
};

template <typename K>
int
runServe(const Options &opt)
{
    host::BatchConfig cfg;
    cfg.npe = opt.npe;
    cfg.nb = opt.nb;
    cfg.nk = opt.nk;
    cfg.threads = opt.threads;
    cfg.fmaxMhz = model::kernelFrequencyMhz<K>();
    cfg.bandWidth = opt.band;
    cfg.maxQueryLength = opt.maxLen;
    cfg.maxReferenceLength = opt.maxLen;
    cfg.hostOverheadCycles = 0;
    cfg.laneWidth = opt.lanes;
    cfg.cpuFallback = opt.cpuFallback;
    cfg.cpuFloorLen = opt.cpuFloor;
    cfg.gpuModel = opt.gpuModel;
    cfg.dispatch = opt.dispatch == "threshold"
                       ? host::DispatchPolicy::Threshold
                       : host::DispatchPolicy::CostModel;
    cfg.agingEvery = opt.agingEvery;
    cfg.stagePipeline = opt.stagePipeline;
    cfg.stageFifoDepth = opt.stageFifoDepth;
    cfg.preemption = opt.preempt;
    // No result cache and no path stats: the serving path reports raw
    // per-backend accounting, and a cache hit would make the closure
    // between counters and cycles workload-dependent.
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    cfg.isaTier = opt.isaTier;

    serve::ServiceConfig scfg;
    scfg.admission.enabled = opt.admission;
    scfg.admission.slack = opt.admissionSlack;
    scfg.maxInFlightJobsPerTenant = opt.quota;
    scfg.interactivePriority = opt.interactivePriority;
    scfg.realtimePriority = opt.realtimePriority;
    scfg.kernelAlias = opt.kernel; // accept the CLI spelling in Hello

    serve::AlignService<K> service(cfg, scfg);
    serve::UnixListener listener(opt.socketPath);
    g_listenFd.store(listener.fd(), std::memory_order_relaxed);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("dphls_serve: kernel %s @ %.1f MHz, %d channel(s), "
                "isa %s, listening on %s\n",
                K::name, cfg.fmaxMhz, cfg.nk,
                sim::isaTierName(service.pipeline().activeIsaTier()),
                opt.socketPath.c_str());
    std::fflush(stdout);

    std::vector<Session> sessions;
    while (!g_stop.load(std::memory_order_relaxed)) {
        serve::Fd conn = listener.accept();
        if (!conn.valid())
            break;
        // Reap the sessions whose client has gone: a finished thread
        // keeps its stack mapped until it is joined.
        for (auto &s : sessions) {
            if (s.finished->load(std::memory_order_acquire))
                s.thread.join();
        }
        std::erase_if(sessions, [](const Session &s) {
            return !s.thread.joinable();
        });
        auto shared = std::make_shared<Connection>(std::move(conn));
        auto finished = std::make_shared<std::atomic<bool>>(false);
        sessions.push_back(
            {std::thread([shared, finished, &service, &listener] {
                 serveSession(shared, service, listener);
                 finished->store(true, std::memory_order_release);
             }),
             finished});
    }
    listener.close();
    for (auto &s : sessions)
        s.thread.join();
    const serve::ServeStats stats = service.snapshot();
    std::printf("dphls_serve: served %llu request(s) "
                "(%llu rejected: %llu deadline, %llu quota, "
                "%llu undispatchable, %llu malformed), "
                "%llu job(s) completed, accounting %s\n",
                (unsigned long long)stats.acceptedRequests,
                (unsigned long long)stats.rejectedRequests(),
                (unsigned long long)stats.rejectedDeadline,
                (unsigned long long)stats.rejectedQuota,
                (unsigned long long)stats.rejectedUndispatchable,
                (unsigned long long)stats.rejectedMalformed,
                (unsigned long long)stats.completedJobs,
                stats.accountingClosed ? "closed" : "NOT CLOSED");
    return stats.accountingClosed ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--socket") {
            opt.socketPath = next();
        } else if (a == "--kernel") {
            opt.kernel = next();
        } else if (a == "--npe") {
            opt.npe = std::atoi(next());
        } else if (a == "--band") {
            opt.band = std::atoi(next());
        } else if (a == "--max-len") {
            opt.maxLen = std::atoi(next());
        } else if (a == "--nk") {
            opt.nk = std::atoi(next());
        } else if (a == "--nb") {
            opt.nb = std::atoi(next());
        } else if (a == "--threads") {
            opt.threads = std::atoi(next());
        } else if (a == "--lanes") {
            opt.lanes = std::atoi(next());
        } else if (a == "--dispatch") {
            opt.dispatch = next();
            if (opt.dispatch != "threshold" && opt.dispatch != "cost") {
                usage();
                return 2;
            }
        } else if (a == "--cpu-fallback") {
            opt.cpuFallback = true;
        } else if (a == "--cpu-floor") {
            opt.cpuFloor = std::atoi(next());
        } else if (a == "--gpu-model") {
            opt.gpuModel = true;
        } else if (a == "--aging-every") {
            opt.agingEvery = std::atoi(next());
        } else if (a == "--stage-pipeline") {
            opt.stagePipeline = true;
        } else if (a == "--stage-fifo-depth") {
            opt.stageFifoDepth = std::atoi(next());
        } else if (a == "--preempt") {
            opt.preempt = true;
        } else if (a == "--quota") {
            opt.quota = static_cast<uint64_t>(std::atoll(next()));
        } else if (a == "--no-admission") {
            opt.admission = false;
        } else if (a == "--admission-slack") {
            opt.admissionSlack = std::atof(next());
        } else if (a == "--interactive-priority") {
            opt.interactivePriority = std::atoi(next());
        } else if (a == "--realtime-priority") {
            opt.realtimePriority = std::atoi(next());
        } else if (a == "--isa-tier") {
            if (!sim::parseIsaTier(next(), opt.isaTier)) {
                usage();
                return 2;
            }
        } else {
            usage();
            return 2;
        }
    }
    if (opt.socketPath.empty()) {
        usage();
        return 2;
    }

    try {
        if (opt.kernel == "protein-local")
            return runServe<kernels::ProteinLocal>(opt);
        if (opt.kernel == "global-linear")
            return runServe<kernels::GlobalLinear>(opt);
        if (opt.kernel == "global-affine")
            return runServe<kernels::GlobalAffine>(opt);
        if (opt.kernel == "local-linear")
            return runServe<kernels::LocalLinear>(opt);
        if (opt.kernel == "local-affine")
            return runServe<kernels::LocalAffine>(opt);
        if (opt.kernel == "two-piece")
            return runServe<kernels::GlobalTwoPiece>(opt);
        if (opt.kernel == "overlap")
            return runServe<kernels::Overlap>(opt);
        if (opt.kernel == "semi-global")
            return runServe<kernels::SemiGlobal>(opt);
        if (opt.kernel == "banded-global")
            return runServe<kernels::BandedGlobalLinear>(opt);
        if (opt.kernel == "banded-local")
            return runServe<kernels::BandedLocalAffine>(opt);
        if (opt.kernel == "banded-two-piece")
            return runServe<kernels::BandedGlobalTwoPiece>(opt);
        std::fprintf(stderr, "unknown kernel '%s'\n", opt.kernel.c_str());
        usage();
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
