/**
 * @file
 * Streaming multi-backend host executor with priority scheduling.
 *
 * The paper's host programs (front-end step 6) keep the device's NK
 * independent channels saturated. StreamPipeline generalizes the old
 * barrier-epoch BatchPipeline into a streaming executor over pluggable
 * AlignBackends (host/backend.hh):
 *
 *  - submit() returns a per-batch **ticket**; batches complete
 *    independently (no global barrier), completion callbacks fire as
 *    each batch's last shard finishes, and collect()/wait() retire one
 *    ticket at a time so hosts can pipeline parse -> align -> writeback.
 *  - Accounting is **per ticket**: every ticket carries its own channel
 *    and backend statistics, finalized at completion, so a submit()
 *    overlapping a drain() can no longer race the epoch accounting (the
 *    documented BatchPipeline restriction is gone).
 *  - A **dispatch policy** routes each job to a backend. The Threshold
 *    policy is the shape rule: jobs the device cannot take (sequences
 *    over MAX_*_LENGTH) or should not take (pairs below a configurable
 *    floor) go to the CPU baseline backend, everything else round-robins
 *    over the device channels, the round-robin continuing from one
 *    ticket to the next. The CostModel policy instead asks every
 *    enabled backend for a service-time estimate (device channels:
 *    analytic cycle formulas; CPU: EWMA of measured cells/sec; GPU
 *    model: published GCUPS) and routes each job to the backend — and
 *    channel — with the lowest estimated completion time given its
 *    current queued work. When the ticket carries a deadline the router
 *    folds it into the argmin: among backends whose estimated completion
 *    beats the deadline it picks the one with the lowest marginal
 *    service cost, even if another backend would complete sooner — fast
 *    capacity stays free for traffic that actually needs it. Either
 *    way, per-backend stats sections make the heterogeneous split
 *    visible, and they sum to the epoch totals. A job no enabled
 *    backend can take fails loudly at submission with its index and
 *    shape.
 *  - Shards wait in **per-backend dispatch queues**, not FIFO: each
 *    free worker starts the highest-priority shard queued on a device
 *    channel (or the CPU/GPU backend) that can take one, ties broken by
 *    earliest deadline, then submission order. TicketOptions carries the
 *    priority, deadline and tag; with no options every ticket is class
 *    0 with no deadline and dispatch degrades to exact FIFO. Deadline
 *    misses are counted per backend (ChannelStats/BackendStats
 *    ::deadlineMisses) and summed into BatchStats::deadlineMisses.
 *  - Tickets can be **cancelled**: queued shards are dropped (and
 *    accounted per backend as ChannelStats::cancelled), an in-flight
 *    device shard stops at its next job or lane-group boundary (its
 *    unstarted jobs are accounted as cancelled too), in-flight CPU/GPU
 *    shards run to completion, and the ticket still completes — wait()
 *    returns, the completion callback fires once, and results() holds a
 *    partial result set (BatchTicket::completed() says which jobs ran;
 *    the rest hold default-constructed results and zero cycles).
 *  - Every device shard runs as one producer (cache replay + fill)
 *    feeding one consumer (traceback + writeback), the host copy of
 *    the kernel's fill -> traceback split (host/stage_flow.hh). The
 *    consumer runs inline on the shard's worker, or on its own thread
 *    with BatchConfig::stagePipeline; nothing else differs. With
 *    BatchConfig::preemption a strictly-higher-priority submission can
 *    take a device channel from a running shard at one of its job or
 *    lane-group boundaries; the rest of the shard re-queues.
 *  - Host worker **threads are decoupled from NK**: with the lane
 *    engine one thread can saturate several modeled channels, so
 *    BatchConfig::threads sets the worker count independently (0 = one
 *    worker per channel). Workers pull shards straight from the
 *    dispatch queues, so a shard is scheduled once, when a worker
 *    starts it: when workers are scarcer than runnable shards, a ticket
 *    that arrives late still overtakes every lower-class shard no
 *    worker has started.
 *
 * pause()/resume() gate dispatch without blocking submission: while
 * paused, submitted shards accumulate in the dispatch queues and
 * resume() releases them in scheduling order — letting hosts (and the
 * benches) batch a backlog and observe a deterministic dispatch order.
 *
 * drain() remains as a compatibility wrapper that waits for every
 * outstanding ticket and aggregates in submission order. For a single
 * batch, results, CIGARs and per-job device cycles are bit-identical to
 * the old pipeline (enforced by tests/test_stream_pipeline.cc), and the
 * priority machinery is transparent when unused (enforced by
 * tests/test_scheduler_torture.cc).
 *
 * Multi-batch epoch accounting sums each channel's per-ticket arbiter
 * makespans (batches synchronize at batch boundaries); for one batch
 * this equals the old epoch-wide greedy packing exactly.
 */

#ifndef DPHLS_HOST_STREAM_PIPELINE_HH
#define DPHLS_HOST_STREAM_PIPELINE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/alignment_stats.hh"
#include "host/backend.hh"
#include "host/check.hh"
#include "host/result_cache.hh"
#include "host/scheduler.hh"

namespace dphls::host {

/** How the pipeline routes jobs across its backends. */
enum class DispatchPolicy : uint8_t
{
    /**
     * Shape thresholds (the original rule): oversized/tiny jobs to the
     * CPU backend, everything else round-robin over device channels,
     * continuing across tickets so one-job tickets spread too.
     */
    Threshold,
    /**
     * Pick the backend (and channel) with the lowest estimated
     * completion time: per-job service estimate plus the backend's
     * live queued-work signal. Balances load across heterogeneous
     * executors instead of cutting on shape alone. Tickets with a
     * deadline instead prefer the cheapest backend that still meets
     * it (see the file comment).
     */
    CostModel,
};

/** Scheduling class of one submitted ticket. */
struct TicketOptions
{
    /** Higher is dispatched first; the default class is 0. */
    int priority = 0;
    /**
     * Completion deadline; time_point::max() (the default) means none.
     * Queued shards of an earlier-deadline ticket run first within a
     * priority class, completions after the deadline are counted as
     * deadline misses, and the cost-model router prefers backends whose
     * estimated completion beats the deadline.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Free-form label for logs and host-side bookkeeping. */
    std::string tag;

    bool
    hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point::max();
    }

    /** Options with a deadline @p deadline_ms from now. */
    static TicketOptions
    afterMs(int priority, double deadline_ms, std::string tag = {})
    {
        TicketOptions opt;
        opt.priority = priority;
        opt.deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               deadline_ms));
        opt.tag = std::move(tag);
        return opt;
    }
};

/** Pipeline configuration: parallelism, frequency and engine options. */
struct BatchConfig
{
    int npe = 32;                  //!< PEs per systolic block
    int nb = 16;                   //!< blocks per channel (arbiter width)
    int nk = 4;                    //!< independent device channels
    /**
     * Host worker threads, decoupled from NK: 0 (the default) runs one
     * worker per channel; with SIMD lanes a single thread can saturate
     * several modeled channels, so fewer workers than channels is a
     * legitimate configuration. Each worker takes the best startable
     * shard across every dispatch queue. Accounting is modeled
     * (cycle-domain), so the worker count never changes results or
     * statistics — only host wall-clock.
     */
    int threads = 0;
    double fmaxMhz = 250.0;
    int bandWidth = 64;
    int maxQueryLength = 1024;
    int maxReferenceLength = 1024;
    bool skipTraceback = false;
    sim::CycleModelOptions cycles{};
    /** Host/DMA overhead cycles charged per alignment. */
    uint64_t hostOverheadCycles = 2000;
    /** Aggregate path-level AlignmentStats over all tracebacks. */
    bool collectPathStats = true;
    /**
     * Jobs per SIMD lane group (1 = scalar engine per job; 8 or 16 are
     * the intended widths, capped at LaneAligner::maxLanes). Per-job
     * results and accounting are identical either way.
     */
    int laneWidth = 1;
    /**
     * Length-aware lane grouping: sort each device shard by
     * (qlen, rlen) before forming lane groups so lockstep lanes share a
     * similar padded iteration space. Observable output is unchanged
     * (results, per-job cycles and arbiter accounting are
     * grouping-independent); only host wall-clock improves on
     * mixed-length batches. Ignored when laneWidth == 1.
     */
    bool sortLanesByLength = true;
    /**
     * Host SIMD ISA tier of the lane engines and of the strip sweep that
     * fills single pairs (Auto = widest the CPU supports, capped by the
     * DPHLS_ISA_TIER env var). Dispatch-time only: results and
     * accounting are bit-identical across tiers, so the choice never
     * splits the result cache. An explicitly requested tier the host
     * cannot run makes the pipeline constructor throw.
     */
    sim::IsaTier isaTier = sim::IsaTier::Auto;
    /**
     * Route jobs the device cannot take (qlen/rlen over the configured
     * maxima) or should not take (both dimensions under cpuFloorLen) to
     * the CPU baseline backend. Off by default: without it, oversized
     * jobs throw exactly as before.
     */
    bool cpuFallback = false;
    /** Jobs with max(qlen, rlen) < floor go to the CPU backend. */
    int cpuFloorLen = 0;
    /** Equivalent clock (MHz) for wall-derived CPU-backend cycles. */
    double cpuEquivalentMhz = 1500.0;
    /** CPU-backend worker threads (0 = same as the pool size). */
    int cpuThreads = 0;
    /**
     * Pin the CPU backend's cells/sec instead of learning it from wall
     * -clock measurements, and derive its cycles from the pinned rate.
     * Makes CPU-backend accounting deterministic — benches and
     * differential tests use it; real hosts leave it 0 (measure).
     */
    double cpuModeledCellsPerSec = 0;
    /** Backend routing rule; Threshold preserves the original path. */
    DispatchPolicy dispatch = DispatchPolicy::Threshold;
    /**
     * Add the modeled GPU backend (GASAL2/CUDASW++ iso-cost GCUPS) for
     * kernels the paper benchmarks on a GPU. It only receives jobs
     * under the CostModel policy.
     */
    bool gpuModel = false;
    /**
     * Result-cache capacity in entries; 0 (the default) disables the
     * cache. Enable it for workloads with repeated pairs (all-vs-all
     * search, mapping seeds) — on all-distinct batches it only costs
     * hashing plus result copies into the LRU.
     */
    size_t cacheEntries = 0;
    /** Result-cache shard count (lock granularity). */
    size_t cacheShards = 8;
    /**
     * Anti-starvation aging for the dispatch queues: every N-th pop
     * (one counter across all slots) takes the *oldest* queued shard
     * (lowest submission sequence) among the slots that may start one
     * instead of the highest-priority one, so a saturating
     * high-priority stream cannot keep bulk-class shards queued for
     * more than N-1 consecutive pops. 0 (the default) disables aging
     * and preserves the exact (priority, deadline, FIFO) order — the
     * transparency guarantees of the priority machinery are unchanged.
     */
    int agingEvery = 0;
    /**
     * Run each device shard's traceback/writeback consumer on its own
     * thread behind a bounded FIFO instead of inline on the worker, so
     * the traceback of job i overlaps the fill of job i+1 on the same
     * channel. Results, per-job cycles and epoch accounting are
     * bit-identical either way (the cycle domain is analytic, so
     * execution overlap cannot change it); only host wall-clock moves.
     */
    bool stagePipeline = false;
    /**
     * Fill -> traceback FIFO capacity under stagePipeline (clamped to
     * >= 1). Capacity 1 degenerates to lockstep stage hand-off; larger
     * values let a fast fill run ahead of a slow traceback.
     */
    int stageFifoDepth = 4;
    /**
     * Let a strictly-higher-priority submission interrupt an
     * in-flight device shard at its next job or lane-group boundary:
     * the shard yields its channel, the jobs that had not started
     * re-queue as a same-sequence remainder shard, and the yield is
     * counted in ChannelStats::preemptions. CPU/GPU shards have no such
     * boundary and never yield. When no preemption fires the output is
     * bit-identical to preemption off.
     */
    bool preemption = false;
};

/** One backend's section of an epoch/ticket accounting. */
struct BackendStats
{
    const char *name = "device";
    double clockMhz = 0;     //!< clock its cycles are counted at
    uint64_t busyCycles = 0; //!< makespan across the backend's blocks
    uint64_t totalCycles = 0;
    int alignments = 0;
    int cancelled = 0;       //!< jobs dropped from this backend's queue
    int deadlineMisses = 0;  //!< jobs completed past their deadline
    int preemptions = 0;     //!< device shards that yielded mid-flight
    double seconds = 0;      //!< busyCycles / clockMhz
};

/** Aggregate outcome of one ticket / drained epoch. */
struct BatchStats
{
    /** Resolved host SIMD tier the device channels dispatched to
     *  (isaTierName: "scalar", "sse2", "avx2", "avx512"). */
    const char *isaTier = "";
    std::vector<ChannelStats> channels; //!< device channels
    ChannelStats cpu;                   //!< CPU-fallback backend totals
    ChannelStats gpu;                   //!< modeled GPU backend totals
    /** Per-backend sections (derived by finalizeBatchStats); their
     *  alignments, cancelled and totalCycles sum to the epoch totals
     *  below. */
    std::vector<BackendStats> backends;
    uint64_t makespanCycles = 0; //!< slowest device channel's busy cycles
    uint64_t totalCycles = 0;    //!< sum over all alignments, all backends
    int alignments = 0;          //!< jobs that actually ran
    int cancelled = 0;           //!< jobs dropped by a ticket cancel()
    int deadlineMisses = 0;      //!< jobs completed past their deadline
    int preemptions = 0;         //!< device shards that yielded mid-flight
    double seconds = 0;          //!< slowest backend section's wall time
    double alignsPerSec = 0;
    double cyclesPerAlign = 0;
    /** Path-level statistics summed over every traceback in the epoch. */
    core::AlignmentStats paths;
};

/** Round-robin shard of @p jobs job indices over @p channels channels. */
std::vector<std::vector<int>> shardRoundRobin(int jobs, int channels);

/** Round-robin shard of explicit job indices over @p channels channels. */
std::vector<std::vector<int>>
shardIndicesRoundRobin(const std::vector<int> &indices, int channels);

/** Sum the counting fields of @p add into @p into. */
void mergePathStats(core::AlignmentStats &into,
                    const core::AlignmentStats &add);

/**
 * Fill the derived fields (backend sections, makespan, totals, seconds,
 * throughput) of @p stats from its per-channel and CPU accounting.
 */
void finalizeBatchStats(BatchStats &stats, double fmax_mhz,
                        double cpu_mhz = 0);

/**
 * Sum @p add's raw accounting (channels, cpu, paths) into @p into;
 * the caller re-finalizes afterwards. Channel busy cycles add up as
 * sequential per-batch makespans.
 */
void accumulateBatchStats(BatchStats &into, const BatchStats &add);

template <core::KernelSpec K>
class StreamPipeline;

template <core::KernelSpec K>
class BatchTicket;

/**
 * A booked slice of the dispatch backlog, created by
 * StreamPipeline::reserveCompletion(). The reservation adds the batch's
 * routed per-slot work to the live queued-work signal *atomically with
 * the estimate*, so two concurrent admission checks can no longer both
 * be admitted against the same free capacity: the second reserver's
 * estimate already includes the first one's booking.
 *
 * Lifecycle (admission control):
 *  - reserve-on-estimate: reserveCompletion() books and returns this;
 *  - commit-on-submit: pass it to submit() — the real enqueue replaces
 *    the booking (added before the booking is dropped, so the backlog
 *    transiently double-counts but never under-counts);
 *  - release-on-reject: call release() (or just drop the object — the
 *    destructor releases, so an exception path cannot leak capacity).
 *
 * Move-only; releasing twice is a no-op. A reservation outliving its
 * pipeline releases into nothing (weak reference) rather than touching
 * freed slots.
 */
class AdmissionReservation
{
  public:
    AdmissionReservation() = default;

    AdmissionReservation(AdmissionReservation &&other) noexcept
        : _release(std::move(other._release)), _estimate(other._estimate)
    {
        other._release = nullptr;
    }

    AdmissionReservation &
    operator=(AdmissionReservation &&other) noexcept
    {
        if (this != &other) {
            release();
            _release = std::move(other._release);
            _estimate = other._estimate;
            other._release = nullptr;
        }
        return *this;
    }

    AdmissionReservation(const AdmissionReservation &) = delete;
    AdmissionReservation &operator=(const AdmissionReservation &) = delete;

    ~AdmissionReservation() { release(); }

    /**
     * Modeled completion seconds of the reserved batch: the worst used
     * slot's backlog — including this reservation and any concurrent
     * ones booked first — plus the batch's own routed work.
     */
    double estimateSeconds() const { return _estimate; }

    /** True while this reservation still holds booked capacity. */
    bool active() const { return static_cast<bool>(_release); }

    /** Return the booked capacity (the reject path); idempotent. */
    void
    release()
    {
        if (_release) {
            auto fn = std::move(_release);
            _release = nullptr;
            fn();
        }
    }

  private:
    template <core::KernelSpec K>
    friend class StreamPipeline;

    std::function<void()> _release; //!< unbooks the per-slot amounts
    double _estimate = 0;
};

namespace detail {

/**
 * Shared dispatch state: one queue of pending shards per backend slot
 * (NK device channels, then the CPU backend, then the GPU model), and
 * the one scheduler the pipeline's workers pull from. A worker waits
 * until some slot below its concurrency capacity — 1 for the stateful
 * device channels, the worker count for the stateless CPU/GPU backends,
 * which therefore serve shards of different tickets concurrently — has
 * a queued shard, then takes the best queue head among those slots in
 * (priority, deadline, FIFO) order. A shard therefore leaves its queue
 * only when a worker starts it, and a late higher-priority ticket still
 * overtakes every shard no worker has started. The pipeline holds the
 * owning shared_ptr; tickets hold a weak_ptr upgraded on cancel(), so a
 * cancel() races pipeline destruction safely: ~StreamPipeline lets the
 * workers empty every queue before its backends die, and once the core
 * itself is gone the upgrade simply fails and cancel() only flips the
 * ticket flag (nothing queued can remain by then).
 */
template <core::KernelSpec K>
class DispatchCore
{
  public:
    using Ticket = std::shared_ptr<BatchTicket<K>>;
    using Clock = std::chrono::steady_clock;

    /** One queued shard: its ticket, job indices and scheduling key. */
    struct ShardEntry
    {
        Ticket ticket;
        std::vector<int> indices;
        double estSeconds = 0; //!< routed-work estimate (backlog signal)
        int priority = 0;
        Clock::time_point deadline = Clock::time_point::max();
        uint64_t seq = 0; //!< submission order (FIFO tiebreak)
    };

    /** Dispatch order: entryBefore() as a strict weak ordering (seq is
     *  unique within a slot, so it is in fact total there). */
    struct EntryOrder
    {
        bool
        operator()(const ShardEntry &a, const ShardEntry &b) const
        {
            return entryBefore(a, b);
        }
    };

    using Queue = std::multiset<ShardEntry, EntryOrder>;

    /**
     * One backend execution slot and its dispatch queue. Every field
     * but queuedMicros is guarded by DispatchCore::_mutex.
     */
    struct Slot
    {
        int busy = 0;     //!< shards currently executing (<= capacity)
        /**
         * Concurrent-shard limit: 1 for stateful device channels (the
         * engine serializes), the worker count for the stateless CPU/GPU
         * backends (MatrixAligner::align is const, so shards of
         * different tickets may run concurrently).
         */
        int capacity = 1;
        /**
         * Pending shards, best-first: O(log n) insert and pop keep a
         * large paused backlog's release at O(n log n) overall (a
         * linear scan per pop would make it quadratic). Cancellation
         * and aging pops still scan — they are the rare paths.
         */
        Queue queue;
        /** Estimated seconds of routed-but-unfinished work (lock-free). */
        std::atomic<int64_t> queuedMicros{0};
        /**
         * Preemption target: token of the device shard occupying the
         * slot (null while idle, when preemption is disabled, and on
         * the CPU/GPU slots). The token outlives its registration — it
         * lives on the running worker's stack and is deregistered
         * before the shard releases its slot.
         */
        PreemptToken *runningToken = nullptr;
        /** Priority of the running shard (valid with runningToken). */
        int runningPriority = 0;
    };

    DispatchCore(int nk, double fmax_mhz, double cpu_mhz,
                 int aging_every = 0)
        : _nk(nk), _fmaxMhz(fmax_mhz), _cpuMhz(cpu_mhz),
          _agingEvery(std::max(0, aging_every)),
          _slots(static_cast<size_t>(nk) + 2)
    {}

    int cpuSlot() const { return _nk; }
    int gpuSlot() const { return _nk + 1; }
    int slotCount() const { return _nk + 2; }
    Slot &slot(int s) { return _slots[static_cast<size_t>(s)]; }

    uint64_t nextSeq() { return _seq.fetch_add(1, std::memory_order_relaxed); }

    double
    queuedSeconds(int s)
    {
        return static_cast<double>(slot(s).queuedMicros.load(
                   std::memory_order_relaxed)) *
               1e-6;
    }

    void
    noteEnqueued(int s, double seconds)
    {
        slot(s).queuedMicros.fetch_add(toMicros(seconds),
                                       std::memory_order_relaxed);
    }

    void
    noteCompleted(int s, double seconds)
    {
        slot(s).queuedMicros.fetch_sub(toMicros(seconds),
                                       std::memory_order_relaxed);
    }

    /** True when @p a should be dispatched before @p b. */
    static bool
    entryBefore(const ShardEntry &a, const ShardEntry &b)
    {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        if (a.deadline != b.deadline)
            return a.deadline < b.deadline;
        return a.seq < b.seq;
    }

    /** The ticket-stats bucket slot @p s accounts into. */
    ChannelStats &acctFor(BatchTicket<K> &ticket, int s);

    /**
     * Queue one ticket's (slot, shard) pairs. With @p preemption a
     * strictly-higher-priority arrival asks the device shard occupying
     * its slot to yield at its next job boundary (not while paused:
     * nothing would start in its place).
     */
    void push(std::vector<std::pair<int, ShardEntry>> &entries,
              bool preemption);

    /**
     * Worker side: block until a slot below capacity has a queued shard,
     * pop the best such queue head — or, on every agingEvery-th pop, the
     * oldest submission among them — claim one unit of its slot's
     * capacity and return the slot index. Cross-slot ties go to the
     * lower slot. Shards of cancelled tickets met at the pop are retired
     * here, not returned. Returns -1 once stop() was called and every
     * queue is empty.
     */
    int take(ShardEntry &out);

    /** Register slot @p s's preemption target (release() drops it). */
    void setRunning(int s, PreemptToken *token, int priority);

    /**
     * Give back the capacity unit take() claimed on slot @p s, dropping
     * its preemption target and queueing @p remainder (a preempted
     * shard's unstarted jobs) first when given.
     */
    void release(int s, ShardEntry *remainder);

    /**
     * Drop every queued shard of @p ticket, accounting the dropped jobs
     * as cancelled on the backend they were queued for and retiring
     * their shards (the last retire completes the ticket). In-flight
     * shards are not touched here: device shards see the ticket's
     * cancel flag at their next job boundary and retire themselves.
     */
    void dropTicket(BatchTicket<K> &ticket);

    /**
     * Mark one shard done; the last one finalizes the ticket, runs the
     * completion callback and only then releases waiters — so wait()
     * returning guarantees the callback has finished (a callback must
     * therefore never wait on its own ticket).
     */
    void finishShard(BatchTicket<K> &ticket);

    /** Dispatch gate: while paused, shards queue but none starts. */
    void pause();
    void resume();

    /**
     * Shutdown: lift any pause and let each worker's take() return -1
     * as soon as it finds every queue empty.
     */
    void stop();

  private:
    static int64_t
    toMicros(double seconds)
    {
        return static_cast<int64_t>(std::llround(seconds * 1e6));
    }

    /** Account a dropped shard as cancelled and retire it. */
    void retire(int s, const ShardEntry &entry);

    /** True when some slot below capacity has a queued shard. */
    bool startableLocked();

    int _nk;
    double _fmaxMhz;
    double _cpuMhz;
    int _agingEvery;
    std::atomic<uint64_t> _seq{0};
    std::deque<Slot> _slots; //!< deque: Slot is neither movable nor copyable
    /**
     * Guards the slots' queues, occupancy and preemption targets, the
     * pop counter and the gates. Rank-checked; never held while a
     * backend runs or a completion callback fires.
     */
    DebugMutex _mutex{lockrank::kDispatchSlot, "dispatch"};
    /** Idle workers wait here for a shard they may start. */
    std::condition_variable_any _work;
    uint64_t _pops = 0; //!< pops so far (aging phase)
    bool _paused = false;
    bool _stopping = false;
};

} // namespace detail

/**
 * One submitted batch: per-job outputs in submission order, per-ticket
 * accounting, and a completion latch. Tickets are shared between the
 * submitting host and the worker tasks; results()/cycles()/stats() are
 * valid once done() (or after wait()).
 */
template <core::KernelSpec K>
class BatchTicket
{
  public:
    using CharT = typename K::CharT;
    using Result = core::AlignResult<typename K::ScoreT>;
    using Job = AlignmentJob<CharT>;

    bool
    done() const
    {
        std::lock_guard lock(_mutex);
        return _done;
    }

    /**
     * Block until every shard of this batch has completed or been
     * dropped by cancel() — a cancelled ticket still completes (with a
     * partial result set) rather than blocking forever.
     */
    void
    wait() const
    {
        std::unique_lock lock(_mutex);
        _cv.wait(lock, [&] { return _done; });
    }

    /**
     * Request cancellation: shards still queued are dropped immediately
     * and accounted as cancelled on their backend; a running device
     * shard stops at its next job or lane-group boundary and accounts
     * its unstarted jobs as cancelled; running CPU/GPU shards finish
     * normally. When the drop retires the ticket's last outstanding
     * shard, its completion callback runs synchronously on the
     * cancelling thread. Returns false when the ticket had already
     * completed (nothing to cancel), true otherwise — including repeat
     * calls while the cancellation is in flight.
     */
    bool
    cancel()
    {
        {
            std::lock_guard lock(_mutex);
            if (_done)
                return false;
            if (_cancelled.exchange(true, std::memory_order_acq_rel))
                return true; // first cancel() already dropped the queues
        }
        if (auto core = _core.lock())
            core->dropTicket(*this);
        return true;
    }

    /** True once cancel() has been requested. */
    bool
    cancelled() const
    {
        return _cancelled.load(std::memory_order_acquire);
    }

    /** The scheduling class this ticket was submitted with. */
    const TicketOptions &options() const { return _options; }

    /** The batch's jobs (owned or borrowed), in submission order. */
    const std::vector<Job> &jobs() const { return _view ? *_view : _jobs; }

    /** Per-job results, indexed like jobs(). Valid once done(). */
    const std::vector<Result> &results() const { return _results; }

    /** Per-job cycle counts, indexed like jobs(). Valid once done(). */
    const std::vector<uint64_t> &cycles() const { return _cycles; }

    /**
     * Per-job completion mask, indexed like jobs(), valid once done():
     * 1 when the job actually ran (its result/cycles slots are live),
     * 0 when its shard was dropped by cancel() (the slots hold default
     * values). All-ones unless the ticket was cancelled.
     */
    const std::vector<uint8_t> &completed() const { return _completed; }

    /** Per-ticket accounting, finalized at completion. */
    const BatchStats &stats() const { return _stats; }

  private:
    friend class StreamPipeline<K>;
    friend class detail::DispatchCore<K>;

    std::vector<Job> _jobs;                 //!< owned (submit path)
    const std::vector<Job> *_view = nullptr; //!< borrowed (runAll path)
    std::vector<Result> _results;
    std::vector<uint64_t> _cycles;
    std::vector<uint8_t> _completed;
    BatchStats _stats;
    TicketOptions _options;
    std::function<void(BatchTicket &)> _callback;
    std::weak_ptr<detail::DispatchCore<K>> _core;
    std::atomic<bool> _cancelled{false};
    int _pending = 0; //!< shards still running (under _mutex)
    bool _done = false;
    mutable std::mutex _mutex;
    mutable std::condition_variable _cv;
};

namespace detail {

template <core::KernelSpec K>
ChannelStats &
DispatchCore<K>::acctFor(BatchTicket<K> &ticket, int s)
{
    if (s < _nk)
        return ticket._stats.channels[static_cast<size_t>(s)];
    if (s == _nk)
        return ticket._stats.cpu;
    return ticket._stats.gpu;
}

template <core::KernelSpec K>
void
DispatchCore<K>::push(std::vector<std::pair<int, ShardEntry>> &entries,
                      bool preemption)
{
    std::lock_guard lock(_mutex);
    for (auto &[s, entry] : entries) {
        Slot &sl = slot(s);
        if (preemption && sl.runningToken != nullptr &&
            entry.priority > sl.runningPriority && !_paused) {
            sl.runningToken->request();
        }
        sl.queue.insert(std::move(entry));
        _work.notify_one();
    }
}

template <core::KernelSpec K>
bool
DispatchCore<K>::startableLocked()
{
    if (_paused)
        return false;
    for (const Slot &sl : _slots) {
        if (sl.busy < sl.capacity && !sl.queue.empty())
            return true;
    }
    return false;
}

template <core::KernelSpec K>
int
DispatchCore<K>::take(ShardEntry &out)
{
    for (;;) {
        int best = -1;
        ShardEntry entry;
        bool start = false;
        {
            std::unique_lock lock(_mutex);
            _work.wait(lock, [&] {
                if (startableLocked())
                    return true;
                if (!_stopping)
                    return false;
                return std::all_of(_slots.begin(), _slots.end(),
                                   [](const Slot &sl) {
                                       return sl.queue.empty();
                                   });
            });
            if (!startableLocked()) {
                // Stopping with nothing left: wake the other idle
                // workers so they see it too.
                _work.notify_all();
                return -1;
            }
            // Aging pop: the oldest submission runs regardless of
            // priority, bounding bulk-class queueing under a saturating
            // high-priority stream.
            _pops++;
            const bool aging = _agingEvery > 0 &&
                               _pops % static_cast<uint64_t>(_agingEvery) ==
                                   0;
            typename Queue::iterator pick;
            for (int s = 0; s < slotCount(); s++) {
                Slot &sl = slot(s);
                if (sl.busy >= sl.capacity || sl.queue.empty())
                    continue;
                auto head = aging
                                ? std::min_element(
                                      sl.queue.begin(), sl.queue.end(),
                                      [](const ShardEntry &a,
                                         const ShardEntry &b) {
                                          return a.seq < b.seq;
                                      })
                                : sl.queue.begin();
                // Strict comparisons: ties keep the lower slot.
                if (best < 0 || (aging ? head->seq < pick->seq
                                       : entryBefore(*head, *pick))) {
                    best = s;
                    pick = head;
                }
            }
            entry = std::move(slot(best).queue.extract(pick).value());
            // Decide under the lock: if the shard starts, its capacity
            // unit must be owned by exactly this pop.
            start = !entry.ticket->cancelled();
            if (start)
                slot(best).busy++;
        }
        if (!start) {
            retire(best, entry);
            continue;
        }
        out = std::move(entry);
        return best;
    }
}

template <core::KernelSpec K>
void
DispatchCore<K>::setRunning(int s, PreemptToken *token, int priority)
{
    std::lock_guard lock(_mutex);
    slot(s).runningToken = token;
    slot(s).runningPriority = priority;
}

template <core::KernelSpec K>
void
DispatchCore<K>::release(int s, ShardEntry *remainder)
{
    std::lock_guard lock(_mutex);
    Slot &sl = slot(s);
    sl.runningToken = nullptr;
    sl.runningPriority = 0;
    // A cancel() racing this insert is safe: dropTicket or take()'s
    // cancelled-entry discard retires the shard either way, exactly once.
    if (remainder != nullptr)
        sl.queue.insert(std::move(*remainder));
    sl.busy--;
    // The releasing worker still has the path-stats merge and the
    // completion callback ahead: hand the slot's next shard to an idle
    // worker so it overlaps them.
    if (!sl.queue.empty())
        _work.notify_one();
}

template <core::KernelSpec K>
void
DispatchCore<K>::dropTicket(BatchTicket<K> &ticket)
{
    std::vector<std::pair<int, ShardEntry>> dropped;
    {
        std::lock_guard lock(_mutex);
        for (int s = 0; s < slotCount(); s++) {
            auto &q = slot(s).queue;
            // At most one entry per (ticket, slot): routing emits one
            // shard per backend slot per batch.
            auto it = std::find_if(q.begin(), q.end(),
                                   [&](const ShardEntry &e) {
                                       return e.ticket.get() == &ticket;
                                   });
            if (it != q.end())
                dropped.emplace_back(s, std::move(q.extract(it).value()));
        }
    }
    for (const auto &[s, entry] : dropped)
        retire(s, entry);
}

template <core::KernelSpec K>
void
DispatchCore<K>::retire(int s, const ShardEntry &entry)
{
    noteCompleted(s, entry.estSeconds);
    // No writer race: the entry is out of its queue, so no worker will
    // account this (ticket, slot) bucket concurrently.
    acctFor(*entry.ticket, s).cancelled +=
        static_cast<int>(entry.indices.size());
    finishShard(*entry.ticket);
}

template <core::KernelSpec K>
void
DispatchCore<K>::pause()
{
    std::lock_guard lock(_mutex);
    _paused = true;
}

template <core::KernelSpec K>
void
DispatchCore<K>::resume()
{
    std::lock_guard lock(_mutex);
    _paused = false;
    _work.notify_all();
}

template <core::KernelSpec K>
void
DispatchCore<K>::stop()
{
    std::lock_guard lock(_mutex);
    _paused = false;
    _stopping = true;
    _work.notify_all();
}

template <core::KernelSpec K>
void
DispatchCore<K>::finishShard(BatchTicket<K> &ticket)
{
    std::function<void(BatchTicket<K> &)> callback;
    {
        std::lock_guard lock(ticket._mutex);
        if (ticket._pending > 0 && --ticket._pending > 0)
            return;
        finalizeBatchStats(ticket._stats, _fmaxMhz, _cpuMhz);
        DPHLS_DCHECK(ticket._stats.alignments + ticket._stats.cancelled ==
                         static_cast<int>(ticket.jobs().size()),
                     "ticket accounting not closed: ",
                     ticket._stats.alignments, " aligned + ",
                     ticket._stats.cancelled, " cancelled != ",
                     ticket.jobs().size(), " jobs");
        callback = std::move(ticket._callback);
    }
    if (callback)
        callback(ticket);
    {
        std::lock_guard lock(ticket._mutex);
        ticket._done = true;
        // Notify under the lock: a collect()or woken between unlock and
        // notify may destroy the ticket (and its CV) mid-broadcast.
        ticket._cv.notify_all();
    }
}

} // namespace detail

/**
 * Streaming multi-backend pipeline running kernel @p K.
 *
 * Thread-safety: submit()/collect()/drain()/pause()/resume() and ticket
 * cancel() may be called concurrently from any thread. Completion
 * callbacks usually run on a worker thread, but fire synchronously on
 * the thread that retires the ticket's last shard: submit() of an
 * empty batch, or a cancel() that drops the last queued shard —
 * callbacks must not throw, must never wait on their own ticket, and
 * must not take locks the cancelling/submitting thread may already
 * hold. Destroying the pipeline drains every queued and in-flight
 * shard first (releasing a pause if one is active), so held tickets
 * complete (and become collectible) even when the pipeline dies before
 * they are waited on — including cancelled-but-unwaited tickets, whose
 * callbacks have already run or been destroyed with the ticket, never
 * leaked.
 */
template <core::KernelSpec K>
class StreamPipeline
{
  public:
    using CharT = typename K::CharT;
    using ScoreT = typename K::ScoreT;
    using Result = core::AlignResult<ScoreT>;
    using Job = AlignmentJob<CharT>;
    using Params = typename K::Params;
    using Ticket = std::shared_ptr<BatchTicket<K>>;
    using Callback = std::function<void(BatchTicket<K> &)>;

    explicit StreamPipeline(BatchConfig cfg = {},
                            Params params = K::defaultParams())
        : _cfg(cfg), _params(params),
          _cache(cfg.cacheEntries, cfg.cacheShards)
    {
        _cfg.nk = std::max(1, _cfg.nk);
        _cfg.nb = std::max(1, _cfg.nb);
        _cfg.threads = std::max(1, _cfg.threads > 0 ? _cfg.threads
                                                    : _cfg.nk);
        _cfg.agingEvery = std::max(0, _cfg.agingEvery);
        _cfg.stageFifoDepth = std::max(1, _cfg.stageFifoDepth);
        _cfg.laneWidth = std::clamp(_cfg.laneWidth, 1,
                                    sim::LaneAligner<K>::maxLanes);
        _core = std::make_shared<detail::DispatchCore<K>>(
            _cfg.nk, _cfg.fmaxMhz, _cfg.cpuEquivalentMhz,
            _cfg.agingEvery);
        const int baseline_width = std::max(
            1, _cfg.cpuThreads > 0 ? _cfg.cpuThreads : _cfg.threads);
        _core->slot(_core->cpuSlot()).capacity = baseline_width;
        _core->slot(_core->gpuSlot()).capacity = baseline_width;
        sim::EngineConfig ecfg;
        ecfg.numPe = _cfg.npe;
        ecfg.bandWidth = _cfg.bandWidth;
        ecfg.maxQueryLength = _cfg.maxQueryLength;
        ecfg.maxReferenceLength = _cfg.maxReferenceLength;
        ecfg.skipTraceback = _cfg.skipTraceback;
        ecfg.cycles = _cfg.cycles;
        ecfg.isaTier = _cfg.isaTier;
        // Resolve now so an unsupported explicit tier fails at
        // construction, not on the first aligned batch.
        _resolvedTier = sim::resolveIsaTier(_cfg.isaTier);
        _channels.reserve(static_cast<size_t>(_cfg.nk));
        for (int c = 0; c < _cfg.nk; c++) {
            _channels.push_back(std::make_unique<DeviceChannelBackend<K>>(
                ecfg, _params, _cfg.nb, _cfg.hostOverheadCycles,
                _cfg.fmaxMhz, &_cache, _cfg.laneWidth,
                _cfg.sortLanesByLength));
        }
        if (_cfg.cpuFallback) {
            const int cpu_threads = _cfg.cpuThreads > 0 ? _cfg.cpuThreads
                                                        : _cfg.threads;
            _cpu = std::make_unique<CpuBaselineBackend<K>>(
                _params, _cfg.bandWidth, _cfg.cpuEquivalentMhz,
                cpu_threads, _cfg.skipTraceback,
                _cfg.cpuModeledCellsPerSec);
        }
        if (_cfg.gpuModel && GpuModelBackend<K>::covered()) {
            const int gpu_threads = _cfg.cpuThreads > 0 ? _cfg.cpuThreads
                                                        : _cfg.threads;
            _gpu = std::make_unique<GpuModelBackend<K>>(
                _params, _cfg.bandWidth, gpu_threads,
                _cfg.skipTraceback);
        }
        try {
            for (int t = 0; t < _cfg.threads; t++) {
                _workers.emplace_back([this] {
                    for (;;) {
                        ShardEntry entry;
                        const int s = _core->take(entry);
                        if (s < 0)
                            return;
                        runShard(s, entry);
                    }
                });
            }
        } catch (...) {
            // A thread that failed to start: let the started workers
            // exit so their destructors can join them.
            _core->stop();
            throw;
        }
    }

    /**
     * Drains every queued and in-flight shard (releasing any pause), so
     * the backends outlive all work that references them and every held
     * ticket reaches its terminal state.
     */
    ~StreamPipeline()
    {
        // Each worker exits only once it finds every queue empty, and a
        // worker inside runShard — its completion callback included —
        // comes back to look, so follow-up tickets a callback submits
        // run too. Once all have joined, a concurrent ticket cancel()
        // can no longer reach backend state.
        _core->stop();
        _workers.clear();
    }

    const BatchConfig &config() const { return _cfg; }
    int channelCount() const { return _cfg.nk; }
    int threadCount() const { return static_cast<int>(_workers.size()); }

    /** Resolved host SIMD tier the device channels dispatch to. */
    sim::IsaTier activeIsaTier() const { return _resolvedTier; }

    /** Result-cache hit/miss/eviction counters (lifetime totals). */
    CacheCounters cacheCounters() const { return _cache.counters(); }

    /**
     * Stop starting new shards; submissions still queue (in scheduling
     * order) until resume(). Shards already running finish normally.
     */
    void pause() { _core->pause(); }

    /** Re-open dispatch and release queued shards in scheduling order. */
    void resume() { _core->resume(); }

    /**
     * Enqueue an owned batch for asynchronous execution; the returned
     * ticket completes when every shard has finished. @p callback (if
     * any) fires once on a worker thread at completion.
     */
    Ticket
    submit(std::vector<Job> jobs, Callback callback = nullptr)
    {
        return submit(std::move(jobs), TicketOptions{},
                      std::move(callback));
    }

    /** submit() with an explicit scheduling class. */
    Ticket
    submit(std::vector<Job> jobs, TicketOptions options,
           Callback callback = nullptr)
    {
        auto ticket = std::make_shared<BatchTicket<K>>();
        ticket->_jobs = std::move(jobs);
        ticket->_options = std::move(options);
        ticket->_callback = std::move(callback);
        enqueue(ticket);
        return ticket;
    }

    /**
     * Enqueue a borrowed batch: the caller guarantees @p jobs outlives
     * the ticket's completion (runAll() and the hetero device use this
     * to avoid copying).
     */
    Ticket
    submitBorrowed(const std::vector<Job> &jobs, Callback callback = nullptr)
    {
        return submitBorrowed(jobs, TicketOptions{}, std::move(callback));
    }

    /** submitBorrowed() with an explicit scheduling class. */
    Ticket
    submitBorrowed(const std::vector<Job> &jobs, TicketOptions options,
                   Callback callback = nullptr)
    {
        auto ticket = std::make_shared<BatchTicket<K>>();
        ticket->_view = &jobs;
        ticket->_options = std::move(options);
        ticket->_callback = std::move(callback);
        enqueue(ticket);
        return ticket;
    }

    /**
     * Wait for @p ticket, retire it from the outstanding set and return
     * its per-ticket statistics. When @p results / @p job_cycles are
     * given, the ticket's outputs are moved into them (collect with
     * outputs at most once per ticket); otherwise they stay readable on
     * the ticket.
     */
    BatchStats
    collect(const Ticket &ticket, std::vector<Result> *results = nullptr,
            std::vector<uint64_t> *job_cycles = nullptr)
    {
        ticket->wait();
        {
            std::lock_guard lock(_outstandingMutex);
            auto it = std::find(_outstanding.begin(), _outstanding.end(),
                                ticket);
            if (it != _outstanding.end())
                _outstanding.erase(it);
        }
        if (results)
            *results = std::move(ticket->_results);
        if (job_cycles)
            *job_cycles = std::move(ticket->_cycles);
        return ticket->_stats;
    }

    /**
     * Compatibility wrapper: block until every outstanding ticket has
     * completed and return the aggregate statistics, with optional
     * per-job results and cycles ordered by submission. Safe to overlap
     * with concurrent submit(): accounting is per-ticket, so a racing
     * submission lands either in this epoch or in the next one, never
     * half in each. Cancelled tickets contribute their partial outputs
     * (default results for dropped jobs) and cancelled counts.
     */
    BatchStats
    drain(std::vector<Result> *results = nullptr,
          std::vector<uint64_t> *job_cycles = nullptr)
    {
        std::vector<Ticket> drained;
        {
            std::lock_guard lock(_outstandingMutex);
            drained.swap(_outstanding);
        }
        if (results)
            results->clear();
        if (job_cycles)
            job_cycles->clear();

        BatchStats agg;
        agg.isaTier = sim::isaTierName(_resolvedTier);
        agg.channels.assign(static_cast<size_t>(_cfg.nk), ChannelStats{});
        for (const auto &t : drained) {
            t->wait();
            accumulateBatchStats(agg, t->_stats);
            if (results) {
                results->insert(
                    results->end(),
                    std::make_move_iterator(t->_results.begin()),
                    std::make_move_iterator(t->_results.end()));
            }
            if (job_cycles) {
                job_cycles->insert(job_cycles->end(), t->_cycles.begin(),
                                   t->_cycles.end());
            }
        }
        finalizeBatchStats(agg, _cfg.fmaxMhz, _cfg.cpuEquivalentMhz);
        return agg;
    }

    /**
     * Reserving admission view: route @p jobs, book their per-slot
     * estimates into the live backlog signal, and return a reservation
     * whose estimateSeconds() is the modeled completion time *given
     * every earlier booking*. Deadline-aware admission control
     * (serve/admission.hh) rejects a ticket at submit when this
     * estimate already exceeds its deadline budget. Booking and reading
     * in one step closes the estimate/submit race: concurrent reservers
     * serialize through the slots' atomic backlog counters, so the
     * total work admitted against a deadline budget is bounded even
     * under concurrent submitters (tests/test_admission_reserve.cc).
     *
     * On admit, pass the reservation to submit() — the enqueue swaps
     * the booking for the ticket's live entries. On reject, release()
     * it (or let it go out of scope). Throws std::invalid_argument
     * (like submit()) when some job no enabled backend can take,
     * booking nothing.
     */
    AdmissionReservation
    reserveCompletion(const std::vector<Job> &jobs)
    {
        const Routing r = routeCostModel(jobs, TicketOptions{});
        std::vector<std::pair<int, double>> booked;
        auto book = [&](int s, double est, bool used) {
            if (!used)
                return;
            _core->noteEnqueued(s, est);
            booked.emplace_back(s, est);
        };
        for (int c = 0; c < _cfg.nk; c++) {
            book(c, r.shardEst[static_cast<size_t>(c)],
                 !r.shards[static_cast<size_t>(c)].empty());
        }
        book(_core->cpuSlot(), r.cpuEst, !r.cpu.empty());
        book(_core->gpuSlot(), r.gpuEst, !r.gpu.empty());

        // Read the backlog *after* booking: the loaded value includes
        // this batch's own work plus every reservation booked before it
        // in the counters' modification order, which is what makes
        // concurrent admission decisions sum correctly (a later value
        // can only be larger — conservative, never optimistic).
        AdmissionReservation res;
        for (const auto &[s, est] : booked) {
            res._estimate =
                std::max(res._estimate, _core->queuedSeconds(s));
        }
        std::weak_ptr<Core> core = _core;
        res._release = [core, entries = std::move(booked)] {
            if (auto c = core.lock()) {
                for (const auto &[s, est] : entries)
                    c->noteCompleted(s, est);
            }
        };
        return res;
    }

    /**
     * submit() committing an admission reservation: the ticket enqueues
     * normally (adding its live routed estimates), then the reservation
     * is released — add-before-release, so the backlog signal never
     * dips below the real queued work. When submission throws, the
     * reservation parameter's destructor still releases the booking.
     */
    Ticket
    submit(std::vector<Job> jobs, TicketOptions options,
           Callback callback, AdmissionReservation reservation)
    {
        Ticket ticket =
            submit(std::move(jobs), std::move(options),
                   std::move(callback));
        reservation.release();
        return ticket;
    }

    /**
     * Blocking convenience: run one batch to completion and return its
     * statistics (other in-flight tickets are untouched).
     */
    BatchStats
    runAll(const std::vector<Job> &jobs,
           std::vector<Result> *results = nullptr,
           std::vector<uint64_t> *job_cycles = nullptr,
           TicketOptions options = {})
    {
        auto ticket = submitBorrowed(jobs, std::move(options));
        return collect(ticket, results, job_cycles);
    }

  private:
    using Core = detail::DispatchCore<K>;
    using ShardEntry = typename Core::ShardEntry;

    /** True when the Threshold policy routes @p job to the CPU backend. */
    bool
    routeToCpu(const Job &job) const
    {
        if (!_cpu)
            return false;
        const int qlen = job.query.length();
        const int rlen = job.reference.length();
        if (qlen > _cfg.maxQueryLength || rlen > _cfg.maxReferenceLength)
            return true;
        return _cfg.cpuFloorLen > 0 &&
               std::max(qlen, rlen) < _cfg.cpuFloorLen;
    }

    [[noreturn]] void
    throwUndispatchable(int idx, const Job &job) const
    {
        throw std::invalid_argument(
            "dispatch: job " + std::to_string(idx) + " (" +
            std::to_string(job.query.length()) + " x " +
            std::to_string(job.reference.length()) +
            ") exceeds device maxima (" +
            std::to_string(_cfg.maxQueryLength) + " x " +
            std::to_string(_cfg.maxReferenceLength) +
            ") and no fallback backend is enabled");
    }

    /** Routing outcome of one batch: per-channel shards + CPU/GPU. */
    struct Routing
    {
        std::vector<std::vector<int>> shards;
        std::vector<int> cpu, gpu;
        std::vector<double> shardEst; //!< per-channel estimated seconds
        double cpuEst = 0, gpuEst = 0;
    };

    /**
     * Threshold routing: the original shape rule — CPU for oversized/
     * tiny jobs, round-robin device sharding for the rest. The
     * round-robin continues across tickets: a ticket's i-th device job
     * goes to channel (cursor + i) mod nk, and the cursor then moves
     * past the ticket's device jobs, so a stream of one-job tickets
     * spreads over every channel instead of queueing on channel 0.
     * Shard sizes per ticket are shardIndicesRoundRobin's, and a fresh
     * pipeline's first ticket shards exactly like it (job i on channel
     * i mod nk). An oversized job with no CPU backend falls back to the
     * GPU model when that is enabled (its full-matrix implementation
     * has no length limit) before failing loudly.
     */
    Routing
    routeThreshold(const std::vector<Job> &jobs)
    {
        Routing r;
        std::vector<int> device_idx;
        device_idx.reserve(jobs.size());
        for (int i = 0; i < static_cast<int>(jobs.size()); i++) {
            const Job &job = jobs[static_cast<size_t>(i)];
            const bool oversized =
                job.query.length() > _cfg.maxQueryLength ||
                job.reference.length() > _cfg.maxReferenceLength;
            if (routeToCpu(job)) {
                r.cpu.push_back(i);
            } else if (oversized) {
                if (_gpu)
                    r.gpu.push_back(i);
                else
                    throwUndispatchable(i, job);
            } else {
                device_idx.push_back(i);
            }
        }
        r.shards = shardIndicesRoundRobin(device_idx, _cfg.nk);
        const size_t nk = r.shards.size();
        const size_t first = _nextChannel.fetch_add(device_idx.size()) % nk;
        std::rotate(r.shards.begin(),
                    r.shards.begin() + static_cast<std::ptrdiff_t>(
                                           (nk - first) % nk),
                    r.shards.end());
        // Threshold routing ignores estimates for its *decisions*, but
        // the queued-work signal the estimates feed (noteEnqueued /
        // reserveCompletion) must be real
        // under every dispatch policy — admission control against a
        // permanently-zero backlog admits everything
        // (tests/test_admission_reserve.cc).
        r.shardEst.assign(r.shards.size(), 0.0);
        for (size_t c = 0; c < r.shards.size(); c++) {
            if (r.shards[c].empty())
                continue;
            r.shardEst[c] = _channels[0]->batchOverheadSeconds();
            for (int i : r.shards[c])
                r.shardEst[c] +=
                    _channels[0]->estimate(jobs[static_cast<size_t>(i)])
                        .seconds;
        }
        if (!r.cpu.empty()) {
            r.cpuEst = _cpu->batchOverheadSeconds();
            for (int i : r.cpu)
                r.cpuEst +=
                    _cpu->estimate(jobs[static_cast<size_t>(i)]).seconds;
        }
        if (!r.gpu.empty()) {
            r.gpuEst = _gpu->batchOverheadSeconds();
            for (int i : r.gpu)
                r.gpuEst +=
                    _gpu->estimate(jobs[static_cast<size_t>(i)]).seconds;
        }
        return r;
    }

    /**
     * Cost-model routing: every job goes to the feasible backend slot
     * (each device channel, the CPU backend, the GPU model) with the
     * lowest estimated completion time — the slot's live queued-work
     * signal, plus work routed earlier in this same batch, plus the
     * job's service estimate. Ties prefer the device (its estimates
     * are exact; the baselines' are learned or modeled).
     *
     * With a ticket deadline the argmin is deadline-aware: among slots
     * whose estimated completion beats the remaining deadline budget,
     * the one with the lowest marginal *service* cost wins even if
     * another slot would complete sooner — meeting the deadline on the
     * cheapest capacity keeps the fast backends free. When no slot can
     * meet the deadline the router falls back to earliest completion
     * (least lateness).
     */
    Routing
    routeCostModel(const std::vector<Job> &jobs,
                   const TicketOptions &options) const
    {
        constexpr double inf = std::numeric_limits<double>::infinity();
        double deadline_budget = inf;
        if (options.hasDeadline()) {
            deadline_budget = std::max(
                0.0, std::chrono::duration<double>(
                         options.deadline -
                         std::chrono::steady_clock::now())
                         .count());
        }

        Routing r;
        r.shards.assign(static_cast<size_t>(_cfg.nk), {});
        r.shardEst.assign(static_cast<size_t>(_cfg.nk), 0.0);
        std::vector<double> ch_queued(static_cast<size_t>(_cfg.nk), 0.0);
        for (int c = 0; c < _cfg.nk; c++)
            ch_queued[static_cast<size_t>(c)] = _core->queuedSeconds(c);
        const double cpu_queued =
            _cpu ? _core->queuedSeconds(_core->cpuSlot()) : 0;
        const double gpu_queued =
            _gpu ? _core->queuedSeconds(_core->gpuSlot()) : 0;
        // Per-shard fixed costs (the GPU model's kernel launch): paid
        // by the first job routed to the slot in this batch, so small
        // batches see the true marginal cost of waking a backend.
        const double dev_overhead = _channels[0]->batchOverheadSeconds();
        const double cpu_overhead =
            _cpu ? _cpu->batchOverheadSeconds() : 0;
        const double gpu_overhead =
            _gpu ? _gpu->batchOverheadSeconds() : 0;

        for (int i = 0; i < static_cast<int>(jobs.size()); i++) {
            const Job &job = jobs[static_cast<size_t>(i)];
            // All device channels share one configuration, so one
            // estimate covers them; the choice between channels is
            // purely their backlog.
            const CostEstimate dev = _channels[0]->estimate(job);
            const CostEstimate cpu_est =
                _cpu ? _cpu->estimate(job) : CostEstimate{0, false};
            const CostEstimate gpu_est =
                _gpu ? _gpu->estimate(job) : CostEstimate{0, false};

            int best_channel = -1;
            double best = inf;
            if (dev.feasible) {
                for (int c = 0; c < _cfg.nk; c++) {
                    const double first =
                        r.shards[static_cast<size_t>(c)].empty()
                            ? dev_overhead
                            : 0;
                    const double t = ch_queued[static_cast<size_t>(c)] +
                                     r.shardEst[static_cast<size_t>(c)] +
                                     dev.seconds + first;
                    if (t < best) {
                        best = t;
                        best_channel = c;
                    }
                }
            }
            const double dev_total = best;
            const double cpu_first = r.cpu.empty() ? cpu_overhead : 0;
            const double gpu_first = r.gpu.empty() ? gpu_overhead : 0;
            const double cpu_total =
                cpu_est.feasible
                    ? cpu_queued + r.cpuEst + cpu_est.seconds + cpu_first
                    : inf;
            const double gpu_total =
                gpu_est.feasible
                    ? gpu_queued + r.gpuEst + gpu_est.seconds + gpu_first
                    : inf;
            enum { Device, Cpu, Gpu } target = Device;
            if (cpu_total < best) {
                best = cpu_total;
                target = Cpu;
            }
            if (gpu_total < best) {
                best = gpu_total;
                target = Gpu;
            }
            if (!dev.feasible && target == Device) {
                if (cpu_est.feasible) {
                    target = Cpu;
                } else if (gpu_est.feasible) {
                    target = Gpu;
                } else {
                    throwUndispatchable(i, job);
                }
            }
            if (deadline_budget < inf) {
                // Deadline-aware override: cheapest service cost among
                // the slots that still meet the deadline (iteration
                // order keeps the device-first tie preference).
                double best_cost = inf;
                int met = -1;
                if (dev.feasible && dev_total <= deadline_budget) {
                    best_cost = dev.seconds;
                    met = Device;
                }
                if (cpu_est.feasible && cpu_total <= deadline_budget &&
                    cpu_est.seconds < best_cost) {
                    best_cost = cpu_est.seconds;
                    met = Cpu;
                }
                if (gpu_est.feasible && gpu_total <= deadline_budget &&
                    gpu_est.seconds < best_cost) {
                    best_cost = gpu_est.seconds;
                    met = Gpu;
                }
                if (met == Device)
                    target = Device;
                else if (met == Cpu)
                    target = Cpu;
                else if (met == Gpu)
                    target = Gpu;
            }
            switch (target) {
              case Device: {
                auto &shard = r.shards[static_cast<size_t>(best_channel)];
                if (shard.empty())
                    r.shardEst[static_cast<size_t>(best_channel)] +=
                        dev_overhead;
                shard.push_back(i);
                r.shardEst[static_cast<size_t>(best_channel)] +=
                    dev.seconds;
                break;
              }
              case Cpu:
                r.cpu.push_back(i);
                r.cpuEst += cpu_est.seconds + cpu_first;
                break;
              case Gpu:
                r.gpu.push_back(i);
                r.gpuEst += gpu_est.seconds + gpu_first;
                break;
            }
        }
        return r;
    }

    void
    enqueue(const Ticket &ticket)
    {
        const auto &jobs = ticket->jobs();
        const int n = static_cast<int>(jobs.size());
        const TicketOptions &opt = ticket->_options;

        // Route first: an undispatchable job throws here, before the
        // ticket is registered, so a failed submit leaves the pipeline
        // with nothing outstanding.
        Routing routing = _cfg.dispatch == DispatchPolicy::CostModel
                              ? routeCostModel(jobs, opt)
                              : routeThreshold(jobs);

        ticket->_core = _core;
        ticket->_results.resize(static_cast<size_t>(n));
        ticket->_cycles.assign(static_cast<size_t>(n), 0);
        ticket->_completed.assign(static_cast<size_t>(n), 0);
        ticket->_stats.isaTier = sim::isaTierName(_resolvedTier);
        ticket->_stats.channels.assign(static_cast<size_t>(_cfg.nk),
                                       ChannelStats{});

        // Collect (slot, shard, estimate) triples for every non-empty
        // shard the routing produced.
        std::vector<std::pair<int, ShardEntry>> entries;
        const uint64_t seq = _core->nextSeq();
        auto addEntry = [&](int slot, std::vector<int> &&indices,
                            double est) {
            if (indices.empty())
                return;
            ShardEntry e;
            e.ticket = ticket;
            e.indices = std::move(indices);
            e.estSeconds = est;
            e.priority = opt.priority;
            e.deadline = opt.deadline;
            e.seq = seq;
            entries.emplace_back(slot, std::move(e));
        };
        for (int c = 0; c < _cfg.nk; c++) {
            addEntry(c, std::move(routing.shards[static_cast<size_t>(c)]),
                     routing.shardEst[static_cast<size_t>(c)]);
        }
        addEntry(_core->cpuSlot(), std::move(routing.cpu), routing.cpuEst);
        addEntry(_core->gpuSlot(), std::move(routing.gpu), routing.gpuEst);

        ticket->_pending = static_cast<int>(entries.size());
        {
            std::lock_guard lock(_outstandingMutex);
            _outstanding.push_back(ticket);
        }
        if (entries.empty()) {
            _core->finishShard(*ticket); // empty batch completes now
            return;
        }

        for (const auto &[slot, entry] : entries)
            _core->noteEnqueued(slot, entry.estSeconds);
        _core->push(entries, _cfg.preemption);
    }

    /**
     * Execute one shard a worker took from slot @p s. A device shard
     * may stop early at a job or lane-group boundary: on preemption its
     * unstarted jobs re-queue as a remainder shard with the same
     * submission sequence (the ticket stays pending across
     * resumptions); on cancellation they are accounted as cancelled
     * and the shard retires.
     */
    void
    runShard(int s, ShardEntry &entry)
    {
        BatchTicket<K> &ticket = *entry.ticket;
        AlignBackend<K> *backend;
        if (s < _cfg.nk)
            backend = _channels[static_cast<size_t>(s)].get();
        else if (s == _core->cpuSlot())
            backend = _cpu.get();
        else
            backend = _gpu.get();
        ChannelStats &acct = _core->acctFor(ticket, s);

        // Only device channels run one shard at a time with boundaries
        // to yield at; the CPU/GPU slots never register a token.
        const bool preemptible = _cfg.preemption && s < _cfg.nk;
        PreemptToken token;
        StageRunControl ctl;
        ctl.cancelled = &ticket._cancelled;
        ctl.overlap = _cfg.stagePipeline;
        ctl.fifoDepth = _cfg.stageFifoDepth;
        if (preemptible) {
            ctl.preempt = &token;
            _core->setRunning(s, &token, entry.priority);
        }

        backend->run(ticket.jobs(), entry.indices, ticket._results.data(),
                     ticket._cycles.data(), acct, ctl);

        // Split by writeback outcome (grouping backends may finish out
        // of submission order, so this is not a prefix split); when
        // every job wrote back, no remainder is built.
        const size_t n = entry.indices.size();
        size_t ran = 0;
        for (size_t k = 0; k < n; k++) {
            if (ctl.done[k]) {
                ticket._completed[static_cast<size_t>(entry.indices[k])] = 1;
                ran++;
            }
        }
        if (ran > 0 &&
            entry.deadline !=
                detail::DispatchCore<K>::Clock::time_point::max() &&
            detail::DispatchCore<K>::Clock::now() > entry.deadline) {
            acct.deadlineMisses += static_cast<int>(ran);
        }
        std::vector<int> remainder;
        if (ran < n) {
            remainder.reserve(n - ran);
            for (size_t k = 0; k < n; k++) {
                if (!ctl.done[k])
                    remainder.push_back(entry.indices[k]);
            }
        }

        const bool requeue = ctl.preempted && !remainder.empty() &&
                             !ticket.cancelled();
        ShardEntry rest;
        if (requeue) {
            // Split the backlog estimate across the resumptions in
            // proportion to the work done, so the queued-seconds
            // signal stays truthful while the remainder waits.
            const double est_done = entry.estSeconds *
                static_cast<double>(ran) / static_cast<double>(n);
            _core->noteCompleted(s, est_done);
            acct.preemptions++;
            rest.ticket = entry.ticket;
            rest.indices = std::move(remainder);
            rest.estSeconds = entry.estSeconds - est_done;
            rest.priority = entry.priority;
            rest.deadline = entry.deadline;
            rest.seq = entry.seq; // keeps its FIFO-tiebreak position
        } else {
            acct.cancelled += static_cast<int>(remainder.size());
            _core->noteCompleted(s, entry.estSeconds);
        }

        // A re-queued remainder may finish the ticket on another worker
        // as soon as the slot is free, so merge this part's paths first.
        if (requeue) {
            collectPaths(ticket, entry.indices, ctl.done);
            _core->release(s, &rest);
            return;
        }
        // Free the slot before the (possibly slow) path-stats merge and
        // completion callback, so the next shard overlaps them.
        _core->release(s, nullptr);
        collectPaths(ticket, entry.indices, ctl.done);
        _core->finishShard(ticket);
    }

    /** Merge the path statistics of the shard jobs that wrote back. */
    void
    collectPaths(BatchTicket<K> &ticket, const std::vector<int> &indices,
                 const std::vector<uint8_t> &done)
    {
        if (!_cfg.collectPathStats)
            return;
        core::AlignmentStats local;
        const auto &jobs = ticket.jobs();
        for (size_t k = 0; k < indices.size(); k++) {
            if (!done[k])
                continue;
            const size_t idx = static_cast<size_t>(indices[k]);
            const auto &res = ticket._results[idx];
            if (res.ops.empty())
                continue;
            const auto &job = jobs[idx];
            mergePathStats(local,
                           core::computeStats(job.query, job.reference,
                                              res.ops, res.start));
        }
        std::lock_guard lock(ticket._mutex);
        mergePathStats(ticket._stats.paths, local);
    }

    BatchConfig _cfg;
    Params _params;
    sim::IsaTier _resolvedTier = sim::IsaTier::Scalar;
    ShardedResultCache<Result> _cache;
    DebugMutex _outstandingMutex{lockrank::kOutstanding, "outstanding"};
    std::vector<Ticket> _outstanding; //!< submitted, not yet retired
    std::shared_ptr<Core> _core;      //!< shared with issued tickets
    /** Threshold round-robin cursor: device jobs routed so far. */
    std::atomic<uint64_t> _nextChannel{0};
    std::vector<std::unique_ptr<AlignBackend<K>>> _channels;
    std::unique_ptr<CpuBaselineBackend<K>> _cpu;
    std::unique_ptr<GpuModelBackend<K>> _gpu;
    // Declared last: the workers run shards on the channels/backends
    // above, so they must be joined before those are destroyed (the
    // destructor joins them explicitly; this order keeps it true).
    std::deque<WorkerThread> _workers;
};

} // namespace dphls::host

#endif // DPHLS_HOST_STREAM_PIPELINE_HH
