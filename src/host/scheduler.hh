/**
 * @file
 * Host-side thread pool with priority/deadline-aware task ordering.
 *
 * The paper's host programs use multi-threading to keep the device's NK
 * independent channels busy (front-end step 6). The device model and the
 * CPU baseline runner both use this pool to parallelize work across host
 * threads.
 *
 * Tasks are popped highest-priority first, then earliest-deadline, then
 * in submission order, so when worker threads are scarcer than runnable
 * shards the pool itself honors the StreamPipeline's latency classes.
 * The plain submit() overload enqueues at the default priority with no
 * deadline, which degrades to exact FIFO order — existing callers see
 * the historical behavior unchanged.
 *
 * Starvation control: a pool constructed with aging_every = N > 0
 * serves the *oldest* queued task (lowest submission sequence) on every
 * N-th pop instead of the best-priority one, so a saturating
 * high-priority stream cannot hold a lower class off the workers for
 * more than N-1 consecutive pops. 0 (the default) disables aging and
 * preserves strict (priority, deadline, FIFO) order.
 */

#ifndef DPHLS_HOST_SCHEDULER_HH
#define DPHLS_HOST_SCHEDULER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dphls::host {

/**
 * Cooperative preemption flag for an in-flight shard.
 *
 * The dispatcher registers one token per running device shard; a
 * higher-priority enqueue request()s it, and the shard's producer loop
 * polls requested() at job / lane-group boundaries, yielding the slot
 * with the remainder re-queued. Purely advisory: a backend that never
 * polls (the CPU/GPU baselines) simply runs to completion.
 */
class PreemptToken
{
  public:
    void request() { _requested.store(true, std::memory_order_release); }

    bool
    requested() const
    {
        return _requested.load(std::memory_order_acquire);
    }

  private:
    std::atomic<bool> _requested{false};
};

/**
 * The overlapped consumer of a shard (runStages in host/stage_flow.hh):
 * one dedicated thread draining the inter-stage FIFO. Joined on
 * destruction, so it can live on the stack next to the FIFO it drains —
 * close the FIFO, then let scope end.
 */
class StageWorker
{
  public:
    explicit StageWorker(std::function<void()> fn);
    ~StageWorker();

    StageWorker(const StageWorker &) = delete;
    StageWorker &operator=(const StageWorker &) = delete;

    /** Block until the drain function returns (idempotent). */
    void join();

  private:
    std::thread _thread;
};

/** Scheduling attributes of one pool task. */
struct TaskOptions
{
    /** Higher runs first. The default class is 0. */
    int priority = 0;
    /**
     * Absolute deadline in seconds on the steady clock's epoch;
     * infinity (the default) means no deadline. Among equal-priority
     * tasks the earliest deadline runs first.
     */
    double deadlineSeconds = std::numeric_limits<double>::infinity();
};

/**
 * A fixed-size thread pool executing enqueued tasks in (priority,
 * deadline, FIFO) order.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count (clamped to >= 1).
     * @param aging_every anti-starvation period: every N-th pop takes
     *        the oldest queued task instead of the highest-priority
     *        one; 0 disables aging (strict priority order).
     */
    explicit ThreadPool(int threads, int aging_every = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task at the default priority (FIFO among its peers). */
    void submit(std::function<void()> task);

    /** Enqueue a task with explicit scheduling attributes. */
    void submit(std::function<void()> task, const TaskOptions &options);

    /** Block until all submitted tasks have completed. */
    void wait();

    int threadCount() const { return static_cast<int>(_workers.size()); }

  private:
    /** One queued task plus its pop-ordering key. */
    struct Entry
    {
        int priority = 0;
        double deadline = std::numeric_limits<double>::infinity();
        uint64_t seq = 0;
        std::function<void()> fn;
    };

    /** True when @p a should run before @p b. */
    static bool runsBefore(const Entry &a, const Entry &b);

    void workerLoop();

    std::vector<std::thread> _workers;
    std::vector<Entry> _tasks; //!< max-heap ordered by runsBefore
    int _agingEvery = 0;       //!< 0 = no aging
    uint64_t _pops = 0;        //!< pops so far (aging phase, under _mutex)
    uint64_t _nextSeq = 0;
    std::mutex _mutex;
    std::condition_variable _cv;
    std::condition_variable _idleCv;
    size_t _active = 0;
    bool _stop = false;
};

/**
 * Run fn(i) for i in [0, n) across the given number of threads; blocks
 * until all iterations complete.
 */
void parallelFor(int n, int threads, const std::function<void(int)> &fn);

} // namespace dphls::host

#endif // DPHLS_HOST_SCHEDULER_HH
