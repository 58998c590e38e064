/**
 * @file
 * Host threads: the joining worker thread, parallelFor and the
 * cooperative preemption flag.
 *
 * The paper's host programs use multi-threading to keep the device's NK
 * independent channels busy (front-end step 6). StreamPipeline's
 * workers pull shards straight from its dispatch queues
 * (detail::DispatchCore in host/stream_pipeline.hh), so those queues
 * are the one place a shard is scheduled; each worker, like the
 * overlapped stage consumer (host/stage_flow.hh), runs on a
 * WorkerThread. parallelFor spreads an index range over short-lived
 * threads (the CPU baseline backends).
 */

#ifndef DPHLS_HOST_SCHEDULER_HH
#define DPHLS_HOST_SCHEDULER_HH

#include <atomic>
#include <functional>
#include <thread>

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
 * One host thread running one function, joined on destruction — the
 * only owner of a thread in the host layer. A StreamPipeline worker
 * loops over the dispatch queues until shutdown; a shard's overlapped
 * consumer (runStages) drains its inter-stage FIFO and can live on the
 * stack next to it: close the FIFO, then let scope end.
 */
class WorkerThread
{
  public:
    explicit WorkerThread(std::function<void()> fn);
    ~WorkerThread();

    WorkerThread(const WorkerThread &) = delete;
    WorkerThread &operator=(const WorkerThread &) = delete;

    /** Block until the function returns (idempotent). */
    void join();

  private:
    std::thread _thread;
};

/**
 * Run fn(i) for i in [0, n) across the given number of threads; blocks
 * until all iterations complete.
 */
void parallelFor(int n, int threads, const std::function<void(int)> &fn);

} // namespace dphls::host

#endif // DPHLS_HOST_SCHEDULER_HH
