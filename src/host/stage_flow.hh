/**
 * @file
 * The shard executor's stage plumbing: one producer feeding one
 * consumer.
 *
 * DP-HLS builds every kernel as a fill stage whose traceback pointers
 * feed a traceback stage. The host runs each device shard the same
 * way: a producer (cache replay + fill) emits work items, and a
 * consumer (traceback + cache insert + writeback) retires them.
 * runStages() is the only place that decides where the consumer runs:
 *
 *  - inline on the shard's worker (the default): every item is retired
 *    before the producer continues, so the shard runs in exactly the
 *    order one sequential loop would;
 *  - on its own WorkerThread behind a bounded SPSC FIFO
 *    (StageRunControl::overlap, BatchConfig::stagePipeline), so the
 *    traceback of job i overlaps the fill of job i+1. The FIFO bound
 *    is the decoupling depth: capacity 1 degenerates to a lockstep
 *    hand-off, larger capacities let a fast fill run ahead of a slow
 *    traceback.
 *
 * Either way the producer's job and lane-group boundaries are
 * cooperative scheduling points: it polls the shard's PreemptToken and
 * the owning ticket's cancellation flag through StageRunControl, so a
 * higher-priority ticket can take the slot mid-shard and a cancelled
 * ticket drops its not-yet-started jobs instead of running the whole
 * shard to completion.
 */

#ifndef DPHLS_HOST_STAGE_FLOW_HH
#define DPHLS_HOST_STAGE_FLOW_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "host/check.hh"
#include "host/scheduler.hh"

namespace dphls::host {

/**
 * Bounded single-producer single-consumer FIFO between shard stages.
 * push() blocks while full; pop() blocks until an item or close().
 */
template <typename T>
class BoundedFifo
{
  public:
    explicit BoundedFifo(size_t capacity)
        : _capacity(capacity < 1 ? 1 : capacity)
    {}

    /** Enqueue one item; blocks while the FIFO is at capacity. */
    void
    push(T item)
    {
        std::unique_lock<std::mutex> lock(_mutex);
        // SPSC state machine: only the producer closes, so a push
        // observing _closed is a use-after-close in the producer.
        DPHLS_DCHECK(!_closed, "BoundedFifo::push after close()");
        _spaceCv.wait(lock,
                      [this] { return _items.size() < _capacity; });
        DPHLS_DCHECK(_items.size() < _capacity,
                     "BoundedFifo over capacity: ", _items.size(),
                     " items, capacity ", _capacity);
        _items.push_back(std::move(item));
        _itemCv.notify_one();
    }

    /**
     * Dequeue one item; blocks until one is available. Returns empty
     * once the FIFO is closed AND drained.
     */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _itemCv.wait(lock,
                     [this] { return !_items.empty() || _closed; });
        DPHLS_DCHECK(!_items.empty() || _closed,
                     "BoundedFifo::pop woke with no item and not closed");
        if (_items.empty())
            return std::nullopt;
        DPHLS_DCHECK(_items.size() <= _capacity,
                     "BoundedFifo over capacity: ", _items.size(),
                     " items, capacity ", _capacity);
        T item = std::move(_items.front());
        _items.pop_front();
        _spaceCv.notify_one();
        return item;
    }

    /** Producer is done; pending items still drain. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _closed = true;
        _itemCv.notify_all();
    }

  private:
    const size_t _capacity;
    std::deque<T> _items;
    bool _closed = false;
    std::mutex _mutex;
    std::condition_variable _itemCv;
    std::condition_variable _spaceCv;
};

/**
 * Per-shard control block handed from the dispatcher into
 * AlignBackend::run(). Inputs tell the backend when to yield and where
 * its consumer runs; outputs tell the dispatcher which jobs actually
 * wrote back so it can re-queue or cancel-account the remainder.
 */
struct StageRunControl
{
    /** Preemption token of this run; null = preemption disabled. */
    const PreemptToken *preempt = nullptr;
    /** Owning ticket's cancellation flag; null = not cancellable. */
    const std::atomic<bool> *cancelled = nullptr;
    /** Run the consumer on its own thread (false = inline). */
    bool overlap = false;
    /** Capacity of the producer -> consumer FIFO (>= 1) when overlapped. */
    int fifoDepth = 4;

    /**
     * Out: done[k] == 1 once jobs[indices[k]]'s writeback completed.
     * Sized and zeroed by run(). Not an indices prefix: grouping
     * backends may finish out of submission order.
     */
    std::vector<uint8_t> done;
    /** Out: the producer stopped at a preemption point. */
    bool preempted = false;

    /** True when the producer must stop issuing new work. */
    bool
    shouldYield()
    {
        if (cancelled != nullptr &&
            cancelled->load(std::memory_order_acquire)) {
            return true;
        }
        if (preempt != nullptr && preempt->requested()) {
            preempted = true;
            return true;
        }
        return false;
    }
};

/**
 * Run one shard as @p produce feeding @p consume. produce(emit) calls
 * emit(Item &&) once per work item; consume(Item &) retires each item,
 * in emission order and always on one thread. With ctl.overlap off the
 * consumer runs inline inside emit(); with it on, on a WorkerThread
 * draining a BoundedFifo of ctl.fifoDepth items. Returns once every
 * emitted item has been consumed.
 */
template <typename Item, typename Produce, typename Consume>
void
runStages(const StageRunControl &ctl, Produce &&produce, Consume &&consume)
{
    if (!ctl.overlap) {
        produce([&](Item &&item) { consume(item); });
        return;
    }
    BoundedFifo<Item> fifo(static_cast<size_t>(ctl.fifoDepth));
    WorkerThread consumer([&] {
        while (auto item = fifo.pop())
            consume(*item);
    });
    try {
        produce([&](Item &&item) { fifo.push(std::move(item)); });
    } catch (...) {
        // Unblock the consumer before ~WorkerThread joins it.
        fifo.close();
        throw;
    }
    fifo.close();
    consumer.join();
}

} // namespace dphls::host

#endif // DPHLS_HOST_STAGE_FLOW_HH
