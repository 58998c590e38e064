/**
 * @file
 * Debug invariant checking for the host layer: CHECK/DCHECK macros and
 * a lock-rank-asserting mutex.
 *
 * The host layer's correctness rests on invariants the example-based
 * tests can only sample — accounting closure (alignments + cancelled
 * == jobs, per-backend sections summing to epoch totals), the
 * BoundedFifo state machine, and a deadlock-free lock acquisition
 * order. This header turns those invariants into executable assertions:
 *
 *  - DPHLS_CHECK(cond, msg...) aborts with a diagnostic in every build
 *    type. Use it for contract violations that must never ship.
 *  - DPHLS_DCHECK(cond, msg...) compiles to the same check in Debug
 *    builds (!NDEBUG) and to nothing in Release, so hot paths can
 *    assert freely. The scheduler torture suite runs Debug, so these
 *    assertions see heavily randomized interleavings in CI.
 *  - DebugMutex is a std::mutex wrapper carrying a lock *rank*. Debug
 *    builds keep a thread-local stack of held ranks and abort when a
 *    thread acquires a mutex whose rank is not strictly greater than
 *    every rank it already holds — enforcing a global acquisition
 *    order, which makes lock-order deadlocks impossible by
 *    construction. Release builds are a plain std::mutex (no tracking,
 *    no atomic traffic). Mutexes paired with a std::condition_variable
 *    stay std::mutex (the CV type requires it); only the non-CV host
 *    locks are ranked.
 *
 * The rank table (lockrank::) is the single source of truth for the
 * host+serve layer's lock order. Two mutexes of the same rank must
 * never be held together (strictly-greater comparison), which also
 * outlaws holding two dispatch-slot locks at once.
 */

#ifndef DPHLS_HOST_CHECK_HH
#define DPHLS_HOST_CHECK_HH

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>

namespace dphls::host {

namespace checkdetail {

/** Fold any streamable arguments into one message string. */
template <typename... Args>
std::string
message(const Args &...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return {};
    } else {
        std::ostringstream os;
        (os << ... << args);
        return os.str();
    }
}

[[noreturn]] inline void
fail(const char *kind, const char *expr, const char *file, int line,
     const std::string &msg)
{
    std::fprintf(stderr, "%s failed: %s at %s:%d%s%s\n", kind, expr,
                 file, line, msg.empty() ? "" : ": ", msg.c_str());
    std::fflush(stderr);
    std::abort();
}

} // namespace checkdetail

} // namespace dphls::host

/** Abort (all build types) when @p cond is false; extra args stream
 *  into the diagnostic. */
#define DPHLS_CHECK(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::dphls::host::checkdetail::fail(                           \
                "DPHLS_CHECK", #cond, __FILE__, __LINE__,               \
                ::dphls::host::checkdetail::message(__VA_ARGS__));      \
        }                                                               \
    } while (0)

#ifndef NDEBUG
/** Debug-build invariant: identical to DPHLS_CHECK when NDEBUG is not
 *  defined, compiled out (condition unevaluated) in Release. */
#define DPHLS_DCHECK(cond, ...)                                         \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::dphls::host::checkdetail::fail(                           \
                "DPHLS_DCHECK", #cond, __FILE__, __LINE__,              \
                ::dphls::host::checkdetail::message(__VA_ARGS__));      \
        }                                                               \
    } while (0)
#define DPHLS_DCHECK_ENABLED 1
#else
#define DPHLS_DCHECK(cond, ...)                                         \
    do {                                                                \
    } while (0)
#define DPHLS_DCHECK_ENABLED 0
#endif

namespace dphls::host {

/**
 * Lock ranks of the host + serve layer, outermost first. A thread may
 * only acquire a DebugMutex whose rank is strictly greater than every
 * rank it already holds.
 */
namespace lockrank {
/** StreamPipeline::_outstandingMutex (ticket registry). */
constexpr int kOutstanding = 10;
/** DispatchCore::_mutex (every dispatch queue and slot; never nested
 *  with itself, never held across a backend run or a callback). */
constexpr int kDispatchSlot = 20;
/** AlignService::_ticketMutex (live-ticket reaping list). */
constexpr int kServiceTickets = 30;
/** AlignService::_statsMutex (epoch accounting + counters). */
constexpr int kServiceStats = 40;
/** TenantQuotas::_mtx (innermost: leaf calls only). */
constexpr int kTenantQuota = 50;
/** ClassLatencyProbe::_mutex (leaf; taken from ticket completion
 *  callbacks). */
constexpr int kLatencyProbe = 60;
} // namespace lockrank

#if DPHLS_DCHECK_ENABLED

namespace checkdetail {

/** Thread-local stack of held DebugMutexes (tiny; lock depth in this
 *  codebase never exceeds a handful). Identity is the mutex address —
 *  two slot mutexes share a rank and name but are distinct locks. */
struct HeldRanks
{
    static constexpr int kMaxDepth = 16;
    int ranks[kMaxDepth];
    const char *names[kMaxDepth];
    const void *owners[kMaxDepth];
    int depth = 0;
};

inline HeldRanks &
heldRanks()
{
    thread_local HeldRanks held;
    return held;
}

} // namespace checkdetail

/**
 * Rank-checked mutex (Debug builds). Satisfies Lockable, so
 * std::lock_guard / std::unique_lock / std::scoped_lock work unchanged.
 */
class DebugMutex
{
  public:
    explicit DebugMutex(int rank, const char *name)
        : _rank(rank), _name(name)
    {}

    void
    lock()
    {
        checkOrder();
        _m.lock();
        push();
    }

    bool
    try_lock()
    {
        // try_lock never blocks, so it cannot deadlock — but a success
        // still makes the thread *hold* the rank, so the order check
        // applies all the same.
        checkOrder();
        if (!_m.try_lock())
            return false;
        push();
        return true;
    }

    void
    unlock()
    {
        pop();
        _m.unlock();
    }

    /** True when the calling thread holds this mutex (for DCHECKs). */
    bool
    heldByThisThread() const
    {
        const auto &held = checkdetail::heldRanks();
        for (int i = 0; i < held.depth; i++) {
            if (held.owners[i] == this)
                return true;
        }
        return false;
    }

  private:
    void
    checkOrder() const
    {
        const auto &held = checkdetail::heldRanks();
        for (int i = 0; i < held.depth; i++) {
            DPHLS_CHECK(held.ranks[i] < _rank,
                        "lock-rank order violated: acquiring '", _name,
                        "' (rank ", _rank, ") while holding '",
                        held.names[i], "' (rank ", held.ranks[i], ")");
        }
    }

    void
    push()
    {
        auto &held = checkdetail::heldRanks();
        DPHLS_CHECK(held.depth < checkdetail::HeldRanks::kMaxDepth,
                    "lock depth over ", checkdetail::HeldRanks::kMaxDepth);
        held.ranks[held.depth] = _rank;
        held.names[held.depth] = _name;
        held.owners[held.depth] = this;
        held.depth++;
    }

    void
    pop()
    {
        auto &held = checkdetail::heldRanks();
        // Guards release LIFO almost always, but unique_lock allows
        // out-of-order unlocks: erase wherever this mutex sits.
        for (int i = held.depth - 1; i >= 0; i--) {
            if (held.owners[i] == this) {
                for (int j = i; j + 1 < held.depth; j++) {
                    held.ranks[j] = held.ranks[j + 1];
                    held.names[j] = held.names[j + 1];
                    held.owners[j] = held.owners[j + 1];
                }
                held.depth--;
                return;
            }
        }
        DPHLS_CHECK(false, "unlocking '", _name,
                    "' which this thread does not hold");
    }

    std::mutex _m;
    const int _rank;
    const char *_name;
};

#else // !DPHLS_DCHECK_ENABLED

/** Release builds: a plain mutex — rank checking compiles away. */
class DebugMutex
{
  public:
    explicit DebugMutex(int, const char *) {}

    void lock() { _m.lock(); }
    bool try_lock() { return _m.try_lock(); }
    void unlock() { _m.unlock(); }
    bool heldByThisThread() const { return true; }

  private:
    std::mutex _m;
};

#endif // DPHLS_DCHECK_ENABLED

} // namespace dphls::host

#endif // DPHLS_HOST_CHECK_HH
