#include "host/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

namespace dphls::host {

WorkerThread::WorkerThread(std::function<void()> fn)
    : _thread(std::move(fn))
{}

WorkerThread::~WorkerThread()
{
    join();
}

void
WorkerThread::join()
{
    if (_thread.joinable())
        _thread.join();
}

void
parallelFor(int n, int threads, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;
    const int t = std::max(1, std::min(threads, n));
    if (t == 1) {
        for (int i = 0; i < n; i++)
            fn(i);
        return;
    }
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(t));
    for (int w = 0; w < t; w++) {
        pool.emplace_back([&] {
            for (;;) {
                const int i = next.fetch_add(1);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (auto &th : pool)
        th.join();
}

} // namespace dphls::host
