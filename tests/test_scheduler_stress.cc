/**
 * @file
 * StreamPipeline stress test: concurrent producers' submissions racing
 * completion waits and drains (the old barrier-epoch pipeline's
 * documented accounting race, fixed by per-ticket accounting).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "host/stream_pipeline.hh"
#include "kernels/local_affine.hh"
#include "seq/read_simulator.hh"

using namespace dphls::host;

namespace {

using StressKernel = dphls::kernels::LocalAffine;
using StressPipeline = StreamPipeline<StressKernel>;

std::vector<StressPipeline::Job>
stressJobs(int n, uint64_t seed)
{
    std::vector<StressPipeline::Job> jobs;
    dphls::seq::Rng rng(seed);
    for (int i = 0; i < n; i++) {
        StressPipeline::Job j;
        j.query = dphls::seq::randomDna(
            12 + static_cast<int>(rng.below(40)), rng);
        j.reference = dphls::seq::mutateDna(j.query, 0.1, 0.05, rng);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

} // namespace

/**
 * The old barrier-epoch pipeline documented that a submit() overlapping a
 * drain() races the epoch accounting. Accounting is now per-ticket:
 * producers submit and wait on their own tickets while a consumer
 * thread drains concurrently, and every job must land in exactly one
 * accounting bucket (per-ticket stats observed by producers always
 * cover their whole batch; drained epochs plus the final drain cover
 * every submission exactly once).
 */
TEST(StreamPipelineStress, SubmitConcurrentWithCompletionWaitsAndDrain)
{
    BatchConfig cfg;
    cfg.npe = 4;
    cfg.nk = 3;
    cfg.threads = 2;
    StressPipeline pipeline(cfg);

    const int producers = 4;
    const int batches_per_producer = 12;
    const int jobs_per_batch = 3;

    std::atomic<int> ticket_alignments{0};
    std::atomic<int> callback_fires{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; p++) {
        threads.emplace_back([&, p] {
            for (int b = 0; b < batches_per_producer; b++) {
                auto ticket = pipeline.submit(
                    stressJobs(jobs_per_batch,
                               static_cast<uint64_t>(p * 1000 + b)),
                    [&callback_fires](BatchTicket<StressKernel> &) {
                        callback_fires++;
                    });
                // Completion wait racing other producers' submissions
                // and the consumer's drains.
                ticket->wait();
                EXPECT_EQ(ticket->stats().alignments, jobs_per_batch);
                EXPECT_EQ(ticket->results().size(),
                          static_cast<size_t>(jobs_per_batch));
                ticket_alignments += ticket->stats().alignments;
            }
        });
    }

    // Consumer drains while producers are mid-submission; each drain
    // must observe whole batches only.
    std::atomic<bool> stop{false};
    int drained_alignments = 0;
    std::thread consumer([&] {
        while (!stop.load()) {
            const auto stats = pipeline.drain();
            EXPECT_EQ(stats.alignments % jobs_per_batch, 0);
            drained_alignments += stats.alignments;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    for (auto &t : threads)
        t.join();
    stop = true;
    consumer.join();
    drained_alignments += pipeline.drain().alignments;

    const int total = producers * batches_per_producer * jobs_per_batch;
    EXPECT_EQ(ticket_alignments.load(), total);
    EXPECT_EQ(drained_alignments, total);
    EXPECT_EQ(callback_fires.load(), producers * batches_per_producer);
}
