/**
 * @file
 * Streaming sDTW basecaller coverage:
 *
 *  - SdtwStream equals the full-matrix golden model bit-for-bit after
 *    every feed, for any chunking of the query (chunk boundaries and
 *    the strip/scalar split of a feed are invisible to the DP),
 *    including degenerate empty-query / empty-reference shapes — the
 *    unified squiggle degenerate-input contract;
 *  - the prefix score is a monotone, admissible lower bound;
 *  - early-abandon pruning never changes a surviving read's outcome
 *    (bit-identity pruned vs unpruned) and only abandons reads whose
 *    bound really exceeded the threshold;
 *  - survivors' device tickets agree with the host DP;
 *  - chunk_io framing round-trips and rejects malformed input.
 */

#include <gtest/gtest.h>

#include <vector>

#include "host/stream_pipeline.hh"
#include "kernels/sdtw.hh"
#include "reference/matrix_aligner.hh"
#include "seq/read_simulator.hh"
#include "seq/squiggle.hh"
#include "workloads/basecaller.hh"
#include "workloads/chunk_io.hh"
#include "workloads/sdtw_stream.hh"

using namespace dphls;
using workloads::BasecallConfig;
using workloads::SdtwStream;
using workloads::SignalChunk;
using workloads::StreamingBasecaller;

namespace {

seq::SignalSequence
randomSignal(int length, seq::Rng &rng)
{
    seq::SignalSequence s;
    s.chars.reserve(static_cast<size_t>(length));
    for (int i = 0; i < length; i++) {
        s.chars.push_back(seq::SignalSample{
            static_cast<int16_t>(40 + rng.below(180))});
    }
    return s;
}

/** Split a signal into chunks of @p chunk samples (last may be short). */
std::vector<seq::SignalSequence>
chunked(const seq::SignalSequence &signal, int chunk)
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

host::BatchConfig
sdtwConfig()
{
    host::BatchConfig cfg;
    cfg.npe = 16;
    cfg.nb = 1;
    cfg.nk = 1;
    cfg.threads = 1;
    cfg.maxQueryLength = 1024;
    cfg.maxReferenceLength = 1024;
    cfg.hostOverheadCycles = 0;
    cfg.cacheEntries = 0;
    cfg.collectPathStats = false;
    return cfg;
}

} // namespace

TEST(SdtwStream, MatchesGoldenModelForAnyChunking)
{
    // Chunk sizes straddle every tier's strip height (4, 8, 16), so
    // feeds mix whole strips with scalar remainders; the shapes include
    // references shorter than a strip and queries shorter than 16.
    seq::Rng rng(31);
    const ref::MatrixAligner<kernels::Sdtw> golden;
    for (const auto &[qlen, rlen] :
         {std::pair{1, 1}, {5, 9}, {3, 2}, {9, 15}, {15, 40}, {40, 1},
          {33, 2}, {70, 15}, {64, 80}, {127, 200}, {200, 64}}) {
        const auto query = randomSignal(qlen, rng);
        const auto reference = randomSignal(rlen, rng);
        for (const int chunk :
             {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, qlen}) {
            SdtwStream dp(reference);
            seq::SignalSequence prefix;
            for (const auto &c : chunked(query, chunk)) {
                dp.feed(c);
                prefix.chars.insert(prefix.chars.end(), c.chars.begin(),
                                    c.chars.end());
                ASSERT_EQ(dp.samplesFed(), prefix.length());
                ASSERT_EQ(dp.score(), golden.align(prefix, reference).score)
                    << "qlen " << qlen << " rlen " << rlen << " chunk "
                    << chunk << " fed " << prefix.length();
            }
            ASSERT_EQ(dp.samplesFed(), qlen);
        }
    }
}

TEST(SdtwStream, DegenerateShapesScoreZeroLikeTheGoldenModel)
{
    seq::Rng rng(32);
    const ref::MatrixAligner<kernels::Sdtw> golden;
    const auto signal = randomSignal(24, rng);
    const seq::SignalSequence empty;

    // Empty query: nothing fed.
    SdtwStream no_query(signal);
    EXPECT_EQ(no_query.score(), 0);
    EXPECT_EQ(no_query.score(), golden.align(empty, signal).score);

    // Empty reference: samples fed against nothing.
    SdtwStream no_ref(empty);
    no_ref.feed(signal);
    EXPECT_EQ(no_ref.score(), 0);
    EXPECT_EQ(no_ref.score(), golden.align(signal, empty).score);

    // Both empty.
    SdtwStream neither(empty);
    EXPECT_EQ(neither.score(), 0);
    EXPECT_EQ(neither.score(), golden.align(empty, empty).score);
}

TEST(SdtwStream, ShortSignalFromSquiggleModelIsEmptyNotPadded)
{
    // The satellite squiggle fix: a DNA sequence shorter than one k-mer
    // yields a truly empty signal from BOTH generators, so a stream fed
    // from it stays at zero samples (no phantom zero-sample event).
    seq::Rng rng(33);
    const seq::SquiggleConfig scfg; // kmer = 6
    const auto tiny = seq::randomDna(5, rng);
    EXPECT_TRUE(seq::expectedSignal(tiny, scfg).empty());
    EXPECT_TRUE(seq::rawSignal(tiny, scfg, rng).empty());

    SdtwStream dp(seq::expectedSignal(seq::randomDna(200, rng), scfg));
    dp.feed(seq::rawSignal(tiny, scfg, rng));
    EXPECT_EQ(dp.samplesFed(), 0);
    EXPECT_EQ(dp.score(), 0);
}

TEST(SdtwStream, PrefixScoreIsMonotoneAdmissibleLowerBound)
{
    seq::Rng rng(34);
    const auto reference = randomSignal(120, rng);
    const auto query = randomSignal(90, rng);
    const ref::MatrixAligner<kernels::Sdtw> golden;
    const auto final_score = golden.align(query, reference).score;

    SdtwStream dp(reference);
    int32_t prev = 0;
    for (int i = 0; i < query.length(); i++) {
        dp.feed(&query.chars[static_cast<size_t>(i)], 1);
        const int32_t bound = dp.score();
        ASSERT_GE(bound, prev) << "row minima must be non-decreasing";
        ASSERT_LE(bound, final_score) << "bound must be admissible";
        prev = bound;
    }
    EXPECT_EQ(prev, final_score);
}

TEST(Basecaller, PruningIsBitIdenticalOnSurvivors)
{
    seq::Rng rng(35);
    const seq::SquiggleConfig scfg;
    const auto target = seq::randomDna(400, rng);
    const auto background = seq::randomDna(400, rng);
    const auto target_signal = seq::expectedSignal(target, scfg);

    BasecallConfig pruned_cfg;
    pruned_cfg.abandonPerSample = 8.0;
    pruned_cfg.minSamplesBeforeAbandon = 32;
    BasecallConfig unpruned_cfg; // abandonPerSample 0: run everything
    const StreamingBasecaller pruned(target_signal, pruned_cfg);
    const StreamingBasecaller unpruned(target_signal, unpruned_cfg);

    int abandoned = 0, survived = 0;
    for (int i = 0; i < 16; i++) {
        const auto &origin = i % 2 == 0 ? target : background;
        const int start = static_cast<int>(rng.below(200));
        seq::DnaSequence sub;
        sub.chars.assign(origin.chars.begin() + start,
                         origin.chars.begin() + start + 120);
        seq::SquiggleConfig q = scfg;
        q.meanDwell = 1.4;
        const auto chunks =
            chunked(seq::rawSignal(sub, q, rng), 48);

        const auto with = pruned.classify(chunks);
        const auto without = unpruned.classify(chunks);
        if (with.abandoned) {
            abandoned++;
            // The abandon decision was justified by the admissible
            // bound at the decision point...
            EXPECT_GT(with.perSample, pruned_cfg.abandonPerSample);
            // ...and the full run can only confirm it (final >= bound).
            EXPECT_GE(without.hostScore, with.hostScore);
        } else {
            survived++;
            // Survivors are untouched by pruning: bit-identical.
            EXPECT_EQ(with.hostScore, without.hostScore);
            EXPECT_EQ(with.samplesConsumed, without.samplesConsumed);
            EXPECT_EQ(with.chunksConsumed, without.chunksConsumed);
            EXPECT_EQ(with.perSample, without.perSample);
        }
    }
    // The threshold must actually separate the draw: both outcomes
    // occur (on-target reads survive, background reads abandon).
    EXPECT_GT(abandoned, 0);
    EXPECT_GT(survived, 0);
}

TEST(Basecaller, DeviceTicketAgreesWithHostStream)
{
    seq::Rng rng(36);
    const seq::SquiggleConfig scfg;
    const auto target = seq::randomDna(160, rng);
    const auto target_signal = seq::expectedSignal(target, scfg);
    const StreamingBasecaller caller(target_signal, BasecallConfig{});
    StreamingBasecaller::Pipeline pipeline(sdtwConfig());

    seq::DnaSequence sub;
    sub.chars.assign(target.chars.begin() + 20,
                     target.chars.begin() + 120);
    seq::SquiggleConfig q = scfg;
    q.meanDwell = 1.5;
    const auto chunks = chunked(seq::rawSignal(sub, q, rng), 32);

    const auto outcome = caller.process(
        pipeline, chunks, host::TicketOptions::afterMs(20, 500, "rt"));
    ASSERT_FALSE(outcome.abandoned);
    ASSERT_TRUE(outcome.deviceScored);
    EXPECT_EQ(outcome.deviceScore, outcome.hostScore);
    EXPECT_GT(outcome.deviceCycles, 0u);
}

// ------------------------------------------------------------ chunk_io

TEST(ChunkIo, RoundTripsInterleavedReads)
{
    seq::Rng rng(37);
    std::vector<SignalChunk> chunks;
    for (int i = 0; i < 6; i++) {
        SignalChunk c;
        c.readId = static_cast<uint32_t>(i % 2);
        c.last = i >= 4;
        c.samples = randomSignal(5 + i, rng);
        chunks.push_back(std::move(c));
    }
    const auto bytes = workloads::encodeChunkStream(chunks);
    const auto decoded = workloads::decodeChunkStream(bytes);
    ASSERT_EQ(decoded.size(), chunks.size());
    for (size_t i = 0; i < chunks.size(); i++) {
        EXPECT_EQ(decoded[i].readId, chunks[i].readId);
        EXPECT_EQ(decoded[i].last, chunks[i].last);
        ASSERT_EQ(decoded[i].samples.chars, chunks[i].samples.chars);
    }

    const auto grouped = workloads::groupChunksByRead(decoded);
    ASSERT_EQ(grouped.size(), 2u);
    EXPECT_EQ(grouped[0].first, 0u);
    EXPECT_EQ(grouped[0].second.size(), 3u);
    EXPECT_EQ(grouped[1].first, 1u);
    EXPECT_EQ(grouped[1].second.size(), 3u);
}

TEST(ChunkIo, ReusedReadIdStartsANewGroup)
{
    seq::Rng rng(38);
    std::vector<SignalChunk> chunks(3);
    chunks[0] = {9, true, randomSignal(4, rng)};
    chunks[1] = {9, false, randomSignal(4, rng)};
    chunks[2] = {9, true, randomSignal(4, rng)};
    const auto grouped = workloads::groupChunksByRead(chunks);
    ASSERT_EQ(grouped.size(), 2u);
    EXPECT_EQ(grouped[0].second.size(), 1u);
    EXPECT_EQ(grouped[1].second.size(), 2u);
}

TEST(ChunkIo, MalformedStreamsThrow)
{
    seq::Rng rng(39);
    SignalChunk c;
    c.readId = 3;
    c.last = true;
    c.samples = randomSignal(8, rng);
    auto bytes = workloads::encodeChunkStream({c});

    // Truncations at every byte boundary must throw, never over-read —
    // except exactly at the magic boundary, which is the valid empty
    // stream (a producer that opened the stream but sent no chunks).
    for (size_t cut = 1; cut < bytes.size(); cut++) {
        if (cut == 4) {
            EXPECT_TRUE(workloads::decodeChunkStream(bytes.data(), cut)
                            .empty());
            continue;
        }
        EXPECT_THROW(workloads::decodeChunkStream(bytes.data(), cut),
                     workloads::ChunkFormatError)
            << "cut " << cut;
    }
    // Bad magic.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(workloads::decodeChunkStream(bad_magic),
                 workloads::ChunkFormatError);
    // Reserved flag bits.
    auto bad_flags = bytes;
    bad_flags[8] = 0x80; // flags byte of the first frame
    EXPECT_THROW(workloads::decodeChunkStream(bad_flags),
                 workloads::ChunkFormatError);
    // Sample count over the cap (and over the payload).
    auto bad_count = bytes;
    bad_count[9] = 0xff;
    bad_count[10] = 0xff;
    EXPECT_THROW(workloads::decodeChunkStream(bad_count),
                 workloads::ChunkFormatError);
    // Empty input lacks even the magic.
    EXPECT_THROW(workloads::decodeChunkStream(nullptr, 0),
                 workloads::ChunkFormatError);
}
