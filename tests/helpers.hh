/**
 * @file
 * Shared helpers for the DP-HLS test suite: workload generation per
 * alphabet and independent path re-scoring used to validate tracebacks.
 */

#ifndef DPHLS_TESTS_HELPERS_HH
#define DPHLS_TESTS_HELPERS_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/alignment.hh"
#include "kernels/all.hh"
#include "seq/profile_builder.hh"
#include "seq/protein_sampler.hh"
#include "seq/read_simulator.hh"
#include "seq/squiggle.hh"
#include "systolic/isa_tier.hh"

namespace dphls::test {

/** The scalar fallback plus every vector tier this host can execute. */
inline std::vector<sim::IsaTier>
isaTiers()
{
    std::vector<sim::IsaTier> tiers{sim::IsaTier::Scalar};
    for (const auto t : {sim::IsaTier::Sse2, sim::IsaTier::Avx2,
                         sim::IsaTier::Avx512}) {
        if (sim::isaTierSupported(t))
            tiers.push_back(t);
    }
    return tiers;
}

/** A query/reference pair over an arbitrary alphabet. */
template <typename CharT>
struct Pair
{
    seq::Sequence<CharT> query;
    seq::Sequence<CharT> reference;
};

/**
 * A pair with exact (qlen, rlen) shape for kernel @p K's alphabet:
 * realistic content, force-resized (default-character padding is fine —
 * every execution path consumes identical input either way).
 */
template <typename K>
Pair<typename K::CharT>
shapedPair(seq::Rng &rng, int qlen, int rlen)
{
    using CharT = typename K::CharT;
    Pair<CharT> p;
    const int base = std::max({qlen, rlen, 1});
    if constexpr (std::is_same_v<CharT, seq::DnaChar>) {
        p.query = seq::randomDna(base, rng);
        p.reference = seq::mutateDna(p.query, 0.15, 0.08, rng);
    } else if constexpr (std::is_same_v<CharT, seq::AminoChar>) {
        p.query = seq::sampleProtein(base, rng);
        p.reference = seq::mutateProtein(p.query, 0.15, 0.05, rng);
    } else if constexpr (std::is_same_v<CharT, seq::ProfileColumn>) {
        auto pairs = seq::sampleProfilePairs(1, base, rng.next());
        p.query = std::move(pairs[0].first);
        p.reference = std::move(pairs[0].second);
    } else if constexpr (std::is_same_v<CharT, seq::ComplexSample>) {
        p.query = seq::randomComplexSignal(base, rng);
        p.reference = seq::warpComplexSignal(p.query, 0.2, 0.3, rng);
    } else {
        auto pairs = seq::sampleSquigglePairs(1, base, std::max(1, base / 2),
                                              rng.next());
        p.query = std::move(pairs[0].query);
        p.reference = std::move(pairs[0].reference);
    }
    p.query.chars.resize(static_cast<size_t>(qlen));
    p.reference.chars.resize(static_cast<size_t>(rlen));
    return p;
}

/** Random related DNA pair (lengths up to max_len). */
inline Pair<seq::DnaChar>
randomDnaPair(seq::Rng &rng, int max_len, bool related = true,
              bool equal_len = false)
{
    const int qlen = 1 + static_cast<int>(rng.below(
        static_cast<uint64_t>(max_len)));
    Pair<seq::DnaChar> p;
    p.query = seq::randomDna(qlen, rng);
    if (related) {
        p.reference = seq::mutateDna(p.query, 0.15, 0.08, rng);
    } else {
        const int rlen = 1 + static_cast<int>(rng.below(
            static_cast<uint64_t>(max_len)));
        p.reference = seq::randomDna(rlen, rng);
    }
    if (equal_len) {
        const int len =
            std::min(p.query.length(), p.reference.length());
        p.query.chars.resize(static_cast<size_t>(len));
        p.reference.chars.resize(static_cast<size_t>(len));
    }
    return p;
}

/**
 * Independent re-scoring of a traceback path for linear-gap kernels:
 * walks the path over the original sequences and accumulates the score
 * the kernel should have reported. `start`/`end` are the walk endpoints
 * (1-based cell coordinates).
 */
template <typename CharT, typename EqFn>
int64_t
rescoreLinearPath(const seq::Sequence<CharT> &q,
                  const seq::Sequence<CharT> &r,
                  const std::vector<core::AlnOp> &ops, core::Coord start,
                  int64_t match, int64_t mismatch, int64_t gap, EqFn eq)
{
    int64_t score = 0;
    int qi = start.row;
    int rj = start.col;
    for (const auto op : ops) {
        switch (op) {
          case core::AlnOp::Match:
            score += eq(q[qi], r[rj]) ? match : mismatch;
            qi++;
            rj++;
            break;
          case core::AlnOp::Ins:
            score += gap;
            qi++;
            break;
          case core::AlnOp::Del:
            score += gap;
            rj++;
            break;
        }
    }
    return score;
}

/** Affine re-scoring of a path (open = first gap char). */
template <typename CharT, typename EqFn>
int64_t
rescoreAffinePath(const seq::Sequence<CharT> &q,
                  const seq::Sequence<CharT> &r,
                  const std::vector<core::AlnOp> &ops, core::Coord start,
                  int64_t match, int64_t mismatch, int64_t open,
                  int64_t extend, EqFn eq)
{
    int64_t score = 0;
    int qi = start.row;
    int rj = start.col;
    core::AlnOp prev = core::AlnOp::Match;
    for (const auto op : ops) {
        switch (op) {
          case core::AlnOp::Match:
            score += eq(q[qi], r[rj]) ? match : mismatch;
            qi++;
            rj++;
            break;
          case core::AlnOp::Ins:
            score -= prev == core::AlnOp::Ins ? extend : open;
            qi++;
            break;
          case core::AlnOp::Del:
            score -= prev == core::AlnOp::Del ? extend : open;
            rj++;
            break;
        }
        prev = op;
    }
    return score;
}

} // namespace dphls::test

#endif // DPHLS_TESTS_HELPERS_HH
