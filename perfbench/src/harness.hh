/**
 * @file
 * Shared plumbing of the wall-clock benchmark binary: options, the
 * per-run report, order statistics, process facts and the fixed-work
 * round loop every workload runs.
 *
 * A run is: one untimed warm-up round on inputs of its own, then whole
 * rounds of fixed seeded work until the run's time is used up. Set-up is
 * sampled before the rounds' timed parts, so its samples spread over the
 * run like the rounds do, and their median is setup_s. Every round
 * repeats the same inputs, so its modeled cycles and result checksum must
 * repeat exactly; a round that disagrees with the first is an
 * output-check failure.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace dphls {}

namespace perfbench {

using namespace dphls;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Work per round relative to the benchmark's size (smoke: < 1). */
    double scale = 1.0;
    std::string serveBin; //!< the dphls_serve binary (serve_load)
    std::string workDir;  //!< scratch directory inside the checkout
    int nproc = 1;        //!< online CPUs: the run's thread budget

    /** @p n scaled to this run's size, at least @p floor. */
    int
    scaled(int n, int floor = 1) const
    {
        return std::max(floor, static_cast<int>(std::lround(n * scale)));
    }

    /** Pipeline workers that fit the budget next to the caller thread. */
    int workers() const { return std::max(1, nproc - 1); }
};

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p p in [0, 1] of @p v (0 when empty). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/** High-water resident set of this process in MiB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * @p n labels in a seeded order: exactly lround(shares[k] * n) of them
 * are k + 1 and the rest 0. Exact shares keep a round's work the same
 * from seed to seed, where a draw per item would let it vary.
 */
template <typename Rng>
std::vector<int>
seededLabels(int n, const std::vector<double> &shares, Rng &rng)
{
    std::vector<int> out(static_cast<size_t>(n), 0);
    size_t at = 0;
    for (size_t k = 0; k < shares.size(); k++) {
        const long count = std::lround(shares[k] * n);
        for (long i = 0; i < count && at < out.size(); i++)
            out[at++] = static_cast<int>(k) + 1;
    }
    for (size_t i = out.size(); i > 1; i--)
        std::swap(out[i - 1], out[rng.below(i)]);
    return out;
}

/** FNV-1a over bytes, chained through @p h. */
inline uint64_t
fnv(uint64_t h, const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; i++)
        h = (h ^ p[i]) * 1099511628211ULL;
    return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

template <typename T>
uint64_t
fnvValue(uint64_t h, const T &v)
{
    return fnv(h, &v, sizeof(v));
}

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * Everything one run reports. `failed` counts operations that failed,
 * were rejected, errored or mismatched an output check; any of them
 * makes the run incorrect.
 */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Run facts: name -> JSON literal (already quoted if a string). */
    std::vector<std::pair<std::string, std::string>> facts;

    bool correct() const { return failed == 0 && attempted > 0; }

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    void
    fact(const std::string &name, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        facts.emplace_back(name, buf);
    }

    void
    factText(const std::string &name, const std::string &v)
    {
        std::string q = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        facts.emplace_back(name, q + "\"");
    }

    /** Record @p n failed operations and say why on stderr. */
    void
    fail(uint64_t n, const std::string &why)
    {
        failed += n;
        std::fprintf(stderr, "perfbench: output check failed: %s\n",
                     why.c_str());
    }
};

/** What one round of fixed work produced. */
struct RoundOutcome
{
    double seconds = 0;   //!< timed part of the round
    double work = 0;      //!< pairs, reads or samples completed
    uint64_t items = 0;   //!< operations attempted (pairs/reads/requests)
    uint64_t cycles = 0;  //!< modeled device cycles, must repeat exactly
    uint64_t checksum = 0; //!< result digest, must repeat exactly
    int deadlineMisses = 0; //!< tickets' completions past their deadline
    std::vector<double> latenciesMs; //!< per-item completion latency
};

/** The rounds of one run, split by whether they were traced. */
struct RoundSeries
{
    std::vector<RoundOutcome> untraced, traced;
};

/**
 * Run whole rounds until @p opt.seconds of round time have passed (at
 * least @p min_rounds). In traced runs even rounds run untraced and odd
 * rounds traced, so the trace overhead is measured within the run;
 * @p round receives the traced flag. The first round's cycles and
 * checksum are the reference every later round must match.
 */
inline RoundSeries
runRounds(const Options &opt, Report &report, int min_rounds,
          const std::function<RoundOutcome(bool traced)> &round)
{
    RoundSeries out;
    double spent = 0;
    bool have_ref = false;
    uint64_t ref_cycles = 0, ref_checksum = 0;
    for (int r = 0; r < min_rounds || spent < opt.seconds; r++) {
        const bool traced = opt.trace && r % 2 == 1;
        RoundOutcome o = round(traced);
        spent += o.seconds;
        report.attempted += o.items;
        if (!have_ref) {
            have_ref = true;
            ref_cycles = o.cycles;
            ref_checksum = o.checksum;
        } else if (o.cycles != ref_cycles || o.checksum != ref_checksum) {
            report.fail(o.items, "round " + std::to_string(r) +
                                     " cycles/checksum differ from round 0");
        }
        (traced ? out.traced : out.untraced).push_back(std::move(o));
    }
    report.fact("modeled_cycles_per_round", static_cast<double>(ref_cycles));
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(ref_checksum));
    report.factText("result_checksum", hex);
    report.fact("rounds", static_cast<double>(out.untraced.size() +
                                              out.traced.size()));
    std::string rates = "[";
    for (const auto &o : out.untraced) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6g", rates.size() > 1 ? ", " : "",
                      o.seconds > 0 ? o.work / o.seconds : 0);
        rates += buf;
    }
    report.facts.emplace_back("untraced_round_rates", rates + "]");
    return out;
}

/** Median per-round throughput (work / seconds) of @p rounds. */
inline double
medianThroughput(const std::vector<RoundOutcome> &rounds)
{
    std::vector<double> v;
    for (const auto &o : rounds)
        v.push_back(o.seconds > 0 ? o.work / o.seconds : 0);
    return median(v);
}

/**
 * One set-up sample of millisecond-scale or shorter set-up: seconds per
 * call of @p build over @p n back-to-back calls. What the calls build is
 * kept until the batch is timed, then destroyed untimed.
 */
template <typename Build>
double
timeSetupBatch(int n, Build &&build)
{
    std::vector<decltype(build())> built;
    built.reserve(static_cast<size_t>(n));
    const auto t0 = Clock::now();
    for (int i = 0; i < n; i++)
        built.push_back(build());
    return secondsSince(t0) / n;
}

/** Completions per latency block: p99 has at least ten beyond it. */
constexpr size_t kLatencyBlock = 1000;

/**
 * The end-to-end metrics every workload reports from its untraced
 * rounds: throughput, completion latency percentiles and set-up time.
 * Latencies are cut, in round order, into blocks of whole rounds with
 * at least kLatencyBlock completions each; each percentile is the
 * median over blocks, so a stall that hits one block does not move it.
 */
inline void
reportEndToEnd(Report &report, const RoundSeries &rounds, double setup_s,
               const char *work_unit)
{
    std::vector<std::vector<double>> blocks(1);
    size_t samples = 0;
    for (const auto &o : rounds.untraced) {
        if (blocks.back().size() >= kLatencyBlock)
            blocks.emplace_back();
        blocks.back().insert(blocks.back().end(), o.latenciesMs.begin(),
                             o.latenciesMs.end());
        samples += o.latenciesMs.size();
    }
    // A short tail block joins its predecessor.
    if (blocks.size() > 1 && blocks.back().size() < kLatencyBlock) {
        auto tail = std::move(blocks.back());
        blocks.pop_back();
        blocks.back().insert(blocks.back().end(), tail.begin(), tail.end());
    }
    std::vector<double> p50, p99;
    for (const auto &b : blocks) {
        p50.push_back(percentile(b, 0.50));
        p99.push_back(percentile(b, 0.99));
    }
    report.set("throughput_per_s", medianThroughput(rounds.untraced),
               "1/s");
    report.set("latency_p50_ms", median(p50), "ms");
    report.set("latency_p99_ms", median(p99), "ms");
    report.set("setup_s", setup_s, "s");
    report.fact("latency_samples", static_cast<double>(samples));
    report.fact("latency_blocks", static_cast<double>(blocks.size()));
    report.fact("latency_samples_beyond_p99_per_block",
                std::floor(0.01 * static_cast<double>(
                                      samples / blocks.size())));
    report.factText("throughput_unit", work_unit);
}

/** Throughput the traced rounds lost against the untraced ones. */
inline void
reportTraceOverhead(Report &report, const RoundSeries &rounds)
{
    const double plain = medianThroughput(rounds.untraced);
    const double traced = medianThroughput(rounds.traced);
    report.set("trace.overhead_frac",
               plain > 0 && traced > 0 ? 1.0 - traced / plain : 0, "frac");
}

struct WorkloadEntry
{
    const char *name;
    void (*run)(const Options &, Report &);
};

void runAlignBatch(const Options &opt, Report &report);
void runMapReads(const Options &opt, Report &report);
void runBasecallStream(const Options &opt, Report &report);
void runServeLoad(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
