/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The benchmark wraps each call it makes into a layer of the program in
 * a span: name, start, end, the enclosing span and the request or read
 * id. Spans nest on one thread (a thread that records owns its own
 * recorder), so a span's self time is its duration minus the time its
 * direct children cover. Counts are recorded at the same boundaries.
 * Totals are kept per name for every span; the spans themselves are
 * kept up to a fixed cap and written out as a Chrome trace-event file
 * when the run ends (viewable in Perfetto or chrome://tracing).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

class SpanRecorder
{
  public:
    /** Per-name aggregate over every recorded span. */
    struct Totals
    {
        const char *name = "";
        uint64_t calls = 0;
        double totalS = 0;
        double selfS = 0;
    };

    /** Spans kept for the trace file; totals cover every span. */
    static constexpr size_t kKeptSpans = 200000;

    explicit SpanRecorder(int tid = 0) : _tid(tid) {}

    /** Open a span as a child of the innermost open span. */
    int
    open(const char *name, uint64_t id)
    {
        Open o;
        o.name = slot(_totals, name);
        o.id = id;
        o.parent = _stack.empty() ? -1 : _stack.back().serial;
        o.serial = static_cast<int64_t>(_serial++);
        o.start = nowNs();
        _stack.push_back(o);
        return static_cast<int>(_stack.size()) - 1;
    }

    /** Close the innermost span (opened as @p depth). */
    void
    close(int depth)
    {
        const int64_t end = nowNs();
        const Open o = _stack[static_cast<size_t>(depth)];
        _stack.resize(static_cast<size_t>(depth));
        const int64_t dur = end - o.start;
        Totals &t = _totals[o.name];
        t.calls++;
        t.totalS += 1e-9 * static_cast<double>(dur);
        t.selfS += 1e-9 * static_cast<double>(dur - o.childNs);
        if (!_stack.empty())
            _stack.back().childNs += dur;
        if (_kept.size() < kKeptSpans)
            _kept.push_back(Kept{o.name, o.start, end, o.parent, o.serial,
                                 o.id});
    }

    /** Add @p delta to counter @p name. */
    void
    count(const char *name, double delta)
    {
        _counters[slot(_counters, name)].totalS += delta;
    }

    /** Self seconds of every span named @p name (0 when none). */
    double selfSeconds(const char *name) const
    {
        const Totals *t = find(_totals, name);
        return t ? t->selfS : 0;
    }

    /** Number of spans named @p name. */
    double calls(const char *name) const
    {
        const Totals *t = find(_totals, name);
        return t ? static_cast<double>(t->calls) : 0;
    }

    /** Value of counter @p name (0 when never counted). */
    double counter(const char *name) const
    {
        const Totals *t = find(_counters, name);
        return t ? t->totalS : 0;
    }

    /** Fold another thread's totals and counters into this one. */
    void
    merge(const SpanRecorder &other)
    {
        for (const auto &t : other._totals) {
            Totals &mine = _totals[slot(_totals, t.name)];
            mine.calls += t.calls;
            mine.totalS += t.totalS;
            mine.selfS += t.selfS;
        }
        for (const auto &c : other._counters)
            _counters[slot(_counters, c.name)].totalS += c.totalS;
        for (const auto &k : other._kept) {
            if (_kept.size() >= kKeptSpans)
                break;
            Kept copy = k;
            copy.name = slot(_totals, other._totals[k.name].name);
            copy.tid = other._tid;
            _kept.push_back(copy);
        }
    }

    /** Write the kept spans as Chrome trace events; false on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        const int64_t t0 = _kept.empty() ? 0 : _kept.front().start;
        for (size_t i = 0; i < _kept.size(); i++) {
            const Kept &k = _kept[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                "\"parent\":%lld,\"id\":%llu}}\n",
                i ? "," : "", _totals[k.name].name,
                k.tid >= 0 ? k.tid : _tid,
                1e-3 * static_cast<double>(k.start - t0),
                1e-3 * static_cast<double>(k.end - k.start),
                static_cast<long long>(k.serial),
                static_cast<long long>(k.parent),
                static_cast<unsigned long long>(k.id));
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Open
    {
        int name = 0;
        uint64_t id = 0;
        int64_t parent = -1;
        int64_t serial = 0;
        int64_t start = 0;
        int64_t childNs = 0;
    };

    struct Kept
    {
        int name = 0;
        int64_t start = 0;
        int64_t end = 0;
        int64_t parent = -1;
        int64_t serial = 0;
        uint64_t id = 0;
        int tid = -1; //!< -1: recorded by this recorder's own thread
    };

    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Index of @p name in @p table, appended when new. Names are
     *  string literals, so the pointer test almost always decides. */
    static int
    slot(std::vector<Totals> &table, const char *name)
    {
        for (size_t i = 0; i < table.size(); i++) {
            if (table[i].name == name ||
                std::strcmp(table[i].name, name) == 0)
                return static_cast<int>(i);
        }
        Totals t;
        t.name = name;
        table.push_back(t);
        return static_cast<int>(table.size()) - 1;
    }

    static const Totals *
    find(const std::vector<Totals> &table, const char *name)
    {
        for (const auto &t : table) {
            if (std::strcmp(t.name, name) == 0)
                return &t;
        }
        return nullptr;
    }

    int _tid;
    uint64_t _serial = 0;
    std::vector<Open> _stack;
    std::vector<Totals> _totals;
    std::vector<Totals> _counters; //!< totalS holds the count
    std::vector<Kept> _kept;
};

/** RAII span; a null recorder (untraced round) records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, uint64_t id = 0)
        : _rec(rec), _depth(rec ? rec->open(name, id) : -1)
    {}
    ~ScopedSpan()
    {
        if (_rec)
            _rec->close(_depth);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *_rec;
    int _depth;
};

/**
 * The caller-side pipeline metrics every workload shares, per traced
 * round: tickets submitted, seconds in submit and seconds waiting for
 * results (spans "pipeline.submit" and "pipeline.wait").
 */
inline void
reportCallerSpans(Report &report, const SpanRecorder &rec, double rounds)
{
    report.set("pipeline.tickets", rec.calls("pipeline.submit") / rounds,
               "count");
    report.set("pipeline.submit_s",
               rec.selfSeconds("pipeline.submit") / rounds, "s");
    report.set("pipeline.caller_wait_s",
               rec.selfSeconds("pipeline.wait") / rounds, "s");
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
