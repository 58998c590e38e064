/**
 * @file
 * The benchmark binary: runs one workload for one seed and prints one JSON
 * line with the run's metrics, output-check verdict and run facts.
 * perfbench/run.py builds this binary and turns its line into the
 * benchmark's result.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--serve-bin PATH] [--scale F]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <sched.h>
#include <sys/stat.h>

#include "harness.hh"
#include "systolic/isa_tier.hh"

using namespace perfbench;

namespace {

const WorkloadEntry kWorkloads[] = {
    {"align_batch", runAlignBatch},
    {"map_reads", runMapReads},
    {"basecall_stream", runBasecallStream},
    {"serve_load", runServeLoad},
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n"
                 "                 [--serve-bin PATH] [--scale F]\n"
                 "workloads: align_batch map_reads basecall_stream "
                 "serve_load\n");
}

void
printJson(const Options &opt, const Report &report)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                report.correct() ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}, \"facts\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %d, \"isa_tier\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, opt.nproc,
                dphls::sim::isaTierName(dphls::sim::detectIsaTier()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    for (const auto &[name, literal] : report.facts)
        std::printf(", \"%s\": %s", name.c_str(), literal.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    opt.nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                    ? std::max(1, CPU_COUNT(&cpus))
                    : 1;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v);
        else if (a == "--trace")
            opt.trace = std::atoi(v) != 0;
        else if (a == "--scale")
            opt.scale = std::atof(v);
        else if (a == "--serve-bin")
            opt.serveBin = v;
        else if (a == "--work-dir")
            opt.workDir = v;
        else {
            usage();
            return 2;
        }
    }
    const WorkloadEntry *entry = nullptr;
    for (const auto &w : kWorkloads) {
        if (opt.workload == w.name)
            entry = &w;
    }
    if (!entry || opt.workDir.empty() || opt.seconds <= 0 ||
        opt.scale <= 0) {
        usage();
        return 2;
    }
    ::mkdir(opt.workDir.c_str(), 0755);

    Report report;
    try {
        entry->run(opt, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", entry->name, e.what());
        return 1;
    }
    printJson(opt, report);
    return report.correct() ? 0 : 1;
}
