/**
 * @file
 * eelbench: runs one workload and prints one JSON line with the
 * checks' verdict, the operation counts, the end-to-end metrics and
 * the per-layer figures measured without the trace. run.py builds
 * this binary, runs it, and turns the trace into per-layer self
 * times.
 *
 *   eelbench --workload <tables-cold|regen-after-edit|rewrite-wide|
 *                        service-mix>
 *            --seed <n> --seconds <s> [--trace <out.json>]
 *            [--suite-seed <n>]
 */

#include <cstdio>
#include <sched.h>
#include <exception>
#include <string>

#include "perfbench/src/workloads.hh"
#include "src/obs/trace.hh"
#include "src/support/logging.hh"

using namespace perfbench;

namespace {

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            eel::fatal("missing value for %s", a.c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.tracePath = v;
        else if (a == "--suite-seed")
            o.suiteSeed = std::stoull(v);
        else
            eel::fatal("unknown option '%s'", a.c_str());
    }
    if (o.seconds <= 0)
        eel::fatal("--seconds must be positive");
    return o;
}

/**
 * Confine the process to the CPU it starts on, before any thread
 * exists (threads inherit the mask). On a virtual machine a thread
 * handoff to another vCPU can wait for the hypervisor to run it: the
 * service workload's closed loop varied 3x from run to run unpinned,
 * and within 10% pinned (README.md, "Host time").
 */
void
pinToCurrentCpu()
{
    int cpu = sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Options opt = parse(argc, argv);
        pinToCurrentCpu();
        if (!opt.tracePath.empty()) {
            eel::obs::enableTracing();
            eel::obs::setThreadName("bench");
        }
        Result res;
        if (opt.workload == "tables-cold")
            res = runTablesCold(opt);
        else if (opt.workload == "regen-after-edit")
            res = runRegenAfterEdit(opt);
        else if (opt.workload == "rewrite-wide")
            res = runRewriteWide(opt);
        else if (opt.workload == "service-mix")
            res = runServiceMix(opt);
        else
            eel::fatal("unknown workload '%s'", opt.workload.c_str());
        if (!opt.tracePath.empty() && !eel::obs::writeTrace(opt.tracePath))
            eel::fatal("cannot write trace '%s'", opt.tracePath.c_str());

        double rss = peakRssMb();
        if (res.rounds > Result::kRssRounds)
            res.layers["bench.rss_growth_mb_per_round"] =
                (rss - res.rssMb) / double(res.rounds - Result::kRssRounds);
        std::string layers;
        for (const auto &[name, value] : res.layers)
            layers += eel::strfmt("%s\"%s\": %.17g", layers.empty() ? "" : ", ",
                                  name.c_str(), value);
        std::printf(
            "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"rounds\": %zu, \"setup_s\": %.9f, \"peak_rss_mb\": %.6f, "
            "\"pass_s\": %.9f, \"op_p50_ms\": %.9f, "
            "\"hidden_pct\": %.17g, \"layers\": {%s}}\n",
            res.errors.empty() ? "true" : "false",
            (unsigned long long)res.attempted,
            (unsigned long long)res.failed, res.rounds, res.setupSec,
            res.rssMb, res.passSec, res.opP50Ms, res.hiddenPct,
            layers.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "eelbench: %s\n", e.what());
        return 1;
    }
}
