/**
 * @file
 * tables-cold: the paper's Table 1 protocol over the 18 SPEC95
 * stand-ins, extended by the superblock and pipeline tiers. One unit
 * is one stand-in: CFG, liveness, qpt block-counter plan, the edge
 * profile the cross-block tiers need, then the unscheduled, locally
 * scheduled, superblock and pipeline images, each timed by serial
 * sim::timedRun against the original. One thread, no result cache:
 * timing simulation does most of the work, editing little.
 */

#include "perfbench/src/workloads.hh"
#include "src/eel/cfg.hh"
#include "src/eel/editor.hh"
#include "src/eel/liveness.hh"
#include "src/obs/metrics.hh"
#include "src/obs/slotfill.hh"
#include "src/obs/stall.hh"
#include "src/obs/trace.hh"
#include "src/qpt/edge_profiler.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/emulator.hh"
#include "src/sim/timing.hh"

namespace perfbench {

using namespace eel;

namespace {

/** Stand-in size: a unit takes 10-30 ms, so a 25 s run holds 50 to
 *  100 rounds. */
constexpr double kScale = 0.05;

/** Images of one unit, in the order timed. */
enum Image { Base, Inst, Local, Superblock, Pipeline, NumImages };
const char *const kImageName[NumImages] = {"base", "inst", "local",
                                           "superblock", "pipeline"};

struct UnitOut
{
    uint64_t cycles[NumImages] = {};
    uint64_t insts[NumImages] = {};
    obs::StallBreakdown instStalls, localStalls;
    obs::SlotFillCounts audit;
    uint64_t blocks = 0;        ///< blocks per scheduled rewrite
    uint64_t emulateInsts = 0;  ///< edge-profile run
};

/** Block-entry counts of x, by (routine, block), from a retire sink
 *  that shares nothing with qpt. */
std::vector<std::vector<uint64_t>>
blockEntries(const exe::Executable &x,
             const std::vector<edit::Routine> &routines)
{
    struct Sink
    {
        std::vector<int64_t> slot;  ///< text word -> flat block index
        std::vector<uint64_t> count;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            int64_t s = slot[(pc - exe::textBase) / 4];
            if (s >= 0)
                ++count[size_t(s)];
        }
    } sink;
    sink.slot.assign(x.text.size(), -1);
    size_t flat = 0;
    for (const edit::Routine &r : routines)
        for (const edit::Block &b : r.blocks)
            sink.slot[(b.startAddr - exe::textBase) / 4] =
                int64_t(flat++);
    sink.count.assign(flat, 0);
    sim::Emulator emu(x);
    emu.run(sink);
    std::vector<std::vector<uint64_t>> out(routines.size());
    flat = 0;
    for (size_t ri = 0; ri < routines.size(); ++ri)
        for (size_t bi = 0; bi < routines[ri].blocks.size(); ++bi)
            out[ri].push_back(sink.count[flat++]);
    return out;
}

std::vector<std::vector<uint64_t>>
countersOf(const exe::Executable &x, const qpt::ProfilePlan &plan)
{
    sim::Emulator emu(x);
    emu.run();
    return qpt::readCounts(emu, plan);
}

void
runUnit(const StandIn &s, bool fullChecks, Result &res, UnitOut &out)
{
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");

    std::vector<edit::Routine> routines;
    {
        LayerSpan span("eel.cfg");
        routines = edit::buildRoutines(s.image);
    }
    std::vector<edit::Liveness> live;
    {
        LayerSpan span("eel.liveness");
        live.reserve(routines.size());
        for (const edit::Routine &r : routines)
            live.emplace_back(r);
    }
    exe::Executable work = s.image;
    exe::Executable eprofX = s.image;
    qpt::ProfilePlan plan;
    qpt::EdgeProfilePlan eplan;
    {
        LayerSpan span("qpt.plan");
        plan = qpt::makePlan(work, routines);
        eplan = qpt::makeEdgePlan(eprofX, routines);
    }
    exe::Executable eprof;
    {
        LayerSpan span("eel.layout.edge_profile");
        eprof = edit::rewrite(eprofX, routines, eplan.plan, {});
    }
    std::vector<edit::RoutineEdgeCounts> edges;
    {
        LayerSpan span("sim.emulate");
        sim::Emulator emu(eprof);
        sim::RunResult r = emu.run();
        res.check(r.exited, s.name + ": edge-profile run did not exit");
        out.emulateInsts = r.instructions;
        edges = qpt::exportEdgeCounts(
            qpt::readEdgeCounts(emu, eplan, routines), eplan, routines);
    }

    edit::EditOptions local;
    local.schedule = true;
    local.model = &m;
    obs::SlotFillAudit audit;
    local.sched.audit = &audit;
    edit::EditOptions sblock = local;
    sblock.sched.audit = nullptr;
    sblock.scope = edit::SchedScope::Superblock;
    sblock.edgeCounts = &edges;
    sblock.liveness = &live;
    edit::EditOptions pipe = sblock;
    pipe.scope = edit::SchedScope::Pipeline;

    exe::Executable img[NumImages];
    img[Base] = s.image;
    {
        LayerSpan span("eel.layout.slow_profile");
        img[Inst] = edit::rewrite(work, routines, plan.plan, {});
    }
    {
        LayerSpan span("sched.local");
        img[Local] = edit::rewrite(work, routines, plan.plan, local);
    }
    {
        LayerSpan span("sched.superblock");
        img[Superblock] =
            edit::rewrite(work, routines, plan.plan, sblock);
    }
    {
        LayerSpan span("sched.pipeline");
        img[Pipeline] = edit::rewrite(work, routines, plan.plan, pipe);
    }
    for (const edit::Routine &r : routines)
        out.blocks += r.blocks.size();
    out.audit = audit.snapshot();

    sim::TimingSim::Config tcfg;
    tcfg.collectStalls = true;
    sim::TimedRun run[NumImages];
    for (int i = 0; i < NumImages; ++i) {
        LayerSpan span("sim.timing");
        run[i] = sim::timedRun(img[i], m, tcfg);
    }

    // Checks that cost nothing beyond the runs above: every variant
    // behaves like the original, and no run beats the issue width.
    for (int i = 0; i < NumImages; ++i) {
        const sim::RunResult &r = run[i].result;
        res.check(r.exited && r.exitCode == run[Base].result.exitCode &&
                      r.output == run[Base].result.output,
                  s.name + ": " + kImageName[i] +
                      " exit code or output differs from the original");
        res.check(run[i].cycles * m.issueWidth() >= r.instructions,
                  s.name + ": " + kImageName[i] +
                      " retired more than issue width per cycle");
        res.check(run[i].stallBreakdown.total() == run[i].stallCycles,
                  s.name + ": stall histogram does not sum to total");
        out.cycles[i] = run[i].cycles;
        out.insts[i] = r.instructions;
    }
    out.instStalls = run[Inst].stallBreakdown;
    out.localStalls = run[Local].stallBreakdown;

    if (!fullChecks)
        return;
    // qpt's counters against block entries seen by a separate sink,
    // and every scheduled variant against the unscheduled counters.
    auto entries = blockEntries(s.image, routines);
    auto instCounts = countersOf(img[Inst], plan);
    res.check(instCounts == entries,
              s.name + ": qpt block counters differ from block entries");
    for (int i = Local; i < NumImages; ++i)
        res.check(countersOf(img[i], plan) == instCounts,
                  s.name + ": " + kImageName[i] +
                      " counters differ from the unscheduled ones");
}

double
hidden(const UnitOut &u, Image sched)
{
    double overhead = double(int64_t(u.cycles[Inst]) -
                             int64_t(u.cycles[Base]));
    return 100.0 *
           double(int64_t(u.cycles[Inst]) - int64_t(u.cycles[sched])) /
           overhead;
}

uint64_t
memoCounter(const char *name)
{
    for (const auto &[n, v] : obs::metricsSnapshot())
        if (n == name)
            return v;
    return 0;
}

} // namespace

Result
runTablesCold(const Options &opt)
{
    Result res;
    std::vector<StandIn> suite =
        generateSuite(kScale, 0, opt.suiteSeed);
    res.setupSec = since(processStart);

    const size_t n = suite.size();
    Recorder rec(n);
    Rng rng(opt.seed);
    std::vector<UnitOut> last(n);
    uint64_t memoHits0 = memoCounter("memo.trace_hits");
    uint64_t memoMiss0 = memoCounter("memo.trace_misses");
    Clock::time_point start = Clock::now();
    size_t round = 0;
    do {
        for (size_t u : rng.permutation(n)) {
            UnitOut out;
            uint64_t t0 = obs::nowNs();
            Clock::time_point c0 = Clock::now();
            size_t errs = res.errors.size();
            runUnit(suite[u], false, res, out);
            rec.add(round, u, since(c0));
            recordUnitSpan(round, u, t0, obs::nowNs());
            ++res.attempted;
            if (round > 0) {
                for (int i = 0; i < NumImages; ++i)
                    res.check(out.cycles[i] == last[u].cycles[i],
                              suite[u].name +
                                  ": simulated cycles changed between "
                                  "rounds");
            } else {
                // Untimed: the counter checks need extra runs.
                runUnit(suite[u], true, res, out);
            }
            if (res.errors.size() != errs)
                ++res.failed;
            last[u] = out;
        }
        res.roundDone(++round);
    } while (since(start) < opt.seconds);

    res.rounds = rec.rounds();
    res.passSec = rec.passSeconds();
    res.opP50Ms = rec.medianUnitSeconds() * 1e3;

    std::vector<double> local(n), sb(n), pipe(n);
    obs::StallBreakdown instStalls, localStalls;
    obs::SlotFillCounts audit;
    double timingInsts = 0, emulateInsts = 0, blocks = 0;
    for (size_t u = 0; u < n; ++u) {
        local[u] = hidden(last[u], Local);
        sb[u] = hidden(last[u], Superblock);
        pipe[u] = hidden(last[u], Pipeline);
        instStalls += last[u].instStalls;
        localStalls += last[u].localStalls;
        audit += last[u].audit;
        for (int i = 0; i < NumImages; ++i)
            timingInsts += double(last[u].insts[i]);
        emulateInsts += double(last[u].emulateInsts);
        blocks += 3.0 * double(last[u].blocks);
    }
    double sum = 0;
    for (double h : local)
        sum += h;
    res.hiddenPct = sum / double(n);

    auto &L = res.layers;
    L["tables.cint_hidden_pct"] = suiteMean(suite, local, false);
    L["tables.cfp_hidden_pct"] = suiteMean(suite, local, true);
    L["tables.superblock_cint_hidden_pct"] = suiteMean(suite, sb, false);
    L["tables.pipeline_cfp_hidden_pct"] = suiteMean(suite, pipe, true);
    for (unsigned r = 0; r < obs::numStallReasons; ++r) {
        const char *name = obs::stallReasonName(obs::StallReason(r));
        L[std::string("machine.stall_cycles.inst.") + name] =
            double(instStalls.cycles[r]);
        L[std::string("machine.stall_cycles.sched.") + name] =
            double(localStalls.cycles[r]);
    }
    for (unsigned r = 0; r < obs::numSlotFillReasons; ++r)
        L[std::string("sched.unfilled_slots.") +
          obs::slotFillReasonName(obs::SlotFillReason(r))] =
            double(audit.slots[r]);
    uint64_t hits = memoCounter("memo.trace_hits") - memoHits0;
    uint64_t misses = memoCounter("memo.trace_misses") - memoMiss0;
    L["sim.memo_hit_rate"] =
        hits + misses ? double(hits) / double(hits + misses) : 0;
    // Work per pass, for the rates run.py forms with the traced
    // self times.
    L["count.sim.timing_insts"] = timingInsts;
    L["count.sim.emulate_insts"] = emulateInsts;
    L["count.sched.blocks"] = blocks;
    return res;
}

} // namespace perfbench
