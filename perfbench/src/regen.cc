/**
 * @file
 * regen-after-edit: the incremental-regeneration path. Set-up builds
 * the original, instrumented and locally scheduled image of every
 * stand-in and simulates each through sim::runSharded with one
 * sim::ResultCache, which warms the cache. One unit is one image:
 * apply one more architecturally inert text-word edit to it and
 * re-simulate through the cache. Checkpoint capture, page manifests
 * and cache lookups do the work; only the shards that execute the
 * edited page are timed again. The stand-ins get more routines than
 * the paper's so that an image spans several 1 KiB text pages and an
 * edit leaves the shards of the other pages valid.
 */

#include "perfbench/src/workloads.hh"
#include "src/eel/cfg.hh"
#include "src/eel/editor.hh"
#include "src/obs/trace.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/resultcache.hh"
#include "src/sim/shard.hh"

namespace perfbench {

using namespace eel;

namespace {

constexpr double kScale = 0.05;
constexpr unsigned kKernels = 24;
/** Dynamic instructions per shard: 4 to 35 shards an image. */
constexpr uint64_t kInterval = 8192;

enum Kind { Base, Inst, Sched, NumKinds };
const char *const kKindName[NumKinds] = {"base", "inst", "sched"};

/** One image under repeated edits. */
struct Subject
{
    std::string name;
    exe::Executable image;     ///< current (cumulatively edited)
    sim::ShardedRun pristine;  ///< the unedited image's run
    InertEditWalk walk;
};

sim::ShardOptions
shardOptions(sim::ResultCache *cache)
{
    sim::ShardOptions o;
    o.interval = kInterval;
    o.timing.collectStalls = true;
    o.cache = cache;
    return o;
}

bool
sameRun(const sim::ShardedRun &a, const sim::ShardedRun &b)
{
    return a.cycles == b.cycles &&
           a.result.instructions == b.result.instructions &&
           a.result.exitCode == b.result.exitCode &&
           a.result.exited == b.result.exited &&
           a.result.output == b.result.output &&
           a.issueHistogram == b.issueHistogram &&
           a.stallBreakdown == b.stallBreakdown &&
           a.stallCycles == b.stallCycles &&
           a.leaderRetires == b.leaderRetires &&
           a.blocksRetired == b.blocksRetired &&
           a.finalState.equalTo(b.finalState, false);
}

} // namespace

Result
runRegenAfterEdit(const Options &opt)
{
    Result res;
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    std::vector<StandIn> suite =
        generateSuite(kScale, kKernels, opt.suiteSeed);

    sim::ResultCache cache;
    const sim::ShardOptions warm = shardOptions(&cache);
    const sim::ShardOptions cold = shardOptions(nullptr);
    std::vector<Subject> subjects;
    for (size_t s = 0; s < suite.size(); ++s) {
        std::vector<edit::Routine> routines =
            edit::buildRoutines(suite[s].image);
        exe::Executable work = suite[s].image;
        qpt::ProfilePlan plan = qpt::makePlan(work, routines);
        edit::EditOptions local;
        local.schedule = true;
        local.model = &m;
        exe::Executable images[NumKinds] = {
            suite[s].image,
            edit::rewrite(work, routines, plan.plan, {}),
            edit::rewrite(work, routines, plan.plan, local)};
        for (int k = 0; k < NumKinds; ++k) {
            sim::ShardedRun pristine = sim::runSharded(images[k], m, warm);
            InertEditWalk walk(images[k], opt.seed ^ subjects.size());
            subjects.push_back({suite[s].name + "/" + kKindName[k],
                                std::move(images[k]), std::move(pristine),
                                std::move(walk)});
        }
    }
    res.setupSec = since(processStart);

    const size_t n = subjects.size();
    Recorder rec(n), capture(n);
    Rng rng(opt.seed);
    std::vector<uint64_t> cycles(n);
    double replayed = 0, invalidated = 0, captureInsts = 0;
    sim::ResultCache::Stats before = cache.stats();
    Clock::time_point start = Clock::now();
    size_t round = 0;
    do {
        for (size_t u : rng.permutation(n)) {
            Subject &sub = subjects[u];
            uint64_t inval0 = cache.stats().invalidations;

            size_t errs = res.errors.size();
            uint64_t t0 = obs::nowNs();
            Clock::time_point c0 = Clock::now();
            sub.walk.step(sub.image, rng);
            sim::ShardedRun run;
            {
                LayerSpan span("sim.sharded_run");
                run = sim::runSharded(sub.image, m, warm);
            }
            rec.add(round, u, since(c0));
            recordUnitSpan(round, u, t0, obs::nowNs());
            capture.add(round, u, run.stats.captureSec);
            ++res.attempted;

            res.check(run.result.exited &&
                          run.result.exitCode ==
                              sub.pristine.result.exitCode &&
                          run.result.output ==
                              sub.pristine.result.output,
                      sub.name + ": edited image's output differs");
            res.check(cache.stats().invalidations > inval0,
                      sub.name + ": edit invalidated no shard");
            if (round == 0)
                res.check(sameRun(run, sim::runSharded(sub.image, m, cold)),
                          sub.name + ": cache-served run differs from a "
                                     "cold run of the same image");
            if (res.errors.size() != errs)
                ++res.failed;
            cycles[u] = run.cycles;
            replayed += double(run.stats.shards - run.stats.cachedShards);
            captureInsts += double(run.result.instructions);
        }
        res.roundDone(++round);
    } while (since(start) < opt.seconds);
    sim::ResultCache::Stats after = cache.stats();

    res.rounds = rec.rounds();
    res.passSec = rec.passSeconds();
    res.opP50Ms = rec.medianUnitSeconds() * 1e3;
    double sum = 0;
    for (size_t s = 0; s < suite.size(); ++s) {
        uint64_t c[NumKinds];
        for (int k = 0; k < NumKinds; ++k)
            c[k] = cycles[s * NumKinds + k];
        sum += 100.0 * double(int64_t(c[Inst]) - int64_t(c[Sched])) /
               double(int64_t(c[Inst]) - int64_t(c[Base]));
    }
    res.hiddenPct = sum / double(suite.size());

    double rounds = double(res.rounds);
    invalidated = double(after.invalidations - before.invalidations);
    uint64_t lookups = after.lookups - before.lookups;
    auto &L = res.layers;
    L["sim.shards_replayed"] = replayed / rounds;
    L["sim.rescache_invalidations"] = invalidated / rounds;
    L["sim.rescache_hit_rate"] =
        lookups ? double(after.hits - before.hits) / double(lookups) : 0;
    L["sim.emulate_minst_per_s"] =
        captureInsts / rounds / capture.passSeconds() / 1e6;
    return res;
}

} // namespace perfbench
