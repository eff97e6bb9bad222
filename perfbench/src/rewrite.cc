/**
 * @file
 * rewrite-wide: the editing path on wide binaries. The stand-ins get
 * many routines and little dynamic work. One unit is one stand-in:
 * an edit::BatchRewriter over it, then one rewriteAll per
 * VariantKind -- what a caller that wants one kind at a time (the
 * service's REWRITE) pays -- all interned into one exe::SectionStore
 * per round. CFG, liveness, counter placement, the three scheduling
 * tiers and layout do the work; simulation only checks the outputs.
 */

#include <iterator>
#include <optional>

#include "perfbench/src/workloads.hh"
#include "src/eel/batch.hh"
#include "src/exe/section_store.hh"
#include "src/obs/trace.hh"
#include "src/qpt/edge_profiler.hh"
#include "src/qpt/profiler.hh"
#include "src/sim/emulator.hh"
#include "src/sim/timing.hh"

namespace perfbench {

using namespace eel;

namespace {

constexpr double kScale = 0.05;
constexpr unsigned kKernels = 24;

constexpr edit::VariantKind kKinds[] = {
    edit::VariantKind::Identity,   edit::VariantKind::SlowProfile,
    edit::VariantKind::EdgeProfile, edit::VariantKind::Sched,
    edit::VariantKind::Superblock, edit::VariantKind::Pipeline};
constexpr size_t kNumKinds = std::size(kKinds);
/** The layer each kind's stamp exercises (span names). */
const char *const kLayer[kNumKinds] = {
    "eel.layout.identity", "eel.layout.slow_profile",
    "eel.layout.edge_profile", "sched.local", "sched.superblock",
    "sched.pipeline"};
enum { Identity, SlowProfile, EdgeProfile, Sched, Superblock, Pipeline };

uint64_t
textHash(const exe::Executable &x)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < x.text.size(); ++i) {
        h ^= x.text[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Block-entry counts of x by (routine, block), from a retire sink. */
std::vector<std::vector<uint64_t>>
blockEntries(const exe::Executable &x,
             const std::vector<edit::Routine> &routines)
{
    struct Sink
    {
        std::vector<uint64_t> perWord;
        void
        retire(uint32_t pc, const isa::Instruction &)
        {
            ++perWord[(pc - exe::textBase) / 4];
        }
    } sink;
    sink.perWord.assign(x.text.size(), 0);
    sim::Emulator emu(x);
    emu.run(sink);
    std::vector<std::vector<uint64_t>> out(routines.size());
    for (size_t ri = 0; ri < routines.size(); ++ri)
        for (const edit::Block &b : routines[ri].blocks)
            out[ri].push_back(
                sink.perWord[(b.startAddr - exe::textBase) / 4]);
    return out;
}

/**
 * The output checks of one unit: every variant behaves like the
 * input, Identity reproduces it word for word, every counter-carrying
 * variant counts what a separate sink sees, and the edge profile
 * rebuilds the same block counts. Returns local scheduling's % hidden
 * on this stand-in.
 */
double
checkUnit(const StandIn &s, const edit::BatchResult (&r)[kNumKinds],
          Result &res)
{
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    sim::TimedRun base = sim::timedRun(s.image, m);
    uint64_t cycles[kNumKinds] = {};
    for (size_t k = 0; k < kNumKinds; ++k) {
        sim::TimedRun run = sim::timedRun(r[k].variants.at(0).image, m);
        res.check(run.result.exited &&
                      run.result.exitCode == base.result.exitCode &&
                      run.result.output == base.result.output,
                  s.name + ": " + kLayer[k] +
                      " variant's exit code or output differs");
        res.check(run.cycles * m.issueWidth() >= run.result.instructions,
                  s.name + ": " + kLayer[k] +
                      " variant retired more than issue width per cycle");
        cycles[k] = run.cycles;
    }

    const exe::Executable &ident = r[Identity].variants[0].image;
    bool same = ident.text.size() == s.image.text.size();
    for (size_t i = 0; same && i < ident.text.size(); ++i)
        same = ident.text[i] == s.image.text[i];
    res.check(same, s.name + ": Identity text differs from the input");

    auto counters = [](const edit::BatchResult &b) {
        sim::Emulator emu(b.variants[0].image);
        emu.run();
        return qpt::readCounts(emu, b.profilePlan);
    };
    auto slow = counters(r[SlowProfile]);
    res.check(slow == blockEntries(s.image, r[SlowProfile].routines),
              s.name + ": block counters differ from block entries");
    for (size_t k : {Sched, Superblock, Pipeline})
        res.check(counters(r[k]) == slow,
                  s.name + ": " + kLayer[k] +
                      " counters differ from the unscheduled ones");

    const edit::BatchResult &e = r[EdgeProfile];
    sim::Emulator emu(e.variants[0].image);
    emu.run();
    auto fromEdges = qpt::blockCountsFromEdges(
        qpt::readEdgeCounts(emu, e.edgePlan, e.routines), e.edgePlan,
        e.routines);
    res.check(fromEdges == slow,
              s.name + ": edge-profile block counts differ from the "
                       "block counters");

    return 100.0 *
           double(int64_t(cycles[SlowProfile]) - int64_t(cycles[Sched])) /
           double(int64_t(cycles[SlowProfile]) - int64_t(cycles[Identity]));
}

} // namespace

Result
runRewriteWide(const Options &opt)
{
    Result res;
    const machine::MachineModel &m =
        machine::MachineModel::builtin("ultrasparc");
    std::vector<StandIn> suite =
        generateSuite(kScale, kKernels, opt.suiteSeed);
    res.setupSec = since(processStart);

    const size_t n = suite.size();
    Recorder rec(n);
    Rng rng(opt.seed);
    std::vector<double> hidden(n);
    std::vector<uint64_t> hashes(n * kNumKinds);
    double storeMbPerVariant = 0, liveMb = 0, internHitRate = 0;
    double blocks = 0;
    Clock::time_point start = Clock::now();
    size_t round = 0;
    do {
        exe::SectionStore store;
        edit::BatchOptions bopts;
        bopts.model = &m;
        bopts.store = &store;
        std::vector<edit::BatchResult> kept;  // the round's images
        kept.reserve(n * kNumKinds);
        for (size_t u : rng.permutation(n)) {
            edit::BatchResult r[kNumKinds];
            size_t errs = res.errors.size();
            uint64_t t0 = obs::nowNs();
            Clock::time_point c0 = Clock::now();
            {
                std::optional<edit::BatchRewriter> rw;
                {
                    LayerSpan span("eel.batch_analysis");
                    rw.emplace(suite[u].image, bopts);
                }
                for (size_t k = 0; k < kNumKinds; ++k) {
                    LayerSpan span(kLayer[k]);
                    r[k] = rw->rewriteAll({kKinds[k]});
                }
            }
            rec.add(round, u, since(c0));
            recordUnitSpan(round, u, t0, obs::nowNs());
            ++res.attempted;

            for (size_t k = 0; k < kNumKinds; ++k) {
                uint64_t h = textHash(r[k].variants.at(0).image);
                if (round == 0)
                    hashes[u * kNumKinds + k] = h;
                res.check(hashes[u * kNumKinds + k] == h,
                          suite[u].name + ": " + kLayer[k] +
                              " variant changed between rounds");
            }
            if (round == 0) {
                hidden[u] = checkUnit(suite[u], r, res);
                for (const edit::Routine &rt : r[Sched].routines)
                    blocks += 3.0 * double(rt.blocks.size());
            }
            if (res.errors.size() != errs)
                ++res.failed;
            for (edit::BatchResult &b : r)
                kept.push_back(std::move(b));
        }
        std::vector<const exe::Executable *> variants;
        for (const edit::BatchResult &b : kept)
            variants.push_back(&b.variants[0].image);
        exe::ShareStats share = exe::shareStats(variants);
        exe::SectionStore::Stats st = store.stats();
        storeMbPerVariant =
            double(share.storedBytes) / double(variants.size()) / 1e6;
        liveMb = double(st.liveBytes) / 1e6;
        internHitRate = st.internCalls ? double(st.internHits) /
                                             double(st.internCalls)
                                       : 0;
        res.roundDone(++round);
    } while (since(start) < opt.seconds);

    res.rounds = rec.rounds();
    res.passSec = rec.passSeconds();
    res.opP50Ms = rec.medianUnitSeconds() * 1e3;
    double sum = 0;
    for (double h : hidden)
        sum += h;
    res.hiddenPct = sum / double(n);

    auto &L = res.layers;
    L["exe.store_mb_per_variant"] = storeMbPerVariant;
    L["exe.store_live_mb"] = liveMb;
    L["exe.store_intern_hit_rate"] = internHitRate;
    L["count.sched.blocks"] = blocks;
    return res;
}

} // namespace perfbench
