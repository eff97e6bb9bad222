/**
 * @file
 * service-mix: eelsvcd's request path, in process. An svc::Server
 * with 2 worker threads is driven closed-loop over svc::Client by 2
 * connections. The corpus is the original, instrumented and locally
 * scheduled image of two CINT and two CFP stand-ins. Every sequence
 * is SUBMIT_XEF, REWRITE, SIMULATE: a connection resubmits each of
 * its known images once a round and adds fresh text-edited variants,
 * which miss the rewrite and result caches that resubmits hit. Wire
 * handling, the admission queue, XEF decode, page interning and both
 * caches do the work.
 *
 * One round is every sequence of both connections; the connections
 * start a round together. Output checks: every REWRITE reply against
 * a direct edit::BatchRewriter run on the same bytes, every SIMULATE
 * reply against a direct sim::timedRun (instructions, cycles, exit
 * code and exit flag: the reply carries no program output). Replies
 * to resubmits are checked in full; fresh variants are checked one
 * in kFreshSample.
 */

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <map>
#include <thread>

#include "perfbench/src/workloads.hh"
#include "src/eel/batch.hh"
#include "src/obs/trace.hh"
#include "src/sim/timing.hh"
#include "src/support/logging.hh"
#include "src/svc/client.hh"
#include "src/svc/server.hh"

namespace perfbench {

using namespace eel;

namespace {

constexpr double kScale = 0.02;
/** Routines per stand-in: enough executed text words for the edit
 *  walks (the paper's three kernels give too few). */
constexpr unsigned kKernels = 12;
constexpr unsigned kConnections = 2;
constexpr unsigned kServerThreads = 2;
/** Fresh edited sequences per connection per round. */
constexpr unsigned kFreshPerRound = 2;
/** One fresh sequence in this many is checked in full. */
constexpr unsigned kFreshSample = 32;
/** Rewrite kinds the mix asks for (the service's REWRITE accepts
 *  kinds up to Superblock). */
constexpr uint8_t kKinds[] = {
    uint8_t(edit::VariantKind::Identity),
    uint8_t(edit::VariantKind::SlowProfile),
    uint8_t(edit::VariantKind::Sched),
    uint8_t(edit::VariantKind::Superblock)};

enum Op { Submit, Rewrite, Simulate, NumOps };
const char *const kOpName[NumOps] = {"submit_xef", "rewrite",
                                     "simulate"};

enum Kind { Base, Inst, Sched, NumKinds };

struct Known
{
    std::string bytes;
    exe::Executable image;  ///< a connection's edited copy
    InertEditWalk walk;
};

/** A reply worth checking against a direct computation. */
struct Sample
{
    std::string bytes;
    uint8_t kind = 0;
    std::string rewriteXef;
    svc::SimulateReply sim;
};

struct Sequence
{
    size_t known = 0;
    bool fresh = false;
    uint8_t kind = 0;
    std::string bytes;  ///< fresh variants only
    bool sample = false;
};

struct ConnOut
{
    std::vector<std::string> errors;
    uint64_t attempted = 0, failed = 0;
    std::vector<double> latMs[NumOps];
    std::vector<std::vector<double>> roundLatMs;
    /** First reply per (known image, kind) and per known image. */
    std::map<std::pair<size_t, uint8_t>, std::string> rewriteRef;
    std::map<size_t, svc::SimulateReply> simRef;
    std::vector<Sample> samples;
};

bool
sameSim(const svc::SimulateReply &a, const svc::SimulateReply &b)
{
    return a.instructions == b.instructions && a.cycles == b.cycles &&
           a.exitCode == b.exitCode && a.exited == b.exited;
}

/** The number after `"key":` (searching from `from`), or -1. */
double
jsonNumber(const std::string &js, const std::string &key,
           size_t from = 0)
{
    size_t at = js.find("\"" + key + "\":", from);
    if (at == std::string::npos)
        return -1;
    return std::strtod(js.c_str() + at + key.size() + 3, nullptr);
}

class Connection
{
  public:
    Connection(unsigned id, uint16_t port, const std::vector<Known> &all,
               uint64_t seed)
        : client(svc::Client::dialTcp(port)), rng(seed)
    {
        for (size_t k = id; k < all.size(); k += kConnections)
            mine.push_back(k);
        known = all;
    }

    /** The next round's sequences, fresh variants already encoded. */
    void
    prepare()
    {
        plan.clear();
        for (size_t k : mine) {
            Sequence s;
            s.known = k;
            s.kind = kKinds[rng.below(std::size(kKinds))];
            plan.push_back(std::move(s));
        }
        for (unsigned f = 0; f < kFreshPerRound; ++f) {
            Sequence s;
            s.known = mine[rng.below(mine.size())];
            s.fresh = true;
            s.kind = kKinds[rng.below(std::size(kKinds))];
            Known &kn = known[s.known];
            kn.walk.step(kn.image, rng);
            s.bytes = kn.image.saveBytes();
            s.sample = freshCount++ % kFreshSample == 0;
            plan.push_back(std::move(s));
        }
        // Interleave resubmits and fresh variants.
        std::vector<size_t> order = rng.permutation(plan.size());
        std::vector<Sequence> shuffled;
        for (size_t i : order)
            shuffled.push_back(std::move(plan[i]));
        plan = std::move(shuffled);
    }

    void
    runRound()
    {
        std::vector<double> lat;
        for (Sequence &s : plan) {
            try {
                runSequence(s, lat);
            } catch (const std::exception &e) {
                fail(std::string("request threw: ") + e.what());
            }
        }
        out.roundLatMs.push_back(std::move(lat));
    }

    ConnOut out;

  private:
    template <class Fn>
    auto
    timed(Op op, std::vector<double> &lat, Fn &&fn)
    {
        LayerSpan span(op == Submit ? "svc.submit_xef"
                       : op == Rewrite ? "svc.rewrite"
                                       : "svc.simulate");
        Clock::time_point t0 = Clock::now();
        auto reply = fn();
        double ms = since(t0) * 1e3;
        lat.push_back(ms);
        out.latMs[op].push_back(ms);
        ++out.attempted;
        return reply;
    }

    void
    fail(const std::string &what)
    {
        ++out.failed;
        if (out.errors.size() < 20)
            out.errors.push_back(what);
    }

    void
    runSequence(const Sequence &s, std::vector<double> &lat)
    {
        const std::string &bytes =
            s.fresh ? s.bytes : known[s.known].bytes;
        auto sub = timed(Submit, lat, [&] { return client.submit(bytes); });
        if (!sub.ok() || sub.value.imageId != svc::contentId(bytes)) {
            fail("SUBMIT_XEF failed: " + sub.message);
            return;
        }
        svc::RewriteRequest rq;
        rq.imageId = sub.value.imageId;
        rq.kind = s.kind;
        auto rw = timed(Rewrite, lat, [&] { return client.rewrite(rq); });
        if (!rw.ok()) {
            fail("REWRITE failed: " + rw.message);
            return;
        }
        svc::SimulateRequest sq;
        sq.imageId = sub.value.imageId;
        auto sim = timed(Simulate, lat, [&] { return client.simulate(sq); });
        if (!sim.ok()) {
            fail("SIMULATE failed: " + sim.message);
            return;
        }
        if (s.fresh) {
            if (s.sample)
                out.samples.push_back(
                    {s.bytes, s.kind, rw.value.xef, sim.value});
            return;
        }
        // Resubmits: every reply equals the first one, which is
        // checked against a direct computation after the run.
        auto [it, first] = out.rewriteRef.try_emplace(
            {s.known, s.kind}, rw.value.xef);
        if (!first && it->second != rw.value.xef)
            fail("REWRITE reply changed between resubmits");
        auto [jt, firstSim] = out.simRef.try_emplace(s.known, sim.value);
        if (!firstSim && !sameSim(jt->second, sim.value))
            fail("SIMULATE reply changed between resubmits");
    }

    svc::Client client;
    Rng rng;
    std::vector<size_t> mine;
    std::vector<Known> known;
    std::vector<Sequence> plan;
    uint64_t freshCount = 0;
};

/** A direct (server-free) rewrite of the same bytes. */
std::string
directRewrite(const std::string &bytes, uint8_t kind)
{
    exe::Executable x = exe::Executable::loadBytes(bytes);
    edit::BatchOptions opts;
    opts.model = &machine::MachineModel::builtin("ultrasparc");
    edit::BatchRewriter rw(x, opts);
    return rw.rewriteAll({edit::VariantKind(kind)})
        .variants.at(0)
        .image.saveBytes();
}

svc::SimulateReply
directSimulate(const std::string &bytes)
{
    exe::Executable x = exe::Executable::loadBytes(bytes);
    sim::TimedRun r = sim::timedRun(
        x, machine::MachineModel::builtin("ultrasparc"));
    svc::SimulateReply rep;
    rep.instructions = r.result.instructions;
    rep.cycles = r.cycles;
    rep.exitCode = uint32_t(r.result.exitCode);
    rep.exited = r.result.exited;
    return rep;
}

} // namespace

Result
runServiceMix(const Options &opt)
{
    Result res;
    std::vector<StandIn> suite =
        generateSuite(kScale, kKernels, opt.suiteSeed, 2);
    std::vector<Known> corpus;
    edit::BatchOptions bopts;
    bopts.model = &machine::MachineModel::builtin("ultrasparc");
    for (size_t s = 0; s < suite.size(); ++s) {
        edit::BatchRewriter rw(suite[s].image, bopts);
        edit::BatchResult b = rw.rewriteAll(
            {edit::VariantKind::SlowProfile, edit::VariantKind::Sched});
        exe::Executable images[NumKinds] = {
            suite[s].image, b.variants[0].image, b.variants[1].image};
        for (int k = 0; k < NumKinds; ++k)
            corpus.push_back({images[k].saveBytes(), images[k],
                              InertEditWalk(images[k],
                                            opt.seed ^ corpus.size())});
    }

    svc::ServerConfig cfg;
    cfg.threads = kServerThreads;
    svc::Server server(cfg);
    server.start();
    std::vector<std::unique_ptr<Connection>> conns;
    for (unsigned c = 0; c < kConnections; ++c)
        conns.push_back(std::make_unique<Connection>(
            c, server.port(), corpus, opt.seed * kConnections + c));
    res.setupSec = since(processStart);

    // Rounds: clients prepare, all meet, clients run while main times
    // the round, all meet, main decides whether another round starts.
    std::barrier sync(kConnections + 1);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (auto &c : conns)
        threads.emplace_back([&, conn = c.get()] {
            for (;;) {
                conn->prepare();
                sync.arrive_and_wait();
                conn->runRound();
                sync.arrive_and_wait();
                sync.arrive_and_wait();
                if (stop.load())
                    return;
            }
        });
    std::vector<double> roundSec;
    Clock::time_point start = Clock::now();
    do {
        sync.arrive_and_wait();
        uint64_t t0 = obs::nowNs();
        Clock::time_point c0 = Clock::now();
        sync.arrive_and_wait();
        roundSec.push_back(since(c0));
        res.roundDone(roundSec.size());
        recordUnitSpan(roundSec.size() - 1, 0, t0, obs::nowNs());
        stop.store(since(start) >= opt.seconds);
        sync.arrive_and_wait();
    } while (!stop.load());
    for (std::thread &t : threads)
        t.join();

    auto stats = svc::Client::dialTcp(server.port()).stats();
    if (!stats.ok())
        fatal("STATS failed: %s", stats.message.c_str());
    server.stop();

    // Checks against direct computations, after the measured phase.
    std::vector<double> latAll[NumOps], roundP50;
    std::map<size_t, svc::SimulateReply> simRef;
    for (auto &c : conns) {
        ConnOut &o = c->out;
        res.attempted += o.attempted;
        res.failed += o.failed;
        for (const std::string &e : o.errors)
            res.check(false, e);
        for (const auto &[key, xef] : o.rewriteRef)
            res.check(xef == directRewrite(corpus[key.first].bytes,
                                           key.second),
                      "REWRITE reply differs from a direct rewrite");
        for (const auto &[k, rep] : o.simRef) {
            res.check(sameSim(rep, directSimulate(corpus[k].bytes)),
                      "SIMULATE reply differs from a direct timedRun");
            simRef[k] = rep;
        }
        for (const Sample &s : o.samples) {
            res.check(s.rewriteXef == directRewrite(s.bytes, s.kind),
                      "fresh REWRITE reply differs from a direct rewrite");
            res.check(sameSim(s.sim, directSimulate(s.bytes)),
                      "fresh SIMULATE reply differs from a direct "
                      "timedRun");
        }
        for (int op = 0; op < NumOps; ++op)
            latAll[op].insert(latAll[op].end(), o.latMs[op].begin(),
                              o.latMs[op].end());
    }
    for (size_t r = 0; r < roundSec.size(); ++r) {
        std::vector<double> lat;
        for (auto &c : conns)
            lat.insert(lat.end(), c->out.roundLatMs[r].begin(),
                       c->out.roundLatMs[r].end());
        roundP50.push_back(quantile(std::move(lat), 0.5));
    }

    res.rounds = roundSec.size();
    res.passSec = quantile(roundSec, 0.10);
    res.opP50Ms = quantile(roundP50, 0.10);
    double sum = 0;
    for (size_t s = 0; s < suite.size(); ++s) {
        double c[NumKinds];
        for (int k = 0; k < NumKinds; ++k)
            c[k] = double(simRef.at(s * NumKinds + k).cycles);
        sum += 100.0 * (c[Inst] - c[Sched]) / (c[Inst] - c[Base]);
    }
    res.hiddenPct = sum / double(suite.size());

    auto &L = res.layers;
    std::vector<double> all;
    for (int op = 0; op < NumOps; ++op) {
        L[std::string("svc.op_p50_ms.") + kOpName[op]] =
            quantile(latAll[op], 0.50);
        L[std::string("svc.op_p99_ms.") + kOpName[op]] =
            quantile(latAll[op], 0.99);
        all.insert(all.end(), latAll[op].begin(), latAll[op].end());
    }
    L["svc.p99_ms"] = quantile(all, 0.99);
    L["svc.requests_per_s"] =
        double(res.attempted) / double(res.rounds) / res.passSec;
    const std::string &js = stats.value;
    for (const char *phase :
         {"queue", "decode", "rewrite", "sim", "rescache", "reply"}) {
        size_t at = js.find(std::string("\"svc.phase.") + phase + "\"");
        L[std::string("svc.phase_p99_ms.") + phase] =
            at == std::string::npos ? 0
                                    : jsonNumber(js, "p99_us", at) / 1e3;
    }
    auto ratio = [&](const char *num, const char *den) {
        double d = jsonNumber(js, den);
        return d > 0 ? jsonNumber(js, num) / d : 0;
    };
    L["svc.rewrite_cache_hit_rate"] =
        ratio("rewrite_cache_hits", "rewrites");
    L["svc.sim_cache_hit_rate"] = ratio("sim_cache_hits", "simulates");
    L["exe.store_live_mb"] = jsonNumber(js, "live_bytes") / 1e6;
    L["exe.store_intern_hit_rate"] = ratio("intern_hits", "intern_calls");
    return res;
}

} // namespace perfbench
