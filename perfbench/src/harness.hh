/**
 * @file
 * Shared plumbing for the four benchmark workloads: options, the
 * round/unit timing recorder and its host-time statistics, layer
 * spans, the inert text edit, and the result record every workload
 * returns.
 *
 * Host-time method. This benchmark has to hold on hosts whose speed
 * switches between two levels every few seconds (measured: about
 * 1.8x between levels, switching every 1-30 s; see README.md). A
 * workload therefore runs many short units of work (one stand-in's
 * protocol, one request) in whole rounds, times every unit, and
 * reports for each unit kind a low quantile (the 10th percentile)
 * over the rounds. A unit needs only a tenth of its samples to land
 * in the fast level for its figure to be the fast-level time, so the
 * figure does not move with the share of the run the host spent
 * slow. pass_s is the sum of those per-unit figures: the host time
 * of one pass at the host's fast level.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/exe/executable.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** When the process started (static initialisation, before main). */
extern const Clock::time_point processStart;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    /** Chrome-trace output path; empty = tracing off. */
    std::string tracePath;
    /**
     * Generator seed mixed into every stand-in (0 = the suite's own
     * seeds). The stand-in programs are fixed so that the exact
     * metrics repeat bit for bit across --seed; this draws a second,
     * independent suite to show they are not an artifact of one.
     */
    uint64_t suiteSeed = 0;
};

/** Seconds elapsed since t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile q in [0,1] (values copied). */
double quantile(std::vector<double> v, double q);

/** splitmix64: the benchmark's one seeded generator. */
struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    size_t below(size_t n) { return n ? size_t(next() % n) : 0; }
    /** Fisher-Yates shuffle of 0..n-1. */
    std::vector<size_t> permutation(size_t n);
};

/**
 * Per-round, per-unit durations. A round runs every unit once; the
 * statistics are taken per unit over rounds (see the file comment).
 */
class Recorder
{
  public:
    explicit Recorder(size_t units) : units(units) {}
    void
    add(size_t round, size_t unit, double sec)
    {
        if (round >= dur.size())
            dur.resize(round + 1, std::vector<double>(units, 0.0));
        dur[round][unit] = sec;
    }
    size_t rounds() const { return dur.size(); }
    /** Each unit's 10th percentile over rounds. */
    std::vector<double> unitSeconds() const;
    /** Sum over units of unitSeconds(): one pass. */
    double passSeconds() const;
    /** Median over units of unitSeconds(): one operation. */
    double medianUnitSeconds() const;

  private:
    size_t units;
    std::vector<std::vector<double>> dur;
};

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** What a workload hands back to main(). */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Output-check failures (each also printed to stderr). */
    std::vector<std::string> errors;
    double setupSec = 0;
    size_t rounds = 0;
    /** Peak RSS once set-up and kRssRounds rounds are done: the
     *  memory a pass needs, whatever the host's speed. Growth after
     *  that (caches that keep every result) is reported per round. */
    double rssMb = 0;
    /** End-to-end metrics other than setup_s and peak_rss_mb. */
    double passSec = 0;
    double opP50Ms = 0;
    double hiddenPct = 0;
    /** Per-layer figures measured without the trace (counts, exact
     *  simulated quantities, rates the workload times itself). */
    std::map<std::string, double> layers;

    void check(bool ok, const std::string &what);
    /** Call after each round with the number of rounds completed. */
    void
    roundDone(size_t completed)
    {
        if (completed <= kRssRounds)
            rssMb = peakRssMb();
    }
    static constexpr size_t kRssRounds = 2;
};

/**
 * Time a call into one layer. Recorded only while tracing is on; the
 * per-layer self times are computed from the written trace
 * (run.py), so an untraced run pays one relaxed load per span.
 */
class LayerSpan
{
  public:
    explicit LayerSpan(const char *layer);
    ~LayerSpan();
    LayerSpan(const LayerSpan &) = delete;
    LayerSpan &operator=(const LayerSpan &) = delete;

  private:
    const char *layer;
    uint64_t t0 = 0;
    bool active = false;
};

/** Span around one unit of one round, so run.py can group the layer
 *  spans it encloses the same way Recorder groups unit times. */
void recordUnitSpan(size_t round, size_t unit, uint64_t t0Ns,
                    uint64_t t1Ns);

/**
 * A walk of cumulative, architecturally inert text edits over one
 * image. The edited field is bits 12:5 of a register-form format-3
 * instruction (the ASI field, which only alternate-space memory
 * operations use and the ISA subset has none of): the decoder
 * ignores it, so the edited word decodes to the same instruction and
 * every result, including simulated cycles, stays the same. Each
 * step picks an executed 1 KiB text page (the result cache's page
 * size), then a candidate word on it and a new field value, and
 * never returns that page to a content it has had before: every step
 * changes a page that some shard of the run executes into a content
 * no cache has seen. Page contents are tracked by Zobrist hashing.
 */
class InertEditWalk
{
  public:
    InertEditWalk(const eel::exe::Executable &x, uint64_t seed);

    /** Apply the next edit to x (the image the walk was built on,
     *  as left by the previous steps). */
    void step(eel::exe::Executable &x, Rng &rng);

  private:
    struct Page
    {
        std::vector<uint32_t> words;
        uint64_t state = 0;
        std::unordered_set<uint64_t> seen;
    };
    /** Zobrist key of text word `word` holding field value `v`. */
    uint64_t key(uint32_t word, uint32_t v) const;

    uint64_t salt;
    std::vector<Page> pages;
};

/** One generated SPEC95 stand-in. */
struct StandIn
{
    std::string name;
    bool fp = false;
    eel::exe::Executable image;
};

/**
 * Generate the 18 stand-ins (workload::generate, one layer span per
 * call) at `scale`, pre-scheduled for the UltraSPARC. kernels = 0
 * keeps each spec's own routine count; `only` > 0 keeps the first
 * `only` CINT and the first `only` CFP members.
 */
std::vector<StandIn> generateSuite(double scale, unsigned kernels,
                                   uint64_t suiteSeed,
                                   size_t only = 0);

/** Mean over the CINT (fp = false) or CFP members of v. */
double suiteMean(const std::vector<StandIn> &suite,
                 const std::vector<double> &v, bool fp);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
