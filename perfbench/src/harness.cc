#include "perfbench/src/harness.hh"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>

#include "src/isa/instruction.hh"
#include "src/machine/model.hh"
#include "src/obs/trace.hh"
#include "src/sim/emulator.hh"
#include "src/support/logging.hh"
#include "src/workload/generator.hh"
#include "src/workload/spec.hh"

namespace perfbench {

const Clock::time_point processStart = Clock::now();

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double idx = q * double(v.size() - 1);
    size_t lo = size_t(idx);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - double(lo);
    return v[lo] * (1 - frac) + v[hi] * frac;
}

std::vector<size_t>
Rng::permutation(size_t n)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[below(i)]);
    return p;
}

std::vector<double>
Recorder::unitSeconds() const
{
    std::vector<double> fast(units);
    for (size_t u = 0; u < units; ++u) {
        std::vector<double> v;
        v.reserve(dur.size());
        for (const auto &round : dur)
            v.push_back(round[u]);
        fast[u] = quantile(std::move(v), 0.10);
    }
    return fast;
}

double
Recorder::passSeconds() const
{
    double sum = 0;
    for (double s : unitSeconds())
        sum += s;
    return sum;
}

double
Recorder::medianUnitSeconds() const
{
    return quantile(unitSeconds(), 0.50);
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    if (errors.size() < 20)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    errors.push_back(what);
}

LayerSpan::LayerSpan(const char *layer)
    : layer(layer), active(eel::obs::tracingEnabled())
{
    if (active)
        t0 = eel::obs::nowNs();
}

LayerSpan::~LayerSpan()
{
    if (active)
        eel::obs::recordSpan(std::string("layer:") + layer, t0,
                             eel::obs::nowNs());
}

void
recordUnitSpan(size_t round, size_t unit, uint64_t t0Ns, uint64_t t1Ns)
{
    if (!eel::obs::tracingEnabled())
        return;
    eel::obs::recordSpan("unit", t0Ns, t1Ns,
                         eel::strfmt("{\"round\":%zu,\"unit\":%zu}",
                                     round, unit));
}

namespace {

constexpr uint32_t kFieldShift = 5;
constexpr uint32_t kFieldMask = 0xffu << kFieldShift;

uint32_t
field(uint32_t word)
{
    return (word & kFieldMask) >> kFieldShift;
}

/** A register-form format-3 word whose bits 12:5 nothing reads. */
bool
inertSite(uint32_t word)
{
    uint32_t op = word >> 30;
    uint32_t op3 = (word >> 19) & 0x3f;
    bool immediate = (word >> 13) & 1;
    if ((op != 2 && op != 3) || immediate)
        return false;
    // FPops keep their opf in bits 13:5 and Ticc its trap number in
    // the low bits; everything else decodes through the generic path.
    if (op == 2 && (op3 == 0x34 || op3 == 0x35 || op3 == 0x3a))
        return false;
    return eel::isa::decode(word).op != eel::isa::Op::Invalid;
}

} // namespace

InertEditWalk::InertEditWalk(const eel::exe::Executable &x,
                             uint64_t seed)
    : salt(Rng(seed).next())
{
    constexpr size_t pageWords = 256;  // the result cache's 1 KiB pages
    struct Sink
    {
        std::vector<uint8_t> page;
        void
        retire(uint32_t pc, const eel::isa::Instruction &)
        {
            page[(pc - eel::exe::textBase) / 4 / pageWords] = 1;
        }
    } sink;
    sink.page.assign(x.text.size() / pageWords + 1, 0);
    eel::sim::Emulator emu(x);
    emu.run(sink);
    size_t candidates = 0;
    for (uint32_t i = 0; i < x.text.size(); ++i) {
        if (!sink.page[i / pageWords] || !inertSite(x.text[i]))
            continue;
        if (pages.empty() ||
            pages.back().words.back() / pageWords != i / pageWords)
            pages.emplace_back();
        Page &p = pages.back();
        p.words.push_back(i);
        p.state ^= key(i, field(x.text[i]));
        ++candidates;
    }
    if (candidates == 0)
        eel::fatal("no executed text word admits an inert edit");
    for (Page &p : pages)
        p.seen.insert(p.state);
}

uint64_t
InertEditWalk::key(uint32_t word, uint32_t v) const
{
    return Rng(salt ^ (uint64_t(word) << 8 | v)).next();
}

void
InertEditWalk::step(eel::exe::Executable &x, Rng &rng)
{
    for (int tries = 0; tries < 1000; ++tries) {
        Page &p = pages[rng.below(pages.size())];
        uint32_t w = p.words[rng.below(p.words.size())];
        uint32_t from = field(x.text[w]);
        uint32_t to = (from + 1 + uint32_t(rng.below(255))) & 0xff;
        uint64_t next = p.state ^ key(w, from) ^ key(w, to);
        if (!p.seen.insert(next).second)
            continue;
        p.state = next;
        x.text.set(w, (x.text[w] & ~kFieldMask) | (to << kFieldShift));
        return;
    }
    eel::fatal("inert edit walk found no new page content");
}

std::vector<StandIn>
generateSuite(double scale, unsigned kernels, uint64_t suiteSeed,
              size_t only)
{
    const eel::machine::MachineModel &m =
        eel::machine::MachineModel::builtin("ultrasparc");
    eel::workload::GenOptions g;
    g.scale = scale;
    g.machine = &m;
    std::vector<StandIn> suite;
    size_t ints = 0, fps = 0;
    for (eel::workload::BenchmarkSpec spec :
         eel::workload::spec95("ultrasparc")) {
        if (only && (spec.fp ? fps++ : ints++) >= only)
            continue;
        if (kernels)
            spec.kernels = kernels;
        if (suiteSeed)
            spec.seed = Rng(spec.seed ^ suiteSeed).next() | 1;
        LayerSpan span("workload.generate");
        suite.push_back({spec.name, spec.fp,
                         eel::workload::generate(spec, g)});
    }
    return suite;
}

double
suiteMean(const std::vector<StandIn> &suite,
          const std::vector<double> &v, bool fp)
{
    double sum = 0;
    size_t n = 0;
    for (size_t i = 0; i < suite.size(); ++i)
        if (suite[i].fp == fp) {
            sum += v[i];
            ++n;
        }
    return n ? sum / double(n) : 0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

} // namespace perfbench
