#include "inputs.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "hdl/const_eval.hh"
#include "synth/elaborate.hh"

namespace perfbench
{

namespace
{

uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Scale factors of a parameter default (see BindingGrid). */
constexpr double kScales[] = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};

} // namespace

Rng::Rng(uint64_t seed, uint64_t stream)
{
    uint64_t s = seed;
    uint64_t a = splitmix(s);
    s = stream ^ 0x6a09e667f3bcc909ull;
    state_ = a ^ splitmix(s);
}

uint64_t
Rng::next()
{
    return splitmix(state_);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::below(size_t n)
{
    return static_cast<size_t>(next() % n);
}

double
Rng::normal()
{
    double u1 = 1.0 - uniform(); // (0, 1]
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(6.283185307179586 * u2);
}

std::string
Binding::label() const
{
    std::string out = design + "(";
    for (size_t i = 0; i < params.size(); ++i) {
        out += (i ? "," : "") + params[i].first + "=" +
               std::to_string(params[i].second);
    }
    return out + ")";
}

std::string
bindSource(const std::string &source, const std::string &top,
           const std::vector<std::pair<std::string, int64_t>> &params)
{
    auto is_ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::string out = source;
    size_t module = std::string::npos;
    for (size_t at = out.find("module " + top); at != std::string::npos;
         at = out.find("module " + top, at + 1)) {
        size_t end = at + 7 + top.size();
        if (end < out.size() && !is_ident(out[end])) {
            module = at;
            break;
        }
    }
    if (module == std::string::npos)
        throw std::runtime_error("no module '" + top + "' in source");
    // The header's parameter list has no ';' — the body does.
    size_t header_end = out.find(';', module);
    for (const auto &[name, value] : params) {
        size_t at = module;
        for (;;) {
            at = out.find("parameter " + name, at);
            if (at == std::string::npos || at > header_end)
                throw std::runtime_error("module '" + top +
                                         "' has no header parameter '" +
                                         name + "'");
            size_t end = at + 10 + name.size();
            if (end < out.size() && !is_ident(out[end]))
                break;
            at = end;
        }
        size_t eq = out.find('=', at);
        size_t digits = eq + 1;
        while (digits < out.size() && out[digits] == ' ')
            ++digits;
        size_t stop = digits;
        while (stop < out.size() &&
               std::isdigit(static_cast<unsigned char>(out[stop])))
            ++stop;
        if (stop == digits || stop > header_end)
            throw std::runtime_error("parameter '" + name + "' of '" +
                                     top + "' is not a literal");
        out.replace(digits, stop - digits, std::to_string(value));
        header_end = out.find(';', module);
    }
    return out;
}

namespace
{

/** Summed width of every flattened signal: the grid's size measure. */
int64_t
signalBits(const std::string &source, const std::string &top)
{
    ucx::Design design;
    design.addSource(source);
    int64_t bits = 0;
    for (const ucx::RtlSignal &s : ucx::elaborate(design, top).rtl.signals)
        bits += s.width;
    return bits;
}

} // namespace

BindingGrid::BindingGrid(const ucx::ExecContext &ctx)
{
    struct Candidate
    {
        size_t design;
        std::vector<int64_t> values;
    };
    std::vector<Candidate> all;
    std::vector<int64_t> default_bits;
    for (const ucx::ShippedDesign &sd : ucx::shippedDesigns()) {
        ucx::Design design = sd.load();
        Entry entry;
        entry.design = &sd;
        std::vector<std::vector<int64_t>> axes;
        ucx::ConstEnv env;
        const auto &params = design.module(sd.top).params;
        size_t free_params = 0;
        for (const auto &p : params)
            free_params += p.isLocal ? 0 : 1;
        for (const auto &p : params) {
            int64_t def = ucx::evalConst(*p.value, env);
            env[p.name] = def;
            if (p.isLocal)
                continue;
            std::vector<int64_t> axis;
            if (free_params == 1) {
                for (int64_t v = std::max<int64_t>(1, (def + 1) / 2);
                     v <= 3 * def; ++v)
                    axis.push_back(v);
            } else {
                for (double scale : kScales) {
                    int64_t v = std::max<int64_t>(
                        1, std::llround(static_cast<double>(def) * scale));
                    if (std::find(axis.begin(), axis.end(), v) ==
                        axis.end())
                        axis.push_back(v);
                }
            }
            entry.names.push_back(p.name);
            axes.push_back(axis);
        }
        size_t d = designs_.size();
        size_t n = 1;
        for (const auto &axis : axes)
            n *= axis.size();
        for (size_t i = 0; i < n; ++i) {
            Candidate c{d, {}};
            for (size_t k = 0, rest = i; k < axes.size(); ++k) {
                c.values.push_back(axes[k][rest % axes[k].size()]);
                rest /= axes[k].size();
            }
            all.push_back(std::move(c));
        }
        default_bits.push_back(signalBits(sd.source, sd.top));
        designs_.push_back(std::move(entry));
    }
    candidates_ = all.size();
    std::vector<int64_t> bits = ctx.parallelMap(all.size(), [&](size_t i) {
        const Entry &e = designs_[all[i].design];
        std::vector<std::pair<std::string, int64_t>> params;
        for (size_t k = 0; k < e.names.size(); ++k)
            params.emplace_back(e.names[k], all[i].values[k]);
        try {
            return signalBits(
                bindSource(e.design->source, e.design->top, params),
                e.design->top);
        } catch (const std::exception &) {
            return int64_t{-1}; // rejected by the design
        }
    });
    for (size_t i = 0; i < all.size(); ++i) {
        size_t d = all[i].design;
        if (bits[i] >= 0 &&
            static_cast<double>(bits[i]) <=
                kMaxGrowth * static_cast<double>(default_bits[d]))
            designs_[d].kept.push_back(std::move(all[i].values));
    }
}

Binding
BindingGrid::at(size_t d, size_t index) const
{
    const Entry &entry = designs_[d];
    Binding b;
    b.design = entry.design->name;
    b.top = entry.design->top;
    for (size_t k = 0; k < entry.names.size(); ++k)
        b.params.emplace_back(entry.names[k], entry.kept[index][k]);
    b.source = bindSource(entry.design->source, b.top, b.params);
    return b;
}

Rounds::Rounds(size_t n, uint64_t seed, uint64_t stream)
    : n_(n), rng_(seed, stream)
{}

size_t
Rounds::next()
{
    if (left_.empty()) {
        for (size_t i = 0; i < n_; ++i)
            left_.push_back(i);
    }
    size_t pick = rng_.below(left_.size());
    size_t item = left_[pick];
    left_.erase(left_.begin() + static_cast<std::ptrdiff_t>(pick));
    return item;
}

BindingSampler::BindingSampler(const BindingGrid &grid, uint64_t seed,
                               uint64_t stream)
    : grid_(grid), rng_(seed, stream),
      rounds_(grid.designs(), seed, stream + 1),
      unused_(grid.designs())
{}

Binding
BindingSampler::next()
{
    return next(rounds_.next());
}

Binding
BindingSampler::next(size_t d)
{
    std::vector<size_t> &left = unused_[d];
    if (left.empty()) {
        for (size_t i = 0; i < grid_.size(d); ++i)
            left.push_back(i);
    }
    if (left.empty())
        throw std::runtime_error("a design has no bindings");
    size_t j = rng_.below(left.size());
    size_t index = left[j];
    left[j] = left.back();
    left.pop_back();
    return grid_.at(d, index);
}

ucx::Dataset
calibrationDataset(const ucx::Dataset &paper,
                   const std::vector<double> &weights, double sigma_eps,
                   double sigma_rho, uint64_t seed, uint64_t op)
{
    // DEE1 covariates, zero-clamped as the fit sees them.
    const ucx::Metric dee1[] = {ucx::Metric::Stmts, ucx::Metric::FanInLC};
    Rng rng(seed, 0x100000000ull + op);
    std::map<std::string, double> b;
    for (const std::string &project : paper.projects())
        b[project] = sigma_rho * rng.normal();
    ucx::Dataset out;
    for (ucx::Component c : paper.components()) {
        double wm = 0.0;
        for (size_t k = 0; k < 2; ++k) {
            double m = c.metrics[static_cast<size_t>(dee1[k])];
            wm += weights[k] * std::max(m, 1.0);
        }
        c.effort = std::exp(b[c.project] + std::log(wm) +
                            sigma_eps * rng.normal());
        out.add(std::move(c));
    }
    return out;
}

ZipfSampler::ZipfSampler(size_t n, uint64_t seed, uint64_t stream)
    : rng_(seed, stream)
{
    double total = 0.0;
    for (size_t k = 1; k <= n; ++k) {
        total += 1.0 / static_cast<double>(k);
        cdf_.push_back(total);
    }
    for (double &c : cdf_)
        c /= total;
}

size_t
ZipfSampler::next()
{
    double u = rng_.uniform();
    size_t k = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(k, cdf_.size() - 1);
}

Tail
tailOf(std::vector<double> values)
{
    Tail t;
    t.samples = values.size();
    if (values.empty())
        return t;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    // Per-mille ladder, highest first; nearest rank k = ceil(p n).
    for (size_t per_mille : {999, 990, 900, 500}) {
        size_t k = (per_mille * n + 999) / 1000;
        if (n - k >= 10) {
            t.value = values[k - 1];
            t.percentile = static_cast<double>(per_mille) / 10.0;
            t.beyond = n - k;
            return t;
        }
    }
    t.value = values.back();
    t.percentile = 100.0;
    return t;
}

std::vector<Tail>
partTails(const std::vector<double> &latencies)
{
    size_t n = latencies.size();
    size_t parts = std::max<size_t>(1, n / 100);
    std::vector<Tail> out;
    for (size_t k = 0; k < parts; ++k) {
        auto first = latencies.begin() +
                     static_cast<std::ptrdiff_t>(k * n / parts);
        auto last = latencies.begin() +
                    static_cast<std::ptrdiff_t>((k + 1) * n / parts);
        out.push_back(tailOf(std::vector<double>(first, last)));
    }
    return out;
}

double
medianOf(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace perfbench
