/**
 * @file
 * perfbench — the repo benchmark (see perfbench/README.md).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --scratch DIR --reports DIR --reference FILE
 *   perfbench --self-test --scratch DIR --reference FILE
 *   perfbench --check-grid
 *   perfbench --write-reference --reference FILE
 *
 * A run is a closed loop: one caller thread submits the next
 * operation only after the previous one returned, into one session
 * whose pool has one thread per hardware thread. --trace 0 reports
 * the end-to-end metrics of an untraced run with obs collection off.
 * --trace 1 runs the same seed untraced for half the time, then
 * replays exactly those operations through the traced path on a
 * fresh setup, checks every result equal, and reports per-layer
 * metrics. The last stdout line is the result object.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/paper_data.hh"
#include "hdl/const_eval.hh"
#include "inputs.hh"
#include "layered.hh"
#include "obs/metrics.hh"
#include "trace.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{
namespace
{

using namespace ucx;

/**
 * Setups per --trace 0 run: at least kMinSetups, more while they
 * have taken under kSetupBudget seconds (up to kMaxSetups), so a
 * setup of a millisecond is still the median of many.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudget = 1.0;


struct Args
{
    std::string mode = "run";
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string scratch = ".bench_build/scratch";
    std::string reports;
    std::string reference = "perfbench/reference/shipped.txt";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(k + " needs a value");
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace")
            a.trace = std::stoi(value());
        else if (k == "--scratch")
            a.scratch = value();
        else if (k == "--reports")
            a.reports = value();
        else if (k == "--reference")
            a.reference = value();
        else if (k == "--self-test")
            a.mode = "self-test";
        else if (k == "--check-grid")
            a.mode = "check-grid";
        else if (k == "--write-reference")
            a.mode = "write-reference";
        else {
            std::fprintf(stderr, "unknown argument '%s'\n", k.c_str());
            return false;
        }
    }
    if (a.mode == "run" &&
        (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0 ||
         a.trace > 1)) {
        std::fprintf(stderr, "usage: --workload W --seed N --seconds S "
                             "--trace 0|1\n");
        return false;
    }
    return true;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** The settings fingerprint: what must match for two runs to compare. */
std::string
fingerprint(const Args &a)
{
    SessionSettings s = settingsFor(a.workload, a.scratch);
    std::string env = "{";
    std::vector<std::string> vars;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "UCX_", 4) == 0)
            vars.push_back(*e);
    std::sort(vars.begin(), vars.end());
    for (const std::string &v : vars) {
        size_t eq = v.find('=');
        env += (env.size() > 1 ? "," : "") +
               jsonString(v.substr(0, eq)) + ":" +
               jsonString(v.substr(eq + 1));
    }
    env += "}";
    return "{\"workload\":" + jsonString(a.workload) +
           ",\"seconds\":" + num(a.seconds) +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"pool_threads\":" + std::to_string(s.threads) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
           ",\"cache_capacity\":" + std::to_string(s.cacheCapacity) +
           ",\"cache_disk\":" + (s.cacheDir.empty() ? "false" : "true") +
           ",\"ucx_env\":" + env + "}";
}

struct LoopStats
{
    std::vector<double> latencyMs;
    std::vector<double> endSeconds; ///< Per op, from the loop start.
    std::vector<std::string> digests; ///< Kept when asked.
    size_t ops = 0;
    size_t failed = 0;
    uint64_t fits = 0;
    uint64_t converged = 0;
    double wall = 0.0;
};

/** Closed loop: for @p seconds, or exactly @p count ops if > 0. */
LoopStats
runLoop(Workload &w, double seconds, size_t count, bool traced,
        bool keep_digests)
{
    LoopStats st;
    double start = nowSeconds();
    for (size_t i = 0;; ++i) {
        if (count ? i >= count : nowSeconds() - start >= seconds)
            break;
        w.prepare(i);
        if (traced)
            Tracer::setOperation(static_cast<int>(i));
        double t0 = nowSeconds();
        OpResult r = w.op(i, traced);
        double t1 = nowSeconds();
        st.latencyMs.push_back((t1 - t0) * 1e3);
        st.endSeconds.push_back(t1 - start);
        if (traced)
            Tracer::setOperation(-1);
        ++st.ops;
        st.fits += r.fits;
        st.converged += r.converged;
        if (!r.ok) {
            if (st.failed == 0)
                std::fprintf(stderr, "op %zu failed: %s\n", i,
                             r.error.c_str());
            ++st.failed;
        }
        if (keep_digests)
            st.digests.push_back(std::move(r.digest));
    }
    st.wall = nowSeconds() - start;
    return st;
}

/**
 * Throughput as the median over consecutive windows of @p window
 * operations: a burst of load from outside the benchmark slows a
 * few windows, not the figure.
 */
double
windowedOpsPerSecond(const LoopStats &st, size_t window)
{
    std::vector<double> rates;
    double begin = 0.0;
    for (size_t end = window; end <= st.ops; end += window) {
        double t = st.endSeconds[end - 1];
        rates.push_back(static_cast<double>(window) / (t - begin));
        begin = t;
    }
    if (rates.empty())
        return static_cast<double>(st.ops) / st.wall;
    return medianOf(rates);
}

/** Untimed output checks run after the loop. */
struct CheckStats
{
    size_t attempted = 0;
    size_t failed = 0;
    uint64_t fits = 0;
    uint64_t converged = 0;
    double sigmaEpsErr = 0.0;
};

void
checkFailed(CheckStats &c, const std::string &why)
{
    if (c.failed == 0)
        std::fprintf(stderr, "check failed: %s\n", why.c_str());
    ++c.failed;
}

/**
 * Refit the 12 Table 4 estimators, mixed and pooled, on the
 * published data: sigma_eps must stay within the tolerances of
 * tests/data/test_reproduction.cc.
 */
void
checkSigmaEps(EstimationSession &s, CheckStats &c)
{
    struct Ref
    {
        EstimatorSpec spec;
        double paper;
        double tol;
    };
    std::vector<Ref> refs;
    const PaperDee1Reference &dee1 = paperDee1Reference();
    refs.push_back({EstimatorSpec::dee1(), dee1.sigmaMixed, 0.08});
    refs.push_back({EstimatorSpec::dee1(FitMode::Pooled),
                    dee1.sigmaPooled, 0.08});
    for (const PaperSigma &p : paperSigmas()) {
        refs.push_back({EstimatorSpec::single(p.metric), p.sigmaMixed,
                        std::max(0.08, 0.15 * p.sigmaMixed)});
        refs.push_back({EstimatorSpec::single(p.metric, FitMode::Pooled),
                        p.sigmaPooled,
                        std::max(0.10, 0.15 * p.sigmaPooled)});
    }
    for (const Ref &r : refs) {
        ++c.attempted;
        FittedEstimator f = s.fit(r.spec);
        ++c.fits;
        c.converged += f.converged() ? 1 : 0;
        double err = std::fabs(f.sigmaEps() - r.paper);
        c.sigmaEpsErr = std::max(c.sigmaEpsErr, err);
        if (!(err <= r.tol))
            checkFailed(c, "sigma_eps of " + r.spec.fingerprint() +
                               " is " + num(f.sigmaEps()) +
                               ", paper " + num(r.paper));
    }
}

/** @return "<design> <flat|acct> <digest>" lines of every shipped design. */
std::map<std::string, std::string>
shippedDigests(EstimationSession &s)
{
    std::map<std::string, std::string> out;
    for (const ShippedDesign &sd : shippedDesigns()) {
        for (AccountingMode mode : {AccountingMode::WithoutProcedure,
                                    AccountingMode::WithProcedure}) {
            std::string key =
                sd.name + (mode == AccountingMode::WithProcedure
                               ? " acct"
                               : " flat");
            std::string d = digest(s.measureShipped(sd.name, mode));
            d.pop_back(); // trailing newline
            out[key] = d;
        }
    }
    return out;
}

std::map<std::string, std::string>
readReference(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t a = line.find(' ');
        size_t b = line.find(' ', a + 1);
        if (a == std::string::npos || b == std::string::npos)
            continue;
        out[line.substr(0, b)] = line.substr(b + 1);
    }
    return out;
}

/** The metrics of each shipped design equal the reference file. */
void
checkReference(EstimationSession &s, const std::string &path,
               CheckStats &c)
{
    std::map<std::string, std::string> ref = readReference(path);
    for (const auto &[key, d] : shippedDigests(s)) {
        ++c.attempted;
        auto it = ref.find(key);
        if (it == ref.end())
            checkFailed(c, "no reference for " + key + " in " + path);
        else if (it->second != d)
            checkFailed(c, key + " differs from " + path);
    }
}

void
runChecks(Workload &w, const Args &a, CheckStats &c)
{
    checkSigmaEps(w.session(), c);
    if (a.workload != "calibrate_resample")
        checkReference(w.session(), a.reference, c);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
cpuSeconds()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Reported
{
    std::string name;
    double value;
    std::string unit;
};

void
emit(const Args &a, const std::string &settings, bool correct,
     size_t attempted, size_t failed, const std::vector<Reported> &metrics,
     const std::string &extra)
{
    std::string m = "{";
    for (const Reported &x : metrics) {
        m += (m.size() > 1 ? "," : "") + jsonString(x.name) +
             ":{\"value\":" + num(x.value) +
             ",\"unit\":" + jsonString(x.unit) + "}";
    }
    m += "}";
    std::string result =
        std::string("{\"correct\":") + (correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) + ",\"metrics\":" + m +
        "}";
    if (!a.reports.empty()) {
        std::filesystem::create_directories(a.reports);
        std::string path = a.reports + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace) + ".json";
        std::ofstream out(path);
        out << "{\"settings\":" << settings << ",\"seed\":" << a.seed
            << ",\"trace\":" << a.trace << extra
            << ",\"result\":" << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
}

int
runEndToEnd(const Args &a, const std::string &settings)
{
    obs::setEnabled(false);
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    double spent = 0.0;
    while (setups.size() < static_cast<size_t>(kMinSetups) ||
           (spent < kSetupBudget &&
            setups.size() < static_cast<size_t>(kMaxSetups))) {
        w.reset();
        double t0 = nowSeconds();
        w = makeWorkload(a.workload, a.seed, a.scratch);
        setups.push_back(nowSeconds() - t0);
        spent += setups.back();
    }
    LoopStats st = runLoop(*w, a.seconds, 0, false, false);
    double rss = peakRssMb();
    CheckStats c;
    runChecks(*w, a, c);
    auto [sf, sc] = w->setupFits();
    std::vector<Tail> tails = partTails(st.latencyMs);
    std::vector<double> tail_values;
    for (const Tail &t : tails)
        tail_values.push_back(t.value);
    size_t attempted = st.ops + c.attempted;
    size_t failed = st.failed + c.failed;
    double fits = static_cast<double>(st.fits + c.fits + sf);
    double converged = static_cast<double>(st.converged + c.converged + sc);

    std::printf("ops %zu in %.3f s; setup_s is the median of %zu "
                "setups\n",
                st.ops, st.wall, setups.size());
    std::string extra = ",\"tail\":[";
    for (size_t k = 0; k < tails.size(); ++k) {
        const Tail &t = tails[k];
        std::printf("op_ms.tail part %zu of %zu: p%g of %zu samples "
                    "(%zu beyond) = %.3f ms\n",
                    k + 1, tails.size(), t.percentile, t.samples, t.beyond,
                    t.value);
        extra += std::string(k ? "," : "") + "{\"percentile\":" +
                 num(t.percentile) +
                 ",\"samples\":" + std::to_string(t.samples) +
                 ",\"beyond\":" + std::to_string(t.beyond) +
                 ",\"value\":" + num(t.value) + "}";
    }
    extra += "]";
    std::vector<Reported> m = {
        {"setup_s", medianOf(setups), "s"},
        {"ops_per_s", windowedOpsPerSecond(st, w->window()), "1/s"},
        {"op_ms.p50", medianOf(st.latencyMs), "ms"},
        {"op_ms.tail", medianOf(tail_values), "ms"},
        {"ok_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
        {"converged_frac", fits > 0 ? converged / fits : 1.0, "ratio"},
        {"sigma_eps_err", c.sigmaEpsErr, "log"},
        {"peak_rss_mb", rss, "MB"},
    };
    emit(a, settings, failed == 0, attempted, failed, m, extra);
    return 0;
}

/** Library counters the per-layer metrics read (obs registry). */
const char *const kCounters[] = {
    "hdl.lex.tokens",          "synth.lower.gates",
    "cache.artifact.hits",     "cache.artifact.misses",
    "cache.artifact.dedup_wait", "cache.disk.hits",
    "cache.disk.writes",       "cache.disk.corrupt",
    "nlme.mixed.fits",
    "nlme.pooled.fits",        "opt.nm.evaluations",
    "opt.bfgs.evaluations",    "opt.multistart.starts",
    "nlme.bootstrap.non_converged",
};

std::map<std::string, double>
readCounters()
{
    std::map<std::string, double> out;
    for (const char *name : kCounters)
        out[name] = static_cast<double>(obs::counter(name).value());
    return out;
}

int
runTraced(const Args &a, const std::string &settings)
{
    // Untraced half, with obs counters on: the reference results, the
    // wall time, and the exec figures, since only the session itself
    // fans work out on its pool.
    obs::setEnabled(true);
    LoopStats plain;
    double plain_tasks = 0.0;
    double plain_cpu_util = 0.0;
    {
        std::unique_ptr<Workload> w =
            makeWorkload(a.workload, a.seed, a.scratch);
        obs::Counter &tasks = obs::counter("exec.graph.tasks");
        uint64_t tasks0 = tasks.value();
        double cpu0 = cpuSeconds();
        plain = runLoop(*w, a.seconds / 2, 0, false, true);
        plain_cpu_util =
            (cpuSeconds() - cpu0) /
            (plain.wall * static_cast<double>(w->session().exec().threads()));
        plain_tasks = static_cast<double>(tasks.value() - tasks0) /
                      static_cast<double>(std::max<size_t>(plain.ops, 1));
    }
    // Traced replay of exactly those operations on a fresh setup.
    std::unique_ptr<Workload> w =
        makeWorkload(a.workload, a.seed, a.scratch);
    Tracer &tracer = Tracer::global();
    tracer.clear();
    resetLayerCounts();
    std::map<std::string, double> before = readCounters();
    tracer.setRecording(true);
    LoopStats traced = runLoop(*w, 0, plain.ops, true, true);
    tracer.setRecording(false);
    std::map<std::string, double> after = readCounters();
    obs::setEnabled(false);
    ArtifactCache::Stats cache = w->session().cache().stats();
    LayerCounts layer = layerCounts();
    std::vector<SpanRecord> spans = tracer.snapshot();

    size_t mismatched = 0;
    for (size_t i = 0; i < traced.ops; ++i) {
        if (traced.digests[i] != plain.digests[i]) {
            if (mismatched == 0)
                std::fprintf(stderr, "op %zu: traced result differs\n",
                             i);
            ++mismatched;
        }
    }
    CheckStats c;
    runChecks(*w, a, c);

    double n = static_cast<double>(std::max<size_t>(traced.ops, 1));
    auto delta = [&](const char *name) {
        return after[name] - before[name];
    };
    SelfTimes st = selfTimes(spans);
    auto self_ms = [&](const std::string &span) {
        auto it = st.selfSeconds.find(span);
        return it == st.selfSeconds.end() ? 0.0 : it->second * 1e3 / n;
    };
    double hits = delta("cache.artifact.hits");
    double misses = delta("cache.artifact.misses");
    double fits = static_cast<double>(traced.fits);
    double loglik_calls = static_cast<double>(st.calls["nlme.loglik"]);
    std::vector<Reported> m;
    for (const char *span :
         {"hdl.parse", "hdl.source", "synth.elaborate", "synth.lower",
          "synth.techmap", "synth.lutmap", "synth.cones", "synth.timing",
          "synth.power", "synth.metrics", "core.measure", "core.minimize",
          "core.fit", "core.cv", "core.predict", "dfa.summary",
          "lint.hdl", "lint.fit", "cache.lookup", "io.encode",
          "io.decode", "nlme.fit", "nlme.bootstrap"})
        m.push_back({std::string(span) + "_ms", self_ms(span), "ms"});
    m.push_back({"engine.self_ms", self_ms("engine.op"), "ms"});
    m.push_back({"hdl.tokens", delta("hdl.lex.tokens") / n, "count"});
    m.push_back({"synth.gates", delta("synth.lower.gates") / n, "count"});
    m.push_back({"synth.luts", static_cast<double>(layer.luts) / n,
                 "count"});
    m.push_back({"core.minimize_elabs",
                 static_cast<double>(layer.minimizeElabs) / n, "count"});
    m.push_back({"lint.findings", obs::gauge("lint.findings").value(),
                 "count"});
    m.push_back({"cache.hits", hits / n, "count"});
    m.push_back({"cache.misses", misses / n, "count"});
    m.push_back({"cache.hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0,
                 "ratio"});
    m.push_back({"cache.dedup_waits", delta("cache.artifact.dedup_wait") / n,
                 "count"});
    m.push_back({"cache.bytes", static_cast<double>(cache.approxBytes),
                 "B"});
    m.push_back({"io.disk_hits", delta("cache.disk.hits") / n, "count"});
    m.push_back({"io.disk_writes", delta("cache.disk.writes") / n,
                 "count"});
    m.push_back({"io.disk_corrupt", delta("cache.disk.corrupt") / n,
                 "count"});
    m.push_back({"exec.tasks", plain_tasks, "count"});
    m.push_back({"exec.cpu_util", plain_cpu_util, "ratio"});
    m.push_back({"nlme.fits",
                 (delta("nlme.mixed.fits") + delta("nlme.pooled.fits")) / n,
                 "count"});
    m.push_back({"nlme.loglik_evals",
                 (delta("opt.nm.evaluations") +
                  delta("opt.bfgs.evaluations")) /
                     n,
                 "count"});
    m.push_back({"nlme.loglik_us",
                 loglik_calls > 0
                     ? st.selfSeconds["nlme.loglik"] * 1e6 / loglik_calls
                     : 0.0,
                 "us"});
    m.push_back({"nlme.bootstrap_dropped",
                 delta("nlme.bootstrap.non_converged") / n,
                 "count"});
    m.push_back({"opt.nm.evaluations", delta("opt.nm.evaluations") / n,
                 "count"});
    m.push_back({"opt.bfgs.evaluations", delta("opt.bfgs.evaluations") / n,
                 "count"});
    m.push_back({"opt.multistart.starts",
                 delta("opt.multistart.starts") / n, "count"});
    m.push_back({"opt.converged_ratio",
                 fits > 0 ? static_cast<double>(traced.converged) / fits
                          : 0.0,
                 "ratio"});
    m.push_back({"obs.trace_overhead", traced.wall / plain.wall - 1.0,
                 "ratio"});
    m.push_back({"obs.unattributed_ms",
                 (traced.wall - st.rootSeconds) * 1e3 / n, "ms"});

    // Where the traced wall time went, by module.
    std::map<std::string, double> by_module;
    double attributed = 0.0;
    for (const auto &[span, sec] : st.selfSeconds) {
        by_module[span.substr(0, span.find('.'))] += sec;
        attributed += sec;
    }
    std::printf("traced %zu ops in %.3f s (untraced %.3f s)\n", traced.ops,
                traced.wall, plain.wall);
    std::printf("%-8s %12s %8s\n", "module", "self_ms", "share");
    for (const auto &[module, sec] : by_module)
        std::printf("%-8s %12.3f %7.2f%%\n", module.c_str(), sec * 1e3,
                    100.0 * sec / traced.wall);
    std::printf("%-8s %12.3f %7.2f%%  (outside every operation span)\n",
                "(rest)", (traced.wall - st.rootSeconds) * 1e3,
                100.0 * (traced.wall - st.rootSeconds) / traced.wall);
    std::printf("spans outside any operation (pool threads): %.3f ms\n",
                st.orphanSeconds * 1e3);

    if (!a.reports.empty()) {
        std::filesystem::create_directories(a.reports);
        writeSpans(spans, a.reports + "/" + a.workload + "-seed" +
                              std::to_string(a.seed) + "-spans.json");
    }
    size_t attempted = traced.ops + plain.ops + c.attempted;
    size_t failed = traced.failed + plain.failed + mismatched + c.failed;
    emit(a, settings, failed == 0, attempted, failed, m, "");
    return 0;
}

/**
 * Counters of the work the traced path must do exactly as the
 * session does: every synthesis pass run, artifact-cache and disk
 * traffic, tokens lexed, and elaborations.
 */
std::map<std::string, uint64_t>
workCounters()
{
    static const std::set<std::string> named = {
        "cache.artifact.hits", "cache.artifact.misses", "cache.disk.hits",
        "cache.disk.writes",   "hdl.lex.tokens",        "synth.elaborate.runs",
    };
    auto pass_runs = [](const std::string &n) {
        return n.rfind("synth.pass.", 0) == 0 && n.size() > 5 &&
               n.compare(n.size() - 5, 5, ".runs") == 0;
    };
    std::map<std::string, uint64_t> out;
    for (const obs::CounterSample &c :
         obs::Registry::instance().snapshot().counters)
        if (named.count(c.name) || pass_runs(c.name))
            out[c.name] = c.value;
    return out;
}

/** @return "name=delta ..." of the work counters @p body moved. */
template <typename Fn>
std::string
workDone(Fn &&body)
{
    std::map<std::string, uint64_t> before = workCounters();
    body();
    std::string out;
    for (const auto &[name, v] : workCounters())
        if (v != before[name])
            out += " " + name + "=" + std::to_string(v - before[name]);
    return out;
}

/** Self-test: the benchmark's own correctness checks. */
int
selfTest(const Args &a)
{
    int checks = 0;
    int failures = 0;
    auto expect = [&](bool ok, const std::string &what) {
        ++checks;
        if (!ok) {
            ++failures;
            std::printf("FAIL %s\n", what.c_str());
        }
    };

    // A seed always generates the same inputs; another seed others.
    BindingGrid grid(ExecContext::withThreads(
        std::thread::hardware_concurrency()));
    auto labels = [&](uint64_t seed) {
        BindingSampler s(grid, seed, 1);
        std::vector<std::string> out;
        for (int i = 0; i < 40; ++i)
            out.push_back(s.next().label());
        return out;
    };
    expect(labels(7) == labels(7), "same seed, same bindings");
    expect(labels(7) != labels(8), "other seed, other bindings");
    auto efforts = [&](uint64_t seed, uint64_t op) {
        Dataset data = calibrationDataset(paperDataset(), {1.0, 2.0}, 0.4,
                                          0.3, seed, op);
        std::vector<double> out;
        for (const Component &c : data.components())
            out.push_back(c.effort);
        return out;
    };
    expect(efforts(7, 3) == efforts(7, 3), "same seed, same dataset");
    expect(efforts(7, 3) != efforts(7, 4), "other op, other dataset");
    expect(efforts(7, 3) != efforts(8, 3), "other seed, other dataset");
    expect(calibrationDataset(paperDataset(), {1.0, 2.0}, 0.4, 0.3, 7, 3)
                   .size() == 18,
           "calibration dataset keeps the 18 Table 2 components");
    auto ranks = [](uint64_t seed) {
        ZipfSampler z(32, seed, 3);
        std::vector<size_t> out;
        for (int i = 0; i < 200; ++i)
            out.push_back(z.next());
        return out;
    };
    expect(ranks(7) == ranks(7), "same seed, same Zipf draws");

    // A binding rewrites only the top module's header.
    {
        Design d;
        d.addSource(bindSource(shippedDesign("fetch").source, "fetch",
                               {{"W", 48}, {"HIST", 5}}));
        ConstEnv env;
        std::map<std::string, int64_t> top, child;
        for (const auto &p : d.module("fetch").params)
            top[p.name] = env[p.name] = evalConst(*p.value, env);
        ConstEnv env2;
        for (const auto &p : d.module("btb").params)
            child[p.name] = env2[p.name] = evalConst(*p.value, env2);
        expect(top["W"] == 48 && top["HIST"] == 5 && top["IDXW"] == 8,
               "binding sets the top's parameters");
        expect(child["W"] == 32, "binding leaves child modules alone");
    }

    // The tail: highest ladder percentile with >= 10 samples beyond.
    {
        auto ramp = [](int n) {
            std::vector<double> v;
            for (int i = n; i >= 1; --i)
                v.push_back(i);
            return v;
        };
        Tail t = tailOf(ramp(1000));
        expect(t.value == 990 && t.beyond == 10 && t.samples == 1000 &&
                   t.percentile == 99.0,
               "tail of 1..1000 is p99 = 990, 10 beyond");
        Tail t5k = tailOf(ramp(5000));
        expect(t5k.value == 4950 && t5k.beyond == 50 &&
                   t5k.percentile == 99.0,
               "tail of 1..5000 is p99 = 4950, 50 beyond");
        Tail t10k = tailOf(ramp(10000));
        expect(t10k.value == 9990 && t10k.beyond == 10 &&
                   t10k.percentile == 99.9,
               "tail of 1..10000 is p99.9 = 9990");
        Tail t100 = tailOf(ramp(100));
        expect(t100.value == 90 && t100.beyond == 10 &&
                   t100.percentile == 90.0,
               "tail of 1..100 is p90 = 90");
        Tail t20 = tailOf(ramp(20));
        expect(t20.value == 10 && t20.beyond == 10 &&
                   t20.percentile == 50.0,
               "tail of 1..20 is p50 = 10");
        Tail t19 = tailOf(ramp(19));
        expect(t19.value == 19 && t19.beyond == 0 &&
                   t19.percentile == 100.0,
               "19 samples: no rung has 10 beyond; max");
        expect(medianOf({3, 1, 2}) == 2 && medianOf({4, 1, 2, 3}) == 2.5,
               "median");
        std::vector<double> run;
        for (int i = 1; i <= 250; ++i)
            run.push_back(i);
        std::vector<Tail> parts = partTails(run);
        expect(parts.size() == 2 && parts[0].samples == 125 &&
                   parts[0].value == 113 && parts[0].beyond == 12 &&
                   parts[1].value == 238 && parts[1].percentile == 90.0,
               "250 ops: two parts of 125, each tail its p90");
        expect(partTails(ramp(99)).size() == 1 &&
                   partTails(ramp(199)).size() == 1 &&
                   partTails(ramp(200)).size() == 2,
               "parts hold 100 to 199 operations");
    }

    // The traced path computes what the session computes, and its
    // cache keys are the session's.
    {
        SessionSettings s = settingsFor("measure_sweep", a.scratch);
        auto fresh = [&] {
            return std::make_unique<EstimationSession>(
                SessionConfig{}, ExecContext::withThreads(s.threads));
        };
        auto plain = fresh();
        auto traced = fresh();
        for (const ShippedDesign &sd : shippedDesigns()) {
            Design design = sd.load();
            expect(plain->lint(design, sd.top).json() ==
                       tracedLint(*traced, design, sd.top).json(),
                   sd.name + ": traced lint == session.lint");
            for (AccountingMode mode :
                 {AccountingMode::WithoutProcedure,
                  AccountingMode::WithProcedure}) {
                std::string want =
                    digest(plain->measure(design, sd.top, mode));
                expect(want == digest(tracedMeasure(*traced, design,
                                                    sd.top, mode)),
                       sd.name + ": traced measure == session.measure");
                expect(plain->cache().get<ComponentMeasurement>(
                           measureKey(design, sd.top, mode,
                                      plain->config().passes)) != nullptr,
                       sd.name + ": measureKey is the session's key");
            }
        }
        EstimatorSpec spec = EstimatorSpec::dee1();
        expect(digest(plain->fitOn(paperDataset(), spec)) ==
                   digest(tracedFitOn(*traced, paperDataset(), spec)),
               "traced fitOn == session.fitOn");
        expect(plain->cache().get<FittedEstimator>(
                   fitKey(paperDataset(), spec)) != nullptr,
               "fitKey is the session's key");
    }

    // Whole operations: traced and untraced results are equal, and
    // so is the work done, by the library's own counters.
    obs::setEnabled(true);
    for (const char *name :
         {"measure_sweep", "calibrate_resample", "estimate_reuse"}) {
        auto w1 = makeWorkload(name, 11, a.scratch);
        auto w2 = makeWorkload(name, 11, a.scratch);
        for (size_t i = 0; i < 4; ++i) {
            std::string op = std::string(name) + " op " + std::to_string(i);
            OpResult r1, r2;
            w1->prepare(i);
            w2->prepare(i);
            std::string work1 = workDone([&] { r1 = w1->op(i, false); });
            std::string work2 = workDone([&] { r2 = w2->op(i, true); });
            expect(r1.ok && r2.ok && r1.digest == r2.digest,
                   op + ": traced result == untraced " + r1.error +
                       r2.error);
            expect(work1 == work2, op + ": traced work == untraced\n" +
                                       "  untraced:" + work1 +
                                       "\n  traced:  " + work2);
        }
    }
    obs::setEnabled(false);

    std::printf("self-test: %d checks, %d failed\n", checks, failures);
    return failures == 0 ? 0 : 1;
}

/** Measure every binding of the grid: none may fail. */
int
checkGrid()
{
    EstimationSession s(SessionConfig{},
                        ExecContext::withThreads(
                            std::thread::hardware_concurrency()));
    BindingGrid grid(s.exec());
    size_t total = 0;
    size_t failed = 0;
    std::vector<std::pair<double, std::string>> slow;
    for (size_t d = 0; d < grid.designs(); ++d) {
        for (size_t i = 0; i < grid.size(d); ++i) {
            Binding b = grid.at(d, i);
            ++total;
            double t0 = nowSeconds();
            try {
                Design design;
                design.addSource(b.source, b.design + ".uhdl");
                LintReport lint = s.lint(design, b.top);
                ComponentMeasurement flat = s.measure(
                    design, b.top, AccountingMode::WithoutProcedure);
                s.measure(design, b.top, AccountingMode::WithProcedure);
                if (lint.hasError())
                    throw std::runtime_error("lint error");
                slow.push_back(
                    {nowSeconds() - t0,
                     b.label() + " cells=" +
                         num(flat.metrics[static_cast<size_t>(
                             ucx::Metric::Cells)])});
            } catch (const std::exception &e) {
                ++failed;
                std::printf("FAIL %s: %s\n", b.label().c_str(), e.what());
            }
            s.cache().clear();
        }
    }
    std::sort(slow.rbegin(), slow.rend());
    for (size_t i = 0; i < std::min<size_t>(10, slow.size()); ++i)
        std::printf("%8.1f ms  %s\n", slow[i].first * 1e3,
                    slow[i].second.c_str());
    std::printf("grid: %zu of %zu candidates kept, %zu failed\n", total,
                grid.candidates(), failed);
    return failed == 0 ? 0 : 1;
}

int
writeReference(const std::string &path)
{
    EstimationSession s(SessionConfig{},
                        ExecContext::withThreads(
                            std::thread::hardware_concurrency()));
    std::ofstream out(path);
    out << "# Metrics of every shipped design at its default binding:\n"
           "# <design> <flat|acct> metrics <Table 3 metrics, in "
           "allMetrics() order>\n#   counts <instances per module> "
           "params <measured parameters>\n";
    for (const auto &[key, d] : shippedDigests(s))
        out << key << " " << d << "\n";
    return out.good() ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        Args a;
        if (!parseArgs(argc, argv, a))
            return 2;
        if (a.mode == "self-test" || a.trace == 1)
            installTimedCodecs();
        if (a.mode == "self-test")
            return selfTest(a);
        if (a.mode == "check-grid")
            return checkGrid();
        if (a.mode == "write-reference")
            return writeReference(a.reference);
        std::string settings = fingerprint(a);
        std::printf("settings %s\n", settings.c_str());
        return a.trace ? runTraced(a, settings) : runEndToEnd(a, settings);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
