#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "core/validation.hh"
#include "layered.hh"
#include "nlme/bootstrap.hh"
#include "trace.hh"

namespace perfbench
{

using namespace ucx;

namespace
{

/**
 * estimate_reuse: kReuseRanks configurations per shipped design, all
 * measured during setup except the last rank of kReuseColdDesigns
 * seeded designs — the run's misses. They are fewer than the ten
 * samples the tail percentile needs beyond it, so op_ms.tail
 * measures hits. The memory tier holds kReuseCapacity entries, fewer
 * than the pool's artifacts, so configurations that fell out of
 * memory come back from disk.
 */
constexpr size_t kReuseRanks = 4;
constexpr size_t kReuseDraws = 2; ///< Components per design per estimate.
constexpr size_t kReuseColdDesigns = 5;
constexpr size_t kReuseCapacity = 64;

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::unique_ptr<EstimationSession>
makeSession(const SessionSettings &s)
{
    SessionConfig config;
    config.cacheCapacity = s.cacheCapacity;
    config.cacheDir = s.cacheDir;
    return std::make_unique<EstimationSession>(
        config, ExecContext::withThreads(s.threads));
}

/** Plausibility of one measurement: finite, non-negative, has cells. */
std::optional<std::string>
checkMeasurement(const ComponentMeasurement &m)
{
    for (double v : m.metrics)
        if (!std::isfinite(v) || v < 0.0)
            return "non-finite or negative metric";
    if (m.metrics[static_cast<size_t>(Metric::Cells)] <= 0.0)
        return "no cells";
    return std::nullopt;
}

/** Runs @p body, turning an exception into a failed result. */
template <typename Fn>
OpResult
guarded(Fn &&body)
{
    OpResult r;
    try {
        body(r);
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    return r;
}

void
fail(OpResult &r, const std::string &why)
{
    if (r.ok) {
        r.ok = false;
        r.error = why;
    }
}

/**
 * measure_sweep — the measurement half (paper §2.2). Every operation
 * lints and measures one shipped design under a seeded binding,
 * flattened and with the accounting procedure. Operations go in
 * rounds over the designs, and the cache is emptied (untimed) before
 * each round, so however long the run every round has the same
 * design mix, the cache only inserts, and every layer from the
 * parser to power estimation runs cold.
 */
class MeasureSweep : public Workload
{
  public:
    MeasureSweep(uint64_t seed, const SessionSettings &settings)
    {
        session_ = makeSession(settings);
        grid_ = std::make_unique<BindingGrid>(session_->exec());
        sampler_ = std::make_unique<BindingSampler>(*grid_, seed, 1);
    }

    size_t window() const override { return grid_->designs(); }

    void prepare(size_t index) override
    {
        if (index % grid_->designs() == 0)
            session_->cache().clear();
    }

    OpResult op(size_t, bool traced) override
    {
        return guarded([&](OpResult &r) {
            Binding b = sampler_->next();
            LintReport lint;
            ComponentMeasurement flat;
            ComponentMeasurement acct;
            {
                Span root("engine.op");
                Design design;
                {
                    Span parse("hdl.parse");
                    design.addSource(b.source, b.design + ".uhdl");
                }
                EstimationSession &s = *session_;
                if (traced) {
                    lint = tracedLint(s, design, b.top);
                    flat = tracedMeasure(s, design, b.top,
                                         AccountingMode::WithoutProcedure);
                    acct = tracedMeasure(s, design, b.top,
                                         AccountingMode::WithProcedure);
                } else {
                    lint = s.lint(design, b.top);
                    flat = s.measure(design, b.top,
                                     AccountingMode::WithoutProcedure);
                    acct = s.measure(design, b.top,
                                     AccountingMode::WithProcedure);
                }
            }
            if (lint.hasError())
                fail(r, b.label() + ": lint error");
            for (const ComponentMeasurement *m : {&flat, &acct})
                if (auto why = checkMeasurement(*m))
                    fail(r, b.label() + ": " + *why);
            // Source metrics and the instance census do not depend
            // on the accounting procedure (paper §5.3).
            for (Metric m : {Metric::LoC, Metric::Stmts}) {
                size_t i = static_cast<size_t>(m);
                if (flat.metrics[i] != acct.metrics[i])
                    fail(r, b.label() + ": source metrics differ");
            }
            if (flat.moduleCounts != acct.moduleCounts)
                fail(r, b.label() + ": instance census differs");
            r.digest = b.label() + "\n" + lint.json() + digest(flat) +
                       digest(acct);
        });
    }

  private:
    std::unique_ptr<BindingGrid> grid_;
    std::unique_ptr<BindingSampler> sampler_;
};

/**
 * calibrate_resample — the calibration half (paper §3, Table 4).
 * Every seeded dataset is calibrated in three operations, in order:
 * fit DEE1 and the 11 single-metric estimators (fitOn); cross-validate
 * DEE1 leaving one component out; fit the mixed model directly, read
 * its log-likelihood at the optimum, and run a parametric bootstrap
 * of the library's default size. New data every three operations, so
 * no fit is a cache hit. Three requests rather than one give a run
 * enough operations for a steady tail.
 */
class CalibrateResample : public Workload
{
  public:
    CalibrateResample(uint64_t seed, const SessionSettings &settings)
        : seed_(seed)
    {
        session_ = makeSession(settings);
        FittedEstimator model = session_->fit(EstimatorSpec::dee1());
        setupFits_ = 1;
        setupConverged_ = model.converged() ? 1 : 0;
        weights_ = model.weights();
        sigmaEps_ = model.sigmaEps();
        sigmaRho_ = model.sigmaRho();
        specs_.push_back(EstimatorSpec::dee1());
        for (Metric m : allMetrics())
            specs_.push_back(EstimatorSpec::single(m));
    }

    size_t window() const override { return 12; }

    OpResult op(size_t index, bool traced) override
    {
        size_t set = index / 3;
        if (index % 3 == 0)
            data_ = calibrationDataset(session_->accountedDataset(),
                                       weights_, sigmaEps_, sigmaRho_,
                                       seed_, set);
        switch (index % 3) {
        case 0:
            return fitAll(traced);
        case 1:
            return crossValidate(set);
        default:
            return resample(set);
        }
    }

  private:
    OpResult fitAll(bool traced)
    {
        return guarded([&](OpResult &r) {
            EstimationSession &s = *session_;
            std::vector<FittedEstimator> fits;
            {
                Span root("engine.op");
                for (const EstimatorSpec &spec : specs_) {
                    fits.push_back(traced ? tracedFitOn(s, data_, spec)
                                          : s.fitOn(data_, spec));
                }
            }
            dee1SigmaEps_ = fits[0].sigmaEps();
            for (size_t i = 0; i < fits.size(); ++i) {
                ++r.fits;
                r.converged += fits[i].converged() ? 1 : 0;
                double eps = fits[i].sigmaEps();
                if (!std::isfinite(eps) || eps <= 0.0)
                    fail(r, "fit " + specs_[i].name() +
                                " has no valid sigma_eps");
                r.digest += digest(fits[i]);
            }
        });
    }

    OpResult crossValidate(size_t set)
    {
        return guarded([&](OpResult &r) {
            CrossValidationResult cv;
            {
                Span root("engine.op");
                Span span("core.cv");
                cv = leaveOneComponentOut(data_, specs_[0].metrics,
                                          FitMode::MixedEffects,
                                          session_->exec());
            }
            if (cv.records.size() != data_.size() ||
                !std::isfinite(cv.rmsLogError()))
                fail(r, "cross-validation lost components");
            r.digest = "cv " + std::to_string(set) + " " +
                       fmt(cv.rmsLogError()) + " " +
                       fmt(cv.meanLogError()) + "\n";
        });
    }

    OpResult resample(size_t set)
    {
        return guarded([&](OpResult &r) {
            const ExecContext &exec = session_->exec();
            std::unique_ptr<MixedModel> model;
            MixedFit fit;
            double loglik = 0.0;
            BootstrapResult boot;
            BootstrapConfig boot_config;
            boot_config.seed = Rng(seed_, 0x200000000ull + set).next();
            {
                Span root("engine.op");
                {
                    Span span("nlme.fit");
                    model = std::make_unique<MixedModel>(
                        data_.toNlmeData(specs_[0].metrics));
                    fit = model->fit(exec);
                }
                {
                    Span span("nlme.loglik");
                    loglik = model->logLikelihood(
                        fit.weights, fit.sigmaEps, fit.sigmaRho);
                }
                {
                    Span span("nlme.bootstrap");
                    boot = parametricBootstrap(model->data(), fit,
                                               boot_config, exec);
                }
            }
            ++r.fits;
            r.converged += fit.converged ? 1 : 0;
            r.fits += boot.fits.size();
            r.converged += boot.fits.size() - boot.nonConverged;
            // fitOn's DEE1 (this dataset's first operation) and the
            // direct mixed fit are one algorithm on one dataset; the
            // log-likelihood at the fitted point is the optimum the
            // fit reports.
            if (std::fabs(dee1SigmaEps_ - fit.sigmaEps) >
                1e-12 * std::max(1.0, fit.sigmaEps))
                fail(r, "fitOn and MixedModel disagree on DEE1");
            if (!(std::fabs(loglik - fit.logLik) <=
                  1e-9 * std::max(1.0, std::fabs(fit.logLik))))
                fail(r, "log-likelihood at the fit != fit.logLik");
            if (boot.fits.size() != boot_config.replicates)
                fail(r, "bootstrap lost replicates");
            r.digest = "mixed " + std::to_string(set) + " " +
                       fmt(fit.sigmaEps) + " " + fmt(fit.sigmaRho) + " " +
                       fmt(fit.logLik) + " " + fmt(loglik) + "\nboot " +
                       std::to_string(boot.nonConverged);
            for (double v : boot.sigmaEpsSamples())
                r.digest += " " + fmt(v);
            r.digest += "\n";
        });
    }

    uint64_t seed_;
    std::vector<double> weights_;
    double sigmaEps_ = 0.0;
    double sigmaRho_ = 0.0;
    std::vector<EstimatorSpec> specs_;
    Dataset data_;              ///< The current operation's dataset.
    double dee1SigmaEps_ = 0.0; ///< fitOn's DEE1 on data_.
};

/**
 * estimate_reuse — the read side of the cache and io layers. A
 * long-lived session with a disk tier estimates whole processors:
 * one operation measures and predicts kReuseDraws components of each
 * shipped design (Zipf-ranked draws from that design's small seeded
 * pool) and sums the predicted efforts. Almost every lookup is a
 * memory or disk hit; a few configurations miss once. Every
 * operation has the same design mix, so its cost does not depend on
 * the seed beyond the configurations themselves.
 */
class EstimateReuse : public Workload
{
  public:
    EstimateReuse(uint64_t seed, const SessionSettings &settings)
        : dir_(settings.cacheDir), zipf_(kReuseRanks, seed, 4)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        session_ = makeSession(settings);
        estimator_ = session_->fit(EstimatorSpec::dee1());
        setupFits_ = 1;
        setupConverged_ = estimator_.converged() ? 1 : 0;
        BindingGrid grid(session_->exec());
        BindingSampler sampler(grid, seed, 2);
        std::vector<bool> cold(grid.designs(), false);
        Rounds pick(grid.designs(), seed, 5);
        for (size_t k = 0; k < kReuseColdDesigns; ++k)
            cold[pick.next()] = true;
        for (size_t d = 0; d < grid.designs(); ++d) {
            pool_.emplace_back(kReuseRanks);
            for (Config &c : pool_.back()) {
                c.binding = sampler.next(d);
                c.design.addSource(c.binding.source,
                                   c.binding.design + ".uhdl");
            }
            for (size_t k = 0; k < kReuseRanks - (cold[d] ? 1 : 0); ++k) {
                Config &c = pool_.back()[k];
                c.expected = digest(session_->measure(
                    c.design, c.binding.top,
                    AccountingMode::WithProcedure));
            }
        }
    }

    ~EstimateReuse() override
    {
        session_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    size_t window() const override { return 16; }

    OpResult op(size_t, bool traced) override
    {
        std::vector<Config *> configs;
        for (std::vector<Config> &ranks : pool_)
            for (size_t k = 0; k < kReuseDraws; ++k)
                configs.push_back(&ranks[zipf_.next()]);
        return guarded([&](OpResult &r) {
            std::vector<ComponentMeasurement> ms;
            std::vector<Prediction> ps;
            {
                Span root("engine.op");
                EstimationSession &s = *session_;
                for (Config *c : configs) {
                    const std::string &top = c->binding.top;
                    if (traced) {
                        ms.push_back(tracedMeasure(
                            s, c->design, top,
                            AccountingMode::WithProcedure));
                        ps.push_back(
                            tracedPredict(estimator_, ms.back().metrics));
                    } else {
                        ms.push_back(s.measure(
                            c->design, top, AccountingMode::WithProcedure));
                        ps.push_back(
                            s.predict(estimator_, ms.back().metrics));
                    }
                }
            }
            double total = 0.0;
            for (size_t i = 0; i < configs.size(); ++i) {
                Config &c = *configs[i];
                const Prediction &p = ps[i];
                if (auto why = checkMeasurement(ms[i]))
                    fail(r, c.binding.label() + ": " + *why);
                // A hit must return exactly what the first
                // measurement of this configuration returned.
                std::string got = digest(ms[i]);
                if (c.expected.empty())
                    c.expected = got;
                else if (got != c.expected)
                    fail(r, c.binding.label() + ": cached result changed");
                if (!(p.median > 0.0 && p.lo90 < p.median &&
                      p.median < p.hi90 && std::isfinite(p.mean)))
                    fail(r, c.binding.label() + ": bad prediction");
                r.digest += c.binding.label() + " " + fmt(p.median) + " " +
                            fmt(p.mean) + " " + fmt(p.lo90) + " " +
                            fmt(p.hi90) + "\n" + got;
                total += p.median;
            }
            r.digest += "total " + fmt(total) + "\n";
        });
    }

  private:
    struct Config
    {
        Binding binding;
        Design design;
        std::string expected; ///< Digest of the first measurement.
    };

    std::string dir_;
    ZipfSampler zipf_;
    FittedEstimator estimator_;
    std::vector<std::vector<Config>> pool_; ///< [design][rank]
};

} // namespace

SessionSettings
settingsFor(const std::string &name, const std::string &scratch)
{
    SessionSettings s;
    s.threads = std::max(1u, std::thread::hardware_concurrency());
    // The calibration half runs on a serial pool: on a shared VM a
    // pool of every hardware thread waits on whichever vCPU the host
    // has descheduled, and its throughput swung 2.5x between runs
    // while single-threaded runs held within 8%. The fit layers are
    // what this workload measures; the fan-out is measured by the
    // other two.
    if (name == "calibrate_resample")
        s.threads = 1;
    if (name == "estimate_reuse") {
        s.cacheCapacity = kReuseCapacity;
        s.cacheDir = scratch + "/reuse-cache";
    }
    return s;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed,
             const std::string &scratch)
{
    static int instance = 0;
    SessionSettings s = settingsFor(name, scratch);
    if (name == "measure_sweep")
        return std::make_unique<MeasureSweep>(seed, s);
    if (name == "calibrate_resample")
        return std::make_unique<CalibrateResample>(seed, s);
    if (name == "estimate_reuse") {
        s.cacheDir += "-" + std::to_string(++instance);
        return std::make_unique<EstimateReuse>(seed, s);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string
digest(const ComponentMeasurement &m)
{
    std::string out = "metrics";
    for (double v : m.metrics)
        out += " " + fmt(v);
    out += " counts";
    for (const auto &[module, n] : m.moduleCounts)
        out += " " + module + "=" + std::to_string(n);
    out += " params";
    for (const auto &[module, params] : m.measuredParams) {
        out += " " + module + "{";
        for (const auto &[name, v] : params)
            out += name + "=" + std::to_string(v) + ";";
        out += "}";
    }
    return out + "\n";
}

std::string
digest(const FittedEstimator &f)
{
    std::string out = "fit";
    for (Metric m : f.metrics())
        out += " " + metricName(m);
    out += " w";
    for (double w : f.weights())
        out += " " + fmt(w);
    return out + " eps " + fmt(f.sigmaEps()) + " rho " +
           fmt(f.sigmaRho()) + " ll " + fmt(f.logLik()) +
           (f.converged() ? " converged\n" : " not-converged\n");
}

} // namespace perfbench
