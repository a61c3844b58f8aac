#include "layered.hh"

#include <atomic>
#include <memory>

#include "dfa/pass.hh"
#include "hdl/source_metrics.hh"
#include "io/artifact_serde.hh"
#include "io/registry.hh"
#include "lint/dfa_rules.hh"
#include "lint/lint.hh"
#include "nlme/mixed_model.hh"
#include "obs/metrics.hh"
#include "trace.hh"
#include "util/error.hh"

namespace perfbench
{

using namespace ucx;

namespace
{

std::atomic<uint64_t> lutCount{0};
std::atomic<uint64_t> minimizeElabCount{0};

template <typename T>
void
timedSerde(const char *name)
{
    io::ArtifactCodec codec;
    codec.name = name;
    codec.typeTag = io::Serde<T>::kTypeTag;
    codec.version = io::Serde<T>::kVersion;
    codec.type = &typeid(T);
    codec.encode = [](const std::shared_ptr<const void> &value) {
        Span span("io.encode");
        return io::encodeArtifact<T>(
            *std::static_pointer_cast<const T>(value));
    };
    codec.decode =
        [](const std::string &framed) -> std::shared_ptr<const void> {
        Span span("io.decode");
        return std::make_shared<const T>(
            io::decodeArtifact<T>(framed));
    };
    io::SerdeRegistry::global().add(std::move(codec));
}

/**
 * The pass manager's runOnePass, with a span in place of its obs
 * span; it bumps the same counters, which the self-test compares.
 */
void
tracedPass(const std::string &span_name, const Pass &pass,
           PipelineContext &ctx, const PipelineRun &run)
{
    Span span(span_name);
    bool ran = false;
    if (run.cache) {
        auto artifact = run.cache->getOrComputeRaw(
            run.base.child(pass.name), *pass.artifactType,
            [&pass, &ctx, &ran]() -> std::shared_ptr<const void> {
                pass.run(ctx);
                ran = true;
                return pass.save(ctx);
            });
        if (!ran)
            pass.load(ctx, std::move(artifact));
        if (!ran && obs::enabled())
            obs::counter("synth.pass." + pass.name + ".cache_hits").add(1);
    } else {
        pass.run(ctx);
        ran = true;
    }
    if (ran && obs::enabled())
        obs::counter("synth.pass." + pass.name + ".runs").add(1);
    if (ran && pass.name == "lutmap")
        lutCount.fetch_add(ctx.luts->luts.size());
}

const Pass &
defaultPass(const std::string &name)
{
    for (const Pass &pass : defaultPassList())
        if (pass.name == name)
            return pass;
    panic("default pipeline has no '" + name + "' pass");
}

/** synthesizeWithPasses, one span per pass. */
SynthMetrics
tracedSynth(EstimationSession &session, const RtlDesign &rtl,
            const CacheKey &elab_key)
{
    const PassConfig &passes = session.config().passes;
    PipelineRun run;
    run.cache = &session.cache();
    run.base = synthCacheKey(elab_key, passes);
    PipelineContext ctx;
    ctx.rtl = &rtl;
    ctx.config = passes;
    for (const Pass &pass : passListFor(passes))
        tracedPass("synth." + pass.name, pass, ctx, run);
    ensure(ctx.metrics != nullptr, "pipeline produced no metrics");
    return *ctx.metrics;
}

std::shared_ptr<const ElabResult>
tracedElaborate(EstimationSession &session, const Design &design,
                const std::string &top, const ElabOptions &opts)
{
    Span span("synth.elaborate");
    return elaborateShared(design, top, opts, &session.cache());
}

/** lintHdlDesign with the session's options, one span per layer. */
LintReport
tracedLintHdl(EstimationSession &session, const Design &design,
              const std::string &top, bool netlist_rules)
{
    Span span("lint.hdl");
    const PassConfig &passes = session.config().passes;
    LintReport report = lintModules(design, top);
    std::shared_ptr<const ElabResult> elab =
        tracedElaborate(session, design, top, {});
    report.merge(lintElabWarnings(elab->warnings, top));
    PipelineRun run;
    run.cache = &session.cache();
    run.base = synthCacheKey(elabCacheKey(design, top, {}), passes)
                   .add(top);
    PipelineContext ctx;
    ctx.rtl = &elab->rtl;
    ctx.config = passes;
    tracedPass("lint.hdl", lintPass(top), ctx, run);
    if (ctx.lint)
        report.merge(*ctx.lint);
    if (netlist_rules && !report.hasError()) {
        PipelineContext net;
        net.rtl = &elab->rtl;
        net.config = passes;
        tracedPass("synth.lower", defaultPass("lower"), net, run);
        if (session.config().dfaEnabled)
            tracedPass("dfa.summary", dfaPass(&design), net, run);
        tracedPass("lint.hdl", lintNetPass(top), net, run);
        if (net.lintNet)
            report.merge(*net.lintNet);
        if (net.dfa)
            report.merge(dfaFindings(*net.dfa, top));
    }
    report.sortCanonical();
    recordLintObs(report);
    return report;
}

/** measure.cc's accumulate: sums, except Freq is a minimum. */
void
accumulate(MetricValues &into, const SynthMetrics &m, bool first)
{
    auto at = [&into](Metric metric) -> double & {
        return into[static_cast<size_t>(metric)];
    };
    at(Metric::FanInLC) += static_cast<double>(m.fanInLC);
    at(Metric::Nets) += static_cast<double>(m.nets);
    at(Metric::Cells) += static_cast<double>(m.cells);
    at(Metric::FFs) += static_cast<double>(m.ffs);
    at(Metric::AreaL) += m.areaLogicUm2;
    at(Metric::AreaS) += m.areaStorageUm2;
    at(Metric::PowerD) += m.powerDynamicMw;
    at(Metric::PowerS) += m.powerStaticUw;
    if (first || m.freqMHz < at(Metric::Freq))
        at(Metric::Freq) = m.freqMHz;
}

/** measureComponent's uncached body, module types in order. */
ComponentMeasurement
tracedMeasureCompute(EstimationSession &session, const Design &design,
                     const std::string &top, AccountingMode mode)
{
    Span span("core.measure");
    ComponentMeasurement result;
    SourceMetrics src;
    {
        Span source("hdl.source");
        src = measureSource(design.sourceText(), top);
    }
    std::shared_ptr<const ElabResult> whole =
        tracedElaborate(session, design, top, {});
    whole->top.countModules(result.moduleCounts);
    if (mode == AccountingMode::WithoutProcedure) {
        accumulate(result.metrics,
                   tracedSynth(session, whole->rtl,
                               elabCacheKey(design, top, {})),
                   true);
        std::map<std::string, int64_t> top_params;
        for (const auto &[name, value] : whole->top.params)
            top_params[name] = value;
        result.measuredParams[top] = top_params;
    } else {
        static obs::Counter &elabs =
            obs::counter("synth.elaborate.runs");
        bool first = true;
        for (const auto &[module_name, count] : result.moduleCounts) {
            (void)count;
            ElabOptions one;
            one.blackBoxChildren = true;
            {
                Span minimize("core.minimize");
                uint64_t before = elabs.value();
                one.topParams = minimizeParameters(
                    design, module_name, &session.cache());
                minimizeElabCount.fetch_add(elabs.value() - before);
            }
            std::shared_ptr<const ElabResult> elab =
                tracedElaborate(session, design, module_name, one);
            accumulate(result.metrics,
                       tracedSynth(session, elab->rtl,
                                   elabCacheKey(design, module_name,
                                                one)),
                       first);
            first = false;
            result.measuredParams[module_name] = one.topParams;
        }
    }
    result.metrics[static_cast<size_t>(Metric::LoC)] =
        static_cast<double>(src.loc);
    result.metrics[static_cast<size_t>(Metric::Stmts)] =
        static_cast<double>(src.stmts);
    return result;
}

} // namespace

LayerCounts
layerCounts()
{
    LayerCounts c;
    c.luts = lutCount.load();
    c.minimizeElabs = minimizeElabCount.load();
    return c;
}

void
resetLayerCounts()
{
    lutCount.store(0);
    minimizeElabCount.store(0);
}

void
installTimedCodecs()
{
    timedSerde<RtlDesign>("RtlDesign");
    timedSerde<ElabResult>("ElabResult");
    timedSerde<Netlist>("Netlist");
    timedSerde<CellMapping>("CellMapping");
    timedSerde<LutMapping>("LutMapping");
    timedSerde<ConeReport>("ConeReport");
    timedSerde<TimingSummary>("TimingSummary");
    timedSerde<PowerReport>("PowerReport");
    timedSerde<SynthMetrics>("SynthMetrics");
    timedSerde<ComponentMeasurement>("ComponentMeasurement");
    timedSerde<Dataset>("Dataset");
    timedSerde<obs::ConvergenceTrace>("ConvergenceTrace");
    timedSerde<FittedEstimator>("FittedEstimator");
    timedSerde<LintReport>("LintReport");
    timedSerde<DfaSummary>("DfaSummary");
}

CacheKey
measureKey(const Design &design, const std::string &top,
           AccountingMode mode, const PassConfig &passes)
{
    CacheKey key("measure");
    key.addHash(fnv1a(design.sourceText()));
    key.add(top);
    key.add(mode == AccountingMode::WithProcedure ? "acct" : "flat");
    key.addHash(passes.fingerprint());
    return key;
}

CacheKey
fitKey(const Dataset &dataset, const EstimatorSpec &spec)
{
    uint64_t h = fnv1a("dataset");
    for (const Component &c : dataset.components()) {
        h = fnv1a(c.project.data(), c.project.size(), h);
        h = fnv1a(c.name.data(), c.name.size(), h);
        h = fnv1aMix(h, c.effort);
        for (double v : c.metrics)
            h = fnv1aMix(h, v);
    }
    CacheKey key("fit");
    key.addHash(h);
    key.add(spec.fingerprint());
    key.add(std::string("grad=") +
            (MixedModelConfig::defaultAnalyticGradient() ? "1" : "0"));
    return key;
}

LintReport
tracedLint(EstimationSession &session, const Design &design,
           const std::string &top)
{
    return tracedLintHdl(session, design, top, true);
}

ComponentMeasurement
tracedMeasure(EstimationSession &session, const Design &design,
              const std::string &top, AccountingMode mode)
{
    if (session.config().lintEnabled) {
        LintReport report = tracedLintHdl(session, design, top, false);
        if (const LintDiagnostic *d =
                report.firstAtLeast(LintSeverity::Error))
            throw UcxError("component '" + top + "': lint [" +
                           d->rule + "] " + d->message);
    }
    Span span("cache.lookup");
    return *session.cache().getOrCompute<ComponentMeasurement>(
        measureKey(design, top, mode, session.config().passes), [&] {
            return tracedMeasureCompute(session, design, top, mode);
        });
}

FittedEstimator
tracedFitOn(EstimationSession &session, const Dataset &dataset,
            const EstimatorSpec &spec)
{
    if (session.config().lintEnabled) {
        Span span("lint.fit");
        LintReport report = session.lintFit(dataset, spec, "dataset");
        if (const LintDiagnostic *d =
                report.firstAtLeast(LintSeverity::Error))
            throw UcxError("fit '" + spec.name() + "': lint [" +
                           d->rule + "] " + d->message);
    }
    Span span("cache.lookup");
    return *session.cache().getOrCompute<FittedEstimator>(
        fitKey(dataset, spec), [&] {
            Span fit("core.fit");
            return fitEstimator(dataset, spec.metrics, spec.mode,
                                spec.zeroPolicy, session.exec());
        });
}

Prediction
tracedPredict(const FittedEstimator &estimator,
              const MetricValues &metrics)
{
    Span span("core.predict");
    Prediction p;
    p.median = estimator.predictMedian(metrics, 1.0);
    p.mean = estimator.predictMean(metrics, 1.0);
    auto [lo, hi] = estimator.confidenceInterval(p.median, 0.90);
    p.lo90 = lo;
    p.hi90 = hi;
    return p;
}

} // namespace perfbench
