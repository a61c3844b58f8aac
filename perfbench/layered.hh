/**
 * @file
 * The traced path: the same work as the EstimationSession entry
 * points the workloads call, done one layer at a time by calling
 * each module's public functions with a Span around every call.
 *
 * Each function mirrors one session method step for step — the same
 * lint gate, the same cache keys, the same pass order — so the
 * traced run computes (and caches) exactly what the untraced run
 * does, and its results must be equal. The benchmark's self-test
 * checks both: equal results for every shipped design, and cache
 * keys that hit the entries the session itself stores.
 *
 * One difference is deliberate: measureComponent measures the module
 * types of a component in parallel on the pool, while the traced
 * path measures them one after another on the caller thread, so
 * every span has an unambiguous parent. That serialization is part
 * of the reported tracing overhead.
 */

#ifndef PERFBENCH_LAYERED_HH
#define PERFBENCH_LAYERED_HH

#include <cstdint>
#include <string>

#include "engine/session.hh"

namespace perfbench
{

/** Counts the traced path keeps where the library has no counter. */
struct LayerCounts
{
    uint64_t luts = 0;          ///< LUTs of every lutmap pass run.
    uint64_t minimizeElabs = 0; ///< Elaborations in minimizeParameters.
};

/** @return The traced path's counts (reset with resetLayerCounts). */
LayerCounts layerCounts();

/** Zero the traced path's counts. */
void resetLayerCounts();

/**
 * Register every artifact codec of the serde registry wrapped in
 * io.encode / io.decode spans. Must run before the first session is
 * built (the registry keeps the first codec of each type); the
 * wrappers only add a relaxed load while no span is recorded.
 */
void installTimedCodecs();

/** @return The cache key session.measure stores a measurement at. */
ucx::CacheKey measureKey(const ucx::Design &design,
                         const std::string &top,
                         ucx::AccountingMode mode,
                         const ucx::PassConfig &passes);

/** @return The cache key session.fitOn stores a fit at. */
ucx::CacheKey fitKey(const ucx::Dataset &dataset,
                     const ucx::EstimatorSpec &spec);

/** Traced session.lint(design, top). */
ucx::LintReport tracedLint(ucx::EstimationSession &session,
                           const ucx::Design &design,
                           const std::string &top);

/** Traced session.measure(design, top, mode). */
ucx::ComponentMeasurement tracedMeasure(ucx::EstimationSession &session,
                                        const ucx::Design &design,
                                        const std::string &top,
                                        ucx::AccountingMode mode);

/** Traced session.fitOn(dataset, spec). */
ucx::FittedEstimator tracedFitOn(ucx::EstimationSession &session,
                                 const ucx::Dataset &dataset,
                                 const ucx::EstimatorSpec &spec);

/** Traced session.predict(estimator, metrics). */
ucx::Prediction tracedPredict(const ucx::FittedEstimator &estimator,
                              const ucx::MetricValues &metrics);

} // namespace perfbench

#endif // PERFBENCH_LAYERED_HH
