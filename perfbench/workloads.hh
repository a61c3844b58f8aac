/**
 * @file
 * The three workloads. Each is set up by its constructor (session,
 * seeded inputs, workload state) and runs one operation per call to
 * op(), either through the EstimationSession (untraced) or through
 * the traced layer-by-layer path (layered.hh). Operation i of a
 * workload built from a given seed is the same in both paths.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/session.hh"
#include "inputs.hh"

namespace perfbench
{

/** What one operation produced. */
struct OpResult
{
    bool ok = true;         ///< No exception and every check held.
    std::string error;      ///< Why not, when !ok.
    std::string digest;     ///< Exact rendering of every output.
    uint64_t fits = 0;      ///< Fits and bootstrap replicates run.
    uint64_t converged = 0; ///< Of those, the ones that converged.
};

/** Common interface of the workloads. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Untimed housekeeping before operation @p index: called by the
     * loop outside the operation's latency, in both paths.
     */
    virtual void prepare(size_t index) { (void)index; }

    /** Run operation @p index (indices are consecutive from 0). */
    virtual OpResult op(size_t index, bool traced) = 0;

    /**
     * @return Operations per throughput window: a whole round over
     *         the designs where the workload draws in rounds, about
     *         a quarter second of work otherwise.
     */
    virtual size_t window() const = 0;

    /** @return The workload's session. */
    ucx::EstimationSession &session() { return *session_; }

    /** @return Fits run during setup, and how many converged. */
    std::pair<uint64_t, uint64_t> setupFits() const
    {
        return {setupFits_, setupConverged_};
    }

  protected:
    std::unique_ptr<ucx::EstimationSession> session_;
    uint64_t setupFits_ = 0;
    uint64_t setupConverged_ = 0;
};

/** Settings every workload's session is built with. */
struct SessionSettings
{
    size_t threads = 0;           ///< Pool threads.
    size_t cacheCapacity = 1024;  ///< Memory-tier entries.
    std::string cacheDir;         ///< Disk tier ("" = memory only).
};

/** @return The settings of workload @p name ("" if unknown). */
SessionSettings settingsFor(const std::string &name,
                            const std::string &scratch);

/**
 * Build workload @p name from @p seed (throws on unknown names).
 * @p scratch holds the disk tier of estimate_reuse; each instance
 * uses its own fresh directory below it and removes it on
 * destruction.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed,
                                       const std::string &scratch);

/** @return Exact rendering of a measurement (17 significant digits). */
std::string digest(const ucx::ComponentMeasurement &m);

/** @return Exact rendering of a fitted estimator. */
std::string digest(const ucx::FittedEstimator &f);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
