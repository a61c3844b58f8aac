/**
 * @file
 * Seeded input generation. Everything a workload feeds the library
 * comes from here and from the seed alone, through the benchmark's
 * own generator, so a library change can never change the inputs.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.hh"
#include "designs/registry.hh"
#include "exec/context.hh"

namespace perfbench
{

/** splitmix64: small, fast, and identical on every platform. */
class Rng
{
  public:
    /** Stream @p stream of seed @p seed. */
    Rng(uint64_t seed, uint64_t stream);

    /** @return The next 64 random bits. */
    uint64_t next();

    /** @return A uniform double in [0, 1). */
    double uniform();

    /** @return A uniform index in [0, n). */
    size_t below(size_t n);

    /** @return A standard normal draw (Box-Muller). */
    double normal();

  private:
    uint64_t state_;
};

/** One shipped design under a parameter binding of its top module. */
struct Binding
{
    std::string design; ///< Registry key.
    std::string top;    ///< Top module.
    std::vector<std::pair<std::string, int64_t>> params;
    std::string source; ///< Source text with the binding applied.

    /** @return "design(P=v,...)" — unique per binding. */
    std::string label() const;
};

/**
 * Rewrite the defaults of @p top's header parameters in @p source.
 * Only the named module's header changes, so child modules keep
 * their own defaults.
 *
 * @param source Full µHDL source.
 * @param top    Module whose header parameters are rebound.
 * @param params Parameter name -> new literal value.
 * @return The rewritten source; throws when a parameter is not a
 *         literal default in @p top's header.
 */
std::string bindSource(
    const std::string &source, const std::string &top,
    const std::vector<std::pair<std::string, int64_t>> &params);

/**
 * The binding grid of every shipped design. Candidates rebind each
 * top-level parameter around its default: every integer in
 * [d/2, 3d] for a design with one parameter, else the product of
 * {d/2, 3d/4, d, 5d/4, 3d/2, 2d}. A candidate is kept when it
 * elaborates and its flattened signals hold at most kMaxGrowth times
 * the default binding's bits; the rest are parameterizations the
 * design rejects (a field wider than its word) or index widths that
 * blow tables up exponentially. Building the grid parses every
 * shipped design and elaborates every candidate on @p ctx's pool.
 */
class BindingGrid
{
  public:
    static constexpr double kMaxGrowth = 3.0;

    explicit BindingGrid(const ucx::ExecContext &ctx);

    /** @return Number of shipped designs. */
    size_t designs() const { return designs_.size(); }

    /** @return Number of kept bindings of design @p d. */
    size_t size(size_t d) const { return designs_[d].kept.size(); }

    /** @return Kept binding @p index of design @p d. */
    Binding at(size_t d, size_t index) const;

    /** @return Candidates generated, over all designs. */
    size_t candidates() const { return candidates_; }

  private:
    struct Entry
    {
        const ucx::ShippedDesign *design = nullptr;
        std::vector<std::string> names;
        std::vector<std::vector<int64_t>> kept; ///< Parameter values.
    };
    std::vector<Entry> designs_;
    size_t candidates_ = 0;
};

/** Rounds over n items: each visits every item once, in seeded order. */
class Rounds
{
  public:
    Rounds(size_t n, uint64_t seed, uint64_t stream);

    /** @return The next item. */
    size_t next();

  private:
    size_t n_;
    Rng rng_;
    std::vector<size_t> left_; ///< Items not yet visited this round.
};

/**
 * Draw bindings design-stratified: rounds over every design, one
 * unused binding of the design uniformly per draw. A design whose
 * bindings are used up starts over with all of them, so every round
 * visits every design however long the run, and a binding repeats
 * only after all of its design's bindings were drawn. Fixing the
 * design mix keeps a run's cost independent of the seed and of its
 * length, up to the bindings themselves.
 */
class BindingSampler
{
  public:
    BindingSampler(const BindingGrid &grid, uint64_t seed,
                   uint64_t stream);

    /** @return The next binding of the sequence. */
    Binding next();

    /** @return An unused binding of design @p d (refilled when none). */
    Binding next(size_t d);

  private:
    const BindingGrid &grid_;
    Rng rng_;
    Rounds rounds_;
    std::vector<std::vector<size_t>> unused_; ///< Per design.
};

/**
 * A calibration dataset for operation @p op: paper Table 2's 18
 * components with all their metrics, efforts redrawn from the DEE1
 * model  log Eff_ij = b_i + log(w . m_ij) + eps_ij  with seeded
 * b_i ~ N(0, sigma_rho^2) and eps_ij ~ N(0, sigma_eps^2).
 */
ucx::Dataset calibrationDataset(const ucx::Dataset &paper,
                                const std::vector<double> &weights,
                                double sigma_eps, double sigma_rho,
                                uint64_t seed, uint64_t op);

/** Zipf(s = 1) rank sampler over [0, n). */
class ZipfSampler
{
  public:
    ZipfSampler(size_t n, uint64_t seed, uint64_t stream);

    /** @return The next rank (0 is the most popular). */
    size_t next();

  private:
    std::vector<double> cdf_;
    Rng rng_;
};

/**
 * The tail of a latency sample: the highest of p99.9, p99, p90 and
 * p50 (nearest rank) with at least ten samples beyond it. A fixed
 * ladder keeps the same percentile across runs of similar length,
 * and usually leaves more than ten samples beyond it.
 */
struct Tail
{
    double value = 0.0;      ///< The tail latency (max if no rung fits).
    double percentile = 0.0; ///< The rung, e.g. 99.0 (100 = max).
    size_t beyond = 0;       ///< Samples above it.
    size_t samples = 0;      ///< n.
};

/** @return The tail of @p values (any order). */
Tail tailOf(std::vector<double> values);

/**
 * The tails of consecutive parts of a run of latencies (in run
 * order), each part 100 to 199 operations long — so each part's tail
 * is its p90 — or one part if the run is shorter. op_ms.tail is the
 * median of their values: a burst of outside load that slows a few
 * parts does not set it.
 */
std::vector<Tail> partTails(const std::vector<double> &latencies);

/** @return The median of @p values (any order; 0 when empty). */
double medianOf(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
