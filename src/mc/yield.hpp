#pragma once
// Rare-event yield estimation (docs/YIELD.md). Plain Monte-Carlo needs
// ~1/p samples to even see one failure, which makes 4-6 sigma cell
// failure probabilities (p ~ 3e-5 .. 1e-9) intractable with the 64-sample
// histograms of Figs. 9-10. This module estimates them directly:
//
//  * importance sampling over the standardized variation space u (tox =
//    nominal * (1 + sigma_frac * u)) with a defensive Gaussian-mixture
//    proposal shifted toward the failure region — the estimator
//    p = E_g[w(u) 1{fail}] with w = phi(u)/g(u) is unbiased, and keeping
//    a nominal component in the mixture caps the weights;
//  * adaptive stopping: rounds of samples are accumulated until the
//    confidence interval (Wilson on the plain-sampling path, a weighted
//    normal approximation under importance sampling) is tight relative to
//    the estimate, or the sample budget runs out;
//  * censored-sample bookkeeping carried over from the Monte-Carlo
//    engine: samples whose solves never converged contribute worst-case
//    conservative bounds instead of silently biasing the estimate.
//
// The estimators are validated against closed-form Gaussian tail
// probabilities by the statistical harness in tests/test_yield.cpp.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mc/batch.hpp"
#include "mc/statistics.hpp"
#include "util/rng.hpp"

namespace tfetsram::mc {

/// Outcome of one yield sample.
enum class SampleVerdict {
    kPass,
    kFail,
    kCensored, ///< no converged evaluation: verdict unknown
};

struct GaussianComponent {
    double mean = 0.0;
    double sigma = 1.0;
    double weight = 1.0; ///< relative; normalized by GaussianMixture
};

/// Gaussian-mixture proposal density over the standardized variation
/// space. The default is the nominal N(0,1) — plain Monte-Carlo.
class GaussianMixture {
public:
    GaussianMixture() : GaussianMixture({GaussianComponent{}}) {}
    explicit GaussianMixture(std::vector<GaussianComponent> components);

    static GaussianMixture nominal() { return GaussianMixture{}; }
    /// Defensive one-sided shift: `nominal_fraction` of the mass stays on
    /// N(0,1) (capping importance weights at 1/nominal_fraction), the rest
    /// moves to N(shift, 1) centered on the failure region.
    static GaussianMixture shifted(double shift,
                                   double nominal_fraction = 0.1);
    /// Two-sided variant for metrics that can fail in either tail.
    static GaussianMixture shifted_symmetric(double shift,
                                             double nominal_fraction = 0.2);

    [[nodiscard]] double sample(Rng& rng) const;
    [[nodiscard]] double pdf(double u) const;
    /// phi(u) / pdf(u): the importance weight of a draw at u.
    [[nodiscard]] double importance_weight(double u) const;
    /// Upper bound on importance_weight over all u: 1 / (mass on the
    /// exact-nominal component), +inf when the mixture carries none.
    [[nodiscard]] double weight_bound() const;
    /// True for the single-component N(0,1) mixture (plain sampling, so
    /// the estimator can use the exact Wilson interval).
    [[nodiscard]] bool is_nominal() const;

    [[nodiscard]] const std::vector<GaussianComponent>& components() const {
        return components_;
    }

private:
    std::vector<GaussianComponent> components_; ///< weights sum to 1
};

struct YieldOptions {
    GaussianMixture proposal; ///< default: nominal (plain Monte-Carlo)
    double confidence = 0.95;
    /// Stop once the CI half-width is below this fraction of the estimate.
    double target_rel_halfwidth = 0.25;
    std::size_t batch = 64;        ///< samples added per adaptive round
    std::size_t min_samples = 64;  ///< never stop before this many
    std::size_t max_samples = 4096;
    /// Never declare convergence on fewer observed failures than this (a
    /// lucky early CI on 1-2 failures is noise, not convergence).
    std::size_t min_failures = 8;
};

struct YieldEstimate {
    /// Failure probability estimate with its two-sided CI (censored
    /// samples excluded). NaN point when nothing was evaluated.
    double p_fail = 0.0;
    double lower = 0.0;
    double upper = 1.0;
    /// Conservative bounds imputing every censored sample as a failure
    /// (upper) respectively a pass (lower); equal to lower/upper when
    /// nothing was censored.
    double lower_censored = 0.0;
    double upper_censored = 1.0;
    /// -Phi^-1(p_fail): the estimate expressed as a sigma level (+inf
    /// when no failure was observed).
    double sigma_level = 0.0;
    /// Effective sample size (sum w)^2 / sum w^2 — how many plain samples
    /// the weighted draws are worth; equals n_samples under the nominal
    /// proposal.
    double ess = 0.0;
    std::size_t n_samples = 0;
    std::size_t n_fail = 0;
    std::size_t n_censored = 0;
    bool converged = false; ///< stopped on the CI target, not the budget
};

/// Streaming accumulator behind the adaptive loop. add() one weighted
/// verdict at a time; estimate() is valid at any point.
class YieldAccumulator {
public:
    void add(double weight, SampleVerdict verdict);

    /// Interval on P(fail). `weight_bound` (the proposal's weight_bound())
    /// tightens the zero-failure upper bound; pass +inf when unknown.
    [[nodiscard]] YieldEstimate estimate(double confidence,
                                         double weight_bound) const;

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] std::size_t failures() const { return n_fail_; }

private:
    std::size_t n_ = 0;
    std::size_t n_fail_ = 0;
    std::size_t n_censored_ = 0;
    double sum_w_ = 0.0;   ///< all evaluated (non-censored) weights
    double sum_w2_ = 0.0;
    double sum_wf_ = 0.0;  ///< failure-indicator weights
    double sum_wf2_ = 0.0;
    double sum_wc_ = 0.0;  ///< censored weights
    double sum_wc2_ = 0.0;
    bool unit_weights_ = true;
};

/// Verdict oracle for one standardized draw. `index` is the global sample
/// index (deterministic across rounds).
using YieldProbe = std::function<SampleVerdict(double u, std::size_t index)>;

/// Batched oracle: verdicts for a whole round of draws at once (the cell
/// driver fans a round out through the lockstep engine).
using YieldBatchProbe = std::function<std::vector<SampleVerdict>(
    std::span<const double> u, std::size_t first_index)>;

/// Adaptive importance-sampling estimation loop. Draws rounds of
/// options.batch samples from options.proposal (deterministic in `seed`),
/// asks the probe for verdicts, and stops once the interval meets
/// options.target_rel_halfwidth (with at least min_samples drawn and
/// min_failures observed) or max_samples is exhausted.
YieldEstimate estimate_yield(const YieldOptions& options, std::uint64_t seed,
                             const YieldBatchProbe& probe);
YieldEstimate estimate_yield(const YieldOptions& options, std::uint64_t seed,
                             const YieldProbe& probe);

/// A cell yield problem: which cell, which variation model, which metric,
/// and what metric value constitutes failure.
struct CellYieldProblem {
    sram::CellConfig config;  ///< models = the nominal model set
    VariationSpec variation;
    /// Metric under test. Throw spice::SolveException for "could not
    /// evaluate" (the sample is retried, then censored); return the value
    /// otherwise — `fails` sees it verbatim, including +/-inf.
    CellMetric metric;
    std::function<bool(double value)> fails;
};

/// Estimate a cell's failure probability: every adaptive round draws u
/// from the proposal, maps them to thicknesses with sample_at's mapping
/// (TfetVariationSampler::tox_at, untruncated tails), and evaluates the
/// metric through the lockstep engine (run_sample_block, whose lanes
/// extract each draw's tables) under ctx — sample i of the whole run uses
/// child stream i, so results are deterministic in (seed, ctx seed) for
/// every thread count. Censored samples flow into the conservative
/// bounds. `stats`, when given, accumulates lockstep bookkeeping.
YieldEstimate estimate_cell_yield(const spice::SimContext& ctx,
                                  const CellYieldProblem& problem,
                                  const YieldOptions& options,
                                  std::uint64_t seed,
                                  std::size_t threads = 0,
                                  const McPolicy& policy = {},
                                  BatchStats* stats = nullptr);

} // namespace tfetsram::mc
