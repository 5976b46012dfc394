#include "mc/yield.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace tfetsram::mc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double inv_sqrt_2pi = 0.3989422804014327;

double normal_pdf(double t) { return inv_sqrt_2pi * std::exp(-0.5 * t * t); }
} // namespace

GaussianMixture::GaussianMixture(std::vector<GaussianComponent> components)
    : components_(std::move(components)) {
    TFET_EXPECTS(!components_.empty());
    double total = 0.0;
    for (const GaussianComponent& c : components_) {
        TFET_EXPECTS(c.sigma > 0.0);
        TFET_EXPECTS(c.weight > 0.0);
        total += c.weight;
    }
    for (GaussianComponent& c : components_)
        c.weight /= total;
}

GaussianMixture GaussianMixture::shifted(double shift,
                                         double nominal_fraction) {
    TFET_EXPECTS(nominal_fraction > 0.0 && nominal_fraction < 1.0);
    return GaussianMixture{{GaussianComponent{0.0, 1.0, nominal_fraction},
                            GaussianComponent{shift, 1.0,
                                              1.0 - nominal_fraction}}};
}

GaussianMixture GaussianMixture::shifted_symmetric(double shift,
                                                   double nominal_fraction) {
    TFET_EXPECTS(nominal_fraction > 0.0 && nominal_fraction < 1.0);
    const double half = 0.5 * (1.0 - nominal_fraction);
    return GaussianMixture{{GaussianComponent{0.0, 1.0, nominal_fraction},
                            GaussianComponent{-shift, 1.0, half},
                            GaussianComponent{shift, 1.0, half}}};
}

double GaussianMixture::sample(Rng& rng) const {
    // Component by cumulative weight, then one normal draw — two RNG
    // variates per sample regardless of the component picked, so streams
    // stay aligned across proposals with equal component counts.
    const double r = rng.uniform(0.0, 1.0);
    double cum = 0.0;
    const GaussianComponent* picked = &components_.back();
    for (const GaussianComponent& c : components_) {
        cum += c.weight;
        if (r < cum) {
            picked = &c;
            break;
        }
    }
    return rng.normal(picked->mean, picked->sigma);
}

double GaussianMixture::pdf(double u) const {
    double g = 0.0;
    for (const GaussianComponent& c : components_)
        g += c.weight * normal_pdf((u - c.mean) / c.sigma) / c.sigma;
    return g;
}

double GaussianMixture::importance_weight(double u) const {
    const double g = pdf(u);
    TFET_EXPECTS(g > 0.0);
    return normal_pdf(u) / g;
}

double GaussianMixture::weight_bound() const {
    // g(u) >= a * phi(u) whenever a mass fraction a sits exactly on
    // N(0,1), so w = phi/g <= 1/a everywhere.
    double a = 0.0;
    for (const GaussianComponent& c : components_)
        if (c.mean == 0.0 && c.sigma == 1.0)
            a += c.weight;
    return a > 0.0 ? 1.0 / a : kInf;
}

bool GaussianMixture::is_nominal() const {
    return components_.size() == 1 && components_[0].mean == 0.0 &&
           components_[0].sigma == 1.0;
}

void YieldAccumulator::add(double weight, SampleVerdict verdict) {
    TFET_EXPECTS(weight >= 0.0 && std::isfinite(weight));
    ++n_;
    if (weight != 1.0)
        unit_weights_ = false;
    switch (verdict) {
    case SampleVerdict::kPass:
        sum_w_ += weight;
        sum_w2_ += weight * weight;
        break;
    case SampleVerdict::kFail:
        ++n_fail_;
        sum_w_ += weight;
        sum_w2_ += weight * weight;
        sum_wf_ += weight;
        sum_wf2_ += weight * weight;
        break;
    case SampleVerdict::kCensored:
        ++n_censored_;
        sum_wc_ += weight;
        sum_wc2_ += weight * weight;
        break;
    }
}

namespace {

/// Normal-approximation CI on a mean of weighted indicators: `sum` and
/// `sum2` over `n` samples of x = w * 1{event}. Zero observed events get
/// the Clopper-Pearson zero-count upper bound scaled by the weight cap.
void weighted_interval(double sum, double sum2, std::size_t n,
                       std::size_t events, double z, double alpha,
                       double weight_bound, double& lower, double& upper) {
    const double dn = static_cast<double>(n);
    const double mean = sum / dn;
    if (events == 0) {
        lower = 0.0;
        upper = std::isfinite(weight_bound)
                    ? std::min(1.0, weight_bound *
                                        (1.0 - std::pow(alpha, 1.0 / dn)))
                    : 1.0;
        return;
    }
    const double var =
        n > 1 ? std::max(0.0, (sum2 - dn * mean * mean) / (dn - 1.0)) : 0.0;
    const double half = z * std::sqrt(var / dn);
    lower = std::max(0.0, mean - half);
    upper = std::min(1.0, mean + half);
}

} // namespace

YieldEstimate YieldAccumulator::estimate(double confidence,
                                         double weight_bound) const {
    TFET_EXPECTS(confidence > 0.0 && confidence < 1.0);
    YieldEstimate est;
    est.n_samples = n_;
    est.n_fail = n_fail_;
    est.n_censored = n_censored_;
    const std::size_t evaluated = n_ - n_censored_;
    if (evaluated == 0) {
        // Nothing observed: vacuous interval, NaN point (the same
        // degradation as the statistics helpers — never an abort).
        est.p_fail = kNaN;
        est.sigma_level = kNaN;
        return est;
    }
    const double total_w = sum_w_ + sum_wc_;
    const double total_w2 = sum_w2_ + sum_wc2_;
    est.ess = total_w > 0.0 ? total_w * total_w / total_w2
                            : static_cast<double>(n_);
    const double alpha = 1.0 - confidence;
    if (unit_weights_) {
        // Plain sampling: exact Wilson machinery, including the censored
        // worst-case imputation the Monte-Carlo engine already uses
        // (failure interval = flipped pass interval).
        est.p_fail = static_cast<double>(n_fail_) /
                     static_cast<double>(evaluated);
        const YieldInterval base =
            yield_interval(n_fail_, evaluated, confidence);
        est.lower = base.lower;
        est.upper = base.upper;
        const YieldInterval cens = censored_yield_interval(
            evaluated - n_fail_, evaluated, n_censored_, confidence);
        est.lower_censored = 1.0 - cens.upper;
        est.upper_censored = 1.0 - cens.lower;
    } else {
        const double z = normal_quantile(1.0 - alpha / 2.0);
        const double dn_eval = static_cast<double>(evaluated);
        est.p_fail = sum_wf_ / dn_eval;
        weighted_interval(sum_wf_, sum_wf2_, evaluated, n_fail_, z, alpha,
                          weight_bound, est.lower, est.upper);
        // Conservative bounds over ALL drawn samples: the upper bound
        // counts censored weights as failures, the lower one as passes.
        double scratch = 0.0;
        weighted_interval(sum_wf_ + sum_wc_, sum_wf2_ + sum_wc2_, n_,
                          n_fail_ + n_censored_, z, alpha, weight_bound,
                          scratch, est.upper_censored);
        weighted_interval(sum_wf_, sum_wf2_, n_, n_fail_, z, alpha,
                          weight_bound, est.lower_censored, scratch);
    }
    est.sigma_level = est.p_fail > 0.0 ? -normal_quantile(est.p_fail) : kInf;
    return est;
}

YieldEstimate estimate_yield(const YieldOptions& options, std::uint64_t seed,
                             const YieldBatchProbe& probe) {
    TFET_EXPECTS(probe != nullptr);
    TFET_EXPECTS(options.batch >= 1);
    TFET_EXPECTS(options.max_samples >= 1);
    TFET_EXPECTS(options.target_rel_halfwidth > 0.0);
    Rng rng(seed);
    YieldAccumulator acc;
    YieldEstimate est;
    std::size_t drawn = 0;
    std::vector<double> us;
    while (drawn < options.max_samples) {
        const std::size_t m =
            std::min(options.batch, options.max_samples - drawn);
        us.clear();
        for (std::size_t j = 0; j < m; ++j)
            us.push_back(options.proposal.sample(rng));
        const std::vector<SampleVerdict> verdicts = probe(us, drawn);
        TFET_EXPECTS(verdicts.size() == us.size());
        for (std::size_t j = 0; j < m; ++j)
            acc.add(options.proposal.importance_weight(us[j]), verdicts[j]);
        drawn += m;
        est = acc.estimate(options.confidence,
                           options.proposal.weight_bound());
        if (drawn >= options.min_samples &&
            est.n_fail >= options.min_failures && est.p_fail > 0.0) {
            const double halfwidth = 0.5 * (est.upper - est.lower);
            if (halfwidth <= options.target_rel_halfwidth * est.p_fail) {
                est.converged = true;
                break;
            }
        }
    }
    return est;
}

YieldEstimate estimate_yield(const YieldOptions& options, std::uint64_t seed,
                             const YieldProbe& probe) {
    TFET_EXPECTS(probe != nullptr);
    return estimate_yield(
        options, seed,
        [&probe](std::span<const double> us, std::size_t first) {
            std::vector<SampleVerdict> verdicts;
            verdicts.reserve(us.size());
            for (std::size_t j = 0; j < us.size(); ++j)
                verdicts.push_back(probe(us[j], first + j));
            return verdicts;
        });
}

YieldEstimate estimate_cell_yield(const spice::SimContext& ctx,
                                  const CellYieldProblem& problem,
                                  const YieldOptions& options,
                                  std::uint64_t seed, std::size_t threads,
                                  const McPolicy& policy, BatchStats* stats) {
    TFET_EXPECTS(problem.metric != nullptr);
    TFET_EXPECTS(problem.fails != nullptr);
    const TfetVariationSampler sampler(problem.variation);
    const la::Vector nominal_seed = nominal_hold_seed(ctx, problem.config);
    return estimate_yield(
        options, seed,
        [&](std::span<const double> us, std::size_t first) {
            // sample_at's tox mapping; the engine's workers extract the
            // draws.
            std::vector<double> tox;
            tox.reserve(us.size());
            for (double u : us)
                tox.push_back(sampler.tox_at(u));
            // Global sample index = child seed stream, unique per round.
            const McResult block =
                run_monte_carlo(ctx, problem.config, sampler, tox,
                                nominal_seed, /*stream_offset=*/first,
                                problem.metric, threads, policy, stats);
            std::vector<SampleVerdict> verdicts;
            verdicts.reserve(us.size());
            for (std::size_t j = 0; j < us.size(); ++j)
                verdicts.push_back(block.censored[j] != 0
                                       ? SampleVerdict::kCensored
                                       : (problem.fails(block.samples[j])
                                              ? SampleVerdict::kFail
                                              : SampleVerdict::kPass));
            return verdicts;
        });
}

} // namespace tfetsram::mc
