#include "spice/ac.hpp"

#include <cmath>

#include "spice/dc.hpp"
#include "spice/mna.hpp"

namespace tfetsram::spice {

std::complex<double> AcResult::phasor(NodeId node, std::size_t i) const {
    TFET_EXPECTS(i < states_.size());
    if (node == kGround)
        return {0.0, 0.0};
    TFET_EXPECTS(node - 1 < states_[i].size());
    return states_[i][node - 1];
}

double AcResult::magnitude_db(NodeId node, std::size_t i) const {
    const double mag = std::abs(phasor(node, i));
    return 20.0 * std::log10(std::max(mag, 1e-300));
}

double AcResult::corner_frequency(NodeId node) const {
    if (freq_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    const double ref = magnitude_db(node, 0);
    for (std::size_t i = 1; i < freq_.size(); ++i) {
        const double db = magnitude_db(node, i);
        if (db <= ref - 3.0) {
            // Log-interpolate between the bracketing points.
            const double prev = magnitude_db(node, i - 1);
            const double frac = (prev - (ref - 3.0)) / (prev - db);
            return freq_[i - 1] *
                   std::pow(freq_[i] / freq_[i - 1], frac);
        }
    }
    return std::numeric_limits<double>::quiet_NaN();
}

void AcResult::append(double f, std::vector<std::complex<double>> x) {
    freq_.push_back(f);
    states_.push_back(std::move(x));
}

namespace {

using Complex = std::complex<double>;

/// Dense complex solve with partial pivoting (in place). Returns false on
/// numerical singularity.
bool complex_solve(std::vector<Complex>& a, std::vector<Complex>& b,
                   std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot = k;
        double best = std::abs(a[k * n + k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::abs(a[r * n + k]);
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (best < 1e-300)
            return false;
        if (pivot != k) {
            for (std::size_t c = k; c < n; ++c)
                std::swap(a[k * n + c], a[pivot * n + c]);
            std::swap(b[k], b[pivot]);
        }
        const Complex inv = 1.0 / a[k * n + k];
        for (std::size_t r = k + 1; r < n; ++r) {
            const Complex factor = a[r * n + k] * inv;
            if (factor == Complex{})
                continue;
            for (std::size_t c = k + 1; c < n; ++c)
                a[r * n + c] -= factor * a[k * n + c];
            b[r] -= factor * b[k];
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        Complex acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= a[i * n + c] * b[c];
        b[i] = acc / a[i * n + i];
    }
    return true;
}

} // namespace

AcResult solve_ac(Circuit& circuit, const SimContext& ctx,
                  const SolverOptions& opts, const AcStimulus& stimulus,
                  double f_start, double f_stop,
                  std::size_t points_per_decade, const la::Vector* dc_guess) {
    AcResult result;
    TFET_EXPECTS(stimulus.source != nullptr);
    TFET_EXPECTS(f_start > 0.0 && f_stop > f_start);
    TFET_EXPECTS(points_per_decade >= 1);

    const ScopedContext bind(ctx);
    circuit.prepare();
    DcResult dc = solve_dc(circuit, ctx, opts, 0.0, dc_guess);
    if (!dc.converged) {
        if (dc.error.has_value()) {
            result.error = std::move(dc.error);
        } else {
            SolveError err;
            err.code = SolveErrorCode::kNonConvergence;
            err.message = "ac: operating point did not converge";
            result.error = std::move(err);
        }
        result.message = "ac: operating point did not converge: " +
                         result.error->describe();
        return result;
    }
    for (const auto& dev : circuit.devices())
        dev->begin_transient(dc.x);

    const std::size_t n = circuit.num_unknowns();

    // Small-signal conductance matrix: the DC Jacobian at the OP.
    la::Matrix g_mat;
    la::Vector rhs;
    {
        AnalysisState as;
        as.mode = AnalysisMode::kDc;
        assemble(circuit, as, dc.x, opts.gmin, g_mat, rhs);
    }

    // Capacitance matrix by companion-model extraction: with backward
    // Euler the transient Jacobian is G + C/dt, so two assemblies at
    // different dt isolate C exactly (the companion conductance is linear
    // in 1/dt).
    la::Matrix c_mat(n, n);
    {
        AnalysisState as;
        as.mode = AnalysisMode::kTransient;
        as.integrator = Integrator::kBackwardEuler;
        as.first_transient_step = true;
        la::Matrix j1;
        la::Matrix j2;
        as.dt = 1e-6;
        as.time = 0.0;
        assemble(circuit, as, dc.x, opts.gmin, j1, rhs);
        as.dt = 2e-6;
        assemble(circuit, as, dc.x, opts.gmin, j2, rhs);
        const double scale = 1.0 / (1.0 / 1e-6 - 1.0 / 2e-6);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                c_mat(r, c) = (j1(r, c) - j2(r, c)) * scale;
    }

    // The stimulated source's constraint row drives the unit phasor.
    const std::size_t stim_row =
        (circuit.num_nodes() - 1) + stimulus.source->branch();

    const double decades = std::log10(f_stop / f_start);
    const auto steps = static_cast<std::size_t>(
        std::ceil(decades * static_cast<double>(points_per_decade)));
    for (std::size_t i = 0; i <= steps; ++i) {
        const double f =
            f_start * std::pow(10.0, decades * static_cast<double>(i) /
                                         static_cast<double>(steps));
        const double w = 2.0 * M_PI * f;
        std::vector<Complex> a(n * n);
        std::vector<Complex> b(n, Complex{});
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                a[r * n + c] = Complex{g_mat(r, c), w * c_mat(r, c)};
        b[stim_row] = stimulus.magnitude;
        if (!complex_solve(a, b, n)) {
            result.message = "ac: singular system at f=" + std::to_string(f);
            SolveError err;
            err.code = SolveErrorCode::kSingularAcSystem;
            err.message = result.message;
            err.last_iterate = dc.x; // the OP the linearization came from
            result.error = std::move(err);
            return result;
        }
        result.append(f, std::move(b));
    }
    result.ok = true;
    return result;
}

} // namespace tfetsram::spice
