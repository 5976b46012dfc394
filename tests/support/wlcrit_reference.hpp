#pragma once
// Reference WLcrit for tests: the bisection critical_wordline_pulse runs,
// with every attempt an independent attempt_write call (no shared hold
// state, no transient tape). The resumed bisection must match it bitwise.

#include <cmath>
#include <limits>
#include <vector>

#include "sram/metrics.hpp"

namespace tfetsram::testing_support {

/// WLcrit by plain attempts; `pulses` (optional) receives every attempted
/// pulse width in order.
inline double wlcrit_by_plain_attempts(sram::SramCell& cell,
                                       sram::Assist assist,
                                       const sram::MetricOptions& opts,
                                       std::vector<double>* pulses = nullptr) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto attempt = [&](double pulse) {
        if (pulses != nullptr)
            pulses->push_back(pulse);
        return sram::attempt_write(cell, pulse, assist, opts);
    };
    const sram::WriteOutcome at_max = attempt(opts.wlcrit_max);
    if (!at_max.simulated)
        return nan;
    if (!at_max.flipped)
        return sram::kInfinitePulse;
    const sram::WriteOutcome at_min = attempt(opts.wlcrit_min);
    if (!at_min.simulated)
        return nan;
    if (at_min.flipped)
        return opts.wlcrit_min;
    double lo = opts.wlcrit_min;
    double hi = opts.wlcrit_max;
    while ((hi - lo) / hi > opts.wlcrit_rel_tol) {
        const double mid = 0.5 * (lo + hi);
        const sram::WriteOutcome out = attempt(mid);
        if (!out.simulated)
            return nan;
        (out.flipped ? hi : lo) = mid;
    }
    return hi;
}

} // namespace tfetsram::testing_support
