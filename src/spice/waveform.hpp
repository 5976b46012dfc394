#pragma once
// Time-domain stimulus descriptions for independent sources: DC levels and
// piecewise-linear waveforms (from which pulses are built). Value-semantic.

#include <vector>

#include "util/contracts.hpp"

namespace tfetsram::spice {

/// A (time, value) breakpoint of a piecewise-linear waveform.
struct PwlPoint {
    double time;
    double value;
};

/// Value-semantic waveform: either a DC level or a piecewise-linear curve.
/// Before the first breakpoint the first value holds; after the last, the
/// last value holds.
class Waveform {
public:
    /// Constant level for all time.
    static Waveform dc(double level);

    /// Piecewise-linear from breakpoints (times strictly increasing).
    static Waveform pwl(std::vector<PwlPoint> points);

    /// A single pulse: base level until t_start, linear rise over t_rise to
    /// `active`, hold for t_width, linear fall over t_fall back to base.
    static Waveform pulse(double base, double active, double t_start,
                          double t_rise, double t_width, double t_fall);

    /// Value at time t.
    [[nodiscard]] double at(double t) const;

    /// DC value used for the t=0 operating point (value at t = 0).
    [[nodiscard]] double initial() const { return at(0.0); }

    /// Times where the slope changes; the transient engine lands on these.
    [[nodiscard]] const std::vector<double>& breakpoints() const {
        return breakpoints_;
    }

    /// True if the waveform is a constant level.
    [[nodiscard]] bool is_dc() const { return points_.size() <= 1; }

    /// Return a copy with all values scaled by k (for source stepping).
    [[nodiscard]] Waveform scaled(double k) const;

    /// Earliest time t >= 0 from which this waveform and `other` may
    /// drive a transient run differently; +infinity when they never do.
    /// Before it, at() is bitwise equal in both and both carry the same
    /// breakpoints. A segment counts as shared in full only when its two
    /// end points are identical, and in part only while it is flat in
    /// both waveforms (docs/SOLVER.md, "Transient tapes").
    [[nodiscard]] double shared_until(const Waveform& other) const;

private:
    Waveform() = default;
    std::vector<PwlPoint> points_; // size 1 encodes a DC level
    std::vector<double> breakpoints_;
};

} // namespace tfetsram::spice
