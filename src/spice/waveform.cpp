#include "spice/waveform.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace tfetsram::spice {

Waveform Waveform::dc(double level) {
    Waveform w;
    w.points_.push_back({0.0, level});
    return w;
}

Waveform Waveform::pwl(std::vector<PwlPoint> points) {
    TFET_EXPECTS(!points.empty());
    for (std::size_t i = 1; i < points.size(); ++i)
        TFET_EXPECTS(points[i].time > points[i - 1].time);
    Waveform w;
    w.points_ = std::move(points);
    w.breakpoints_.reserve(w.points_.size());
    for (const auto& p : w.points_)
        if (p.time > 0.0)
            w.breakpoints_.push_back(p.time);
    return w;
}

Waveform Waveform::pulse(double base, double active, double t_start,
                         double t_rise, double t_width, double t_fall) {
    TFET_EXPECTS(t_start >= 0.0);
    TFET_EXPECTS(t_rise > 0.0 && t_fall > 0.0 && t_width >= 0.0);
    return pwl({{t_start, base},
                {t_start + t_rise, active},
                {t_start + t_rise + t_width, active},
                {t_start + t_rise + t_width + t_fall, base}});
}

double Waveform::at(double t) const {
    TFET_EXPECTS(!points_.empty());
    if (points_.size() == 1 || t <= points_.front().time)
        return points_.front().value;
    if (t >= points_.back().time)
        return points_.back().value;
    // Binary search for the segment containing t.
    const auto it = std::upper_bound(
        points_.begin(), points_.end(), t,
        [](double tt, const PwlPoint& p) { return tt < p.time; });
    const PwlPoint& hi = *it;
    const PwlPoint& lo = *(it - 1);
    const double frac = (t - lo.time) / (hi.time - lo.time);
    return lo.value + frac * (hi.value - lo.value);
}

Waveform Waveform::scaled(double k) const {
    Waveform w = *this;
    for (auto& p : w.points_)
        p.value *= k;
    return w;
}

namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_point(const PwlPoint& a, const PwlPoint& b) {
    return same_bits(a.time, b.time) && same_bits(a.value, b.value);
}

} // namespace

double Waveform::shared_until(const Waveform& other) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Every time where either waveform changes slope, in order. Between
    // two consecutive knots both waveforms are linear.
    std::vector<double> knots = breakpoints_;
    knots.insert(knots.end(), other.breakpoints_.begin(),
                 other.breakpoints_.end());
    std::sort(knots.begin(), knots.end());
    knots.erase(std::unique(knots.begin(), knots.end()), knots.end());

    // The segment of `w` covering the open interval (u, v), as the index
    // of its right end point: 0 before the first point and size() after
    // the last (both flat), else a PWL segment points_[i-1]..points_[i].
    const auto segment = [](const Waveform& w, double u) {
        return static_cast<std::size_t>(
            std::upper_bound(w.points_.begin(), w.points_.end(), u,
                             [](double t, const PwlPoint& p) {
                                 return t < p.time;
                             }) -
            w.points_.begin());
    };
    const auto flat = [](const Waveform& w, std::size_t i) {
        return i == 0 || i == w.points_.size() ||
               w.points_[i - 1].value == w.points_[i].value;
    };

    double u = 0.0;
    for (std::size_t j = 0;; ++j) {
        const double v = j < knots.size() ? knots[j] : kInf;
        const std::size_t sa = segment(*this, u);
        const std::size_t sb = segment(other, u);
        bool shared;
        if (flat(*this, sa) && flat(other, sb)) {
            // A flat piece evaluates to one constant over the interval.
            const double mid = v == kInf ? u + 1.0 : 0.5 * (u + v);
            shared = same_bits(at(mid), other.at(mid));
        } else {
            shared = !flat(*this, sa) && !flat(other, sb) &&
                     same_point(points_[sa - 1], other.points_[sb - 1]) &&
                     same_point(points_[sa], other.points_[sb]);
        }
        if (!shared)
            return u;
        if (v == kInf)
            return kInf;
        // A knot only one waveform has is a breakpoint only one run lands
        // on.
        const auto has_knot = [v](const Waveform& w) {
            return std::binary_search(w.breakpoints_.begin(),
                                      w.breakpoints_.end(), v);
        };
        if (!has_knot(*this) || !has_knot(other) ||
            !same_bits(at(v), other.at(v)))
            return v;
        u = v;
    }
}

} // namespace tfetsram::spice
