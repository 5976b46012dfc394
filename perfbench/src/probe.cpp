#include "probe.hpp"

#include <algorithm>

#include "runner/json.hpp"
#include "runner/telemetry.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint32_t> g_next_thread{0};
thread_local const std::uint32_t tl_thread = g_next_thread.fetch_add(1);
thread_local SpanId tl_current = kNoSpan;

} // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

Probe::Scope::Scope(Probe& probe, const char* name, SpanId parent)
    : probe_(probe),
      name_(name),
      id_(probe.next_id_.fetch_add(1)),
      parent_(parent == kInherit ? tl_current : parent),
      previous_(tl_current),
      start_(Clock::now()) {
    tl_current = id_;
}

Probe::Scope::~Scope() {
    const Clock::time_point end = Clock::now();
    tl_current = previous_;
    const std::string name(name_);
    probe_.add(name + "_s", seconds_between(start_, end));
    probe_.add(name + "_calls", 1.0);
    if (probe_.tracing()) {
        const std::lock_guard<std::mutex> lock(probe_.mutex_);
        probe_.spans_.push_back({name, id_, parent_, tl_thread,
                                 probe_.since_origin_us(start_),
                                 probe_.since_origin_us(end)});
    }
}

void Probe::record_span(const char* name, SpanId parent,
                        Clock::time_point start, Clock::time_point end) {
    if (!tracing())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, next_id_.fetch_add(1), parent, tl_thread,
                      since_origin_us(start), since_origin_us(end)});
}

void Probe::add(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    round_.layer[name] += value;
}

void Probe::max(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    double& slot = round_.layer[name];
    slot = std::max(slot, value);
}

void Probe::add_solver(const tfetsram::spice::SolverStats& delta) {
    const std::lock_guard<std::mutex> lock(mutex_);
    round_.solver += delta;
}

void Probe::unit_latency(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    round_.unit_s.push_back(seconds);
}

void Probe::count_units(std::uint64_t attempted, std::uint64_t failed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    round_.attempted += attempted;
    round_.failed += failed;
}

RoundMeasure Probe::take_round() {
    const std::lock_guard<std::mutex> lock(mutex_);
    RoundMeasure out = std::move(round_);
    round_ = RoundMeasure{};
    return out;
}

double Probe::since_origin_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

bool Probe::write_chrome_trace(const std::filesystem::path& path) const {
    using tfetsram::runner::Json;
    Json events = Json::array();
    for (const SpanRecord& s : spans_) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", s.name.substr(0, s.name.find('.')));
        e.set("ph", "X");
        e.set("ts", s.start_us);
        e.set("dur", s.end_us - s.start_us);
        e.set("pid", 1);
        e.set("tid", static_cast<int>(s.thread));
        Json args = Json::object();
        args.set("id", static_cast<double>(s.id));
        args.set("parent", static_cast<double>(s.parent));
        e.set("args", std::move(args));
        events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::error_code ec;
    if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path(), ec);
    return tfetsram::runner::atomic_write(path, doc.dump() + "\n");
}

} // namespace perfbench
