#include "spice/eval_batch.hpp"

#include "spice/circuit.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"

namespace tfetsram::spice {

void DeviceEvalBatch::rebuild(Circuit& circuit) {
    const auto& transistors = circuit.transistors();
    const std::size_t n = transistors.size();

    // Group-major slot layout in first-seen model order: each distinct
    // model gets one contiguous vgs/vds/iv range so its iv_many sweep
    // reads and writes straight runs. Distinct models are few (the four-
    // model zoo, give or take MC clones), so a linear scan beats a map.
    groups_.clear();
    std::vector<std::size_t> group_of(n);
    for (std::size_t i = 0; i < n; ++i) {
        const TransistorModel* m = &transistors[i]->model();
        std::size_t g = groups_.size();
        for (std::size_t j = 0; j < groups_.size(); ++j)
            if (groups_[j].model == m) {
                g = j;
                break;
            }
        if (g == groups_.size())
            groups_.push_back({m, 0, 0});
        ++groups_[g].count;
        group_of[i] = g;
    }
    std::size_t offset = 0;
    for (Group& g : groups_) {
        g.first = offset;
        offset += g.count;
    }

    order_.assign(n, nullptr);
    vgs_.assign(n, 0.0);
    vds_.assign(n, 0.0);
    iv_.assign(n, IvSample{});
    std::vector<std::size_t> cursor(groups_.size());
    for (std::size_t j = 0; j < groups_.size(); ++j)
        cursor[j] = groups_[j].first;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t slot = cursor[group_of[i]]++;
        order_[slot] = transistors[i];
        transistors[i]->attach_batch(this, slot);
    }

    built_revision_ = circuit.topology_revision();
}

void DeviceEvalBatch::evaluate(Circuit& circuit, const la::Vector& x) {
    if (built_revision_ != circuit.topology_revision())
        rebuild(circuit);
    const std::size_t n = order_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Transistor* t = order_[i];
        vgs_[i] = branch_voltage(x, t->gate(), t->source());
        vds_[i] = branch_voltage(x, t->drain(), t->source());
    }
    for (const Group& g : groups_)
        g.model->iv_many(vgs_.data() + g.first, vds_.data() + g.first, g.count,
                         iv_.data() + g.first);
    solver_stats().batched_evals += n;
}

} // namespace tfetsram::spice
