#include "spice/eval_batch.hpp"

#include "spice/circuit.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"

namespace tfetsram::spice {

bool DeviceEvalBatch::layout_stale(const Circuit& circuit) const {
    if (built_revision_ != circuit.topology_revision())
        return true;
    // Monte-Carlo re-simulation swaps models via set_model without touching
    // the topology revision; the group layout keys on model identity, so a
    // swap must trigger a rebuild. Pointer compares only — cheap next to
    // the interpolation work the batch exists to speed up.
    for (const Group& g : groups_)
        for (std::size_t s = g.first; s < g.first + g.count; ++s)
            if (&order_[s]->model() != g.model)
                return true;
    return false;
}

bool DeviceEvalBatch::try_retarget() {
    // Model swap with unchanged topology — the Monte-Carlo lockstep path,
    // where every sample re-points the same transistors at fresh per-draw
    // models. When each group's transistors moved in unison to one new
    // model the slot layout is still valid: just re-point the groups
    // instead of re-slotting and re-attaching every transistor. Validate
    // all groups before committing any so a half-unanimous swap falls
    // back to a clean rebuild.
    for (const Group& g : groups_) {
        const TransistorModel* m = &order_[g.first]->model();
        for (std::size_t s = g.first + 1; s < g.first + g.count; ++s)
            if (&order_[s]->model() != m)
                return false;
    }
    for (Group& g : groups_)
        g.model = &order_[g.first]->model();
    return true;
}

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
    if (layout_stale(circuit) &&
        (built_revision_ != circuit.topology_revision() || order_.empty() ||
         !try_retarget()))
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
