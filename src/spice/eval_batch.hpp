#pragma once
// Batched per-iterate transistor evaluation. Every Newton iterate needs
// every transistor's I-V sample at the candidate solution; doing that one
// virtual call at a time from inside Transistor::stamp buries the table
// interpolation (the hot loop at array scale) under dispatch and scattered
// loads. The batch instead gathers all bias points into structure-of-arrays
// buffers, makes one iv_many call per distinct model (a tight fused pass
// for table-backed models), and lets stamp() consume its precomputed
// sample by slot. Arithmetic is bitwise-identical to the scalar path, so
// the dense/sparse differential suite keeps its exact-equality contract.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "spice/transistor_model.hpp"

namespace tfetsram::spice {

class Circuit;
class Transistor;

class DeviceEvalBatch {
public:
    /// Evaluate every transistor of `circuit` at candidate solution x.
    /// Rebuilds the slot layout first when the circuit's topology revision
    /// changed (a transistor's model is fixed at construction, so the
    /// revision covers the per-model groups too). Then runs one iv_many
    /// sweep per distinct model in first-seen circuit order.
    /// After this call every transistor's stamp() reads its sample from
    /// the batch instead of re-dispatching into the model.
    void evaluate(Circuit& circuit, const la::Vector& x);

    /// Precomputed sample for a slot handed out during layout build.
    [[nodiscard]] const IvSample& sample(std::size_t slot) const {
        return iv_[slot];
    }

    [[nodiscard]] std::size_t size() const { return order_.size(); }

private:
    /// One contiguous slot range sharing a TransistorModel.
    struct Group {
        const TransistorModel* model;
        std::size_t first;
        std::size_t count;
    };

    void rebuild(Circuit& circuit);

    std::vector<Transistor*> order_; ///< slot -> transistor, group-major
    std::vector<Group> groups_;
    std::vector<double> vgs_;
    std::vector<double> vds_;
    std::vector<IvSample> iv_;
    std::uint64_t built_revision_ = 0;
};

} // namespace tfetsram::spice
