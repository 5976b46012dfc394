#include "spice/device.hpp"

#include "la/sparse_matrix.hpp"

namespace tfetsram::spice {

SlotBinder::SlotBinder(Mode mode, la::SparseMatrix* jac, std::size_t num_nodes,
                       std::size_t unknowns)
    : mode_(mode), sparse_(jac), num_nodes_(num_nodes), n_(unknowns) {
    TFET_EXPECTS(num_nodes_ >= 1 && num_nodes_ - 1 <= n_ && n_ < kDropSlot);
}

SlotBinder::SlotBinder(std::size_t num_nodes, std::size_t unknowns)
    : SlotBinder(Mode::kCount, nullptr, num_nodes, unknowns) {}

SlotBinder SlotBinder::dense(std::size_t num_nodes, std::size_t unknowns) {
    // Every dense slot r * n + c must stay below kDropSlot.
    TFET_EXPECTS(unknowns <= 65535);
    return SlotBinder(Mode::kDense, nullptr, num_nodes, unknowns);
}

SlotBinder::SlotBinder(la::SparseMatrix& jac, std::size_t num_nodes)
    : SlotBinder(jac.finalized() ? Mode::kCsr : Mode::kPattern, &jac,
                 num_nodes, jac.rows()) {
    TFET_EXPECTS(jac.rows() == jac.cols());
    TFET_EXPECTS(!jac.finalized() || jac.nnz() < kDropSlot);
}

Slot SlotBinder::entry(std::size_t r, std::size_t c) {
    if (r == npos || c == npos)
        return kDropSlot;
    ++positions_;
    switch (mode_) {
    case Mode::kCount:
        return kDropSlot;
    case Mode::kPattern:
        sparse_->reserve_entry(r, c);
        return kDropSlot;
    case Mode::kCsr:
        return static_cast<Slot>(sparse_->slot_of(r, c));
    case Mode::kDense:
        break;
    }
    return static_cast<Slot>(r * n_ + c);
}

std::size_t SlotBinder::idx(NodeId n) const {
    TFET_EXPECTS(n < num_nodes_);
    return n == kGround ? npos : n - 1;
}

Slot SlotBinder::row(NodeId n) const {
    const std::size_t i = idx(n);
    return i == npos ? kDropSlot : static_cast<Slot>(i);
}

ConductanceSlots SlotBinder::conductance(NodeId a, NodeId b) {
    const std::size_t ia = idx(a);
    const std::size_t ib = idx(b);
    return {entry(ia, ia), entry(ib, ib), entry(ia, ib), entry(ib, ia)};
}

CurrentSlots SlotBinder::current(NodeId from, NodeId to) {
    return {row(from), row(to)};
}

TransconductanceSlots SlotBinder::transconductance(NodeId f, NodeId t,
                                                   NodeId cp, NodeId cn) {
    const std::size_t iof = idx(f);
    const std::size_t iot = idx(t);
    const std::size_t icp = idx(cp);
    const std::size_t icn = idx(cn);
    return {entry(iof, icp), entry(iof, icn), entry(iot, icp),
            entry(iot, icn)};
}

VoltageSourceSlots SlotBinder::voltage_source(std::size_t branch, NodeId pos,
                                              NodeId neg) {
    const std::size_t ib = (num_nodes_ - 1) + branch;
    TFET_EXPECTS(ib < n_);
    const std::size_t ip = idx(pos);
    const std::size_t in = idx(neg);
    return {entry(ip, ib), entry(ib, ip), entry(in, ib), entry(ib, in),
            static_cast<Slot>(ib)};
}

} // namespace tfetsram::spice
