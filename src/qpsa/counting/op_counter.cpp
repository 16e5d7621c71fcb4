#include "qpsa/counting/op_counter.hpp"

#include <sstream>

namespace qpsa::counting {

op_counts& op_counts::operator+=(const op_counts& o) noexcept {
    adds += o.adds;
    muls += o.muls;
    divs += o.divs;
    sqrts += o.sqrts;
    cmps += o.cmps;
    trigs += o.trigs;
    loads += o.loads;
    stores += o.stores;
    return *this;
}

op_counts operator-(const op_counts& a, const op_counts& b) noexcept {
    op_counts r;
    r.adds = a.adds - b.adds;
    r.muls = a.muls - b.muls;
    r.divs = a.divs - b.divs;
    r.sqrts = a.sqrts - b.sqrts;
    r.cmps = a.cmps - b.cmps;
    r.trigs = a.trigs - b.trigs;
    r.loads = a.loads - b.loads;
    r.stores = a.stores - b.stores;
    return r;
}

std::string op_counts::to_string() const {
    std::ostringstream ss;
    ss << "adds=" << adds << " muls=" << muls;
    if (divs) ss << " divs=" << divs;
    if (sqrts) ss << " sqrts=" << sqrts;
    if (cmps) ss << " cmps=" << cmps;
    if (trigs) ss << " trigs=" << trigs;
    if (loads) ss << " loads=" << loads;
    if (stores) ss << " stores=" << stores;
    return ss.str();
}

count_scope::count_scope(op_counts& sink)
    : sink_(&sink), parent_(detail::top_scope) {
    detail::top_scope = this;
}

count_scope::~count_scope() { detail::top_scope = parent_; }

pause_scope::pause_scope() noexcept : saved_(detail::top_scope) {
    detail::top_scope = nullptr;
}

pause_scope::~pause_scope() { detail::top_scope = saved_; }

void add_to_active(const op_counts& delta) noexcept {
    for (count_scope* s = detail::top_scope; s != nullptr; s = s->parent_)
        *s->sink_ += delta;
}

}  // namespace qpsa::counting
