#include "qpsa/service/byte_codec.hpp"

#include "qpsa/util/common.hpp"

namespace qpsa::service {

void byte_writer::str(std::string_view s) {
    QPSA_EXPECTS(s.size() <= 0xFFFF);
    u16(static_cast<std::uint16_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

// Out of line: GCC 12's -Wstringop-overflow false-positives on
// vector::insert when this inlines into callers.
void byte_writer::bytes(std::span<const std::uint8_t> b) {
    out_.insert(out_.end(), b.begin(), b.end());
}

bool byte_reader::boolean() {
    const std::uint8_t v = u8();
    if (v > 1) bad_value("bool", v);
    return v != 0;
}

std::string byte_reader::str() {
    const std::span<const std::uint8_t> s = bytes(u16());
    return {reinterpret_cast<const char*>(s.data()), s.size()};
}

std::span<const std::uint8_t> byte_reader::bytes(std::size_t n) {
    if (remaining() < n) fail("truncated");
    const std::span<const std::uint8_t> s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
}

std::span<const std::uint8_t> byte_reader::rest() { return bytes(remaining()); }

void byte_reader::expect_exhausted() const {
    if (remaining() != 0) fail("trailing bytes");
}

void byte_reader::fail(std::string_view what) const {
    throw wire_error(std::string(context_) + ": " + std::string(what));
}

void byte_reader::bad_value(const char* what, std::uint8_t v) const {
    fail(std::string("invalid ") + what + " " + std::to_string(v));
}

void write_ops(byte_writer& w, const counting::op_counts& ops) {
    w.u64(ops.adds);
    w.u64(ops.muls);
    w.u64(ops.divs);
    w.u64(ops.sqrts);
    w.u64(ops.cmps);
    w.u64(ops.trigs);
    w.u64(ops.loads);
    w.u64(ops.stores);
}

counting::op_counts read_ops(byte_reader& r) {
    counting::op_counts ops;
    ops.adds = r.u64();
    ops.muls = r.u64();
    ops.divs = r.u64();
    ops.sqrts = r.u64();
    ops.cmps = r.u64();
    ops.trigs = r.u64();
    ops.loads = r.u64();
    ops.stores = r.u64();
    return ops;
}

core::engine_class read_engine(byte_reader& r) {
    constexpr auto last =
        static_cast<core::engine_class>(core::engine_class_count - 1);
    return r.enumerator(last, "engine class");
}

void write_report(byte_writer& w, const core::window_report& rep) {
    w.f64(rep.t_start);
    w.f64(rep.t_end);
    w.f64(rep.bands.ulf);
    w.f64(rep.bands.lf);
    w.f64(rep.bands.hf);
    w.f64(rep.bands.total);
    w.enumerator(rep.diagnosis);
    write_ops(w, rep.ops);
    w.u64(rep.beats);
    w.enumerator(rep.engine);
}

core::window_report read_report(byte_reader& r) {
    core::window_report rep;
    rep.t_start = r.f64();
    rep.t_end = r.f64();
    rep.bands.ulf = r.f64();
    rep.bands.lf = r.f64();
    rep.bands.hf = r.f64();
    rep.bands.total = r.f64();
    rep.diagnosis = r.enumerator(hrv::diagnosis::normal, "diagnosis");
    rep.ops = read_ops(r);
    rep.beats = static_cast<std::size_t>(r.u64());
    rep.engine = read_engine(r);
    return rep;
}

}  // namespace qpsa::service
