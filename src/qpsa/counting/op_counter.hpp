// Operation-counting instrumentation.
//
// The paper evaluates its approximations by the number of arithmetic
// operations executed on a sensor-node RISC core (Fig. 5) and converts the
// counts into cycles and energy (Fig. 1(b), Fig. 9).  qpsa mirrors this:
// every kernel the paper prices has a counted walk that calls into an
// op_counter per operation it executes, and that walk is the reference
// the experiment tables and the tally tests are derived from.
//
// The rule for hot paths: a stage whose tally is a pure function of its
// plan (a static-schedule transform) attributes the tally memoized by a
// counted dry run at plan construction; a stage whose tally depends on
// loop trip counts (interpolated points, output bins, model order) runs
// uncounted and attributes the closed form of those counts once per call.
// Either way the recorded tally equals, field for field, what the counted
// walk records.  Only data-dependent decisions (dynamic pruning) count
// live.  A whole transform whose input is a pure function of the
// configuration (the staircase weight mesh, lomb::weight_transform) is
// run once with counting paused; each window then attributes the tally
// and pruning statistics that run recorded, dynamic pruning included,
// since the same input always takes the same decisions.
//
// Counting is scope-based: a kernel counts into the innermost active
// count_scope of the calling thread (or into nothing, at the cost of one
// thread-local load, when no scope is active).  Counts are *real*
// operations: one complex multiply contributes 4 muls + 2 adds, a complex
// add 2 adds, and so on -- the same accounting used by the classic FFT
// complexity literature the paper compares against.
#pragma once

#include <cstdint>
#include <string>

namespace qpsa::counting {

class count_scope;

namespace detail {
/// Innermost active scope of this thread (null: counting is off).
/// Defined inline so every count_* helper tests it with a plain TLS load.
inline thread_local count_scope* top_scope = nullptr;
}  // namespace detail

/// Tally of executed real-valued operations.
struct op_counts {
    std::uint64_t adds = 0;    ///< real additions/subtractions
    std::uint64_t muls = 0;    ///< real multiplications
    std::uint64_t divs = 0;    ///< real divisions
    std::uint64_t sqrts = 0;   ///< square roots
    std::uint64_t cmps = 0;    ///< comparisons (dynamic-pruning overhead)
    std::uint64_t trigs = 0;   ///< sin/cos evaluations (direct Lomb)
    std::uint64_t loads = 0;   ///< explicit data loads (optional accounting)
    std::uint64_t stores = 0;  ///< explicit data stores (optional accounting)

    std::uint64_t total() const noexcept {
        return adds + muls + divs + sqrts + cmps + trigs + loads + stores;
    }
    /// Arithmetic-only total (the quantity plotted in the paper's Fig. 5).
    std::uint64_t arithmetic() const noexcept { return adds + muls; }

    op_counts& operator+=(const op_counts& o) noexcept;
    friend op_counts operator+(op_counts a, const op_counts& b) noexcept {
        a += b;
        return a;
    }
    friend op_counts operator-(const op_counts& a, const op_counts& b) noexcept;
    bool operator==(const op_counts&) const = default;

    std::string to_string() const;
};

/// RAII scope: while alive, operations counted on this thread accumulate
/// into the referenced op_counts.  Scopes nest; all active scopes receive
/// the counts (so a pipeline total and a per-block breakdown can be
/// recorded simultaneously, as a profiler would).
class count_scope {
public:
    explicit count_scope(op_counts& sink);
    ~count_scope();
    count_scope(const count_scope&) = delete;
    count_scope& operator=(const count_scope&) = delete;

private:
    op_counts* sink_;
    count_scope* parent_;
    friend void add_to_active(const op_counts& delta) noexcept;
};

/// RAII scope that suspends counting on this thread: all scopes active at
/// construction stop receiving counts until destruction.  Used by batched
/// kernels that attribute closed-form tallies per lane instead of letting
/// an internal scalar fallback count the same work twice.
class pause_scope {
public:
    pause_scope() noexcept;
    ~pause_scope();
    pause_scope(const pause_scope&) = delete;
    pause_scope& operator=(const pause_scope&) = delete;

private:
    count_scope* saved_;
};

/// True iff at least one count_scope is active on this thread.
inline bool counting_active() noexcept { return detail::top_scope != nullptr; }

/// Record a batch of operations into all active scopes.
void add_to_active(const op_counts& delta) noexcept;

// -- Convenience single-category recorders (no-ops without a scope) -------
inline void count_adds(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.adds = n;
        add_to_active(d);
    }
}
inline void count_muls(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.muls = n;
        add_to_active(d);
    }
}
inline void count_divs(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.divs = n;
        add_to_active(d);
    }
}
inline void count_sqrts(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.sqrts = n;
        add_to_active(d);
    }
}
inline void count_cmps(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.cmps = n;
        add_to_active(d);
    }
}
inline void count_trigs(std::uint64_t n) noexcept {
    if (counting_active()) {
        op_counts d;
        d.trigs = n;
        add_to_active(d);
    }
}

/// Count one complex*complex multiply (4 muls + 2 adds).
inline void count_cmul(std::uint64_t n = 1) noexcept {
    if (counting_active()) {
        op_counts d;
        d.muls = 4 * n;
        d.adds = 2 * n;
        add_to_active(d);
    }
}
/// Count one complex +/- (2 adds).
inline void count_cadd(std::uint64_t n = 1) noexcept { count_adds(2 * n); }
/// Count one complex*real scaling (2 muls).
inline void count_cscale(std::uint64_t n = 1) noexcept { count_muls(2 * n); }

}  // namespace qpsa::counting
