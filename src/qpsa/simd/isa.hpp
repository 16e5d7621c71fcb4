// Runtime ISA selection for the vector kernel layer.
//
// The arithmetic core dispatches through a table of function pointers
// (simd::kernels()) resolved once per process: the best instruction set
// the CPU supports, overridable with the QPSA_FORCE_ISA environment
// variable ("scalar", "sse2", "avx2", "neon").  An empty value means
// unset, and so does a name this build or CPU cannot run: both select
// the auto-detected ISA (avx2, then neon, then sse2, else scalar).
// The table holds the lane-interleaved walks and spread4 (kernels.hpp
// says why only those).  Each preserves the scalar operation order per
// element -- no FMA contraction, no reassociated horizontal sums -- so
// every ISA is bit-identical to the scalar reference (CI runs the full
// suite under scalar, sse2 and native dispatch).
#pragma once

#include <cstddef>
#include <vector>

namespace qpsa::simd {

enum class isa {
    scalar,  ///< portable reference (always compiled, the identity oracle)
    sse2,    ///< x86-64 baseline, 2 doubles per vector
    avx2,    ///< 4 doubles per vector, selected via cpuid
    neon,    ///< aarch64 baseline, 2 doubles per vector
};

/// Human-readable name ("scalar", "sse2", ...).
const char* isa_name(isa which) noexcept;

/// The ISA the kernel table currently dispatches to.
isa active_isa() noexcept;

/// ISAs compiled into this binary AND usable on this CPU (always contains
/// isa::scalar).  The bit-identity suite iterates this list.
std::vector<isa> available_isas();

/// Re-point the kernel table at `which` (test hook; QPSA_FORCE_ISA is the
/// deployment-facing override).  Returns false -- and leaves the table
/// unchanged -- when `which` is not available on this CPU/build.
bool set_active_isa(isa which) noexcept;

}  // namespace qpsa::simd
