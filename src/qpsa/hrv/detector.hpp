// Sinus-arrhythmia detection from the LFP/HFP ratio.
//
// The paper uses sinus arrhythmia as the test case for quantifying
// quality loss: the condition is flagged when LFP/HFP is "much less than
// 1".  The detector flags a window whose ratio is below 1.0.
#pragma once

#include "qpsa/hrv/bands.hpp"
#include "qpsa/util/common.hpp"

namespace qpsa::hrv {

/// LFP/HFP below this flags sinus arrhythmia.
inline constexpr real sinus_arrhythmia_ratio = 1.0;

enum class diagnosis {
    sinus_arrhythmia,
    normal,
};

diagnosis classify(const band_powers& bp);

const char* diagnosis_name(diagnosis d);

/// Detection agreement between a reference and an approximate pipeline
/// over a set of per-window ratios: fraction of windows whose diagnosis
/// is unchanged by the approximation (the paper's headline is that this
/// stays at 100 %).
real diagnosis_agreement(std::span<const real> reference_ratios,
                         std::span<const real> approx_ratios);

}  // namespace qpsa::hrv
