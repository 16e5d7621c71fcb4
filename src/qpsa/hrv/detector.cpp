#include "qpsa/hrv/detector.hpp"

namespace qpsa::hrv {

diagnosis classify(const band_powers& bp) {
    return bp.lf_hf_ratio() < sinus_arrhythmia_ratio
               ? diagnosis::sinus_arrhythmia
               : diagnosis::normal;
}

const char* diagnosis_name(diagnosis d) {
    return d == diagnosis::sinus_arrhythmia ? "sinus-arrhythmia" : "normal";
}

real diagnosis_agreement(std::span<const real> reference_ratios,
                         std::span<const real> approx_ratios) {
    QPSA_EXPECTS(reference_ratios.size() == approx_ratios.size());
    QPSA_EXPECTS(!reference_ratios.empty());
    std::size_t agree = 0;
    for (std::size_t i = 0; i < reference_ratios.size(); ++i) {
        const bool a = reference_ratios[i] < sinus_arrhythmia_ratio;
        const bool b = approx_ratios[i] < sinus_arrhythmia_ratio;
        if (a == b) ++agree;
    }
    return static_cast<real>(agree) / static_cast<real>(reference_ratios.size());
}

}  // namespace qpsa::hrv
