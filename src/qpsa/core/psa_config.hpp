// Configuration of the end-to-end PSA system (paper Fig. 1(a) / Fig. 2).
#pragma once

#include <string>

#include "qpsa/core/engine_spec.hpp"
#include "qpsa/dsp/window.hpp"
#include "qpsa/hrv/bands.hpp"
#include "qpsa/lomb/fast_lomb.hpp"
#include "qpsa/lomb/welch_lomb.hpp"
#include "qpsa/wfft/plan.hpp"

namespace qpsa::core {

struct psa_config {
    /// Which spectral engine runs under the fixed pipeline -- the paper's
    /// swap point, now a typed spec (see engine_spec.hpp).  Engines are
    /// built from it through core::engine_registry.
    engine_spec spec = conventional_spec{};

    /// Welch segmentation (paper: 2-minute windows, 50 % overlap).
    real window_seconds = 120.0;
    real overlap = 0.5;
    dsp::window_kind taper = dsp::window_kind::hann;
    std::size_t min_beats = 32;
    real max_freq_hz = 0.5;

    /// Per-segment Fast-Lomb parameters -- the paper's deployed pipeline:
    /// the RR window is "extrapolated ... to size N in order to meet the
    /// fixed size N (e.g. 512) of the FFT": a sample-and-hold staircase
    /// over the full window (Fig. 3 shows the same redistribution at 256),
    /// then two complex FFTs as in Fig. 1(a).  At 512 cells per 2-minute
    /// window each beat spans ~3.6 cells, which is what makes the wavelet
    /// detail band near-zero and band-drop pruning benign.  The second
    /// FFT's input, the staircase weight mesh, is the same for every
    /// window, so a psa_system holds its transform, built once
    /// (lomb::weight_transform), and each window runs one engine forward;
    /// reported op tallies still charge both FFTs, the paper's cost
    /// model.
    lomb::fast_lomb_options lomb{
        .ofac = 1.0,
        .hifac = 1.0,
        .macc = 4,
        .mesh = lomb::mesh_mode::staircase_hold,
        .packing = lomb::fft_packing::two_transforms,
        .mesh_size = 512,
    };

    hrv::band_limits bands;

    /// Named configurations, one per servable engine kind.
    static psa_config conventional(std::size_t mesh = 512);
    static psa_config proposed(const wfft::plan& p);
    static psa_config fixed_wavelet(fixed_format format, std::size_t mesh = 512,
                                    bool band_drop = false,
                                    real twiddle_fraction = 0.0);
    static psa_config burg_ar(std::size_t order = 16, std::size_t mesh = 512);
    static psa_config direct_lomb(std::size_t mesh = 512);
    static psa_config resampled(real resample_hz = 4.0, std::size_t mesh = 512);
    static psa_config welch(real resample_hz = 4.0,
                            real segment_seconds = 60.0,
                            std::size_t mesh = 512);
    /// Vendor-FFT configuration; servable only in builds that found FFTW3
    /// (lomb::fftw_engine_available()), a contract error elsewhere.
    static psa_config fftw(std::size_t mesh = 512);

    /// Fleet roll-up slot of the configured engine.
    engine_class kind() const { return classify(spec); }

    std::string describe() const;
    void validate() const;

    /// The wavelet plan as the engine will actually run it: with one FFT
    /// per real mesh (two_transforms packing) the DWT stage may exploit
    /// real arithmetic; the packed-pair optimization feeds genuinely
    /// complex data and must not.  Engine construction and engine cache
    /// keys both go through this so identical configurations always
    /// resolve to the same transform.  Wavelet-engine configs only.
    wfft::plan effective_plan() const;

    /// The spec with pipeline-derived normalizations folded in (today:
    /// the wavelet plan's real-input flag); two configs with equal
    /// normalized specs and mesh sizes run bit-identical engines.
    engine_spec normalized_spec() const;

    /// Canonical identity of the engine this config builds; configs with
    /// equal keys are served by one shared engine instance.
    core::engine_key engine_key() const;
};

}  // namespace qpsa::core
