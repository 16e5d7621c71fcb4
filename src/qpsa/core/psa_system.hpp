// End-to-end quality-scalable PSA system.
//
// Owns the FFT engine (conventional or wavelet), runs the Welch-Lomb
// analysis over an RR record, integrates band powers per segment and
// averaged, and reports the operation/energy footprint -- one object per
// "system" the paper compares.  On the paper's staircase, two-transform
// pipeline it also holds the weight transform (lomb::weight_transform),
// so each analyzed window, and each Welch segment of an analyzed record,
// runs one engine forward instead of two.
#pragma once

#include <memory>
#include <vector>

#include "qpsa/core/psa_config.hpp"
#include "qpsa/hrv/detector.hpp"
#include "qpsa/hrv/quality.hpp"

namespace qpsa::core {

struct record_analysis {
    /// Averaged spectrum over all segments.
    dsp::sampled_spectrum averaged_spectrum;
    /// Band powers of the averaged spectrum.
    hrv::band_powers bands;
    /// Per-segment band powers (the time-frequency ratio series of the
    /// paper's hourly monitoring experiment).
    std::vector<hrv::band_powers> segment_bands;
    std::vector<real> segment_start_s;
    hrv::diagnosis diagnosis = hrv::diagnosis::normal;
    /// Operation breakdown accumulated over the record.
    lomb::lomb_breakdown ops;
    std::size_t segments = 0;

    real lf_hf_ratio() const { return bands.lf_hf_ratio(); }
};

class psa_system {
public:
    explicit psa_system(psa_config cfg);

    /// Construct around a prebuilt (possibly shared) engine.  The engine
    /// must match the config (same mesh size / plan); the service-layer
    /// plan cache uses this so a whole fleet of identically configured
    /// sessions reuses one immutable engine instead of rebuilding twiddle
    /// state per session.  Engines are stateless across forward() calls,
    /// so concurrent use from many threads is safe.
    psa_system(psa_config cfg, std::shared_ptr<const lomb::fft_engine> engine);

    /// Construct around a prebuilt engine and its prebuilt weight
    /// transform (lomb::make_weight_transform(*engine, cfg.lomb), shared by
    /// every system of that engine and options).  Null runs every window's
    /// weight mesh through the engine, with the same results.
    psa_system(psa_config cfg, std::shared_ptr<const lomb::fft_engine> engine,
               std::shared_ptr<const lomb::weight_transform> weights);

    /// Build the engine a config describes, without a psa_system around
    /// it (the swap point shared by both constructors and the plan cache).
    static std::shared_ptr<const lomb::fft_engine> build_engine(
        const psa_config& cfg);

    const psa_config& config() const noexcept { return cfg_; }
    /// config().engine_key() and its hash, computed once at construction:
    /// the scheduler's engine grouping and the per-worker workspace lookup
    /// read them per window.
    const core::engine_key& engine_key() const noexcept { return key_; }
    std::size_t engine_hash() const noexcept { return key_hash_; }
    const lomb::fft_engine& engine() const noexcept { return *engine_; }
    /// The engine as a shareable handle (aliasable by other systems).
    std::shared_ptr<const lomb::fft_engine> shared_engine() const noexcept {
        return engine_;
    }
    std::string name() const { return cfg_.describe(); }
    /// The weight transform analyze_window and analyze_record replay
    /// (null when the pipeline has none).
    const lomb::weight_transform* weights() const noexcept {
        return weights_.get();
    }

    /// Analyze a full RR record (beat times + intervals).
    record_analysis analyze_record(std::span<const real> beat_times,
                                   std::span<const real> rr) const;

    /// Analyze a single already-cut window into `out` and, optionally,
    /// the per-phase op breakdown.  Scratch is drawn from `ws` and the
    /// vectors of `out` keep their capacity, so steady-state calls are
    /// allocation-free.  `ctx` (optional) carries the window's position
    /// on the owning monitor's hop grid when cfg.lomb.hop_aligned is set.
    void analyze_window(std::span<const real> t, std::span<const real> x,
                        lomb::workspace& ws, lomb::lomb_result& out,
                        lomb::lomb_breakdown* bd = nullptr,
                        const lomb::hop_ctx* ctx = nullptr) const;

    /// Analyze several windows of THIS system in one pass, interleaving
    /// their mesh FFTs one per SIMD lane when the engine supports it.
    /// Each job's result is bit-identical to analyze_window on the same
    /// window; jobs failing their data contracts get ok = false (where
    /// analyze_window throws).  The streaming monitor and the service
    /// analyze every window through this call.
    void analyze_window_batched(std::span<lomb::window_job> jobs,
                                lomb::workspace& ws) const;

private:
    psa_config cfg_;
    std::shared_ptr<const lomb::fft_engine> engine_;
    std::shared_ptr<const lomb::weight_transform> weights_;
    core::engine_key key_;
    std::size_t key_hash_ = 0;
};

}  // namespace qpsa::core
