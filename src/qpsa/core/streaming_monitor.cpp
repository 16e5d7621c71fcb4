#include "qpsa/core/streaming_monitor.hpp"

#include <algorithm>
#include <cmath>

namespace qpsa::core {

namespace {
std::shared_ptr<const psa_system> default_factory(const psa_config& cfg) {
    return std::make_shared<const psa_system>(cfg);
}
}  // namespace

streaming_monitor::streaming_monitor(psa_config cfg, monitor_options opt,
                                     system_factory factory)
    : opt_(opt),
      factory_(factory ? std::move(factory) : system_factory(default_factory)),
      system_(factory_(cfg)) {
    QPSA_EXPECTS(system_ != nullptr);
    QPSA_EXPECTS(opt_.hop_seconds > 0.0);
    QPSA_EXPECTS(opt_.window_seconds >= opt_.hop_seconds);
    QPSA_EXPECTS(opt_.min_beats >= 8);
    // Absorb early capacity doublings up front; the per-window hot path
    // is budgeted at ~zero allocations in steady state.
    history_.reserve(std::min<std::size_t>(opt_.history_limit, 64));
    pending_.reserve(8);
}

void streaming_monitor::push_beat(real beat_time_s, real rr_s) {
    // A staged window must be finished before more beats arrive -- the
    // next beat could close further windows whose analysis would have to
    // run *after* the staged one to preserve window order.
    QPSA_EXPECTS(!staged_);
    QPSA_EXPECTS(std::isfinite(beat_time_s) && std::isfinite(rr_s) && rr_s > 0.0);
    if (buffer_head_ < buffer_.size())
        QPSA_EXPECTS(beat_time_s > buffer_.back().first);
    if (!started_) {
        started_ = true;
        next_window_start_ = beat_time_s;
        // Hop-aligned mode snaps the window phase onto the global hop
        // grid, so window starts (and the aligned-mesh decomposition they
        // anchor) are pure functions of the grid, not of the first beat.
        if (system_->config().lomb.hop_aligned)
            next_window_start_ =
                std::floor(beat_time_s / opt_.hop_seconds) * opt_.hop_seconds;
    }
    buffer_.emplace_back(beat_time_s, rr_s);
    ++beats_seen_;
    try_close_windows();
}

lomb::workspace& streaming_monitor::window_workspace() {
    if (scratch_cache_ != nullptr)
        return scratch_cache_->get(system_->engine_key(),
                                   system_->engine_hash());
    return own_workspace_;
}

void streaming_monitor::update_hop_ctx(real w0) {
    hop_ctx_ = {std::llround(w0 / opt_.hop_seconds), opt_.hop_seconds, w0,
                opt_.window_seconds};
}

void streaming_monitor::try_close_windows() {
    // Every window runs stage -> analyze -> finish.  In staging mode the
    // caller takes over the analyze step (possibly batched with other
    // monitors) and resumes here through finish_staged; otherwise the one
    // job is analyzed inline.
    while (stage_next_window()) {
        if (staging_) return;
        lomb::window_job job = staged_job();
        system_->analyze_window_batched({&job, 1}, window_workspace());
        complete_staged(job.ok);
    }
}

bool streaming_monitor::stage_next_window() {
    // A window [w0, w0 + W) closes once a beat arrives at or beyond its
    // end; hop defines the next start.  Windows with too few beats are
    // skipped.  next_window_start_ stays at w0 while the window is staged
    // so the report can be built from it.
    while (started_ && buffer_head_ < buffer_.size() &&
           buffer_.back().first >= next_window_start_ + opt_.window_seconds) {
        const real w0 = next_window_start_;
        const real w1 = w0 + opt_.window_seconds;
        if (system_->config().lomb.hop_aligned) update_hop_ctx(w0);

        win_t_.clear();
        win_x_.clear();
        for (std::size_t i = buffer_head_; i < buffer_.size(); ++i) {
            const auto& [bt, rr] = buffer_[i];
            if (bt < w0) continue;
            if (bt >= w1) break;
            win_t_.push_back(bt);
            win_x_.push_back(rr);
        }

        if (win_t_.size() >= opt_.min_beats) {
            staged_ = true;
            staged_bd_ = {};
            return true;
        }
        advance_window();
    }
    return false;
}

void streaming_monitor::complete_staged(bool ok) {
    staged_ = false;
    if (ok) {
        window_report rep;
        rep.t_start = next_window_start_;
        rep.t_end = next_window_start_ + opt_.window_seconds;
        rep.beats = win_t_.size();
        rep.engine = system_->config().kind();
        try {
            rep.bands = hrv::compute_band_powers(win_result_.spectrum,
                                                 system_->config().bands);
            rep.diagnosis = hrv::classify(rep.bands);
            rep.ops = staged_bd_.total();
            pending_.push_back(rep);
            ++completed_;
            push_history(rep);
        } catch (const contract_error&) {
            // Degenerate window (e.g. zero variance): skip silently, as a
            // node would.
        }
    }
    // A window that failed its analysis contracts (!ok) is skipped the
    // same way.
    advance_window();
}

void streaming_monitor::push_history(const window_report& rep) {
    history_.push_back(rep);
    if (history_.size() - history_head_ > opt_.history_limit) ++history_head_;
    if (history_head_ >= std::max<std::size_t>(1, opt_.history_limit / 4)) {
        history_.erase(history_.begin(),
                       history_.begin() +
                           static_cast<std::ptrdiff_t>(history_head_));
        history_head_ = 0;
    }
}

void streaming_monitor::advance_window() {
    next_window_start_ += opt_.hop_seconds;

    // Drop beats no future window can use; compact the dead prefix
    // once it dominates so the buffer's capacity is reused instead of
    // growing without bound.
    while (buffer_head_ < buffer_.size() &&
           buffer_[buffer_head_].first < next_window_start_)
        ++buffer_head_;
    if (buffer_head_ == buffer_.size()) {
        buffer_.clear();
        buffer_head_ = 0;
    } else if (buffer_head_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(buffer_head_));
        buffer_head_ = 0;
    }
}

lomb::window_job streaming_monitor::staged_job() noexcept {
    lomb::window_job job;
    job.t = win_t_;
    job.x = win_x_;
    job.out = &win_result_;
    job.bd = &staged_bd_;
    // hop_ctx_ was refreshed for this window when it was staged.
    job.ctx = system_->config().lomb.hop_aligned ? &hop_ctx_ : nullptr;
    return job;
}

void streaming_monitor::finish_staged(bool ok) {
    QPSA_EXPECTS(staged_);
    complete_staged(ok);
    // The same last beat may close further (overlapping) windows; they
    // stage again one at a time, preserving window order.
    try_close_windows();
}

std::optional<window_report> streaming_monitor::poll() {
    if (pending_head_ == pending_.size()) return std::nullopt;
    window_report rep = pending_[pending_head_];
    ++pending_head_;
    if (pending_head_ == pending_.size()) {
        pending_.clear();
        pending_head_ = 0;
    } else if (pending_head_ > pending_.size() / 2) {
        // Same compaction policy as the beat buffer: a consumer that
        // never fully drains must not leave an ever-growing dead prefix.
        pending_.erase(pending_.begin(),
                       pending_.begin() +
                           static_cast<std::ptrdiff_t>(pending_head_));
        pending_head_ = 0;
    }
    return rep;
}

void streaming_monitor::set_config(psa_config cfg) {
    system_ = factory_(cfg);
    QPSA_EXPECTS(system_ != nullptr);
}

monitor_state streaming_monitor::export_state() const {
    monitor_state st;
    st.buffered.assign(
        buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_head_),
        buffer_.end());
    st.pending.assign(
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
        pending_.end());
    const std::span<const window_report> live = history();
    st.history.assign(live.begin(), live.end());
    st.next_window_start = next_window_start_;
    st.started = started_;
    st.windows_completed = completed_;
    st.beats_seen = beats_seen_;
    return st;
}

void streaming_monitor::restore_state(const monitor_state& st) {
    buffer_ = st.buffered;
    buffer_head_ = 0;
    pending_ = st.pending;
    pending_head_ = 0;
    history_ = st.history;
    history_head_ = 0;
    next_window_start_ = st.next_window_start;
    started_ = st.started;
    completed_ = static_cast<std::size_t>(st.windows_completed);
    beats_seen_ = static_cast<std::size_t>(st.beats_seen);
}

real streaming_monitor::arrhythmia_fraction() const {
    const std::span<const window_report> live = history();
    if (live.empty()) return 0.0;
    std::size_t flagged = 0;
    for (const auto& rep : live)
        if (rep.diagnosis == hrv::diagnosis::sinus_arrhythmia) ++flagged;
    return static_cast<real>(flagged) / static_cast<real>(live.size());
}

}  // namespace qpsa::core
