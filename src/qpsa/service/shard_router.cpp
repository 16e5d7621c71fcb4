#include "qpsa/service/shard_router.hpp"

#include <filesystem>
#include <limits>

namespace qpsa::service {

shard_router::shard_router(router_options opt, plan_cache* cache)
    : opt_(opt),
      cache_(cache != nullptr ? cache : &global_plan_cache()),
      map_(opt.shards, opt.placement),
      // One pool of shards * threads workers; threads == 0 (the pool's
      // own 0) means hardware concurrency.
      scheduler_(opt.shards * opt.shard.threads, opt.shard.scheduler) {
    QPSA_EXPECTS(opt_.shards >= 1);
    if (!opt_.journal_dir.empty())
        std::filesystem::create_directories(opt_.journal_dir);
    // Reserved once so ingest() can index shards_ lock-free while
    // reshape() appends: room for growth without reallocation.
    shards_.reserve(std::max<std::size_t>(opt_.shards * 2, 16));
    views_.reserve(shards_.capacity());
    for (std::size_t k = 0; k < opt_.shards; ++k) {
        service_options shard_opt = opt_.shard;
        if (!opt_.journal_dir.empty()) {
            journal::writer_options jw = opt_.journal;
            jw.shard_index = static_cast<std::uint32_t>(k);
            jw.shard_count = static_cast<std::uint32_t>(opt_.shards);
            shard_opt.journal = std::make_shared<journal::report_writer>(
                opt_.journal_dir + "/shard-" + std::to_string(k) +
                    journal::journal_file_extension,
                jw);
        }
        shards_.push_back(make_shard(std::move(shard_opt)));
    }
    // Allocated once: ingest() indexes this storage lock-free while
    // add_session() runs, so it must never move.  The global ceiling is
    // the sum of the construction-time shard ceilings (8 bytes per
    // reserved route); reshape() adds shards but not route capacity.
    route_capacity_ = opt_.shards * opt_.shard.max_sessions;
    routes_ = std::make_unique<std::atomic<std::uint64_t>[]>(route_capacity_);
}

std::unique_ptr<session_manager> shard_router::make_shard(
    service_options opt) {
    // The shard constructor is private to session_manager (friend).
    return std::unique_ptr<session_manager>(
        new session_manager(std::move(opt), cache_, &scheduler_));
}

std::uint64_t shard_router::add_session(session_config cfg) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    const std::size_t count = session_count_.load(std::memory_order_relaxed);
    QPSA_EXPECTS(count < route_capacity_);
    const std::uint64_t global_id = count;
    // Topology-independent stream seed: derived from the global id, i.e.
    // exactly what a single serial manager would assign in the same
    // admission order (the shard manager keeps a nonzero seed as-is).
    if (cfg.seed == 0)
        cfg.seed = util::derive_stream_seed(opt_.shard.base_seed, global_id);
    // The session is named by its global id everywhere (journal records,
    // snapshot rows, callbacks), so shards share one fleet-wide id space.
    if (cfg.global_id == global_id_auto) cfg.global_id = global_id;
    const std::size_t shard = map_.shard_for(cfg.patient_id);
    const std::uint64_t local = shards_[shard]->add_session(std::move(cfg));
    QPSA_ENSURES(local <= std::numeric_limits<std::uint32_t>::max());
    routes_[global_id].store(pack_route(static_cast<std::uint32_t>(shard),
                                        static_cast<std::uint32_t>(local)),
                             std::memory_order_release);
    // Publish after the route is fully written; ingest()/at() pair this
    // with an acquire load.
    session_count_.store(count + 1, std::memory_order_release);
    return global_id;
}

session& shard_router::at(std::uint64_t id) {
    QPSA_EXPECTS(id < session_count());
    const route r = route_of(id);
    return shards_[r.shard]->at(r.local);
}

const session& shard_router::at(std::uint64_t id) const {
    QPSA_EXPECTS(id < session_count());
    const route r = route_of(id);
    return shards_[r.shard]->at(r.local);
}

std::size_t shard_router::shard_of(std::uint64_t id) const {
    QPSA_EXPECTS(id < session_count());
    return route_of(id).shard;
}

extracted_session shard_router::extract_session(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(id < session_count());
    const route r = route_of(id);
    return shards_[r.shard]->extract_session(r.local);
}

void shard_router::adopt_session(const extracted_session& es,
                                 std::size_t target_shard) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(target_shard < shards_.size());
    const std::uint64_t id = es.state.global_id;
    QPSA_EXPECTS(id < session_count());
    const std::uint64_t local =
        shards_[target_shard]->adopt_session(es.config, es.state);
    QPSA_ENSURES(local <= std::numeric_limits<std::uint32_t>::max());
    routes_[id].store(pack_route(static_cast<std::uint32_t>(target_shard),
                                 static_cast<std::uint32_t>(local)),
                      std::memory_order_release);
}

void shard_router::adopt_session(const extracted_session& es) {
    adopt_session(es, map_.shard_for(es.state.patient_id));
}

void shard_router::move_route_locked(std::uint64_t id,
                                     std::size_t target_shard) {
    const route r = route_of(id);
    if (r.shard == target_shard) return;
    extracted_session es = shards_[r.shard]->extract_session(r.local);
    const std::uint64_t local =
        shards_[target_shard]->adopt_session(es.config, es.state);
    QPSA_ENSURES(local <= std::numeric_limits<std::uint32_t>::max());
    routes_[id].store(pack_route(static_cast<std::uint32_t>(target_shard),
                                 static_cast<std::uint32_t>(local)),
                      std::memory_order_release);
}

void shard_router::migrate_session(std::uint64_t id,
                                   std::size_t target_shard) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(id < session_count());
    QPSA_EXPECTS(target_shard < shards_.size());
    move_route_locked(id, target_shard);
}

void shard_router::reshape(std::size_t new_shards) {
    std::lock_guard<std::mutex> lock(admit_mu_);
    QPSA_EXPECTS(new_shards >= shards_.size());
    // Journal headers stamp the admission-time topology; growing a
    // journaled fleet in place would orphan the on-disk shard count.
    QPSA_EXPECTS(opt_.journal_dir.empty());
    QPSA_EXPECTS(new_shards <= shards_.capacity());
    if (new_shards == shards_.size()) return;
    while (shards_.size() < new_shards) {
        map_.add_shard();
        shards_.push_back(make_shard(opt_.shard));
    }
    // Consistent hashing moves only the keys the new shards win; every
    // moved session resumes bit-identically from its extracted state.
    const std::size_t n = session_count_.load(std::memory_order_relaxed);
    for (std::uint64_t id = 0; id < n; ++id) {
        const route r = route_of(id);
        const session& s = shards_[r.shard]->at(r.local);
        if (s.extracted()) continue;
        move_route_locked(id, map_.shard_for(s.patient_id()));
    }
}

std::size_t shard_router::pump() { return run_pass(drain_scope::ready); }

std::size_t shard_router::drain_all() {
    std::size_t windows = 0;
    do {
        windows += run_pass(drain_scope::all_pending);
    } while (has_pending());
    return windows;
}

std::size_t shard_router::run_pass(drain_scope scope) {
    std::lock_guard<std::mutex> lock(scheduler_.pass_mutex());
    views_.clear();
    for (const auto& shard : shards_) views_.push_back(shard->pass_view());
    return scheduler_.run_once(views_, scope);
}

bool shard_router::has_pending() const noexcept {
    for (const auto& shard : shards_)
        if (shard->has_pending()) return true;
    return false;
}

void shard_router::flush_journals(bool sync) {
    for (const auto& shard : shards_)
        if (journal::report_writer* j = shard->journal()) j->flush(sync);
}

void shard_router::close_journals() {
    for (const auto& shard : shards_)
        if (journal::report_writer* j = shard->journal()) j->close();
}

core::system_factory shard_router::factory() {
    plan_cache* cache = cache_;
    return [cache](const core::psa_config& cfg) {
        return cache->system_for(cfg);
    };
}

fleet_snapshot shard_router::shard_fleet(std::size_t k) const {
    QPSA_EXPECTS(k < shards_.size());
    // Held against migration, which extracts on one shard and adopts on
    // another under this mutex: a shard snapshot never lands between the
    // two halves of a move.
    std::lock_guard<std::mutex> lock(admit_mu_);
    return shards_[k]->fleet();
}

fleet_snapshot shard_router::fleet() const {
    fleet_snapshot merged;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        if (k == 0)
            merged = shard_fleet(0);
        else
            merged += shard_fleet(k);
    }
    return merged;
}

}  // namespace qpsa::service
