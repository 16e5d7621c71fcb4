// Consistent-hash placement of patients onto shards.
//
// A fleet of K session_manager shards needs a pure, process-stable
// function patient_id -> shard that (a) spreads a cohort evenly and
// (b) moves only a bounded fraction of keys when K changes -- naive
// `hash % K` remaps nearly every patient when a shard is added, which
// would reshuffle millions of live monitoring streams.  Placement is
// rendezvous (highest-random-weight) hashing: every active shard scores
// every key with an independent 64-bit weight and the highest score
// wins.  Exactly the keys won by a new shard move to it (expected
// 1/(K+1)), and removing a shard moves exactly its own keys.  O(K) per
// lookup -- negligible next to admission cost, and placement is decided
// once per patient.
//
// Keys are hashed with util::stable_hash64, so placement agrees across
// processes and platforms -- an ingest front-end can route beats to
// shard processes without consulting them.  Lookups are const and
// thread-safe; add/remove mutate and must be externally serialized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "qpsa/util/common.hpp"

namespace qpsa::service {

struct shard_map_options {
    /// Mixed into every shard's weight stream, so independent
    /// deployments (or A/B topologies) place the same cohort
    /// differently.
    std::uint64_t salt = 0x9e3779b97f4a7c15ULL;
};

class shard_map {
public:
    explicit shard_map(std::size_t shards, shard_map_options opt = {});

    std::size_t shard_count() const noexcept { return active_; }
    /// Total shard slots ever created; indices in [0, slot_count()) are
    /// stable for the lifetime of the map (removed slots stay reserved).
    std::size_t slot_count() const noexcept { return seeds_.size(); }
    bool is_active(std::size_t shard) const;

    /// Owning shard of a patient (>= 1 active shard required).
    std::size_t shard_for(std::string_view patient_id) const {
        return shard_for_key(stable_hash64(patient_id));
    }
    std::size_t shard_for_key(std::uint64_t key) const;

    /// Bring a new shard slot online; returns its index.  Only keys the
    /// new shard wins move (expected fraction 1/new_count).
    std::size_t add_shard();
    /// Take a shard offline; only its own keys move, redistributing over
    /// the survivors.  The index stays reserved and never comes back.
    void remove_shard(std::size_t shard);

private:
    shard_map_options opt_;
    std::vector<std::uint64_t> seeds_;  ///< per-slot weight-stream seeds
    std::vector<bool> alive_;
    std::size_t active_ = 0;
};

}  // namespace qpsa::service
