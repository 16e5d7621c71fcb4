#include "qpsa/service/shard_map.hpp"

#include "qpsa/util/random.hpp"

namespace qpsa::service {

namespace {

/// Weight of `key` on the shard whose weight stream is `seed`: one
/// splitmix64 scramble of the pair -- uniform, independent across
/// shards, and stable across processes.
std::uint64_t weight(std::uint64_t key, std::uint64_t seed) noexcept {
    return util::splitmix64(key ^ seed);
}

}  // namespace

shard_map::shard_map(std::size_t shards, shard_map_options opt) : opt_(opt) {
    QPSA_EXPECTS(shards >= 1);
    seeds_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) add_shard();
}

bool shard_map::is_active(std::size_t shard) const {
    QPSA_EXPECTS(shard < seeds_.size());
    return alive_[shard];
}

std::size_t shard_map::shard_for_key(std::uint64_t key) const {
    QPSA_EXPECTS(active_ >= 1);
    std::size_t best = 0;
    std::uint64_t best_w = 0;
    bool found = false;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
        if (!alive_[i]) continue;
        const std::uint64_t w = weight(key, seeds_[i]);
        // Ties broken by index so the winner is unambiguous everywhere.
        if (!found || w > best_w) {
            found = true;
            best = i;
            best_w = w;
        }
    }
    return best;
}

std::size_t shard_map::add_shard() {
    const std::size_t index = seeds_.size();
    // Per-slot weight stream derived from (salt, slot): reproducible, and
    // re-adding capacity later continues the same sequence.
    seeds_.push_back(util::derive_stream_seed(opt_.salt, index));
    alive_.push_back(true);
    ++active_;
    return index;
}

void shard_map::remove_shard(std::size_t shard) {
    QPSA_EXPECTS(shard < seeds_.size());
    QPSA_EXPECTS(alive_[shard]);
    QPSA_EXPECTS(active_ >= 2);  // a fleet always has somewhere to route
    alive_[shard] = false;
    --active_;
}

}  // namespace qpsa::service
