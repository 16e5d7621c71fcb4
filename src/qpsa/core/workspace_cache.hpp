// Per-worker cache of reusable analysis workspaces, keyed by engine.
//
// The service's plan cache shares one immutable engine per distinct
// configuration across the whole process; workspaces are its mutable
// counterpart and therefore cannot be shared -- each scheduler worker owns
// one cache and hands the right arena to whatever session it is currently
// draining.  Keying by core::engine_key (not by session) is what makes
// plan-locality batching pay off: a worker draining a run of same-plan
// sessions hits one hot arena the entire run, and a fleet serving K
// distinct engine shapes holds exactly K workspaces per worker no matter
// how many thousand sessions it runs.
//
// Not thread-safe by design (one owner thread); see service::thread_pool.
#pragma once

#include <memory>
#include <vector>

#include "qpsa/core/engine_spec.hpp"
#include "qpsa/lomb/workspace.hpp"

namespace qpsa::core {

class workspace_cache {
public:
    /// The workspace for an engine identity (created and pre-sized from
    /// the key's mesh on first use; stable address thereafter).  `hash`
    /// is engine_key_hash{}(key), which psa_system caches, so a lookup
    /// is a short scan comparing precomputed hashes -- a worker holds one
    /// entry per engine shape it has drained, a handful in practice.
    lomb::workspace& get(const engine_key& key, std::size_t hash) {
        for (const entry& e : entries_)
            if (e.hash == hash && e.key == key) return *e.ws;
        entries_.push_back(
            {hash, key, std::make_unique<lomb::workspace>(key.mesh)});
        return *entries_.back().ws;
    }

    std::size_t size() const noexcept { return entries_.size(); }

private:
    struct entry {
        std::size_t hash;
        engine_key key;
        std::unique_ptr<lomb::workspace> ws;
    };
    std::vector<entry> entries_;
};

}  // namespace qpsa::core
