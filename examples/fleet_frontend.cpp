// fleet_frontend -- the ingest front-end of the distributed fleet, and
// the CI verifier of the whole three-tier topology.
//
// --verify mode drives the full acceptance scenario against two shard
// nodes and an aggregator, with an *in-process* reference fleet (a
// shard_router with the same placement, seeds and thread count) running
// the identical schedule beside it:
//
//   1. admit a small cohort (plain + governed tokens) through the
//      socket tier and the reference router, identically;
//   2. ingest the first half of every record, flush (drain barrier);
//   3. live-migrate one governed session to the other shard over the
//      socket (migrate_out -> adopt), and in-process in the reference;
//   4. ingest the rest, flush;
//   5. assert bit-identical results across all three views:
//        - per-shard stats merged == reference shard_router::fleet(),
//          operator== on every column but the drain-scheduler ones
//          (see matches_reference);
//        - the aggregator's merged snapshot == the same (polled until
//          the publishers ship their final state);
//        - the migrated session's reports + switch log over the socket
//          == the reference's migrated session == an *unmigrated*
//          single-manager run of the same patient (migration left no
//          trace in the computation).
//
// --await mode polls the aggregator until its merged snapshot reaches
// --min-windows (used by CI after killing and restarting the aggregator:
// it passes only once the shard publishers have redialed and
// republished).
//
// Usage:
//   fleet_frontend --verify  <shard0-ep> <shard1-ep> <aggregator-ep|->
//   fleet_frontend --await   <aggregator-ep> [--min-windows N]
//                            [--timeout-s S]
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "fleet_common.hpp"
#include "qpsa/net/ingest_client.hpp"
#include "qpsa/physio/patients.hpp"
#include "qpsa/util/random.hpp"

namespace {

using namespace qpsa;
namespace qp = physio;

struct cohort_member {
    qp::patient patient;
    qp::rr_record record;
    std::string token;
};

std::vector<cohort_member> make_cohort() {
    std::vector<cohort_member> cohort;
    for (unsigned i = 0; i < 6; ++i) {
        const auto group = i % 2 == 0 ? qp::cohort::healthy
                                      : qp::cohort::sinus_arrhythmia;
        auto patient = qp::make_patient(group, i);
        auto record = qp::record_for(patient, 900.0);
        cohort.push_back({std::move(patient), std::move(record),
                          i % 2 == 0 ? "plain" : "governed"});
    }
    return cohort;
}

bool reports_equal(std::span<const core::window_report> a,
                   std::span<const core::window_report> b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i])) return false;
    return true;
}

/// `got` (merged from shard processes) equals the in-process router's
/// `want` in every column except the drain-scheduler ones: the router
/// drains both shards in one pass on one pool, so its lane groups fill
/// across shards (never emptier than two processes draining apart) and
/// its workers steal.
bool matches_reference(service::fleet_snapshot got,
                       service::fleet_snapshot want) {
    if (got.lane_slots_filled > want.lane_slots_filled) return false;
    for (service::fleet_snapshot* snap : {&got, &want}) {
        snap->windows_stolen = 0;
        snap->lane_slots_filled = 0;
        snap->lane_slots_offered = 0;
    }
    return got == want;
}

int run_verify(const std::string& shard0, const std::string& shard1,
               const std::string& agg_ep) {
    // --- socket tier -----------------------------------------------------
    net::ingest_client_options copt;
    copt.shards = {net::endpoint::parse(shard0),
                   net::endpoint::parse(shard1)};
    net::ingest_client client(copt);
    client.connect();

    // --- in-process reference: same placement, seeds, determinism -------
    service::router_options ropt;
    ropt.shards = 2;
    ropt.shard.threads = 1;
    service::plan_cache cache;
    service::shard_router ref(ropt, &cache);

    const auto cohort = make_cohort();
    std::vector<std::uint64_t> ids;
    for (const auto& m : cohort) {
        const std::uint64_t gid = client.add_session(m.patient.id, m.token);
        const std::uint64_t rid =
            ref.add_session(fleet_demo::make_config(m.token, m.patient.id));
        if (gid != rid) {
            std::cerr << "verify: global id mismatch (" << gid
                      << " != " << rid << ")\n";
            return 1;
        }
        if (client.shard_of(gid) != ref.shard_of(rid)) {
            std::cerr << "verify: placement diverged for " << m.patient.id
                      << "\n";
            return 1;
        }
        ids.push_back(gid);
    }

    // Phase 1: first half of every record, then a drain barrier.
    for (std::size_t s = 0; s < cohort.size(); ++s) {
        const auto& rec = cohort[s].record;
        for (std::size_t i = 0; i < rec.beats() / 2; ++i) {
            client.ingest(ids[s], rec.beat_time_s[i], rec.rr_s[i]);
            ref.ingest(ids[s], rec.beat_time_s[i], rec.rr_s[i]);
        }
    }
    client.flush();
    ref.drain_all();

    // Mid-stream migration of a governed session to the other shard --
    // over the socket (state serialized through migrate_out/adopt) and
    // in-process in the reference.
    const std::uint64_t moving = ids[1];  // governed token
    const std::size_t target = 1 - client.shard_of(moving);
    client.migrate(moving, target);
    ref.migrate_session(moving, target);

    // Phase 2: the rest of every record, final barrier.
    for (std::size_t s = 0; s < cohort.size(); ++s) {
        const auto& rec = cohort[s].record;
        for (std::size_t i = rec.beats() / 2; i < rec.beats(); ++i) {
            client.ingest(ids[s], rec.beat_time_s[i], rec.rr_s[i]);
            ref.ingest(ids[s], rec.beat_time_s[i], rec.rr_s[i]);
        }
    }
    client.flush();
    ref.drain_all();

    // --- check 1: merged shard stats == in-process router, exactly ------
    const service::fleet_snapshot want = ref.fleet();
    const service::fleet_snapshot got = client.merged_stats();
    if (!matches_reference(got, want)) {
        std::cerr << "verify: FAILED -- socket-merged snapshot differs from "
                     "in-process router (windows "
                  << got.windows << " vs " << want.windows << ")\n";
        return 1;
    }

    // --- check 2: migrated session computed bit-identically --------------
    const net::session_report moved = client.query_session(moving);
    const auto& ref_session = ref.at(moving);
    if (!moved.found ||
        !reports_equal(moved.reports, ref_session.reports()) ||
        moved.switch_log.size() != ref_session.switch_log().size()) {
        std::cerr << "verify: FAILED -- migrated session diverged from "
                     "reference\n";
        return 1;
    }

    // ...and from an *unmigrated* single-manager run of the same patient
    // with the same seed: migration must leave no trace.
    service::service_options sopt;
    sopt.threads = 1;
    service::plan_cache solo_cache;
    service::session_manager solo(sopt, &solo_cache);
    auto solo_cfg =
        fleet_demo::make_config(cohort[1].token, cohort[1].patient.id);
    solo_cfg.seed = util::derive_stream_seed(copt.base_seed, moving);
    const std::uint64_t solo_id = solo.add_session(std::move(solo_cfg));
    for (std::size_t i = 0; i < cohort[1].record.beats(); ++i)
        solo.ingest(solo_id, cohort[1].record.beat_time_s[i],
                    cohort[1].record.rr_s[i]);
    solo.drain_all();
    if (!reports_equal(moved.reports, solo.at(solo_id).reports())) {
        std::cerr << "verify: FAILED -- migrated session diverged from "
                     "unmigrated run\n";
        return 1;
    }

    // --- check 3: the aggregator converges to the same merged view ------
    if (agg_ep != "-") {
        net::socket_conn agg = net::dial(net::endpoint::parse(agg_ep));
        agg.send_frame(net::msg_type::hello,
                       net::hello_body(net::peer_role::query, 0, 1));

        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(15);
        bool converged = false;
        while (std::chrono::steady_clock::now() < deadline) {
            agg.send_frame(net::msg_type::stats_query, {});
            const auto reply = agg.recv_frame();
            if (!reply || reply->type != net::msg_type::stats_reply) break;
            const auto merged =
                service::fleet_snapshot::deserialize(reply->body);
            if (matches_reference(merged, want)) {
                converged = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (!converged) {
            std::cerr << "verify: FAILED -- aggregator never matched the "
                         "in-process merge\n";
            return 1;
        }
    }

    std::cout << "verify: OK windows=" << want.windows
              << " beats=" << want.beats
              << " mode_switches=" << want.mode_switches
              << " migrated_in=" << want.sessions_migrated_in
              << " migrated_out=" << want.sessions_migrated_out
              << " moved_session_reports=" << moved.reports.size()
              << std::endl;
    client.close();
    return 0;
}

int run_await(const std::string& agg_ep, std::uint64_t min_windows,
              int timeout_s) {
    net::socket_conn agg = net::dial(net::endpoint::parse(agg_ep));
    agg.send_frame(net::msg_type::hello,
                   net::hello_body(net::peer_role::query, 0, 1));

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
        agg.send_frame(net::msg_type::stats_query, {});
        const auto reply = agg.recv_frame();
        if (!reply || reply->type != net::msg_type::stats_reply) break;
        const auto merged = service::fleet_snapshot::deserialize(reply->body);
        if (merged.windows >= min_windows) {
            std::cout << "await: OK windows=" << merged.windows << std::endl;
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cerr << "await: FAILED -- aggregator below " << min_windows
              << " windows after " << timeout_s << "s\n";
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc >= 5 && std::strcmp(argv[1], "--verify") == 0)
            return run_verify(argv[2], argv[3], argv[4]);
        if (argc >= 3 && std::strcmp(argv[1], "--await") == 0) {
            std::uint64_t min_windows = 1;
            int timeout_s = 15;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--min-windows") == 0 && i + 1 < argc)
                    min_windows =
                        static_cast<std::uint64_t>(std::atoll(argv[++i]));
                else if (std::strcmp(argv[i], "--timeout-s") == 0 &&
                         i + 1 < argc)
                    timeout_s = std::atoi(argv[++i]);
            }
            return run_await(argv[2], min_windows, timeout_s);
        }
    } catch (const std::exception& e) {
        std::cerr << "fleet_frontend: " << e.what() << std::endl;
        return 1;
    }
    std::cerr << "usage:\n"
                 "  fleet_frontend --verify <shard0-ep> <shard1-ep> "
                 "<aggregator-ep|->\n"
                 "  fleet_frontend --await <aggregator-ep> "
                 "[--min-windows N] [--timeout-s S]\n";
    return 2;
}
