// fleet_shard_node -- one shard process of the distributed fleet.
//
// Owns a session_manager behind an ingest_server (admits, beat batches,
// flush barriers, migration, queries -- see qpsa::net) and publishes the
// shard's snapshot to the aggregator on a cadence, with global-id rows,
// so the aggregator's merge is bit-identical to an in-process sharded
// fleet.  The publisher redials with exponential backoff, so the shard
// survives aggregator restarts (CI kills and restarts the aggregator
// under it and asserts the view reassembles).
//
// Usage: fleet_shard_node <listen-endpoint> <aggregator-endpoint|->
//          --shard-index K --shard-count N
//          [--threads T] [--cadence-ms C]
//
//   aggregator '-' disables publishing (ingest/query only).
//
// Deterministic by construction: the manager drains only on flush
// frames and runs threads = 1 by default, so the windows a front-end's
// flush produces are bit-identical to the same sequence against an
// in-process manager.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <thread>

#include "fleet_common.hpp"
#include "qpsa/net/ingest_server.hpp"
#include "qpsa/net/snapshot_publisher.hpp"

namespace {
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }
}  // namespace

int main(int argc, char** argv) {
    using namespace qpsa;
    if (argc < 3) {
        std::cerr << "usage: fleet_shard_node <listen-endpoint> "
                     "<aggregator-endpoint|-> --shard-index K "
                     "--shard-count N [--threads T] [--cadence-ms C]\n";
        return 2;
    }

    try {
        net::ingest_server_options opt;
        opt.listen = net::endpoint::parse(argv[1]);
        opt.service.threads = 1;
        int cadence_ms = 25;
        const bool publish = std::strcmp(argv[2], "-") != 0;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--shard-index") == 0 && i + 1 < argc)
                opt.shard_index =
                    static_cast<std::uint32_t>(std::atoi(argv[++i]));
            else if (std::strcmp(argv[i], "--shard-count") == 0 &&
                     i + 1 < argc)
                opt.shard_count =
                    static_cast<std::uint32_t>(std::atoi(argv[++i]));
            else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
                opt.service.threads =
                    static_cast<std::size_t>(std::atoi(argv[++i]));
            else if (std::strcmp(argv[i], "--cadence-ms") == 0 &&
                     i + 1 < argc)
                cadence_ms = std::atoi(argv[++i]);
        }

        std::signal(SIGINT, on_signal);
        std::signal(SIGTERM, on_signal);

        net::ingest_server server(opt, fleet_demo::make_config);
        server.start();
        std::cout << "shard " << opt.shard_index << "/" << opt.shard_count
                  << " listening on " << server.local().to_string()
                  << std::endl;

        std::unique_ptr<net::snapshot_publisher> pub;
        if (publish) {
            net::publisher_options popt;
            popt.aggregator = net::endpoint::parse(argv[2]);
            popt.shard_index = opt.shard_index;
            popt.shard_count = opt.shard_count;
            popt.cadence_ms = cadence_ms;
            pub = std::make_unique<net::snapshot_publisher>(
                popt, [&server] { return server.manager().fleet(); });
            pub->start();
        }

        while (!g_stop.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(50));

        if (pub) pub->stop();
        std::cout << "shard " << opt.shard_index << " exiting: admits="
                  << server.admits() << " beats=" << server.beats_ingested()
                  << " windows=" << server.manager().fleet().windows
                  << (pub ? " published=" +
                                std::to_string(pub->snapshots_published()) +
                                " reconnects=" +
                                std::to_string(pub->reconnects())
                          : std::string{})
                  << std::endl;
        server.stop();
    } catch (const std::exception& e) {
        std::cerr << "fleet_shard_node: " << e.what() << std::endl;
        return 1;
    }
    return 0;
}
