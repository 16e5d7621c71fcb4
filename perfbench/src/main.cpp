// qpsa perf ledger: runs one named workload in this process and prints,
// as its last stdout line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A "provenance" line before it records the host.
//
//   qpsa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--perturb-reference] [--work-dir <dir>]
//                  [--rev <git revision>] [--source-digest <hex>]
//
// Exit status: 0 when every window matched its serial reference, 1 when
// the correctness gate failed (the result is still printed), 2 on usage
// or run errors (no result printed).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "ledger.hpp"
#include "qpsa/simd/isa.hpp"
#include "workload.hpp"

namespace {

using perfbench::metric;
using perfbench::run_options;
using perfbench::run_result;

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

std::string result_json(const run_result& r) {
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const metric& m : r.metrics.items()) {
        if (!first) out += ", ";
        first = false;
        out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}}";
}

std::string provenance_json(const run_options& o, const run_result& r,
                            const std::string& rev, const std::string& digest) {
    std::string out = "{";
    out += "\"workload\": " + json_string(o.workload);
    out += ", \"seed\": " + std::to_string(o.seed);
    out += ", \"seconds\": " + json_number(o.seconds);
    out += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
    out += ", \"tiny\": " + std::string(o.tiny ? "true" : "false");
    out += ", \"isa\": " +
           json_string(qpsa::simd::isa_name(qpsa::simd::active_isa()));
    out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
    out += ", \"workers_per_shard\": " + std::to_string(r.workers);
    out += ", \"shards\": " + std::to_string(r.shards);
    out += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
    out += ", \"git_rev\": " + json_string(rev);
    out += ", \"source_digest\": " + json_string(digest);
    return out + "}";
}

int usage(const char* msg) {
    std::fprintf(stderr, "qpsa_perfbench: %s\n", msg);
    std::fprintf(stderr,
                 "usage: qpsa_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--perturb-reference] [--work-dir <dir>] "
                 "[--rev <rev>] [--source-digest <hex>]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    run_options opt;
    std::string rev = "unknown", digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--tiny") {
            opt.tiny = true;
        } else if (a == "--perturb-reference") {
            opt.perturb_reference = true;
        } else if (!has_value) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--work-dir") {
            opt.work_dir = argv[++i];
        } else if (a == "--rev") {
            rev = argv[++i];
        } else if (a == "--source-digest") {
            digest = argv[++i];
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    bool known = false;
    for (const std::string& name : perfbench::workload_names())
        known = known || name == opt.workload;
    if (!known) return usage("unknown or missing --workload");
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

    try {
        const run_result r = perfbench::run_ledger(opt);
        const std::string prov = provenance_json(opt, r, rev, digest);
        const std::string res = result_json(r);
        const std::filesystem::path out =
            std::filesystem::path(opt.work_dir) /
            (opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
             (opt.trace ? "1" : "0") + ".json");
        if (std::FILE* f = std::fopen(out.string().c_str(), "w")) {
            std::fprintf(f, "{\"provenance\": %s, \"result\": %s}\n", prov.c_str(),
                         res.c_str());
            std::fclose(f);
        }
        std::printf("provenance %s\n%s\n", prov.c_str(), res.c_str());
        std::fflush(stdout);
        return r.correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qpsa_perfbench: run failed: %s\n", e.what());
        return 2;
    }
}
