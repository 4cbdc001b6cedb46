#include "serve/loadgen.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ir/parser.h"
#include "pibe/engine.h"
#include "runtime/artifact_cache.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/logging.h"
#include "support/rng.h"
#include "workload/workload.h"

namespace pibe::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** One scheduled request (immutable once built). */
struct ScheduledRequest
{
    std::string op;
    Json params;
    std::string signature; ///< Canonical op+params (dedup key).
};

/** Image variants the mix draws from (index = variant id). */
Json
variantParams(uint32_t variant)
{
    Json params = Json::object();
    switch (variant % 4) {
    case 0:
        params.set("defense", std::string("all"));
        break;
    case 1:
        params.set("defense", std::string("retpolines"));
        params.set("icp_budget", 0.99);
        break;
    case 2:
        params.set("defense", std::string("none"));
        break;
    default:
        params.set("defense", std::string("jumpswitches"));
        params.set("icp_budget", 0.95);
        params.set("lax", true);
        break;
    }
    return params;
}

std::vector<ScheduledRequest>
buildSchedule(const LoadgenOptions& opts,
              const std::vector<std::string>& workloads)
{
    const uint32_t variants =
        std::clamp<uint32_t>(opts.image_variants, 1, 4);
    Rng rng(opts.seed);
    std::vector<ScheduledRequest> schedule;
    schedule.reserve(opts.requests);
    for (uint32_t i = 0; i < opts.requests; ++i) {
        ScheduledRequest req;
        Json params = variantParams(
            static_cast<uint32_t>(rng.below(variants)));
        const double roll = rng.uniform();
        if (roll < 0.70) {
            req.op = "measure";
            params.set("workload",
                       workloads[rng.below(workloads.size())]);
        } else if (roll < 0.90) {
            req.op = "optimize";
        } else {
            req.op = "check";
        }
        req.signature = req.op + " " + params.dump();
        req.params = std::move(params);
        schedule.push_back(std::move(req));
    }
    return schedule;
}

/** Everything one pass produces. */
struct PassResult
{
    std::vector<double> latency_ms; ///< One entry per request.
    uint64_t failures = 0;
    double wall_s = 0;
};

/** Shared across the pass's client threads. */
struct PassState
{
    std::mutex mu;
    PassResult result;
    /** signature -> measure bit pattern; divergence = nondeterminism. */
    std::map<std::string, std::string>* bits_by_signature;
    uint64_t* bit_mismatches;
    std::vector<std::string>* errors; ///< First few, for the report.
};

Client
connect(const LoadgenOptions& opts)
{
    Client client;
    if (!opts.socket_path.empty() &&
        client.connectUnix(opts.socket_path))
        return client;
    if (opts.tcp_port >= 0 &&
        client.connectTcp(static_cast<uint16_t>(opts.tcp_port))) {
        if (!opts.auth_token.empty() &&
            !client.authenticate(opts.auth_token))
            client.close();
        return client;
    }
    return client;
}

void
clientWorker(const LoadgenOptions& opts,
             const std::vector<ScheduledRequest>& schedule,
             uint32_t client_id, PassState* state)
{
    Client client = connect(opts);
    std::vector<double> latencies;
    std::vector<std::pair<std::string, std::string>> bits;
    std::vector<std::string> errors;
    uint64_t failures = 0;
    for (size_t i = client_id; i < schedule.size();
         i += opts.clients) {
        const ScheduledRequest& req = schedule[i];
        if (!client.connected()) {
            client = connect(opts);
            if (!client.connected()) {
                ++failures;
                if (errors.size() < 5)
                    errors.push_back("connect failed");
                continue;
            }
        }
        const Clock::time_point t0 = Clock::now();
        std::string error;
        std::optional<Json> result =
            client.callOk(req.op, req.params, &error);
        latencies.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count());
        if (!result) {
            ++failures;
            if (errors.size() < 5)
                errors.push_back(req.signature + ": " + error);
            continue;
        }
        if (req.op == "measure")
            bits.emplace_back(req.signature,
                              (*result)["latency_bits"].asString() +
                                  ":" +
                                  (*result)["ops_bits"].asString());
    }
    std::lock_guard<std::mutex> lock(state->mu);
    state->result.latency_ms.insert(state->result.latency_ms.end(),
                                    latencies.begin(),
                                    latencies.end());
    state->result.failures += failures;
    for (const std::string& e : errors)
        if (state->errors->size() < 10)
            state->errors->push_back(e);
    for (auto& [sig, b] : bits) {
        auto [it, inserted] =
            state->bits_by_signature->emplace(sig, b);
        if (!inserted && it->second != b)
            ++*state->bit_mismatches;
    }
}

PassResult
runPass(const LoadgenOptions& opts,
        const std::vector<ScheduledRequest>& schedule,
        std::map<std::string, std::string>* bits_by_signature,
        uint64_t* bit_mismatches, std::vector<std::string>* errors)
{
    PassState state;
    state.bits_by_signature = bits_by_signature;
    state.bit_mismatches = bit_mismatches;
    state.errors = errors;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < opts.clients; ++c)
        threads.emplace_back(clientWorker, std::cref(opts),
                             std::cref(schedule), c, &state);
    for (auto& t : threads)
        t.join();
    state.result.wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return std::move(state.result);
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[idx];
}

Json
passJson(const std::string& name, const PassResult& pass)
{
    std::vector<double> sorted = pass.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    double total = 0;
    for (double ms : sorted)
        total += ms;
    Json json = Json::object();
    json.set("name", name);
    json.set("requests", static_cast<int64_t>(sorted.size()));
    json.set("failures", static_cast<int64_t>(pass.failures));
    json.set("p50_ms", percentile(sorted, 0.50));
    json.set("p99_ms", percentile(sorted, 0.99));
    json.set("mean_ms",
             sorted.empty() ? 0.0
                            : total / static_cast<double>(sorted.size()));
    json.set("wall_s", pass.wall_s);
    json.set("throughput_rps",
             pass.wall_s > 0
                 ? static_cast<double>(sorted.size()) / pass.wall_s
                 : 0.0);
    return json;
}

/**
 * Recompute up to `opts.verify` sampled measure signatures in-process
 * through the staged engine entry points (the daemon's exact code
 * path) and demand bit-identical agreement with the daemon's answers.
 */
uint64_t
verifyInProcess(const LoadgenOptions& opts, Client& client,
                const std::vector<ScheduledRequest>& schedule,
                const std::map<std::string, std::string>&
                    bits_by_signature)
{
    std::string error;
    std::optional<Json> pong =
        client.callOk("ping", Json::object(), &error);
    if (!pong) {
        warn("loadgen: verify skipped, ping failed: ", error);
        return 0;
    }
    kernel::KernelConfig cfg;
    cfg.num_drivers =
        static_cast<uint32_t>((*pong)["drivers"].asInt(cfg.num_drivers));
    cfg.seed = static_cast<uint64_t>((*pong)["seed"].asInt(cfg.seed));
    const uint32_t profile_iters = static_cast<uint32_t>(
        (*pong)["profile_iters"].asInt(120));

    runtime::ArtifactCache cache; // local, memory-only
    const std::string kernel_text =
        core::kernelTextCached(cfg, &cache);
    const ir::Module kernel = ir::parseModule(kernel_text);
    const kernel::KernelInfo info =
        kernel::kernelInfoFromModule(kernel);
    profile::EdgeProfile profile;
    const std::string profile_text = core::profileTextCached(
        kernel_text, kernel, info, profile_iters, &cache, &profile);

    uint64_t mismatches = 0;
    uint32_t checked = 0;
    std::map<std::string, bool> seen;
    for (const ScheduledRequest& req : schedule) {
        if (checked >= opts.verify)
            break;
        if (req.op != "measure" || seen.count(req.signature))
            continue;
        seen[req.signature] = true;
        auto daemon_bits = bits_by_signature.find(req.signature);
        if (daemon_bits == bits_by_signature.end())
            continue; // that request never succeeded

        core::OptConfig opt;
        std::string opt_error;
        if (!optConfigFromJson(req.params, &opt, &opt_error)) {
            warn("loadgen: verify cannot parse params: ", opt_error);
            continue;
        }
        std::optional<harden::DefenseConfig> defense =
            harden::defenseByName(req.params["defense"].asString());
        if (!defense)
            continue;
        const std::string image_text = core::imageTextCached(
            kernel_text, kernel, profile_text, profile, opt, *defense,
            &cache);
        const ir::Module image = ir::parseModule(image_text);
        const kernel::KernelInfo image_info =
            kernel::kernelInfoFromModule(image);
        auto decoded =
            std::make_shared<const uarch::DecodedModule>(image);
        const core::Measurement m = core::measureWorkloadCached(
            image_text, decoded, image_info,
            req.params["workload"].asString(), core::MeasureConfig{},
            &cache);
        const std::string local_bits =
            std::to_string(std::bit_cast<uint64_t>(m.latency_us)) +
            ":" +
            std::to_string(std::bit_cast<uint64_t>(m.ops_per_sec));
        ++checked;
        if (local_bits != daemon_bits->second) {
            ++mismatches;
            warn("loadgen: verify mismatch on ", req.signature,
                 " (daemon ", daemon_bits->second, ", local ",
                 local_bits, ")");
        }
    }
    inform("loadgen: verified ", checked,
           " measure results in-process, ", mismatches, " mismatches");
    return mismatches;
}

} // namespace

int
runLoadgen(const LoadgenOptions& opts)
{
    // Workload pool: a deterministic subset of the LMBench suite so
    // unique (image, workload) pairs stay bounded while the mix still
    // exercises coalescing and the cache.
    std::vector<std::string> all_names;
    for (const auto& wl : workload::makeLmbenchSuite())
        all_names.push_back(wl->name());
    Rng pick(opts.seed ^ 0x10adull);
    std::vector<std::string> workloads;
    while (workloads.size() < 6 && workloads.size() < all_names.size()) {
        const std::string& name =
            all_names[pick.below(all_names.size())];
        if (std::find(workloads.begin(), workloads.end(), name) ==
            workloads.end())
            workloads.push_back(name);
    }

    const std::vector<ScheduledRequest> schedule =
        buildSchedule(opts, workloads);
    inform("loadgen: ", schedule.size(), " requests x 2 passes, ",
           opts.clients, " clients, ",
           std::min<uint32_t>(opts.image_variants, 4),
           " image variants");

    std::map<std::string, std::string> bits_by_signature;
    uint64_t bit_mismatches = 0;
    std::vector<std::string> errors;

    PassResult cold = runPass(opts, schedule, &bits_by_signature,
                              &bit_mismatches, &errors);
    inform("loadgen: cold pass done (", cold.failures, " failures, ",
           cold.wall_s, " s)");
    PassResult warm = runPass(opts, schedule, &bits_by_signature,
                              &bit_mismatches, &errors);
    inform("loadgen: warm pass done (", warm.failures, " failures, ",
           warm.wall_s, " s)");

    Client control = connect(opts);
    uint64_t verify_mismatches = 0;
    if (opts.verify > 0 && control.connected())
        verify_mismatches = verifyInProcess(opts, control, schedule,
                                            bits_by_signature);

    Json report = Json::object();
    report.set("tool", std::string("pibe loadgen"));
    report.set("requests_per_pass",
               static_cast<int64_t>(schedule.size()));
    report.set("clients", static_cast<int64_t>(opts.clients));
    report.set("seed", static_cast<int64_t>(opts.seed));
    Json passes = Json::array();
    passes.push(passJson("cold", cold));
    passes.push(passJson("warm", warm));
    report.set("passes", passes);
    report.set("failures",
               static_cast<int64_t>(cold.failures + warm.failures));
    report.set("bit_mismatches",
               static_cast<int64_t>(bit_mismatches));
    report.set("verified_in_process",
               static_cast<int64_t>(opts.verify));
    report.set("verify_mismatches",
               static_cast<int64_t>(verify_mismatches));
    if (!errors.empty()) {
        Json errs = Json::array();
        for (const std::string& e : errors)
            errs.push(e);
        report.set("errors", errs);
    }
    if (control.connected()) {
        std::string error;
        if (std::optional<Json> metrics =
                control.callOk("metrics", Json::object(), &error))
            report.set("server_metrics", *metrics);
    }

    if (!opts.out_path.empty()) {
        std::ofstream out(opts.out_path);
        out << report.dump() << "\n";
        if (out.good())
            inform("loadgen: wrote ", opts.out_path);
        else
            warn("loadgen: failed writing ", opts.out_path);
    }

    const bool ok = cold.failures == 0 && warm.failures == 0 &&
                    bit_mismatches == 0 && verify_mismatches == 0;
    inform("loadgen: ", ok ? "PASS" : "FAIL", " (cold p50 ",
           passJson("cold", cold)["p50_ms"].asDouble(), " ms, warm p50 ",
           passJson("warm", warm)["p50_ms"].asDouble(), " ms)");
    return ok ? 0 : 1;
}

} // namespace pibe::serve
