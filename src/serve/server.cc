#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "check/checks.h"
#include "ir/parser.h"
#include "serve/protocol.h"
#include "support/logging.h"
#include "workload/workload.h"

namespace pibe::serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Decoded images kept hot in the registry (LRU beyond this). */
constexpr size_t kMaxDecodedImages = 16;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Strict non-negative integer parse ("" and junk rejected). */
std::optional<uint64_t>
parseUint(const std::string& s)
{
    if (s.empty())
        return std::nullopt;
    uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        if (v > (UINT64_MAX - (c - '0')) / 10)
            return std::nullopt;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    return v;
}

/**
 * Parse PIR text the daemon read from `cache`. Bad text (a corrupt
 * artifact) is counted in CacheStats::corrupt and becomes an exception
 * that the job graph and batcher carry to the request, which answers
 * with an error response; the daemon keeps serving.
 */
std::unique_ptr<ir::Module>
parsedOrThrow(const std::string& text, const char* what,
              runtime::ArtifactCache& cache)
{
    ir::ParseResult parsed = ir::tryParseModule(text);
    if (!parsed.module) {
        cache.noteCorrupt();
        throw std::runtime_error(std::string(what) +
                                 " text: " + parsed.error);
    }
    return std::make_unique<ir::Module>(std::move(*parsed.module));
}

/**
 * The kernel handles of a module the daemon parsed from `cache`. A
 * module that is not a synthetic kernel (say, an empty artifact) is
 * corrupt, with parsedOrThrow()'s policy.
 */
kernel::KernelInfo
kernelInfoOrThrow(const ir::Module& module, const char* what,
                  runtime::ArtifactCache& cache)
{
    kernel::KernelInfoResult r = kernel::tryKernelInfoFromModule(module);
    if (!r.info) {
        cache.noteCorrupt();
        throw std::runtime_error(std::string(what) + ": " + r.error);
    }
    return *r.info;
}

/** RAII pairing for the gate + inflight metrics gauge. */
class Admission
{
  public:
    Admission(AdmissionGate& gate, ServeMetrics& metrics)
        : gate_(gate), metrics_(metrics)
    {
        metrics_.recordAdmissionWait(gate_.acquire());
        metrics_.enterRequest();
    }

    ~Admission()
    {
        metrics_.leaveRequest();
        gate_.release();
    }

  private:
    AdmissionGate& gate_;
    ServeMetrics& metrics_;
};

} // namespace

// ---------------------------------------------------------------------
// Shared param parsing (daemon and loadgen --verify).

bool
optConfigFromJson(const Json& params, core::OptConfig* out,
                  std::string* error)
{
    core::OptConfig opt;
    if (params.has("icp_budget")) {
        const double v = params["icp_budget"].asDouble(-1);
        if (!(v >= 0 && v <= 1)) {
            *error = "icp_budget must be in [0, 1]";
            return false;
        }
        opt.icp_budget = v;
    }
    if (params.has("inline_budget")) {
        const double v = params["inline_budget"].asDouble(-1);
        if (!(v >= 0 && v <= 1)) {
            *error = "inline_budget must be in [0, 1]";
            return false;
        }
        opt.inline_budget = v;
    }
    opt.lax_heuristics = params["lax"].asBool(false);
    if (params.has("inliner")) {
        const std::string& name = params["inliner"].asString();
        if (name == "pibe")
            opt.inliner = core::InlinerKind::kPibe;
        else if (name == "default")
            opt.inliner = core::InlinerKind::kDefaultLlvm;
        else if (name == "none")
            opt.inliner = core::InlinerKind::kNone;
        else {
            *error = "unknown inliner '" + name +
                     "' (expected pibe, default, none)";
            return false;
        }
    }
    *out = opt;
    return true;
}

// ---------------------------------------------------------------------
// AdmissionGate

double
AdmissionGate::acquire()
{
    const Clock::time_point t0 = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return inflight_ < limit_; });
    ++inflight_;
    return msSince(t0);
}

void
AdmissionGate::release()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
    }
    cv_.notify_one();
}

void
AdmissionGate::setLimit(unsigned limit)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        limit_ = limit;
    }
    cv_.notify_all();
}

unsigned
AdmissionGate::limit() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return limit_;
}

// ---------------------------------------------------------------------
// Server

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.jobs != 0 ? opts_.jobs
                            : std::max(1u,
                                       std::thread::
                                           hardware_concurrency())),
      gate_(opts_.max_inflight != 0
                ? opts_.max_inflight
                : 2 * static_cast<unsigned>(pool_.size())),
      default_defense_(opts_.default_defense),
      fail_on_(opts_.fail_on)
{
    PIBE_ASSERT(harden::defenseByName(default_defense_).has_value(),
                "serve: unknown default defense '", default_defense_,
                "'");
    PIBE_ASSERT(check::severityFromName(fail_on_).has_value(),
                "serve: unknown fail-on severity '", fail_on_, "'");
    if (!opts_.cache_dir.empty())
        cache_.setDiskDir(opts_.cache_dir);
    if (opts_.cache_budget != 0)
        cache_.setDiskBudget(opts_.cache_budget);
    if (opts_.mem_budget != 0)
        cache_.setMemoryBudget(opts_.mem_budget);
    for (const auto& wl : workload::makeLmbenchSuite())
        valid_workloads_.insert(wl->name());
    valid_workloads_.insert("nginx");
    valid_workloads_.insert("apache");
    valid_workloads_.insert("dbench");
    registerKnobs();
}

Server::~Server()
{
    requestStop();
    wait();
}

void
Server::registerKnobs()
{
    control_.registerKnob(
        "default_defense",
        "DefenseConfig applied to requests that name none "
        "(none|retpolines|ret-retpolines|lvi|all|jumpswitches)",
        [this] {
            std::lock_guard<std::mutex> lock(knobs_mu_);
            return default_defense_;
        },
        [this](const std::string& v) -> std::optional<std::string> {
            if (!harden::defenseByName(v))
                return "unknown defense '" + v + "'";
            std::lock_guard<std::mutex> lock(knobs_mu_);
            default_defense_ = v;
            return std::nullopt;
        });
    control_.registerKnob(
        "fail_on",
        "severity at or above which `check` requests fail "
        "(note|warn|error)",
        [this] {
            std::lock_guard<std::mutex> lock(knobs_mu_);
            return fail_on_;
        },
        [this](const std::string& v) -> std::optional<std::string> {
            if (!check::severityFromName(v))
                return "unknown severity '" + v + "'";
            std::lock_guard<std::mutex> lock(knobs_mu_);
            fail_on_ = v;
            return std::nullopt;
        });
    control_.registerKnob(
        "max_inflight",
        "heavy requests admitted concurrently (job limit)",
        [this] { return std::to_string(gate_.limit()); },
        [this](const std::string& v) -> std::optional<std::string> {
            std::optional<uint64_t> n = parseUint(v);
            if (!n || *n == 0 || *n > 1u << 16)
                return "max_inflight must be in [1, 65536]";
            gate_.setLimit(static_cast<unsigned>(*n));
            return std::nullopt;
        });
    control_.registerKnob(
        "cache_budget",
        "disk cache LRU budget in bytes (0 = unlimited)",
        [this] {
            std::lock_guard<std::mutex> lock(knobs_mu_);
            return std::to_string(opts_.cache_budget);
        },
        [this](const std::string& v) -> std::optional<std::string> {
            std::optional<uint64_t> n = parseUint(v);
            if (!n)
                return "cache_budget must be a byte count";
            {
                std::lock_guard<std::mutex> lock(knobs_mu_);
                opts_.cache_budget = *n;
            }
            cache_.setDiskBudget(*n);
            return std::nullopt;
        });
}

Server::ContextPtr
Server::context()
{
    {
        std::lock_guard<std::mutex> lock(ctx_mu_);
        if (ctx_)
            return ctx_;
    }
    // Single-flight: the first request builds the kernel and its
    // training profile (through the cache) as a job graph on the
    // shared pool; concurrent first-requests wait for that flight.
    return context_flight_.run("context", [this]() -> ContextPtr {
        auto ctx = std::make_shared<Context>();
        runtime::JobGraph graph;
        const runtime::JobId kernel_job = graph.add(
            "serve:kernel", [&](const runtime::JobContext&) {
                ctx->kernel_text =
                    core::kernelTextCached(opts_.kernel, &cache_);
                ctx->kernel =
                    parsedOrThrow(ctx->kernel_text, "kernel", cache_);
                ctx->info =
                    kernelInfoOrThrow(*ctx->kernel, "kernel", cache_);
            });
        graph.add(
            "serve:profile",
            [&](const runtime::JobContext&) {
                ctx->profile_text = core::profileTextCached(
                    ctx->kernel_text, *ctx->kernel, ctx->info,
                    opts_.profile_base_iters, &cache_, &ctx->profile);
            },
            {kernel_job});
        graph.run(pool_);
        std::lock_guard<std::mutex> lock(ctx_mu_);
        ctx_ = ctx;
        return ctx_;
    });
}

harden::DefenseConfig
Server::defenseFromParams(const Json& params, std::string* error)
{
    std::string name = params["defense"].asString();
    if (name.empty()) {
        std::lock_guard<std::mutex> lock(knobs_mu_);
        name = default_defense_;
    }
    std::optional<harden::DefenseConfig> defense =
        harden::defenseByName(name);
    if (!defense) {
        *error = "unknown defense '" + name + "'";
        return {};
    }
    return *defense;
}

Server::ImagePtr
Server::imageFromRegistry(const std::string& key)
{
    std::lock_guard<std::mutex> lock(images_mu_);
    auto it = images_.find(key);
    if (it == images_.end())
        return nullptr;
    it->second.last_use = ++image_tick_;
    return it->second.entry;
}

void
Server::registerImage(ImagePtr entry)
{
    std::lock_guard<std::mutex> lock(images_mu_);
    ImageSlot& slot = images_[entry->key];
    slot.entry = std::move(entry);
    slot.last_use = ++image_tick_;
    while (images_.size() > kMaxDecodedImages) {
        auto oldest = images_.begin();
        for (auto it = images_.begin(); it != images_.end(); ++it)
            if (it->second.last_use < oldest->second.last_use)
                oldest = it;
        images_.erase(oldest);
    }
}

Server::ImagePtr
Server::resolveImage(const Json& params, std::string* error,
                     bool* coalesced)
{
    // Fast path: an explicit image key from a prior optimize.
    if (params.has("image")) {
        const std::string& key = params["image"].asString();
        if (ImagePtr entry = imageFromRegistry(key))
            return entry;
        *error = "unknown image key '" + key +
                 "' (evicted or never built here; re-optimize)";
        return nullptr;
    }

    core::OptConfig opt;
    if (!optConfigFromJson(params, &opt, error))
        return nullptr;
    harden::DefenseConfig defense = defenseFromParams(params, error);
    if (!error->empty())
        return nullptr;

    ContextPtr ctx = context();
    const std::string key = core::imageCacheKey(
        ctx->kernel_text, ctx->profile_text, opt, defense);
    if (ImagePtr entry = imageFromRegistry(key))
        return entry;

    BatchRole role = BatchRole::kLeader;
    ImagePtr entry = image_flight_.run(
        key,
        [&]() -> ImagePtr {
            auto built = std::make_shared<ImageEntry>();
            built->key = key;
            built->defense = defense;
            runtime::JobGraph graph;
            graph.add("serve:image:" + key,
                      [&](const runtime::JobContext&) {
                          built->text = core::imageTextCached(
                              ctx->kernel_text, *ctx->kernel,
                              ctx->profile_text, ctx->profile, opt,
                              defense, &cache_);
                          built->module = parsedOrThrow(
                              built->text, "image", cache_);
                          built->info = kernelInfoOrThrow(
                              *built->module, "image", cache_);
                          built->decoded = std::make_shared<
                              const uarch::DecodedModule>(
                              *built->module);
                      });
            graph.run(pool_);
            registerImage(built);
            return built;
        },
        &role);
    if (coalesced && role == BatchRole::kFollower)
        *coalesced = true;
    return entry;
}

Json
Server::handlePing(const Json&)
{
    Json result = Json::object();
    result.set("pong", true);
    result.set("jobs", static_cast<int64_t>(pool_.size()));
    result.set("drivers",
               static_cast<int64_t>(opts_.kernel.num_drivers));
    result.set("seed", static_cast<int64_t>(opts_.kernel.seed));
    result.set("profile_iters",
               static_cast<int64_t>(opts_.profile_base_iters));
    return result;
}

Json
Server::handleOptimize(const Json& params, bool* coalesced)
{
    Admission slot(gate_, metrics_);
    std::string error;
    ImagePtr entry = resolveImage(params, &error, coalesced);
    if (!entry)
        throw std::runtime_error(error);
    Json result = Json::object();
    result.set("image", entry->key);
    result.set("bytes", static_cast<int64_t>(entry->text.size()));
    result.set("functions",
               static_cast<int64_t>(entry->module->numFunctions()));
    result.set("defense", entry->defense.name());
    if (params["want_text"].asBool(false))
        result.set("text", entry->text);
    return result;
}

Json
Server::handleMeasure(const Json& params, bool* coalesced)
{
    Admission slot(gate_, metrics_);
    const std::string& workload = params["workload"].asString();
    if (valid_workloads_.count(workload) == 0)
        throw std::runtime_error("unknown workload '" + workload +
                                 "'");
    std::string error;
    ImagePtr entry = resolveImage(params, &error, coalesced);
    if (!entry)
        throw std::runtime_error(error);

    const core::MeasureConfig config;
    BatchRole role = BatchRole::kLeader;
    core::Measurement m = measure_flight_.run(
        "measure:" + entry->key + ":" + workload,
        [&]() -> core::Measurement {
            core::Measurement out;
            runtime::JobGraph graph;
            graph.add("serve:measure:" + workload,
                      [&](const runtime::JobContext&) {
                          out = core::measureWorkloadCached(
                              entry->text, entry->decoded,
                              entry->info, workload, config, &cache_);
                      });
            graph.run(pool_);
            return out;
        },
        &role);
    if (coalesced && role == BatchRole::kFollower)
        *coalesced = true;

    Json result = Json::object();
    result.set("image", entry->key);
    result.set("workload", workload);
    result.set("latency_us", m.latency_us);
    result.set("ops_per_sec", m.ops_per_sec);
    // Bit patterns ride along as decimal strings so clients can
    // assert bit-identical equality with a CLI run of the same
    // request (doubles also round-trip via %.17g, this is belt and
    // braces).
    result.set("latency_bits",
               std::to_string(std::bit_cast<uint64_t>(m.latency_us)));
    result.set("ops_bits",
               std::to_string(std::bit_cast<uint64_t>(m.ops_per_sec)));
    result.set("instructions",
               static_cast<int64_t>(m.stats.instructions));
    result.set("cycles", static_cast<int64_t>(m.stats.cycles));
    return result;
}

Json
Server::handleCheck(const Json& params, bool* coalesced)
{
    Admission slot(gate_, metrics_);
    std::string error;
    ImagePtr entry = resolveImage(params, &error, coalesced);
    if (!entry)
        throw std::runtime_error(error);

    std::string fail_name = params["fail_on"].asString();
    if (fail_name.empty()) {
        std::lock_guard<std::mutex> lock(knobs_mu_);
        fail_name = fail_on_;
    }
    std::optional<check::Severity> fail_on =
        check::severityFromName(fail_name);
    if (!fail_on)
        throw std::runtime_error("unknown fail_on severity '" +
                                 fail_name + "'");

    check::CheckOptions copts;
    copts.coverage = true;
    copts.defense = entry->defense;
    // The one shared gate (`runChecksWithPolicy`) guarantees the
    // daemon's verdict matches `pibe check --fail-on` exactly.
    check::CheckOutcome outcome =
        check::runChecksWithPolicy(*entry->module, copts, *fail_on);

    Json result = Json::object();
    result.set("image", entry->key);
    result.set("errors",
               static_cast<int64_t>(outcome.report.errors()));
    result.set("warnings",
               static_cast<int64_t>(outcome.report.warnings()));
    result.set("notes", static_cast<int64_t>(outcome.report.notes()));
    result.set("fail_on", fail_name);
    result.set("passed", outcome.passed);
    return result;
}

Json
Server::handleMetrics(const Json& params)
{
    const MetricsSnapshot snap = metrics_.snapshot(cache_.stats());
    if (params["format"].asString() == "text") {
        Json result = Json::object();
        result.set("text", snap.renderText());
        return result;
    }
    return snap.toJson();
}

Json
Server::handleConfig(const Json& params)
{
    const std::string& action = params["action"].asString();
    if (action == "list" || action.empty())
        return control_.list();
    const std::string& name = params["name"].asString();
    if (action == "get") {
        std::optional<std::string> value = control_.get(name);
        if (!value)
            throw std::runtime_error("unknown config knob '" + name +
                                     "'");
        Json result = Json::object();
        result.set("name", name);
        result.set("value", *value);
        return result;
    }
    if (action == "set") {
        const std::string& value = params["value"].asString();
        if (std::optional<std::string> err =
                control_.set(name, value))
            throw std::runtime_error(*err);
        Json result = Json::object();
        result.set("name", name);
        result.set("value", *control_.get(name));
        return result;
    }
    throw std::runtime_error("unknown config action '" + action +
                             "' (expected list, get, set)");
}

Json
Server::handle(const Json& request)
{
    const uint64_t id =
        static_cast<uint64_t>(request["id"].asInt(0));
    const std::string& op = request["op"].asString();
    const Json& params = request["params"];
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    bool coalesced = false;
    Json response;
    try {
        if (op == "ping") {
            response = makeResponse(id, handlePing(params));
        } else if (op == "auth") {
            // Reaching the dispatcher means the connection is already
            // trusted (unix socket, authed TCP, or no token set), so
            // auth is an idempotent success; clients may send it
            // unconditionally.
            Json result = Json::object();
            result.set("authenticated", true);
            response = makeResponse(id, result);
        } else if (op == "optimize") {
            response =
                makeResponse(id, handleOptimize(params, &coalesced));
        } else if (op == "measure") {
            response =
                makeResponse(id, handleMeasure(params, &coalesced));
        } else if (op == "check") {
            response =
                makeResponse(id, handleCheck(params, &coalesced));
        } else if (op == "metrics") {
            response = makeResponse(id, handleMetrics(params));
        } else if (op == "config") {
            response = makeResponse(id, handleConfig(params));
        } else if (op == "shutdown") {
            Json result = Json::object();
            result.set("stopping", true);
            response = makeResponse(id, result);
            requestStop();
        } else {
            ok = false;
            response = makeErrorResponse(
                id, "unknown op '" + op + "'");
        }
    } catch (const std::exception& e) {
        ok = false;
        response = makeErrorResponse(id, e.what());
    }
    metrics_.recordRequest(op.empty() ? "<none>" : op, ok,
                           msSince(t0), coalesced);
    return response;
}

MetricsSnapshot
Server::metricsSnapshot() const
{
    return metrics_.snapshot(cache_.stats());
}

// ---------------------------------------------------------------------
// Listener plumbing.

bool
Server::start()
{
    if (!opts_.socket_path.empty()) {
        const int fd = listenUnix(opts_.socket_path);
        if (fd >= 0) {
            listen_fds_.push_back(fd);
            inform("serve: listening on unix:", opts_.socket_path);
        }
    }
    if (opts_.tcp_port >= 0) {
        uint16_t port = 0;
        const int fd =
            listenTcp(static_cast<uint16_t>(opts_.tcp_port), &port);
        if (fd >= 0) {
            listen_fds_.push_back(fd);
            tcp_port_ = port;
            tcp_listen_fd_ = fd;
            inform("serve: listening on tcp:127.0.0.1:", port,
                   opts_.auth_token.empty() ? "" : " (token auth)");
        }
    }
    if (listen_fds_.empty()) {
        warn("serve: no listener could be bound");
        return false;
    }
    for (const int fd : listen_fds_) {
        const bool requires_auth =
            fd == tcp_listen_fd_ && !opts_.auth_token.empty();
        accept_threads_.emplace_back(
            [this, fd, requires_auth] { acceptLoop(fd, requires_auth); });
    }
    return true;
}

namespace {

/**
 * Length-leaking but content-constant-time comparison, so response
 * timing cannot be used to guess the token byte by byte.
 */
bool
tokenEquals(const std::string& a, const std::string& b)
{
    if (a.size() != b.size())
        return false;
    unsigned char acc = 0;
    for (size_t i = 0; i < a.size(); ++i)
        acc |= static_cast<unsigned char>(a[i]) ^
               static_cast<unsigned char>(b[i]);
    return acc == 0;
}

} // namespace

Json
Server::handleWithAuth(const Json& request, std::atomic<bool>& authed)
{
    if (authed.load(std::memory_order_acquire))
        return handle(request);
    const uint64_t id =
        static_cast<uint64_t>(request["id"].asInt(0));
    const std::string& op = request["op"].asString();
    if (op == "auth" &&
        tokenEquals(request["params"]["token"].asString(),
                    opts_.auth_token)) {
        authed.store(true, std::memory_order_release);
        metrics_.recordRequest("auth", true, 0.0, false);
        Json result = Json::object();
        result.set("authenticated", true);
        return makeResponse(id, result);
    }
    metrics_.recordAuthReject();
    return makeErrorResponse(
        id, "unauthorized: this listener requires a pre-shared token "
            "(send {\"op\":\"auth\",\"params\":{\"token\":...}} "
            "first)");
}

void
Server::acceptLoop(int listen_fd, bool requires_auth)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (shutdown) or fatal error
        }
        if (stop_requested_.load()) {
            ::close(fd);
            return;
        }
        metrics_.recordConnection();
        reapFinishedSessions();
        auto handle = std::make_unique<SessionHandle>();
        auto authed =
            std::make_shared<std::atomic<bool>>(!requires_auth);
        handle->session = std::make_unique<Session>(
            fd, [this, authed](const Json& req) {
                return this->handleWithAuth(req, *authed);
            });
        SessionHandle* raw = handle.get();
        handle->thread = std::thread([raw] {
            raw->session->run();
            raw->done.store(true, std::memory_order_release);
        });
        std::lock_guard<std::mutex> lock(sessions_mu_);
        sessions_.push_back(std::move(handle));
    }
}

void
Server::reapFinishedSessions()
{
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            (*it)->thread.join();
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::requestStop()
{
    stop_requested_.store(true);
}

void
Server::wait()
{
    while (!stop_requested_.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true))
        return; // another caller already tore down

    // Grace so an in-flight `shutdown` response reaches its client
    // before the socket is yanked.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    for (const int fd : listen_fds_) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    for (auto& t : accept_threads_)
        t.join();
    accept_threads_.clear();
    listen_fds_.clear();

    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        for (auto& handle : sessions_)
            handle->session->forceClose();
    }
    for (;;) {
        std::unique_ptr<SessionHandle> victim;
        {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            if (sessions_.empty())
                break;
            victim = std::move(sessions_.back());
            sessions_.pop_back();
        }
        victim->thread.join();
    }

    pool_.stop(runtime::ThreadPool::StopMode::kDrain);
    if (!opts_.socket_path.empty())
        ::unlink(opts_.socket_path.c_str());
    inform("serve: stopped (", metrics_.snapshot(cache_.stats())
                                   .requests,
           " requests served)");
}

} // namespace pibe::serve
