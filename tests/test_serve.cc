/**
 * @file
 * Tests for the serve subsystem (src/serve) and the shared cache tier
 * it leans on: JSON/protocol round trips, single-flight batching, LRU
 * eviction under byte budgets, two-process disk-cache contention,
 * metrics accuracy, the control plane, and the daemon's end-to-end
 * guarantee that a served answer is bit-identical to a direct engine
 * computation of the same request.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/checks.h"
#include "check/target_sets.h"
#include "ir/parser.h"
#include "pibe/engine.h"
#include "profile/serialize.h"
#include "runtime/artifact_cache.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/control.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/rng.h"

namespace pibe {
namespace {

namespace fs = std::filesystem;
using runtime::ArtifactCache;
using serve::BatchRole;
using serve::Batcher;
using serve::Json;

/** Fresh scratch directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string& tag)
        : path_(fs::temp_directory_path() /
                ("pibe_serve_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }

    ~TempDir() { fs::remove_all(path_); }

    const fs::path& path() const { return path_; }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

// ---------------------------------------------------------------------
// JSON

TEST(ServeJson, ParseDumpRoundTrip)
{
    const std::string text =
        R"({"a":[1,2.5,"x",true,null],"b":{"nested":"\"quoted\""},"n":-7})";
    std::optional<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ((*parsed)["n"].asInt(), -7);
    EXPECT_EQ((*parsed)["a"].at(1).asDouble(), 2.5);
    EXPECT_EQ((*parsed)["a"].at(2).asString(), "x");
    EXPECT_TRUE((*parsed)["a"].at(3).asBool());
    EXPECT_TRUE((*parsed)["a"].at(4).isNull());
    EXPECT_EQ((*parsed)["b"]["nested"].asString(), "\"quoted\"");
    // Dump is canonical: re-parsing the dump dumps identically.
    std::optional<Json> again = Json::parse(parsed->dump());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->dump(), parsed->dump());
}

TEST(ServeJson, RejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(Json::parse("{'single':1}").has_value());
    EXPECT_FALSE(Json::parse("nul").has_value());
    // Depth bomb must be rejected, not crash the parser.
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(ServeJson, DoublesAndIntegersRoundTripExactly)
{
    const double awkward = 0.56423000000000001;
    Json obj = Json::object();
    obj.set("d", awkward);
    obj.set("i", static_cast<int64_t>(1772326887));
    std::optional<Json> parsed = Json::parse(obj.dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::bit_cast<uint64_t>((*parsed)["d"].asDouble()),
              std::bit_cast<uint64_t>(awkward));
    // Integers stay integers (no exponent, no fraction).
    EXPECT_NE(obj.dump().find("1772326887"), std::string::npos);
    EXPECT_EQ((*parsed)["i"].asInt(), 1772326887);
    // Negative zero keeps its sign ("-0" is not the integer 0).
    std::optional<Json> zero = Json::parse(Json(-0.0).dump());
    ASSERT_TRUE(zero.has_value());
    EXPECT_EQ(std::bit_cast<uint64_t>(zero->asDouble()),
              std::bit_cast<uint64_t>(-0.0));
}

// The checker's hand-written JSON escapes the strings it embeds: a
// module path with a quote and a backslash still parses, and names the
// same path.
TEST(ServeJson, SurfaceAndDiagnosticStringsAreEscaped)
{
    const std::string name = "a\"b\\c";
    check::SurfaceReport rep;
    rep.module_name = name;
    rep.defenses.push_back({});
    rep.defenses.back().defense = name;
    std::optional<Json> surface = Json::parse(check::renderSurfaceJson(rep));
    ASSERT_TRUE(surface.has_value());
    EXPECT_EQ((*surface)["module"].asString(), name);
    EXPECT_EQ((*surface)["defenses"].at(0)["defense"].asString(), name);

    std::optional<Json> escaped =
        Json::parse("\"" + check::jsonEscape(name + "\n\t\x01") + "\"");
    ASSERT_TRUE(escaped.has_value());
    EXPECT_EQ(escaped->asString(), name + "\n\t\x01");
}

// ---------------------------------------------------------------------
// Protocol framing

TEST(ServeProtocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload(100000, 'x');
    ASSERT_TRUE(serve::writeFrame(fds[0], "hello"));
    std::thread writer(
        [&] { serve::writeFrame(fds[0], payload); });
    std::optional<std::string> first = serve::readFrame(fds[1]);
    std::optional<std::string> second = serve::readFrame(fds[1]);
    writer.join();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, "hello");
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, payload);
    // EOF reads as nullopt, not an error or a hang.
    ::close(fds[0]);
    EXPECT_FALSE(serve::readFrame(fds[1]).has_value());
    ::close(fds[1]);
}

TEST(ServeProtocol, OversizedFrameRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A hostile length prefix larger than kMaxFrameBytes must be
    // refused before any allocation of that size.
    const uint32_t huge = serve::kMaxFrameBytes + 1;
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(huge >> 24),
        static_cast<unsigned char>(huge >> 16),
        static_cast<unsigned char>(huge >> 8),
        static_cast<unsigned char>(huge)};
    ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
    EXPECT_FALSE(serve::readFrame(fds[1]).has_value());
    EXPECT_FALSE(
        serve::writeFrame(fds[0],
                          std::string(serve::kMaxFrameBytes + 1, 'x')));
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ServeProtocol, EnvelopeHelpers)
{
    Json params = Json::object();
    params.set("workload", "read");
    const Json req = serve::makeRequest(7, "measure", params);
    EXPECT_EQ(req["id"].asInt(), 7);
    EXPECT_EQ(req["op"].asString(), "measure");
    EXPECT_EQ(req["params"]["workload"].asString(), "read");

    const Json ok = serve::makeResponse(7, Json::object());
    EXPECT_TRUE(ok["ok"].asBool(false));
    EXPECT_EQ(ok["id"].asInt(), 7);

    const Json err = serve::makeErrorResponse(7, "boom");
    EXPECT_FALSE(err["ok"].asBool(true));
    EXPECT_EQ(err["error"].asString(), "boom");
}

// ---------------------------------------------------------------------
// JSON / frame fuzzer

/** A request and a response holding every JSON value kind. */
std::string
jsonCorpus()
{
    Json params = Json::object();
    params.set("workload", "read");
    params.set("defense", "retpolines+lvi");
    params.set("icp_budget", 0.99999);
    params.set("inline_budget", static_cast<int64_t>(-42));
    params.set("lax", true);
    params.set("note", "tab\tquote\"slash\\ \xc3\xa9");
    Json list = Json::array();
    list.push(Json());
    list.push(Json(false));
    list.push(Json(1.5e-7));
    list.push(Json::object());
    params.set("list", std::move(list));
    Json result = Json::object();
    result.set("latency_bits", "4617315517961601024");
    result.set("cycles", static_cast<int64_t>(1772326887));
    return serve::makeRequest(7, "measure", std::move(params)).dump() +
           "\n" + serve::makeResponse(7, std::move(result)).dump();
}

/** One random edit of `text`: a bit flip, an inserted byte or token,
 *  a deletion, or a truncation. */
void
mutateJson(std::string& text, Rng& rng)
{
    static const char* const kTokens[] = {
        "{", "}", "[", "]", "\"", "\\", "\\u", "\\ud800", ":", ",",
        "null", "tru", "-", "1e999", "-0.0e+", "18446744073709551616",
        "[[[[[[[[", "\"k\":", " \n\t",
    };
    if (text.empty()) {
        text = kTokens[rng.below(std::size(kTokens))];
        return;
    }
    const size_t at = rng.below(text.size());
    switch (rng.below(5)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
        break;
      case 1:
        text.insert(at, 1, static_cast<char>(rng.below(256)));
        break;
      case 2:
        text.insert(at, kTokens[rng.below(std::size(kTokens))]);
        break;
      case 3:
        text.erase(at, 1 + rng.below(8));
        break;
      default:
        text.resize(at);
        break;
    }
}

/** A length-prefixed frame of `payload`, as writeFrame() sends it. */
std::string
frameBytes(const std::string& payload)
{
    const auto len = static_cast<uint32_t>(payload.size());
    std::string out;
    for (int shift = 24; shift >= 0; shift -= 8)
        out.push_back(static_cast<char>(len >> shift));
    return out + payload;
}

/** readMessage() of raw `bytes` sent down a socketpair and closed. */
std::optional<Json>
readMessageOf(const std::string& bytes)
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&] {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fds[0], bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            sent += static_cast<size_t>(n);
        }
        ::shutdown(fds[0], SHUT_WR);
    });
    std::optional<Json> got = serve::readMessage(fds[1]);
    ::close(fds[1]); // Unblocks a writer the reader stopped draining.
    writer.join();
    ::close(fds[0]);
    return got;
}

/**
 * Decode `iterations` mutants of the corpus. Json::parse must return a
 * value or nullopt, and a value must dump to a fixed point of
 * parse -> dump. Every eighth mutant also goes through readMessage as a
 * frame, half of them with the frame bytes (length prefix included)
 * mutated too; an intact frame must decode exactly as Json::parse does.
 */
void
fuzzJsonDecoder(uint64_t seed, size_t iterations)
{
    const std::string corpus = jsonCorpus();
    ASSERT_TRUE(Json::parse(corpus.substr(0, corpus.find('\n'))));
    Rng rng(seed);
    size_t parsed = 0;
    for (size_t i = 0; i < iterations; ++i) {
        std::string text = corpus.substr(
            rng.below(2) == 0 ? 0 : corpus.find('\n') + 1);
        if (text.find('\n') != std::string::npos)
            text.resize(text.find('\n'));
        const uint64_t mutations = rng.below(4) == 0 ? 2 + rng.below(3) : 1;
        for (uint64_t k = 0; k < mutations; ++k)
            mutateJson(text, rng);
        const std::optional<Json> got = Json::parse(text);
        if (got) {
            ++parsed;
            const std::string once = got->dump();
            const std::optional<Json> again = Json::parse(once);
            ASSERT_TRUE(again) << "mutant " << i << ": " << once;
            ASSERT_EQ(again->dump(), once) << "mutant " << i;
        }
        if (i % 8 != 0)
            continue;
        std::string frame = frameBytes(text);
        if (rng.below(2) == 0) {
            mutateJson(frame, rng);
            readMessageOf(frame); // Any outcome but a crash or a hang.
            continue;
        }
        const std::optional<Json> framed = readMessageOf(frame);
        ASSERT_EQ(framed.has_value(), got.has_value()) << "mutant " << i;
        if (got)
            ASSERT_EQ(framed->dump(), got->dump()) << "mutant " << i;
    }
    // Both outcomes must be exercised, or the fuzzer tests nothing.
    EXPECT_GT(parsed, iterations / 20);
    EXPECT_LT(parsed, iterations - iterations / 20);
}

TEST(ServeFuzz, MutantsDecodeOrFailCleanly)
{
    fuzzJsonDecoder(1, 2000);
    // Nesting far past the depth guard is refused, not a stack
    // overflow, whether parsed directly or read as one frame.
    const size_t depth = 200000;
    const std::string deep =
        std::string(depth, '[') + std::string(depth, ']');
    EXPECT_FALSE(Json::parse(deep).has_value());
    EXPECT_FALSE(readMessageOf(frameBytes(deep)).has_value());
    std::string objects;
    for (size_t i = 0; i < depth; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(depth, '}');
    EXPECT_FALSE(Json::parse(objects).has_value());
}

// The long leg (CI runs it under ASan/UBSan with
// --gtest_also_run_disabled_tests).
TEST(ServeFuzz, DISABLED_LongLeg)
{
    fuzzJsonDecoder(2, 100000);
}

// ---------------------------------------------------------------------
// Batcher

TEST(ServeBatcher, CoalescesConcurrentCallers)
{
    Batcher<int> batcher;
    std::atomic<int> computes{0};
    std::atomic<int> started{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<int> results(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            started.fetch_add(1);
            results[t] = batcher.run("key", [&] {
                // Hold the flight open until every thread has had a
                // chance to join it.
                while (started.load() < kThreads)
                    std::this_thread::yield();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return computes.fetch_add(1) + 41;
            });
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(computes.load(), 1);
    for (int r : results)
        EXPECT_EQ(r, 41);
    EXPECT_EQ(batcher.flights(), 1u);
    EXPECT_EQ(batcher.coalescedCalls(),
              static_cast<uint64_t>(kThreads - 1));
    // The flight is gone: a later call computes afresh.
    EXPECT_EQ(batcher.run("key", [&] {
        return computes.fetch_add(1) + 41;
    }), 42);
}

TEST(ServeBatcher, LeaderExceptionReachesFollowers)
{
    Batcher<int> batcher;
    std::atomic<bool> leader_in{false};
    std::atomic<bool> follower_in{false};
    std::thread leader([&] {
        EXPECT_THROW(batcher.run("k",
                                 [&]() -> int {
                                     leader_in.store(true);
                                     while (!follower_in.load())
                                         std::this_thread::yield();
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(
                                             10));
                                     throw std::runtime_error("boom");
                                 }),
                     std::runtime_error);
    });
    std::thread follower([&] {
        // Enter only once the leader owns the flight, so this thread
        // can never become the leader the other one joins.
        while (!leader_in.load())
            std::this_thread::yield();
        follower_in.store(true);
        try {
            BatchRole role;
            batcher.run("k", [] { return 0; }, &role);
            // A leader role is legal if the flight already unwound.
            EXPECT_EQ(role, BatchRole::kLeader);
        } catch (const std::runtime_error&) {
            // Follower of the throwing flight: expected.
        }
    });
    leader.join();
    follower.join();
}

// ---------------------------------------------------------------------
// Shared cache tier: LRU eviction

TEST(ServeCacheLru, MemoryEvictionUnderTightBudget)
{
    ArtifactCache cache;
    cache.setMemoryBudget(250); // fits two 100-byte artifacts
    cache.put("a", std::string(100, 'a'));
    cache.put("b", std::string(100, 'b'));
    EXPECT_TRUE(cache.get("a").has_value()); // refresh a's recency
    cache.put("c", std::string(100, 'c'));   // evicts b (LRU)
    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_TRUE(cache.get("c").has_value());
    EXPECT_FALSE(cache.get("b").has_value());
    const runtime::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.mem_evictions, 1u);
    EXPECT_LE(stats.mem_bytes, 250u);
}

TEST(ServeCacheLru, DiskEvictionUnderTightBudget)
{
    TempDir dir("disk_lru");
    ArtifactCache cache;
    cache.setDiskDir(dir.str());
    cache.setDiskBudget(2500); // fits two 1000-byte artifacts
    cache.put("old", std::string(1000, 'o'));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put("mid", std::string(1000, 'm'));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Touch "old" through a disk hit from a second cache instance so
    // its mtime-recency is refreshed across "processes".
    {
        ArtifactCache other;
        other.setDiskDir(dir.str());
        EXPECT_TRUE(other.get("old").has_value());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cache.put("new", std::string(1000, 'n')); // evicts "mid"
    const runtime::CacheStats stats = cache.stats();
    EXPECT_GE(stats.disk_evictions, 1u);
    EXPECT_GE(stats.evicted_bytes, 1000u);
    EXPECT_TRUE(fs::exists(dir.path() / "old.art"));
    EXPECT_TRUE(fs::exists(dir.path() / "new.art"));
    EXPECT_FALSE(fs::exists(dir.path() / "mid.art"));
}

TEST(ServeCacheLru, PublishIsAtomicNoTempVisibleAsArtifact)
{
    TempDir dir("atomic");
    ArtifactCache cache;
    cache.setDiskDir(dir.str());
    cache.put("k", "value");
    size_t artifacts = 0;
    for (const auto& entry : fs::directory_iterator(dir.path())) {
        const std::string name = entry.path().filename().string();
        if (name.find(".tmp.") != std::string::npos)
            ADD_FAILURE() << "temp file left behind: " << name;
        artifacts += name.size() > 4 &&
                     name.substr(name.size() - 4) == ".art";
    }
    EXPECT_EQ(artifacts, 1u);
    ArtifactCache reader;
    reader.setDiskDir(dir.str());
    EXPECT_EQ(reader.get("k"), "value");
}

// ---------------------------------------------------------------------
// Shared cache tier: two processes on one directory

TEST(ServeCacheSharing, TwoProcessContentionNeverCorrupts)
{
    TempDir dir("two_proc");
    constexpr int kKeys = 40;
    const auto valueFor = [](int i) {
        return std::string(500 + 17 * i,
                           static_cast<char>('a' + (i % 26)));
    };

    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child: hammer the same directory with a tight budget so
        // eviction (under the flock) races the parent's writes.
        int bad = 0;
        {
            ArtifactCache cache;
            cache.setDiskDir(dir.str());
            cache.setDiskBudget(12000);
            for (int round = 0; round < 3; ++round) {
                for (int i = 0; i < kKeys; ++i) {
                    const std::string key =
                        "key" + std::to_string(i);
                    cache.put(key, valueFor(i));
                    std::optional<std::string> got = cache.get(key);
                    // Evicted is fine; truncated/corrupt is not.
                    if (got && *got != valueFor(i))
                        ++bad;
                }
            }
        }
        ::_exit(bad == 0 ? 0 : 1);
    }

    ArtifactCache cache;
    cache.setDiskDir(dir.str());
    cache.setDiskBudget(12000);
    for (int round = 0; round < 3; ++round) {
        for (int i = kKeys - 1; i >= 0; --i) {
            const std::string key = "key" + std::to_string(i);
            cache.put(key, valueFor(i));
            std::optional<std::string> got = cache.get(key);
            if (got)
                EXPECT_EQ(*got, valueFor(i)) << key;
        }
    }

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // Post-mortem: every surviving artifact is complete and no temp
    // droppings remain.
    ArtifactCache reader;
    reader.setDiskDir(dir.str());
    for (int i = 0; i < kKeys; ++i) {
        std::optional<std::string> got =
            reader.get("key" + std::to_string(i));
        if (got)
            EXPECT_EQ(*got, valueFor(i));
    }
    for (const auto& entry : fs::directory_iterator(dir.path())) {
        const std::string name = entry.path().filename().string();
        EXPECT_EQ(name.find(".tmp."), std::string::npos)
            << "temp file left behind: " << name;
    }
}

// ---------------------------------------------------------------------
// Metrics

TEST(ServeMetricsCounters, AccurateAfterScriptedHitsAndMisses)
{
    TempDir dir("metrics");
    ArtifactCache cache;
    cache.setDiskDir(dir.str());

    // Scripted traffic: 2 misses, 2 puts, 1 memory hit, 1 disk hit
    // (fresh instance sharing the directory sees no memory tier).
    EXPECT_FALSE(cache.get("x").has_value());
    EXPECT_FALSE(cache.get("y").has_value());
    cache.put("x", "xv");
    cache.put("y", "yv");
    EXPECT_TRUE(cache.get("x").has_value());
    ArtifactCache second;
    second.setDiskDir(dir.str());
    EXPECT_TRUE(second.get("y").has_value());

    const runtime::CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.puts, 2u);
    EXPECT_EQ(stats.mem_hits, 1u);
    EXPECT_EQ(second.stats().disk_hits, 1u);
    EXPECT_EQ(stats.hits() + stats.misses, stats.lookups());

    serve::ServeMetrics metrics;
    metrics.recordConnection();
    metrics.enterRequest();
    metrics.recordRequest("measure", true, 10.0, false);
    metrics.recordRequest("measure", true, 30.0, true);
    metrics.recordRequest("optimize", false, 5.0, false);
    metrics.leaveRequest();
    metrics.recordAdmissionWait(2.5);

    const serve::MetricsSnapshot snap = metrics.snapshot(stats);
    EXPECT_EQ(snap.requests, 3u);
    EXPECT_EQ(snap.failures, 1u);
    EXPECT_EQ(snap.coalesced, 1u);
    EXPECT_EQ(snap.connections, 1u);
    EXPECT_EQ(snap.peak_inflight, 1u);
    EXPECT_EQ(snap.inflight, 0u);
    EXPECT_DOUBLE_EQ(snap.admission_wait_ms_total, 2.5);
    ASSERT_EQ(snap.by_op.count("measure"), 1u);
    EXPECT_EQ(snap.by_op.at("measure").requests, 2u);
    EXPECT_EQ(snap.by_op.at("measure").coalesced, 1u);
    EXPECT_DOUBLE_EQ(snap.by_op.at("measure").ms_total, 40.0);
    EXPECT_EQ(snap.by_op.at("optimize").failures, 1u);
    EXPECT_EQ(snap.cache.misses, 2u);
    // p50 of {10, 30, 5} is 10; p99 is 30.
    EXPECT_DOUBLE_EQ(snap.p50_ms, 10.0);
    EXPECT_DOUBLE_EQ(snap.p99_ms, 30.0);

    const std::string text = snap.renderText();
    EXPECT_NE(text.find("pibe_serve_requests_total 3"),
              std::string::npos);
    EXPECT_NE(text.find("pibe_cache_misses_total 2"),
              std::string::npos);

    const Json json = snap.toJson();
    EXPECT_EQ(json["requests"].asInt(), 3);
    EXPECT_EQ(json["by_op"]["measure"]["requests"].asInt(), 2);
}

// ---------------------------------------------------------------------
// Control plane

TEST(ServeControl, GetSetValidateAndList)
{
    serve::ControlPlane control;
    std::string mode = "fast";
    control.registerKnob(
        "mode", "test knob", [&] { return mode; },
        [&](const std::string& v) -> std::optional<std::string> {
            if (v != "fast" && v != "safe")
                return "mode must be fast or safe";
            mode = v;
            return std::nullopt;
        });

    EXPECT_EQ(control.get("mode"), "fast");
    EXPECT_FALSE(control.get("missing").has_value());
    EXPECT_FALSE(control.set("mode", "safe").has_value());
    EXPECT_EQ(mode, "safe");
    // Validation failure leaves the knob untouched.
    std::optional<std::string> err = control.set("mode", "bogus");
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(mode, "safe");
    EXPECT_TRUE(control.set("missing", "x").has_value());

    const Json list = control.list();
    EXPECT_EQ(list["mode"]["value"].asString(), "safe");
    EXPECT_EQ(list["mode"]["description"].asString(), "test knob");
}

// ---------------------------------------------------------------------
// End-to-end: in-process daemon vs direct engine computation

/** Small, fast daemon configuration shared by the e2e tests. */
serve::ServeOptions
tinyServeOptions()
{
    serve::ServeOptions opts;
    opts.socket_path.clear(); // handle() directly, no listeners
    opts.jobs = 2;
    opts.kernel.num_drivers = 6;
    opts.profile_base_iters = 10;
    return opts;
}

Json
callServer(serve::Server& server, const std::string& op, Json params)
{
    const Json response =
        server.handle(serve::makeRequest(1, op, std::move(params)));
    EXPECT_TRUE(response["ok"].asBool(false))
        << op << " failed: " << response["error"].asString();
    return response["result"];
}

TEST(ServeServer, MeasureBitIdenticalToDirectEngineCall)
{
    serve::ServeOptions opts = tinyServeOptions();
    serve::Server server(opts);

    Json params = Json::object();
    params.set("workload", "read");
    params.set("defense", "retpolines");
    const Json served = callServer(server, "measure", params);

    // The same request computed directly through the staged entry
    // points (what the one-shot CLI does).
    ArtifactCache cache;
    const std::string kernel_text =
        core::kernelTextCached(opts.kernel, &cache);
    const ir::Module kernel = ir::parseModule(kernel_text);
    const kernel::KernelInfo info =
        kernel::kernelInfoFromModule(kernel);
    const std::string profile_text = core::profileTextCached(
        kernel_text, kernel, info, opts.profile_base_iters, &cache);
    const profile::EdgeProfile profile =
        profile::liftProfile(kernel, profile_text);
    const std::string image_text = core::imageTextCached(
        kernel_text, kernel, profile_text, profile, core::OptConfig{},
        *harden::defenseByName("retpolines"), &cache);
    const ir::Module image = ir::parseModule(image_text);
    const core::Measurement direct = core::measureWorkloadCached(
        image_text,
        std::make_shared<const uarch::DecodedModule>(image),
        kernel::kernelInfoFromModule(image), "read",
        core::MeasureConfig{}, &cache);

    EXPECT_EQ(served["latency_bits"].asString(),
              std::to_string(
                  std::bit_cast<uint64_t>(direct.latency_us)));
    EXPECT_EQ(served["ops_bits"].asString(),
              std::to_string(
                  std::bit_cast<uint64_t>(direct.ops_per_sec)));
    // And the protocol's JSON doubles round-trip the same values.
    EXPECT_EQ(std::bit_cast<uint64_t>(served["latency_us"].asDouble()),
              std::bit_cast<uint64_t>(direct.latency_us));

    // A repeat of the same request is a pure cache hit with the same
    // image key and the same bits.
    const Json again = callServer(server, "measure", params);
    EXPECT_EQ(again["latency_bits"].asString(),
              served["latency_bits"].asString());
    EXPECT_EQ(again["image"].asString(), served["image"].asString());
}

// The daemon keys images by chained content digests, hashed once per
// context and image; the text-taking key, which digests the texts
// itself, must name the same image.
TEST(ServeServer, ImageKeyIsTheTextCacheKey)
{
    serve::ServeOptions opts = tinyServeOptions();
    serve::Server server(opts);
    Json params = Json::object();
    params.set("defense", "lvi");
    const Json served = callServer(server, "optimize", params);

    ArtifactCache cache;
    const std::string kernel_text =
        core::kernelTextCached(opts.kernel, &cache);
    const ir::Module kernel = ir::parseModule(kernel_text);
    const std::string profile_text = core::profileTextCached(
        kernel_text, kernel, kernel::kernelInfoFromModule(kernel),
        opts.profile_base_iters, &cache);
    EXPECT_EQ(served["image"].asString(),
              core::imageCacheKey(kernel_text, profile_text,
                                  core::OptConfig{},
                                  *harden::defenseByName("lvi")));
}

// A cache directory that cannot be created fails start(), before any
// listener is bound, instead of ending the process.
TEST(ServeServer, UnusableCacheDirFailsStart)
{
    TempDir dir("bad_cache_dir");
    const fs::path file = dir.path() / "file";
    std::ofstream(file) << "not a directory";
    serve::ServeOptions opts = tinyServeOptions();
    opts.socket_path = (dir.path() / "serve.sock").string();
    opts.cache_dir = (file / "cache").string();
    serve::Server server(opts);
    EXPECT_FALSE(server.start());
    EXPECT_FALSE(fs::exists(opts.socket_path));
}

// A corrupt image artifact in the shared cache directory is a cache
// miss: the daemon rebuilds the image, puts it over the bad entry, and
// answers as it would from a clean cache. Text that does not parse and
// an empty artifact, which parses as an empty module that is not a
// kernel, both count as corrupt.
TEST(ServeServer, CorruptCachedImageIsRecomputed)
{
    for (const char* corruption : {"not a PIR module\n", ""}) {
        SCOPED_TRACE(std::string("corruption '") + corruption + "'");
        TempDir dir("corrupt_image");
        serve::ServeOptions opts = tinyServeOptions();
        opts.cache_dir = dir.str();
        Json params = Json::object();
        params.set("defense", "retpolines");
        std::string key;
        std::string clean_text;
        {
            serve::Server first(opts);
            key = callServer(first, "optimize", params)["image"].asString();
        }
        const fs::path art = dir.path() / (key + ".art");
        {
            std::ifstream in(art, std::ios::binary);
            clean_text.assign(std::istreambuf_iterator<char>(in), {});
        }
        {
            std::ofstream out(art, std::ios::trunc);
            out << corruption;
        }

        serve::Server fresh(opts);
        EXPECT_EQ(callServer(fresh, "optimize", params)["image"].asString(),
                  key);
        EXPECT_EQ(callServer(fresh, "metrics", Json::object())["cache"]
                            ["corrupt"]
                      .asInt(),
                  1);
        {
            std::ifstream in(art, std::ios::binary);
            EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
                      clean_text);
        }

        // Kernel, profile and image all corrupt: every lookup found
        // bytes it could not use, so the cache answered nothing.
        size_t artifacts = 0;
        for (const fs::directory_entry& e :
             fs::directory_iterator(dir.path())) {
            if (e.path().extension() != ".art")
                continue;
            std::string first_line;
            std::getline(std::ifstream(e.path()), first_line);
            std::ofstream(e.path(), std::ios::trunc)
                << (first_line == "pibe-profile v1" ? "not a profile\n"
                                                    : corruption);
            ++artifacts;
        }
        ASSERT_EQ(artifacts, 3u);
        serve::Server all_corrupt(opts);
        EXPECT_EQ(
            callServer(all_corrupt, "optimize", params)["image"].asString(),
            key);
        const Json cache =
            callServer(all_corrupt, "metrics", Json::object())["cache"];
        EXPECT_EQ(cache["corrupt"].asInt(), 3);
        EXPECT_EQ(cache["hit_rate"].asDouble(-1), 0.0);
    }
}

// A cached training profile that does not lift is a cache miss: the
// daemon recomputes it, puts it over the bad entry, and answers as it
// would from a clean cache.
TEST(ServeServer, CorruptCachedProfileIsRecomputed)
{
    TempDir dir("corrupt_profile");
    serve::ServeOptions opts = tinyServeOptions();
    opts.cache_dir = dir.str();
    Json params = Json::object();
    params.set("defense", "retpolines");
    std::string key;
    {
        serve::Server first(opts);
        key = callServer(first, "optimize", params)["image"].asString();
    }
    std::vector<fs::path> profiles;
    for (const fs::directory_entry& e : fs::directory_iterator(dir.path())) {
        std::ifstream in(e.path());
        std::string first_line;
        if (std::getline(in, first_line) && first_line == "pibe-profile v1")
            profiles.push_back(e.path());
    }
    ASSERT_EQ(profiles.size(), 1u);
    {
        std::ofstream art(profiles[0], std::ios::trunc);
        art << "not a profile\n";
    }

    serve::Server fresh(opts);
    EXPECT_EQ(callServer(fresh, "optimize", params)["image"].asString(),
              key);
    EXPECT_EQ(callServer(fresh, "metrics", Json::object())["cache"]
                        ["corrupt"]
                  .asInt(),
              1);
    std::ifstream in(profiles[0]);
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_EQ(first_line, "pibe-profile v1");
}

// A corrupt measurement artifact in a shared cache directory is a
// cache miss: the measurement is recomputed, bit-identical to a cold
// run, and put over the bad entry, which then parses again.
TEST(ServeCacheSharing, CorruptMeasurementArtifactIsACacheMiss)
{
    TempDir dir("corrupt_measurement");
    const serve::ServeOptions opts = tinyServeOptions();
    ArtifactCache staging;
    const std::string kernel_text =
        core::kernelTextCached(opts.kernel, &staging);
    const ir::Module kernel = ir::parseModule(kernel_text);
    const kernel::KernelInfo info = kernel::kernelInfoFromModule(kernel);
    const std::string profile_text = core::profileTextCached(
        kernel_text, kernel, info, opts.profile_base_iters, &staging);
    const std::string image_text = core::imageTextCached(
        kernel_text, kernel, profile_text,
        profile::liftProfile(kernel, profile_text), core::OptConfig{},
        *harden::defenseByName("retpolines"), &staging);
    const ir::Module image = ir::parseModule(image_text);
    const auto decoded = std::make_shared<const uarch::DecodedModule>(image);
    auto measure = [&](ArtifactCache* cache) {
        return core::measureWorkloadCached(
            image_text, decoded, kernel::kernelInfoFromModule(image), "read",
            core::MeasureConfig{}, cache);
    };
    auto readAll = [](const fs::path& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };

    const core::Measurement cold = measure(nullptr);
    {
        ArtifactCache cache;
        cache.setDiskDir(dir.str());
        measure(&cache);
    }
    std::vector<fs::path> arts;
    for (const auto& entry : fs::directory_iterator(dir.path()))
        if (entry.path().extension() == ".art")
            arts.push_back(entry.path());
    ASSERT_EQ(arts.size(), 1u);
    const std::string good = readAll(arts[0]);
    ASSERT_EQ(good.rfind("pibe-measurement v2\n", 0), 0u);

    for (const std::string& garbage :
         {std::string(), std::string("not a measurement\n"),
          good.substr(0, good.size() / 2)}) {
        SCOPED_TRACE("garbage '" + garbage + "'");
        {
            std::ofstream art(arts[0], std::ios::trunc);
            art << garbage;
        }
        ArtifactCache cache;
        cache.setDiskDir(dir.str());
        const core::Measurement again = measure(&cache);
        EXPECT_EQ(std::bit_cast<uint64_t>(again.latency_us),
                  std::bit_cast<uint64_t>(cold.latency_us));
        EXPECT_EQ(std::bit_cast<uint64_t>(again.ops_per_sec),
                  std::bit_cast<uint64_t>(cold.ops_per_sec));
        EXPECT_EQ(again.stats.cycles, cold.stats.cycles);
        EXPECT_EQ(cache.stats().puts, 1u);
        EXPECT_EQ(cache.stats().corrupt, 1u);
        EXPECT_EQ(readAll(arts[0]), good);
        // The rewritten entry decodes again: a hit, nothing corrupt.
        measure(&cache);
        EXPECT_EQ(cache.stats().corrupt, 1u);
        EXPECT_EQ(cache.stats().puts, 1u);
    }
}

TEST(ServeServer, RequestValidationAndControlKnobs)
{
    serve::Server server(tinyServeOptions());

    // Unknown op, workload, and defense all answer with ok=false —
    // never a crash, never a closed connection.
    Json bad_op = server.handle(
        serve::makeRequest(1, "frobnicate", Json::object()));
    EXPECT_FALSE(bad_op["ok"].asBool(true));

    Json params = Json::object();
    params.set("workload", "not_a_workload");
    Json bad_wl =
        server.handle(serve::makeRequest(2, "measure", params));
    EXPECT_FALSE(bad_wl["ok"].asBool(true));

    params = Json::object();
    params.set("defense", "not_a_defense");
    Json bad_def =
        server.handle(serve::makeRequest(3, "optimize", params));
    EXPECT_FALSE(bad_def["ok"].asBool(true));

    params = Json::object();
    params.set("icp_budget", 3.5);
    Json bad_budget =
        server.handle(serve::makeRequest(4, "optimize", params));
    EXPECT_FALSE(bad_budget["ok"].asBool(true));

    // config get/set round trip, with validation.
    params = Json::object();
    params.set("action", "set");
    params.set("name", "default_defense");
    params.set("value", "retpolines");
    callServer(server, "config", params);
    params = Json::object();
    params.set("action", "get");
    params.set("name", "default_defense");
    EXPECT_EQ(callServer(server, "config", params)["value"].asString(),
              "retpolines");
    params = Json::object();
    params.set("action", "set");
    params.set("name", "max_inflight");
    params.set("value", "not_a_number");
    Json bad_set =
        server.handle(serve::makeRequest(5, "config", params));
    EXPECT_FALSE(bad_set["ok"].asBool(true));

    // max_inflight is the one admission limit: --jobs sets it, the
    // knob moves it, ping reports it.
    EXPECT_EQ(callServer(server, "ping", Json::object())["jobs"].asInt(), 2);
    params.set("value", "3");
    callServer(server, "config", params);
    EXPECT_EQ(callServer(server, "ping", Json::object())["jobs"].asInt(), 3);

    // Metrics saw every request above.
    const Json metrics =
        callServer(server, "metrics", Json::object());
    EXPECT_GE(metrics["requests"].asInt(), 7);
    EXPECT_GE(metrics["failures"].asInt(), 4);
}

TEST(ServeServer, CheckFailOnPolicyMatchesDirectOutcome)
{
    serve::Server server(tinyServeOptions());

    // An unhardened image audited for full coverage yields warnings
    // but no errors — the canonical case where --fail-on matters.
    Json params = Json::object();
    params.set("defense", "none");
    params.set("fail_on", "error");
    const Json lenient = callServer(server, "check", params);
    params.set("fail_on", "warn");
    const Json strict = callServer(server, "check", params);

    ASSERT_GT(lenient["warnings"].asInt(), 0);
    EXPECT_EQ(lenient["errors"].asInt(), 0);
    EXPECT_TRUE(lenient["passed"].asBool(false));
    EXPECT_FALSE(strict["passed"].asBool(true));

    // The daemon's verdict must equal runChecksWithPolicy's — they
    // are the same entry point (the `pibe check` exit-code fix).
    ArtifactCache cache;
    const serve::ServeOptions& opts = server.options();
    const std::string kernel_text =
        core::kernelTextCached(opts.kernel, &cache);
    const ir::Module kernel = ir::parseModule(kernel_text);
    const kernel::KernelInfo info =
        kernel::kernelInfoFromModule(kernel);
    const std::string profile_text = core::profileTextCached(
        kernel_text, kernel, info, opts.profile_base_iters, &cache);
    const profile::EdgeProfile profile =
        profile::liftProfile(kernel, profile_text);
    const std::string image_text = core::imageTextCached(
        kernel_text, kernel, profile_text, profile, core::OptConfig{},
        *harden::defenseByName("none"), &cache);
    const ir::Module image = ir::parseModule(image_text);
    check::CheckOptions copts;
    copts.coverage = true;
    copts.defense = *harden::defenseByName("none");
    const check::CheckOutcome at_error = check::runChecksWithPolicy(
        image, copts, check::Severity::kError);
    const check::CheckOutcome at_warn = check::runChecksWithPolicy(
        image, copts, check::Severity::kWarning);
    EXPECT_EQ(at_error.passed, lenient["passed"].asBool(false));
    EXPECT_EQ(at_warn.passed, strict["passed"].asBool(true));
    EXPECT_EQ(static_cast<int64_t>(at_error.report.warnings()),
              lenient["warnings"].asInt());
}

// Admitted requests run on their callers' threads: concurrent
// duplicates and distinct requests give the serial answers, and never
// more than `jobs` of them run at once.
TEST(ServeServer, ConcurrentRequestsMatchSerial)
{
    std::vector<Json> mix;
    for (const char* defense : {"retpolines", "lvi", "retpolines"}) {
        Json params = Json::object();
        params.set("defense", defense);
        mix.push_back(serve::makeRequest(1, "optimize", params));
        params.set("workload", "read");
        mix.push_back(serve::makeRequest(1, "measure", params));
        params.set("workload", "null");
        mix.push_back(serve::makeRequest(1, "measure", params));
    }
    Json check_params = Json::object();
    check_params.set("defense", "lvi");
    mix.push_back(serve::makeRequest(1, "check", check_params));

    std::vector<std::string> serial;
    {
        serve::ServeOptions opts = tinyServeOptions();
        opts.jobs = 1;
        serve::Server server(opts);
        for (const Json& request : mix)
            serial.push_back(server.handle(request).dump());
    }
    for (const std::string& answer : serial)
        ASSERT_NE(answer.find("\"ok\":true"), std::string::npos) << answer;

    // Aborts instead of hanging if a request never returns.
    std::promise<void> finished;
    std::thread watchdog([done = finished.get_future()] {
        if (done.wait_for(std::chrono::minutes(5)) !=
            std::future_status::ready) {
            std::fprintf(stderr, "ConcurrentRequestsMatchSerial hung\n");
            std::abort();
        }
    });
    constexpr size_t kThreads = 4;
    for (const unsigned jobs : {1u, 2u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        serve::ServeOptions opts = tinyServeOptions();
        opts.jobs = jobs;
        serve::Server server(opts);
        // Each thread sends the whole mix, starting at its own offset.
        std::vector<std::vector<std::string>> answers(
            kThreads, std::vector<std::string>(mix.size()));
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (size_t k = 0; k < mix.size(); ++k) {
                    const size_t i = (k + t * 2) % mix.size();
                    answers[t][i] = server.handle(mix[i]).dump();
                }
            });
        }
        for (std::thread& thread : threads)
            thread.join();
        for (size_t t = 0; t < kThreads; ++t)
            for (size_t i = 0; i < mix.size(); ++i)
                EXPECT_EQ(answers[t][i], serial[i])
                    << "thread " << t << ", request " << i;
        const serve::MetricsSnapshot snap = server.metricsSnapshot();
        EXPECT_EQ(snap.requests, kThreads * mix.size());
        EXPECT_GE(snap.peak_inflight, 1u);
        EXPECT_LE(snap.peak_inflight, jobs);
    }
    finished.set_value();
    watchdog.join();
}

TEST(ServeServer, SeverityNamesParse)
{
    EXPECT_EQ(check::severityFromName("note"),
              check::Severity::kNote);
    EXPECT_EQ(check::severityFromName("warn"),
              check::Severity::kWarning);
    EXPECT_EQ(check::severityFromName("warning"),
              check::Severity::kWarning);
    EXPECT_EQ(check::severityFromName("error"),
              check::Severity::kError);
    EXPECT_FALSE(check::severityFromName("fatal").has_value());
    EXPECT_FALSE(check::severityFromName("").has_value());
}

// ---------------------------------------------------------------------
// TCP auth token

TEST(ServeAuth, TcpConnectionsAreTokenGated)
{
    serve::ServeOptions opts = tinyServeOptions();
    opts.socket_path.clear();
    opts.tcp_port = 0; // ephemeral
    opts.auth_token = "sekrit";
    serve::Server server(std::move(opts));
    ASSERT_TRUE(server.start());

    serve::Client client;
    ASSERT_TRUE(client.connectTcp(server.tcpPort()));

    // Any op before auth is refused (connection survives).
    std::optional<Json> pre = client.call("ping", Json::object());
    ASSERT_TRUE(pre.has_value());
    EXPECT_FALSE((*pre)["ok"].asBool(true));

    // A wrong token is refused too.
    EXPECT_FALSE(client.authenticate("wrong"));

    // The right token opens the connection for every later op.
    EXPECT_TRUE(client.authenticate("sekrit"));
    EXPECT_TRUE(client.callOk("ping", Json::object()).has_value());

    const serve::MetricsSnapshot snap = server.metricsSnapshot();
    EXPECT_EQ(snap.auth_rejected, 2u);

    client.close();
    server.requestStop();
    server.wait();
}

TEST(ServeAuth, UnixSocketIsNeverChallenged)
{
    TempDir dir("auth_unix");
    serve::ServeOptions opts = tinyServeOptions();
    opts.socket_path = (dir.path() / "serve.sock").string();
    opts.auth_token = "sekrit"; // gates only the TCP listener
    serve::Server server(std::move(opts));
    ASSERT_TRUE(server.start());

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(server.options().socket_path));
    EXPECT_TRUE(client.callOk("ping", Json::object()).has_value());
    // auth is an idempotent success on trusted connections, so
    // clients may send their token unconditionally.
    EXPECT_TRUE(client.authenticate("anything"));
    EXPECT_EQ(server.metricsSnapshot().auth_rejected, 0u);

    client.close();
    server.requestStop();
    server.wait();
}

} // namespace
} // namespace pibe
