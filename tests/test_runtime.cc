/**
 * @file
 * Tests for the experiment runtime (src/runtime) and the engine built
 * on it: thread pool, parallelFor, DAG scheduler, digests, artifact
 * cache, and the bit-identical parallel-vs-serial guarantee of
 * runExperiments().
 *
 * All tests are prefixed Runtime* so CI can run this suite under
 * ThreadSanitizer (its filter starts with 'Runtime*').
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "pibe/engine.h"
#include "runtime/artifact_cache.h"
#include "runtime/digest.h"
#include "runtime/job_graph.h"
#include "runtime/thread_pool.h"

namespace pibe {
namespace {

using runtime::ArtifactCache;
using runtime::Digest;
using runtime::JobContext;
using runtime::JobGraph;
using runtime::ThreadPool;

// ---------------------------------------------------------------------
// ThreadPool

TEST(RuntimeThreadPool, StressManyTasksAllRun)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 500; ++i) {
        futures.push_back(pool.submit([&counter, i] {
            counter.fetch_add(1, std::memory_order_relaxed);
            return i * 2;
        }));
    }
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(futures[i].get(), i * 2);
    EXPECT_EQ(counter.load(), 500);
    EXPECT_EQ(pool.tasksRun(), 500u);
}

TEST(RuntimeThreadPool, ShutdownDrainsQueuedWork)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit(
                [&counter] { counter.fetch_add(1); });
        pool.stop(); // Must finish everything already queued.
        EXPECT_EQ(counter.load(), 100);
        pool.stop(); // Idempotent.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(RuntimeThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(RuntimeThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(RuntimeThreadPool, StopDrainRunsEverythingSubmitted)
{
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(
            pool.submit([&counter] { counter.fetch_add(1); }));
    pool.stop();
    EXPECT_EQ(counter.load(), 200);
    EXPECT_EQ(pool.tasksRun(), 200u);
    for (auto& f : futures)
        EXPECT_NO_THROW(f.get());
}

// ---------------------------------------------------------------------
// parallelFor

/** Run a parallelFor over [0, n) and return how often each index ran,
 *  checking every chunk's bounds against `grain` on the way. */
std::vector<int>
indexRuns(size_t n, size_t grain, size_t helpers)
{
    std::vector<std::atomic<int>> runs(n);
    std::atomic<bool> bad_chunk{false};
    runtime::parallelFor(n, grain, helpers, [&](size_t begin, size_t end) {
        if (begin % grain != 0 || end <= begin || end - begin > grain ||
            end > n)
            bad_chunk = true;
        for (size_t i = begin; i < end; ++i)
            runs[i].fetch_add(1);
    });
    EXPECT_FALSE(bad_chunk) << "n=" << n << " grain=" << grain;
    std::vector<int> out;
    for (const auto& r : runs)
        out.push_back(r.load());
    return out;
}

TEST(RuntimeParallelFor, EveryIndexRunsExactlyOnce)
{
    for (const size_t n : {size_t{0}, size_t{5}, size_t{16},
                           size_t{20000}}) {
        for (const size_t helpers : {0, 1, 3, 64}) {
            const std::vector<int> runs = indexRuns(n, 16, helpers);
            EXPECT_EQ(runs, std::vector<int>(n, 1))
                << "n=" << n << " helpers=" << helpers;
        }
    }
    EXPECT_EQ(runtime::parallelFor(0, 16, 3, [](size_t, size_t) {
                  ADD_FAILURE() << "body ran for an empty range";
              }),
              0.0);
}

TEST(RuntimeParallelFor, ZeroHelpersRunsOnTheCaller)
{
    std::mutex mu;
    std::set<std::thread::id> threads;
    size_t indices = 0;
    const double work =
        runtime::parallelFor(1000, 7, 0, [&](size_t begin, size_t end) {
            std::lock_guard<std::mutex> lock(mu);
            threads.insert(std::this_thread::get_id());
            indices += end - begin;
        });
    EXPECT_EQ(indices, 1000u);
    EXPECT_EQ(threads,
              std::set<std::thread::id>{std::this_thread::get_id()});
    EXPECT_GE(work, 0.0);
}

// The caller never waits for a helper that has not started, so a
// sweep inside a pool task — even with every worker of that pool busy
// running it, and with sweeps nested inside the sweep — completes.
TEST(RuntimeParallelFor, NestedCallFromPoolTaskCompletes)
{
    ThreadPool pool(1);
    std::atomic<size_t> inner{0};
    auto done = pool.submit([&] {
        runtime::parallelFor(64, 4, 3, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                runtime::parallelFor(50, 8, 3, [&](size_t b, size_t e) {
                    inner.fetch_add(e - b);
                });
            }
        });
    });
    done.get();
    EXPECT_EQ(inner.load(), 64u * 50u);
}

TEST(RuntimeParallelFor, ExceptionIsRethrownOnTheCaller)
{
    std::atomic<size_t> ran{0};
    EXPECT_THROW(runtime::parallelFor(
                     1000, 10, 3,
                     [&](size_t begin, size_t) {
                         ran.fetch_add(1);
                         if (begin == 500)
                             throw std::runtime_error("chunk 50");
                     }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1u);
    // The pool survives the failed sweep.
    EXPECT_EQ(indexRuns(300, 10, 3), std::vector<int>(300, 1));
}

// pibe scalebench forks one child per size: a child inherits the
// helper pool object but none of its threads, so its sweeps must run
// on the caller alone instead of waiting for workers that never come.
TEST(RuntimeParallelFor, ForkedChildSweepsOnTheCallerAlone)
{
    EXPECT_EQ(indexRuns(2000, 1, 3), std::vector<int>(2000, 1));
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::vector<int> runs(2000, 0);
        bool other_thread = false;
        const std::thread::id self = std::this_thread::get_id();
        runtime::parallelFor(2000, 1, 3, [&](size_t begin, size_t end) {
            other_thread |= std::this_thread::get_id() != self;
            for (size_t i = begin; i < end; ++i)
                ++runs[i];
        });
        _exit(!other_thread && runs == std::vector<int>(2000, 1) ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------
// JobGraph

TEST(RuntimeJobGraph, DiamondRespectsDependencyOrder)
{
    // a -> {b, c} -> d, run many times to shake out races.
    for (int round = 0; round < 20; ++round) {
        JobGraph graph;
        std::mutex mu;
        std::vector<std::string> order;
        auto record = [&](const char* name) {
            std::lock_guard<std::mutex> lock(mu);
            order.emplace_back(name);
        };
        auto a = graph.add("a", [&](const JobContext&) { record("a"); });
        auto b = graph.add("b", [&](const JobContext&) { record("b"); },
                           {a});
        auto c = graph.add("c", [&](const JobContext&) { record("c"); },
                           {a});
        graph.add("d", [&](const JobContext&) { record("d"); }, {b, c});

        ThreadPool pool(4);
        graph.run(pool);

        ASSERT_EQ(order.size(), 4u);
        EXPECT_EQ(order.front(), "a");
        EXPECT_EQ(order.back(), "d");
    }
}

TEST(RuntimeJobGraph, ChainRunsInSequence)
{
    JobGraph graph;
    std::vector<int> order;
    runtime::JobId prev = graph.add(
        "j0", [&](const JobContext&) { order.push_back(0); });
    for (int i = 1; i < 10; ++i) {
        prev = graph.add(
            "j" + std::to_string(i),
            [&, i](const JobContext&) { order.push_back(i); }, {prev});
    }
    ThreadPool pool(4);
    graph.run(pool);
    ASSERT_EQ(order.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(RuntimeJobGraph, FailureSkipsDependentsAndRethrows)
{
    JobGraph graph;
    std::atomic<bool> leaf_ran{false};
    std::atomic<bool> independent_ran{false};
    auto bad = graph.add("bad", [&](const JobContext&) {
        throw std::runtime_error("job failed");
    });
    auto mid = graph.add("mid", [&](const JobContext&) {}, {bad});
    graph.add("leaf", [&](const JobContext&) { leaf_ran = true; },
              {mid});
    graph.add("independent",
              [&](const JobContext&) { independent_ran = true; });

    ThreadPool pool(2);
    EXPECT_THROW(graph.run(pool), std::runtime_error);
    EXPECT_FALSE(leaf_ran.load());
    EXPECT_TRUE(independent_ran.load());

    const auto& metrics = graph.metrics();
    ASSERT_EQ(metrics.size(), 4u);
    EXPECT_TRUE(metrics[0].ran);   // bad ran (and threw).
    EXPECT_FALSE(metrics[1].ran);  // mid skipped.
    EXPECT_FALSE(metrics[2].ran);  // leaf skipped.
    EXPECT_TRUE(metrics[3].ran);   // independent unaffected.
}

TEST(RuntimeJobGraph, SeedDerivesFromJobName)
{
    JobGraph graph;
    uint64_t seed_x = 0, seed_y = 0;
    graph.add("x", [&](const JobContext& ctx) { seed_x = ctx.seed; });
    graph.add("y", [&](const JobContext& ctx) { seed_y = ctx.seed; });
    ThreadPool pool(2);
    graph.run(pool);
    EXPECT_EQ(seed_x, Digest().add("x").value());
    EXPECT_EQ(seed_y, Digest().add("y").value());
    EXPECT_NE(seed_x, seed_y);
}

// ---------------------------------------------------------------------
// Digest

TEST(RuntimeDigest, StableAndSensitiveToEveryField)
{
    auto key = [](const std::string& s, uint64_t n, double d, bool b) {
        return Digest().add(s).add(n).add(d).add(b).hex();
    };
    const std::string base = key("kernel", 42, 1.5, true);
    EXPECT_EQ(base, key("kernel", 42, 1.5, true)); // Deterministic.
    EXPECT_EQ(base.size(), 32u);

    std::set<std::string> keys = {
        base,
        key("kernel2", 42, 1.5, true),
        key("kernel", 43, 1.5, true),
        key("kernel", 42, 1.5000001, true),
        key("kernel", 42, 1.5, false),
    };
    EXPECT_EQ(keys.size(), 5u); // Any field change -> new key.
}

TEST(RuntimeDigest, AdjacentFieldsCannotAlias)
{
    // Length prefixing: "ab"+"c" must differ from "a"+"bc".
    EXPECT_NE(Digest().add("ab").add("c").hex(),
              Digest().add("a").add("bc").hex());
    // Field boundaries: (1, 256) vs (256, 1).
    EXPECT_NE(Digest().add(uint64_t{1}).add(uint64_t{256}).hex(),
              Digest().add(uint64_t{256}).add(uint64_t{1}).hex());
}

TEST(RuntimeDigest, DoubleUsesBitPattern)
{
    EXPECT_NE(Digest().add(0.0).hex(), Digest().add(-0.0).hex());
}

// ---------------------------------------------------------------------
// ArtifactCache

TEST(RuntimeArtifactCache, MemoryRoundTripAndStats)
{
    ArtifactCache cache;
    EXPECT_FALSE(cache.get("k1").has_value());
    cache.put("k1", "value-1");
    auto hit = cache.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value-1");

    auto stats = cache.stats();
    EXPECT_EQ(stats.mem_hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.puts, 1u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(RuntimeArtifactCache, DiskTierSurvivesProcessRestart)
{
    const std::string dir =
        "/tmp/pibe_test_cache_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    {
        ArtifactCache producer;
        producer.setDiskDir(dir);
        producer.put("deadbeef", "artifact bytes\nline 2\n");
    }
    {
        // Fresh instance = empty memory tier; must hit disk.
        ArtifactCache consumer;
        consumer.setDiskDir(dir);
        auto hit = consumer.get("deadbeef");
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, "artifact bytes\nline 2\n");
        EXPECT_EQ(consumer.stats().disk_hits, 1u);
        // Promoted to memory: second lookup is a memory hit.
        consumer.get("deadbeef");
        EXPECT_EQ(consumer.stats().mem_hits, 1u);
        EXPECT_FALSE(consumer.get("unknown-key").has_value());
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Engine determinism: parallel + cached == serial, byte for byte.

core::ExperimentPlan
tinyPlan()
{
    core::ExperimentPlan plan;
    plan.kernel.num_drivers = 6;
    plan.profile_base_iters = 2;
    plan.measure.warmup_iters = 5;
    plan.measure.measure_iters = 20;
    plan.addImage("base", core::OptConfig::none(),
                  harden::DefenseConfig::none());
    plan.addImage("hard", core::OptConfig::icpOnly(0.99),
                  harden::DefenseConfig::retpolinesOnly());
    for (const char* image : {"base", "hard"}) {
        plan.measureOn(image, "null");
        plan.measureOn(image, "read");
    }
    return plan;
}

/** Exact dump: doubles as bit patterns, so == means bit-identical. */
std::string
dumpResults(const core::ExperimentResults& results)
{
    std::ostringstream os;
    for (const auto& [image, runs] : results.measurements) {
        for (const auto& [wl, m] : runs) {
            os << image << "/" << wl << " "
               << std::bit_cast<uint64_t>(m.latency_us) << " "
               << std::bit_cast<uint64_t>(m.ops_per_sec) << " "
               << m.stats.cycles << " " << m.stats.instructions << "\n";
        }
    }
    return os.str();
}

TEST(RuntimeEngine, ParallelCachedBitIdenticalToSerial)
{
    const core::ExperimentPlan plan = tinyPlan();

    core::EngineOptions serial;
    serial.jobs = 1;
    serial.use_cache = false;
    const std::string golden = dumpResults(runExperiments(plan, serial));

    core::EngineOptions parallel;
    parallel.jobs = 4;
    parallel.use_cache = true;
    auto par = runExperiments(plan, parallel);
    EXPECT_EQ(dumpResults(par), golden);
    EXPECT_EQ(par.jobs.size(), 2u + plan.images.size() + plan.runs.size());
}

TEST(RuntimeEngine, WarmDiskCacheReproducesColdRun)
{
    const std::string dir =
        "/tmp/pibe_test_engine_cache_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    const core::ExperimentPlan plan = tinyPlan();

    core::EngineOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir;

    auto cold = runExperiments(plan, opts);
    EXPECT_EQ(cold.cache.hits(), 0u);
    EXPECT_GT(cold.cache.puts, 0u);

    auto warm = runExperiments(plan, opts);
    EXPECT_EQ(dumpResults(warm), dumpResults(cold));
    // Every stage memoized: kernel, profile, images, measurements.
    EXPECT_EQ(warm.cache.hits(),
              2u + plan.images.size() + plan.runs.size());
    EXPECT_EQ(warm.cache.misses, 0u);
    std::filesystem::remove_all(dir);
}

TEST(RuntimeEngine, CacheKeyChangesWithAnyConfigField)
{
    // Re-measuring with a different measure config must not reuse the
    // cached measurement (the run count changes the cycle totals).
    const std::string dir =
        "/tmp/pibe_test_engine_keys_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);

    core::EngineOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir;

    core::ExperimentPlan plan = tinyPlan();
    auto first = runExperiments(plan, opts);

    core::ExperimentPlan changed = tinyPlan();
    changed.measure.measure_iters += 1;
    auto second = runExperiments(changed, opts);
    // Kernel/profile/images hit; all four measurements re-run.
    EXPECT_EQ(second.cache.misses,
              static_cast<uint64_t>(changed.runs.size()));
    EXPECT_NE(dumpResults(second), dumpResults(first));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace pibe
