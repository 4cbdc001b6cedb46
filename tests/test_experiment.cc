/**
 * @file
 * Tests for the measurement harness (pibe::core::experiment) and the
 * engine's artifact cache keys, which chain content digests.
 */
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>

#include "ir/printer.h"
#include "kernel/kernel.h"
#include "pibe/engine.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "profile/serialize.h"
#include "tests/test_util.h"
#include "uarch/decoded_module.h"
#include "workload/workload.h"

namespace pibe {
namespace {

kernel::KernelConfig
testConfig()
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = 8;
    return cfg;
}

class ExperimentTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        image_ = new kernel::KernelImage(
            kernel::buildKernel(testConfig()));
    }

    static void
    TearDownTestSuite()
    {
        delete image_;
        image_ = nullptr;
    }

    static kernel::KernelImage* image_;
};

kernel::KernelImage* ExperimentTest::image_ = nullptr;

TEST_F(ExperimentTest, LatencyAndThroughputAreConsistent)
{
    auto wl = workload::makeLmbenchTest("null");
    core::MeasureConfig cfg;
    cfg.warmup_iters = 20;
    cfg.measure_iters = 60;
    auto m = core::measureWorkload(image_->module, image_->info, *wl,
                                   cfg);
    // ops/sec * latency(us) == 1e6 by construction.
    EXPECT_NEAR(m.ops_per_sec * m.latency_us, 1e6, 1.0);
}

TEST_F(ExperimentTest, MoreWorkMeansMoreLatency)
{
    core::MeasureConfig cfg;
    cfg.warmup_iters = 20;
    cfg.measure_iters = 60;
    auto null_wl = workload::makeLmbenchTest("null");
    auto fork_wl = workload::makeLmbenchTest("fork/exec");
    double null_lat = core::measureWorkload(image_->module,
                                            image_->info, *null_wl, cfg)
                          .latency_us;
    double fork_lat = core::measureWorkload(image_->module,
                                            image_->info, *fork_wl, cfg)
                          .latency_us;
    EXPECT_GT(fork_lat, 3 * null_lat);
}

TEST_F(ExperimentTest, WarmupReducesMeasuredLatency)
{
    auto wl_cold = workload::makeLmbenchTest("read");
    auto wl_warm = workload::makeLmbenchTest("read");
    core::MeasureConfig cold;
    cold.warmup_iters = 0;
    cold.measure_iters = 5;
    core::MeasureConfig warm;
    warm.warmup_iters = 200;
    warm.measure_iters = 5;
    double cold_lat = core::measureWorkload(image_->module,
                                            image_->info, *wl_cold, cold)
                          .latency_us;
    double warm_lat = core::measureWorkload(image_->module,
                                            image_->info, *wl_warm, warm)
                          .latency_us;
    EXPECT_GT(cold_lat, warm_lat); // predictors and i-cache trained
}

// Every LMBench test measures from one booted prototype of the image.
TEST_F(ExperimentTest, BootedPrototypeCoversAllTests)
{
    auto suite = workload::makeLmbenchSuite();
    core::MeasureConfig cfg;
    cfg.warmup_iters = 5;
    cfg.measure_iters = 10;
    const auto booted = core::bootImage(
        std::make_shared<const uarch::DecodedModule>(image_->module),
        image_->info, cfg.params);
    for (const auto& wl : suite) {
        const core::Measurement m =
            core::measureWorkload(*booted, image_->info, *wl, cfg);
        EXPECT_GT(m.latency_us, 0.0) << wl->name();
        EXPECT_GT(m.stats.instructions, 0u) << wl->name();
    }
}

TEST_F(ExperimentTest, BuildReportFinalProfileReflectsPromotion)
{
    auto suite = workload::makeLmbenchSuite();
    auto profile =
        core::collectProfile(image_->module, image_->info, suite, 20);
    const uint64_t indirect_before = profile.totalIndirectWeight();
    core::BuildReport report;
    core::buildImage(image_->module, profile,
                     core::OptConfig::icpOnly(0.99999),
                     harden::DefenseConfig::retpolinesOnly(), &report);
    // Promotion moved weight from indirect to direct edges in the
    // working profile; the input profile is untouched.
    EXPECT_EQ(profile.totalIndirectWeight(), indirect_before);
    EXPECT_LT(report.final_profile.totalIndirectWeight(),
              indirect_before);
    EXPECT_GT(report.final_profile.totalDirectWeight(),
              profile.totalDirectWeight());
}

TEST_F(ExperimentTest, BuildImageDoesNotMutateInputModule)
{
    auto suite = workload::makeLmbenchSuite();
    auto profile =
        core::collectProfile(image_->module, image_->info, suite, 15);
    const size_t funcs = image_->module.numFunctions();
    const ir::SiteId bound = image_->module.siteIdBound();
    core::buildImage(image_->module, profile,
                     core::OptConfig::icpAndInline(0.999),
                     harden::DefenseConfig::all());
    EXPECT_EQ(image_->module.numFunctions(), funcs);
    EXPECT_EQ(image_->module.siteIdBound(), bound);
    // And the original still runs unhardened.
    uarch::Simulator sim(image_->module);
    sim.setTimingEnabled(false);
    workload::KernelHandle handle(sim, image_->info);
    handle.boot();
    EXPECT_EQ(handle.syscall(kernel::sysno::kNull), 1);
}

// --- cache keys: chained content digests ----------------------------

/** A small measurement config, so a cache miss is cheap. */
core::MeasureConfig
quickMeasure()
{
    core::MeasureConfig cfg;
    cfg.warmup_iters = 2;
    cfg.measure_iters = 5;
    return cfg;
}

// Each text overload digests its texts and delegates, so a key derived
// from texts equals the one chained from their digests: an artifact put
// through one path is a hit through the other.
TEST_F(ExperimentTest, TextKeysEqualDigestChainedKeys)
{
    const std::string kernel_text = ir::printModule(image_->module);
    const auto kernel_digest = core::ArtifactDigest::of(kernel_text);
    runtime::ArtifactCache cache;
    const std::string profile_text = core::profileTextCached(
        kernel_text, image_->module, image_->info, 2, &cache);
    EXPECT_EQ(core::profileTextCached(kernel_digest, image_->module,
                                      image_->info, 2, &cache),
              profile_text);
    EXPECT_EQ(cache.stats().hits(), 1u);

    const auto profile_digest = core::ArtifactDigest::of(profile_text);
    const core::OptConfig opt = core::OptConfig::icpOnly(0.99);
    const harden::DefenseConfig defense = harden::DefenseConfig::all();
    EXPECT_EQ(core::imageCacheKey(kernel_text, profile_text, opt, defense),
              core::imageCacheKey(kernel_digest, profile_digest, opt,
                                  defense));

    const auto decoded =
        std::make_shared<const uarch::DecodedModule>(image_->module);
    const core::Measurement by_text = core::measureWorkloadCached(
        kernel_text, decoded, image_->info, "null", quickMeasure(),
        &cache);
    const core::Measurement by_digest = core::measureWorkloadCached(
        kernel_digest, *core::bootImage(decoded, image_->info),
        image_->info, "null", quickMeasure(), &cache);
    EXPECT_EQ(cache.stats().hits(), 2u);
    EXPECT_EQ(by_digest.stats.cycles, by_text.stats.cycles);
}

// Every OptConfig field that can change the image is in the image key:
// flipping any one of them names a different image.
TEST(Engine, ImageKeyCoversEveryOptConfigField)
{
    const auto kernel = core::ArtifactDigest::of("kernel");
    const auto profile = core::ArtifactDigest::of("profile");
    const harden::DefenseConfig defense = harden::DefenseConfig::all();
    const std::vector<std::pair<const char*,
                                std::function<void(core::OptConfig&)>>>
        flips = {
            {"enable_icp", [](auto& o) { o.enable_icp = !o.enable_icp; }},
            {"icp_budget", [](auto& o) { o.icp_budget = 0.5; }},
            {"icp_max_targets", [](auto& o) { o.icp_max_targets = 1; }},
            {"icp_total_promotion",
             [](auto& o) { o.icp_total_promotion = true; }},
            {"icp_total_promotion_max_targets",
             [](auto& o) { o.icp_total_promotion_max_targets = 30; }},
            {"inliner",
             [](auto& o) { o.inliner = core::InlinerKind::kDefaultLlvm; }},
            {"inline_budget", [](auto& o) { o.inline_budget = 0.5; }},
            {"lax_heuristics", [](auto& o) { o.lax_heuristics = true; }},
            {"lax_budget", [](auto& o) { o.lax_budget = 0.5; }},
            {"rule2_caller_threshold",
             [](auto& o) { o.rule2_caller_threshold = 1; }},
            {"rule3_callee_threshold",
             [](auto& o) { o.rule3_callee_threshold = 1; }},
        };
    std::set<std::string> keys = {
        core::imageCacheKey(kernel, profile, core::OptConfig{}, defense)};
    for (const auto& [field, flip] : flips) {
        core::OptConfig opt;
        flip(opt);
        EXPECT_TRUE(
            keys.insert(core::imageCacheKey(kernel, profile, opt, defense))
                .second)
            << field;
    }
}

// The measurement key covers the image's content: one flipped byte of
// the text is a different key, so a cache miss.
TEST_F(ExperimentTest, FlippedImageByteChangesTheMeasureKey)
{
    std::string text = ir::printModule(image_->module);
    const auto decoded =
        std::make_shared<const uarch::DecodedModule>(image_->module);
    runtime::ArtifactCache cache;
    core::measureWorkloadCached(text, decoded, image_->info, "null",
                                quickMeasure(), &cache);
    core::measureWorkloadCached(text, decoded, image_->info, "null",
                                quickMeasure(), &cache);
    EXPECT_EQ(cache.stats().misses, 1u);
    text[text.size() / 2] ^= 1;
    core::measureWorkloadCached(text, decoded, image_->info, "null",
                                quickMeasure(), &cache);
    EXPECT_EQ(cache.stats().misses, 2u);
}

// A cache directory that cannot be created is an error value, and the
// engine throws it rather than ending the process.
TEST(EngineCacheDir, UnusableDirectoryIsAnError)
{
    namespace fs = std::filesystem;
    const fs::path file = fs::temp_directory_path() /
                          ("pibe_cache_file_" + std::to_string(::getpid()));
    std::ofstream(file) << "not a directory";
    const std::string dir = (file / "cache").string();

    runtime::ArtifactCache cache;
    const std::optional<std::string> error = cache.setDiskDir(dir);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find(dir), std::string::npos) << *error;

    core::ExperimentPlan plan;
    plan.kernel.num_drivers = 2;
    core::EngineOptions opts;
    opts.cache_dir = dir;
    try {
        core::runExperiments(plan, opts);
        ADD_FAILURE() << "runExperiments accepted " << dir;
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(e.what(), *error);
    }
    fs::remove(file);
}

// A corrupt cached artifact of any stage is a cache miss: the engine
// recomputes it, puts it over the bad entry and counts it, and the
// results are bit-identical to a clean run. Kernel and image artifacts
// get garbage text and an empty file, which parses as an empty module
// that is not a kernel.
TEST(Engine, CorruptDiskCacheArtifactsAreRecomputed)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("pibe_engine_corrupt_" + std::to_string(::getpid()));
    fs::remove_all(dir);

    core::ExperimentPlan plan;
    plan.kernel.num_drivers = 6;
    plan.profile_base_iters = 2;
    plan.measure = quickMeasure();
    // Neither image prints as the kernel does, so the artifacts can be
    // told apart by their text.
    plan.addImage("all", core::OptConfig::none(),
                  harden::DefenseConfig::all());
    plan.addImage("icp", core::OptConfig::icpOnly(0.99),
                  harden::DefenseConfig::retpolinesOnly());
    for (const char* image : {"all", "icp"})
        plan.measureOn(image, "read");
    core::EngineOptions opts;
    opts.jobs = 2;
    opts.cache_dir = dir.string();

    // Doubles as bit patterns, so == means bit-identical.
    auto dump = [](const core::ExperimentResults& results) {
        std::string out;
        for (const auto& [image, runs] : results.measurements)
            for (const auto& [wl, m] : runs)
                out += image + "/" + wl + " " +
                       std::to_string(std::bit_cast<uint64_t>(m.latency_us)) +
                       " " +
                       std::to_string(
                           std::bit_cast<uint64_t>(m.ops_per_sec)) +
                       " " + std::to_string(m.stats.cycles) + "\n";
        return out;
    };
    auto readAll = [](const fs::path& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string clean = dump(core::runExperiments(plan, opts));

    // Sort the artifacts by class.
    const std::string kernel_text =
        core::kernelTextCached(plan.kernel, nullptr);
    std::map<fs::path, std::string> clean_bytes;
    fs::path kernel_art, profile_art;
    std::vector<fs::path> images, measurements;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
        if (e.path().extension() != ".art")
            continue;
        const std::string text = readAll(e.path());
        clean_bytes[e.path()] = text;
        if (text == kernel_text)
            kernel_art = e.path();
        else if (text.rfind("pibe-profile v1\n", 0) == 0)
            profile_art = e.path();
        else if (text.rfind("pibe-measurement v2\n", 0) == 0)
            measurements.push_back(e.path());
        else
            images.push_back(e.path());
    }
    ASSERT_FALSE(kernel_art.empty());
    ASSERT_FALSE(profile_art.empty());
    ASSERT_EQ(images.size(), 2u);
    ASSERT_EQ(measurements.size(), 2u);

    for (const std::string bad_module : {"not a PIR module\n", ""}) {
        SCOPED_TRACE("bad module '" + bad_module + "'");
        const std::map<fs::path, std::string> corrupted = {
            {kernel_art, bad_module},
            {images[0], bad_module},
            {profile_art, "not a profile\n"},
            {measurements[0], "not a measurement\n"},
        };
        for (const auto& [path, bytes] : corrupted)
            std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

        const core::ExperimentResults rerun =
            core::runExperiments(plan, opts);
        EXPECT_EQ(dump(rerun), clean);
        EXPECT_EQ(rerun.cache.corrupt, corrupted.size());
        for (const auto& [path, bytes] : corrupted)
            EXPECT_EQ(readAll(path), clean_bytes[path]) << path;
    }

    // Every artifact corrupt: each lookup found bytes it could not
    // use, so the rerun used the cache for nothing.
    for (const auto& [path, bytes] : clean_bytes) {
        const bool profile = path == profile_art;
        const bool measurement =
            std::find(measurements.begin(), measurements.end(), path) !=
            measurements.end();
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << (profile       ? "not a profile\n"
                : measurement ? "not a measurement\n"
                              : "not a PIR module\n");
    }
    const core::ExperimentResults all_corrupt =
        core::runExperiments(plan, opts);
    EXPECT_EQ(dump(all_corrupt), clean);
    EXPECT_EQ(all_corrupt.cache.corrupt, clean_bytes.size());
    EXPECT_EQ(all_corrupt.cache.hits(), 0u);
    EXPECT_EQ(all_corrupt.cache.hitRate(), 0.0);
    fs::remove_all(dir);
}

} // namespace
} // namespace pibe
