/**
 * @file
 * Tests for the boot snapshot: every measurement and profiling run
 * starts from a copy of a simulator that booted the image once. A copy
 * must run exactly like a fresh boot (RunStats and sink hash), must
 * leave its prototype untouched, and may be taken by many threads from
 * one const prototype at once.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "kernel/kernel.h"
#include "pibe/engine.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "profile/serialize.h"
#include "uarch/decoded_module.h"
#include "workload/workload.h"

namespace pibe {
namespace {

/** Small iteration counts: exactness does not depend on them. */
core::MeasureConfig
quickConfig()
{
    core::MeasureConfig cfg;
    cfg.warmup_iters = 10;
    cfg.measure_iters = 30;
    return cfg;
}

std::vector<std::string>
paperWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto& wl : workload::makeLmbenchSuite())
        names.push_back(wl->name());
    names.insert(names.end(), {"nginx", "apache", "dbench"});
    return names;
}

bool
sameStats(const uarch::RunStats& a, const uarch::RunStats& b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** What one measurement observed: counters and the sink hash. */
struct Observed
{
    uarch::RunStats stats;
    uint64_t sink = 0;
};

/** core::measureWorkload's protocol on an already-booted simulator. */
Observed
runMeasured(uarch::Simulator& sim, const kernel::KernelInfo& info,
            const std::string& name, const core::MeasureConfig& cfg)
{
    auto wl = workload::makeWorkload(name);
    workload::KernelHandle handle(sim, info);
    wl->setup(handle);
    for (uint32_t i = 0; i < cfg.warmup_iters; ++i)
        wl->iteration(handle, i);
    sim.clearStats();
    for (uint32_t i = 0; i < cfg.measure_iters; ++i)
        wl->iteration(handle, cfg.warmup_iters + i);
    return {sim.stats(), sim.sinkHash()};
}

/** The same protocol on a freshly constructed and booted simulator. */
Observed
freshBoot(std::shared_ptr<const uarch::DecodedModule> decoded,
          const kernel::KernelInfo& info, const std::string& name,
          const core::MeasureConfig& cfg)
{
    uarch::Simulator sim(std::move(decoded), cfg.params);
    workload::KernelHandle(sim, info).boot();
    return runMeasured(sim, info, name, cfg);
}

/** One hardened image of a kernel, decoded and booted once. */
struct Image
{
    std::string name;
    ir::Module module;
    kernel::KernelInfo info;
    std::shared_ptr<const uarch::DecodedModule> decoded;
};

class BootSnapshotTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        kernel::KernelConfig cfg;
        cfg.num_drivers = 16;
        kernel_ = new kernel::KernelImage(kernel::buildKernel(cfg));
        const profile::EdgeProfile profile =
            core::collectLmbenchProfile(kernel_->module, kernel_->info, 20);

        kernel::KernelConfig small;
        small.num_drivers = 4;
        const kernel::KernelImage js_kernel = kernel::buildKernel(small);

        images_ = new std::vector<Image>();
        // A decoded image references its module in place: build in
        // reserved slots so no module moves after decoding.
        images_->reserve(4);
        auto add = [](std::string name, ir::Module module) {
            Image& img = images_->emplace_back();
            img.name = std::move(name);
            img.module = std::move(module);
            img.info = kernel::kernelInfoFromModule(img.module);
            img.decoded =
                std::make_shared<const uarch::DecodedModule>(img.module);
        };
        add("lto", core::buildImage(kernel_->module, profile,
                                    core::OptConfig::none(),
                                    harden::DefenseConfig::none()));
        add("all", core::buildImage(kernel_->module, profile,
                                    core::OptConfig::none(),
                                    harden::DefenseConfig::all()));
        add("pibe+all",
            core::buildImage(kernel_->module, profile,
                             core::OptConfig::icpAndInline(0.999),
                             harden::DefenseConfig::all()));
        add("jumpswitch",
            core::buildImage(js_kernel.module, profile::EdgeProfile{},
                             core::OptConfig::none(),
                             harden::DefenseConfig::jumpSwitches()));
    }

    static void
    TearDownTestSuite()
    {
        delete images_;
        images_ = nullptr;
        delete kernel_;
        kernel_ = nullptr;
    }

    static kernel::KernelImage* kernel_;
    static std::vector<Image>* images_;
};

kernel::KernelImage* BootSnapshotTest::kernel_ = nullptr;
std::vector<Image>* BootSnapshotTest::images_ = nullptr;

// Every paper workload on lto, all, pibe+all and a JumpSwitch image:
// a copy of one booted prototype observes exactly what a fresh boot
// does, and so does core::measureWorkload on that prototype.
TEST_F(BootSnapshotTest, CopiedPrototypeEqualsFreshBoot)
{
    // No warmup: the measured phase starts right after setup, where
    // state carried over from boot shows most.
    core::MeasureConfig cfg = quickConfig();
    cfg.warmup_iters = 0;
    size_t rows = 0;
    for (const Image& img : *images_) {
        const auto prototype =
            core::bootImage(img.decoded, img.info, cfg.params);
        const uarch::Simulator& booted = *prototype;
        for (const std::string& name : paperWorkloadNames()) {
            const Observed fresh =
                freshBoot(img.decoded, img.info, name, cfg);
            uarch::Simulator copy(booted);
            const Observed copied = runMeasured(copy, img.info, name, cfg);
            EXPECT_TRUE(sameStats(fresh.stats, copied.stats))
                << img.name << "/" << name;
            EXPECT_EQ(fresh.sink, copied.sink) << img.name << "/" << name;

            auto wl = workload::makeWorkload(name);
            const core::Measurement m =
                core::measureWorkload(booted, img.info, *wl, cfg);
            EXPECT_TRUE(sameStats(fresh.stats, m.stats))
                << img.name << "/" << name;
            ++rows;
        }
    }
    EXPECT_EQ(rows, 4 * paperWorkloadNames().size());
}

// A copy taken mid-workload continues exactly like the original: the
// second half of the run sees the predictor, i-cache and JumpSwitch
// state the first half trained (boot's own state is mostly invisible
// to syscall paths, so this is where a field left out of the copy
// shows). On the JumpSwitch image the first half live-patches targets
// into the slots; a copy without them would patch again.
TEST_F(BootSnapshotTest, CopyMidWorkloadContinuesLikeTheOriginal)
{
    for (const Image& img : *images_) {
        for (const char* name : {"select_tcp", "fork/exec", "nginx"}) {
            uarch::Simulator original(*core::bootImage(img.decoded, img.info));
            auto wl = workload::makeWorkload(name);
            workload::KernelHandle handle(original, img.info);
            wl->setup(handle);
            for (uint32_t i = 0; i < 20; ++i)
                wl->iteration(handle, i);
            if (img.name == "jumpswitch") {
                EXPECT_GT(original.stats().js_patches, 0u) << name;
            }

            uarch::Simulator copy(original);
            workload::KernelHandle copy_handle(copy, img.info);
            original.clearStats();
            copy.clearStats();
            for (uint32_t i = 20; i < 40; ++i) {
                wl->iteration(handle, i);
                wl->iteration(copy_handle, i);
            }
            EXPECT_TRUE(sameStats(original.stats(), copy.stats()))
                << img.name << "/" << name;
            EXPECT_EQ(original.sinkHash(), copy.sinkHash())
                << img.name << "/" << name;
        }
    }
}

// Measuring A, B, A from one prototype gives identical A's, and the
// prototype is unchanged afterwards.
TEST_F(BootSnapshotTest, MeasuringLeavesThePrototypeUnchanged)
{
    const Image& img = (*images_)[2]; // pibe+all
    const core::MeasureConfig cfg = quickConfig();
    const auto prototype =
        core::bootImage(img.decoded, img.info, cfg.params);
    const uarch::Simulator& booted = *prototype;
    const uarch::Simulator before(booted);

    auto a1 = workload::makeWorkload("select_tcp");
    auto b = workload::makeWorkload("fork/exec");
    auto a2 = workload::makeWorkload("select_tcp");
    const core::Measurement first =
        core::measureWorkload(booted, img.info, *a1, cfg);
    core::measureWorkload(booted, img.info, *b, cfg);
    const core::Measurement again =
        core::measureWorkload(booted, img.info, *a2, cfg);
    EXPECT_TRUE(sameStats(first.stats, again.stats));
    EXPECT_EQ(first.latency_us, again.latency_us);

    EXPECT_TRUE(sameStats(booted.stats(), before.stats()));
    EXPECT_EQ(booted.sinkHash(), before.sinkHash());
    const auto& globals = img.module.globals();
    for (ir::GlobalId g = 0; g < globals.size(); ++g) {
        for (size_t i = 0; i < globals[g].init.size(); ++i) {
            ASSERT_EQ(booted.readGlobal(g, i), before.readGlobal(g, i))
                << globals[g].name << "[" << i << "]";
        }
    }
    // Predictor, i-cache and JumpSwitch state are not readable from
    // outside: a copy of each must still observe the same run.
    uarch::Simulator from_booted(booted);
    uarch::Simulator from_before(before);
    const Observed x = runMeasured(from_booted, img.info, "read", cfg);
    const Observed y = runMeasured(from_before, img.info, "read", cfg);
    EXPECT_TRUE(sameStats(x.stats, y.stats));
    EXPECT_EQ(x.sink, y.sink);
}

// Four threads measure from one const prototype at once (run under
// TSan in CI): each result equals the serial one.
TEST_F(BootSnapshotTest, ConcurrentCopiesOfOnePrototype)
{
    const Image& img = (*images_)[1]; // all
    const core::MeasureConfig cfg = quickConfig();
    const auto prototype =
        core::bootImage(img.decoded, img.info, cfg.params);
    const uarch::Simulator& booted = *prototype;
    const std::vector<std::string> names = {"null", "read", "pipe",
                                            "tcp"};
    std::vector<uarch::RunStats> serial;
    for (const std::string& name : names) {
        auto wl = workload::makeWorkload(name);
        serial.push_back(
            core::measureWorkload(booted, img.info, *wl, cfg).stats);
    }
    std::vector<uarch::RunStats> parallel(names.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < names.size(); ++t) {
        threads.emplace_back([&, t] {
            auto wl = workload::makeWorkload(names[t]);
            parallel[t] =
                core::measureWorkload(booted, img.info, *wl, cfg).stats;
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (size_t t = 0; t < names.size(); ++t)
        EXPECT_TRUE(sameStats(serial[t], parallel[t])) << names[t];
}

// A prototype booted with other cost parameters would measure a
// different machine; a simulator with a profiler attached would share
// its sink with the copy.
TEST_F(BootSnapshotTest, MisuseIsAnInvariantViolation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Image& img = images_->front();
    core::MeasureConfig cfg = quickConfig();
    const auto booted = core::bootImage(img.decoded, img.info);
    cfg.params.cost_retpoline += 1;
    auto wl = workload::makeWorkload("null");
    EXPECT_DEATH(core::measureWorkload(*booted, img.info, *wl, cfg),
                 "other cost params");

    uarch::Simulator profiled(img.decoded);
    profile::EdgeProfile sink;
    profiled.setProfiler(&sink);
    EXPECT_DEATH(uarch::Simulator copy(profiled), "profiler or observer");
}

// Digests of the serialized training profiles, recorded with the
// fresh-boot-per-test collector this one replaced: starting each test
// from a copy of the boot and its edge counts reproduces them exactly.
TEST_F(BootSnapshotTest, ProfilesMatchFreshBootDigests)
{
    const ir::Module& k = kernel_->module;
    const profile::EdgeProfile lm =
        core::collectLmbenchProfile(k, kernel_->info, 20);
    EXPECT_EQ(core::ArtifactDigest::of(profile::serializeProfile(k, lm)).hex,
              "455fd2b73b0416f1cefbb8fec9029be6");

    auto suite = workload::makeLmbenchSuite();
    suite.push_back(workload::makeApacheWorkload());
    const profile::EdgeProfile twice =
        core::collectProfile(k, kernel_->info, suite, 25, /*repeats=*/2);
    EXPECT_EQ(
        core::ArtifactDigest::of(profile::serializeProfile(k, twice)).hex,
        "edfbf74f0402b0ba842d9299b926996b");
}

} // namespace
} // namespace pibe
