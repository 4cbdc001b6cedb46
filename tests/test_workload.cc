/** @file Tests for the workload suite and profiling harness. */
#include <gtest/gtest.h>

#include "kernel/kernel.h"
#include "pibe/experiment.h"
#include "tests/test_util.h"
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

class WorkloadTest : public ::testing::Test
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

kernel::KernelImage* WorkloadTest::image_ = nullptr;

TEST_F(WorkloadTest, SuiteMatchesTable2Order)
{
    auto suite = workload::makeLmbenchSuite();
    ASSERT_EQ(suite.size(), 20u);
    const char* expected[] = {
        "null",       "read",      "write",       "open",
        "stat",       "fstat",     "af_unix",     "fork/exit",
        "fork/exec",  "fork/shell", "pipe",       "select_file",
        "select_tcp", "tcp_conn",  "udp",         "tcp",
        "mmap",       "page_fault", "sig_install", "sig_dispatch",
    };
    for (size_t i = 0; i < 20; ++i)
        EXPECT_EQ(suite[i]->name(), expected[i]) << "index " << i;
}

TEST_F(WorkloadTest, RetpolineSubsetIsFromTheSuite)
{
    auto names = workload::lmbenchRetpolineSubset();
    EXPECT_EQ(names.size(), 12u);
    for (const auto& name : names) {
        auto wl = workload::makeLmbenchTest(name);
        EXPECT_EQ(wl->name(), name);
    }
}

TEST_F(WorkloadTest, UnknownNameIsNull)
{
    EXPECT_EQ(workload::makeLmbenchTest("bogus"), nullptr);
    EXPECT_EQ(workload::makeWorkload("bogus"), nullptr);
    EXPECT_EQ(workload::makeLmbenchTest("nginx"), nullptr);
}

TEST_F(WorkloadTest, OneNameTableCoversEveryWorkload)
{
    for (const auto& wl : workload::makeLmbenchSuite())
        EXPECT_EQ(workload::makeWorkload(wl->name())->name(), wl->name());
    for (const char* name : {"nginx", "apache", "dbench"})
        EXPECT_EQ(workload::makeWorkload(name)->name(), name);
}

TEST_F(WorkloadTest, EveryLmbenchTestRuns)
{
    for (auto& wl : workload::makeLmbenchSuite()) {
        uarch::Simulator sim(image_->module);
        sim.setTimingEnabled(false);
        workload::KernelHandle handle(sim, image_->info);
        handle.boot();
        wl->setup(handle);
        for (uint64_t i = 0; i < 25; ++i)
            wl->iteration(handle, i);
        SUCCEED() << wl->name();
    }
}

TEST_F(WorkloadTest, MacroWorkloadsRun)
{
    for (auto maker : {workload::makeNginxWorkload,
                       workload::makeApacheWorkload,
                       workload::makeDbenchWorkload}) {
        auto wl = maker();
        uarch::Simulator sim(image_->module);
        sim.setTimingEnabled(false);
        workload::KernelHandle handle(sim, image_->info);
        handle.boot();
        wl->setup(handle);
        for (uint64_t i = 0; i < 30; ++i)
            wl->iteration(handle, i);
        SUCCEED() << wl->name();
    }
}

TEST_F(WorkloadTest, ProfileCollectionIsDeterministic)
{
    auto suite = workload::makeLmbenchSuite();
    auto p1 = core::collectProfile(image_->module, image_->info, suite,
                                   /*iters=*/25);
    auto p2 = core::collectProfile(image_->module, image_->info, suite,
                                   /*iters=*/25);
    EXPECT_EQ(p1.totalDirectWeight(), p2.totalDirectWeight());
    EXPECT_EQ(p1.totalIndirectWeight(), p2.totalIndirectWeight());
    EXPECT_EQ(p1.numDirectSites(), p2.numDirectSites());
    EXPECT_GT(p1.totalDirectWeight(), 0u);
    EXPECT_GT(p1.numIndirectSites(), 0u);
}

TEST_F(WorkloadTest, ProfileRepeatsScaleCounts)
{
    auto suite = workload::makeLmbenchSuite();
    auto p1 = core::collectProfile(image_->module, image_->info, suite,
                                   20, /*repeats=*/1);
    auto p2 = core::collectProfile(image_->module, image_->info, suite,
                                   20, /*repeats=*/2);
    EXPECT_EQ(p2.totalDirectWeight(), 2 * p1.totalDirectWeight());
}

TEST_F(WorkloadTest, MeasurementProducesPositiveLatency)
{
    auto wl = workload::makeLmbenchTest("null");
    core::MeasureConfig cfg;
    cfg.warmup_iters = 10;
    cfg.measure_iters = 40;
    auto m = core::measureWorkload(image_->module, image_->info, *wl,
                                   cfg);
    EXPECT_GT(m.latency_us, 0.0);
    EXPECT_GT(m.ops_per_sec, 0.0);
    EXPECT_GT(m.stats.cycles, 0u);
    EXPECT_GT(m.stats.returns, 0u);
}

TEST_F(WorkloadTest, MeasurementIsDeterministic)
{
    auto wl1 = workload::makeLmbenchTest("read");
    auto wl2 = workload::makeLmbenchTest("read");
    core::MeasureConfig cfg;
    cfg.warmup_iters = 10;
    cfg.measure_iters = 50;
    auto a = core::measureWorkload(image_->module, image_->info, *wl1,
                                   cfg);
    auto b = core::measureWorkload(image_->module, image_->info, *wl2,
                                   cfg);
    EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
}

TEST_F(WorkloadTest, ApacheProfileSharesHotSitesWithLmbench)
{
    // §8.4: the two workloads overlap substantially on promotion
    // candidates even though Apache is monotonic.
    auto lm = workload::makeLmbenchSuite();
    auto lm_profile =
        core::collectProfile(image_->module, image_->info, lm, 25);

    std::vector<std::unique_ptr<workload::Workload>> apache;
    apache.push_back(workload::makeApacheWorkload());
    auto ap_profile =
        core::collectProfile(image_->module, image_->info, apache, 60);

    size_t shared = 0, apache_sites = 0;
    for (const auto& [site, targets] : ap_profile.indirectSites()) {
        (void)targets;
        ++apache_sites;
        shared += lm_profile.indirectCount(site) > 0;
    }
    ASSERT_GT(apache_sites, 0u);
    EXPECT_GE(static_cast<double>(shared) /
                  static_cast<double>(apache_sites),
              0.5);
}

} // namespace
} // namespace pibe
