/**
 * @file
 * Tests for src/scale: the Linux-scale synthetic module generator, the
 * synthetic flow-conserving profile, the streaming image-size
 * estimator, and the incremental pass sandwich of core::buildImage on
 * a generated module.
 */
#include <gtest/gtest.h>

#include "analysis/layout.h"
#include "check/checks.h"
#include "harden/harden.h"
#include "ir/printer.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "pibe/pipeline.h"
#include "profile/serialize.h"
#include "scale/parallel_pipeline.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"

namespace pibe {
namespace {

scale::ScaleConfig
smallConfig(uint64_t insts = 20000, uint64_t seed = 42)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = insts;
    cfg.seed = seed;
    return cfg;
}

TEST(ScaleBuilder, DeterministicInConfig)
{
    const ir::Module a = scale::buildScaleModule(smallConfig());
    const ir::Module b = scale::buildScaleModule(smallConfig());
    EXPECT_EQ(scale::moduleDigest(a), scale::moduleDigest(b));

    const ir::Module c =
        scale::buildScaleModule(smallConfig(20000, 43));
    EXPECT_NE(scale::moduleDigest(a), scale::moduleDigest(c));
}

TEST(ScaleBuilder, HitsTargetSizeAndShape)
{
    scale::ScaleStats stats;
    const ir::Module m =
        scale::buildScaleModule(smallConfig(50000), &stats);
    // Within 10% of the requested instruction count.
    EXPECT_GT(stats.num_insts, 45000u);
    EXPECT_LT(stats.num_insts, 55000u);
    EXPECT_GT(stats.icall_sites, 0u);
    EXPECT_GT(stats.num_tables, 0u);
    EXPECT_EQ(stats.ret_sites, stats.num_functions);
}

TEST(ScaleBuilder, OutputIsCheckCleanWithProfileFlow)
{
    const ir::Module m = scale::buildScaleModule(smallConfig());
    const profile::EdgeProfile prof = scale::synthesizeProfile(m);

    check::CheckOptions opts;
    opts.profile = &prof;
    opts.profile_flow = true;
    const check::CheckReport report = check::runChecks(m, opts);
    for (const check::Diagnostic& d : report.diags)
        EXPECT_NE(d.severity, check::Severity::kError) << d.render();
}

TEST(ScaleBuilder, TextRoundTripsThroughParser)
{
    const ir::Module m = scale::buildScaleModule(smallConfig(8000));
    const ir::Module back = ir::parseModule(ir::printModule(m));
    EXPECT_TRUE(ir::verifyModule(back).empty());
    EXPECT_EQ(scale::moduleDigest(m), scale::moduleDigest(back));
}

TEST(ScaleProfile, DeterministicAndNonTrivial)
{
    const ir::Module m = scale::buildScaleModule(smallConfig());
    const profile::EdgeProfile a = scale::synthesizeProfile(m);
    const profile::EdgeProfile b = scale::synthesizeProfile(m);
    EXPECT_EQ(profile::serializeProfile(m, a),
              profile::serializeProfile(m, b));
    EXPECT_FALSE(a.directSites().empty());
    EXPECT_FALSE(a.indirectSites().empty());
}

TEST(ScaleEstimators, StreamingSizesMatchMaterializedOnes)
{
    const ir::Module m = scale::buildScaleModule(smallConfig());
    EXPECT_EQ(analysis::imageSizeOf(m),
              analysis::CodeLayout(m).imageSize());

    // Still equal after the pipeline reshapes the module (promoted
    // calls, inlined bodies, hardened sites).
    core::OptConfig opt;
    opt.sandwich = false;
    const ir::Module image =
        core::buildImage(m, scale::synthesizeProfile(m), opt,
                         harden::DefenseConfig::all());
    EXPECT_EQ(analysis::imageSizeOf(image),
              analysis::CodeLayout(image).imageSize());
}

TEST(ScalePipeline, AuditIsCleanAndIncremental)
{
    const ir::Module m = scale::buildScaleModule(smallConfig());
    const profile::EdgeProfile prof = scale::synthesizeProfile(m);

    core::BuildReport rep;
    const ir::Module image = core::buildImage(
        m, prof, core::OptConfig{}, harden::DefenseConfig::all(), &rep);

    EXPECT_EQ(check::countSeverity(rep.sandwich, check::Severity::kError),
              0u);
    // The pipeline actually did something.
    EXPECT_NE(scale::moduleDigest(image), scale::moduleDigest(m));
    EXPECT_GT(rep.icp.promoted_sites, 0u);
    EXPECT_GT(rep.inlining.inlined_sites, 0u);
    EXPECT_GT(rep.coverage.protected_icalls, 0u);
    EXPECT_GT(rep.coverage.protected_rets, 0u);
    // One AnalysisManager spans every sandwich stage, so functions no
    // pass touched are audited from cache.
    EXPECT_GT(rep.analyses_computed, 0u);
    EXPECT_GT(rep.analyses_reused, 0u);
    EXPECT_GT(rep.image_size, rep.baseline_image_size);
    EXPECT_EQ(rep.image_size, analysis::imageSizeOf(image));
}

} // namespace
} // namespace pibe
