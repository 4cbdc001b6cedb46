/** @file Tests for the hardening pass and coverage accounting. */
#include <gtest/gtest.h>

#include "check/cfg.h"
#include "check/dataflow.h"
#include "check/target_sets.h"
#include "harden/harden.h"
#include "ir/builder.h"
#include "kernel/kernel.h"
#include "opt/jump_tables.h"
#include "scale/scale_builder.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using harden::DefenseConfig;
using ir::BinKind;
using ir::FunctionBuilder;
using ir::FwdScheme;
using ir::Module;
using ir::RetScheme;

/** Module with: icall (normal + asm), switch, rets (normal + boot). */
Module
makeSurfaceModule()
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 1);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.param(0));
    }
    ir::FuncId boot = m.addFunction("boot_init", 0,
                                    ir::kAttrBootSection);
    {
        FunctionBuilder b(m, boot);
        b.ret(b.constI(0));
    }
    ir::FuncId f = m.addFunction("hot", 1);
    {
        FunctionBuilder b(m, f);
        ir::Reg t = b.funcAddr(leaf);
        ir::Reg r1 = b.icall(t, {b.param(0)});
        ir::Reg r2 = b.icall(t, {r1}, /*is_asm=*/true);
        ir::BlockId d = b.newBlock();
        ir::BlockId c1 = b.newBlock();
        b.switchOn(r2, d, {{0, c1}});
        b.setBlock(c1);
        b.ret(b.constI(1));
        b.setBlock(d);
        b.ret(b.constI(2));
    }
    return m;
}

TEST(DefenseConfig, SchemeSelection)
{
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::none()),
              FwdScheme::kNone);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::retpolinesOnly()),
              FwdScheme::kRetpoline);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::lviOnly()),
              FwdScheme::kLviCfi);
    // Retpolines and LVI-CFI instrument the same sequence and are
    // incompatible; the combination must be the fenced retpoline.
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::all()),
              FwdScheme::kFencedRetpoline);
    EXPECT_EQ(harden::forwardSchemeFor(DefenseConfig::jumpSwitches()),
              FwdScheme::kJumpSwitch);

    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::retpolinesOnly()),
              RetScheme::kNone); // retpolines do not cover returns
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::retRetpolinesOnly()),
              RetScheme::kReturnRetpoline);
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::lviOnly()),
              RetScheme::kLviRet);
    EXPECT_EQ(harden::returnSchemeFor(DefenseConfig::all()),
              RetScheme::kFencedRet);
}

TEST(DefenseConfig, Names)
{
    EXPECT_EQ(DefenseConfig::none().name(), "none");
    EXPECT_EQ(DefenseConfig::retpolinesOnly().name(), "retpolines");
    EXPECT_EQ(DefenseConfig::all().name(),
              "retpolines+lvi-cfi+ret-retpolines");
    EXPECT_EQ(DefenseConfig::jumpSwitches().name(), "jumpswitches");
}

TEST(Harden, AppliesSchemesAndLowersJumpTables)
{
    Module m = makeSurfaceModule();
    auto report = harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(report.lowered_switches, 1u);
    EXPECT_EQ(report.protected_icalls, 1u);
    EXPECT_EQ(report.vulnerable_icalls, 1u); // the asm site
    EXPECT_EQ(report.vulnerable_ijumps, 0u);
    EXPECT_EQ(report.boot_only_rets, 1u);
    EXPECT_EQ(report.protected_rets, 3u); // leaf + hot's two rets
    EXPECT_TRUE(test::verifies(m));
}

TEST(Harden, AsmSwitchStaysVulnerable)
{
    Module m;
    ir::FuncId f = m.addFunction("asm_dispatch", 1);
    FunctionBuilder b(m, f);
    ir::BlockId d = b.newBlock();
    ir::BlockId c1 = b.newBlock();
    b.switchOn(b.param(0), d, {{0, c1}}, /*is_asm=*/true);
    b.setBlock(c1);
    b.ret(b.constI(1));
    b.setBlock(d);
    b.ret(b.constI(0));
    auto report = harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(report.vulnerable_ijumps, 1u);
}

TEST(Harden, NoDefensesLeavesEverythingAlone)
{
    Module m = makeSurfaceModule();
    auto report = harden::applyDefenses(m, DefenseConfig::none());
    EXPECT_EQ(report.protected_icalls, 0u);
    EXPECT_EQ(report.vulnerable_icalls, 2u);
    EXPECT_EQ(report.protected_rets, 0u);
    EXPECT_EQ(opt::countSwitches(m), 1u); // jump table kept
}

TEST(Harden, SemanticsUnchangedByHardening)
{
    Module m = makeSurfaceModule();
    ir::FuncId f = m.findFunction("hot");
    auto before = test::runScript(m, f, {{0}, {1}, {5}});
    harden::applyDefenses(m, DefenseConfig::all());
    EXPECT_EQ(test::runScript(m, f, {{0}, {1}, {5}}), before);
}

TEST(Harden, RetpolinesOnlyLeavesReturnsPlain)
{
    Module m = makeSurfaceModule();
    harden::applyDefenses(m, DefenseConfig::retpolinesOnly());
    for (const ir::Function& f : m.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op == ir::Opcode::kRet)
                    EXPECT_EQ(inst.ret_scheme, RetScheme::kNone);
                if (inst.op == ir::Opcode::kICall && !inst.is_asm)
                    EXPECT_EQ(inst.fwd_scheme, FwdScheme::kRetpoline);
            }
        }
    }
}

TEST(Harden, AnalyzeCoverageMatchesApplyReport)
{
    Module m = makeSurfaceModule();
    auto applied = harden::applyDefenses(m, DefenseConfig::all());
    auto analyzed = harden::analyzeCoverage(m);
    EXPECT_EQ(applied.protected_icalls, analyzed.protected_icalls);
    EXPECT_EQ(applied.vulnerable_icalls, analyzed.vulnerable_icalls);
    EXPECT_EQ(applied.protected_rets, analyzed.protected_rets);
    EXPECT_EQ(applied.boot_only_rets, analyzed.boot_only_rets);
}

/** Every defense combination keeps the module valid and equivalent. */
class HardenCombos : public ::testing::TestWithParam<int>
{
};

TEST_P(HardenCombos, AllCombinationsPreserveBehaviour)
{
    const int bits = GetParam();
    DefenseConfig cfg;
    cfg.retpoline = bits & 1;
    cfg.lvi_cfi = bits & 2;
    cfg.ret_retpoline = bits & 4;
    cfg.jump_switches = (bits & 8) && cfg.retpoline;

    Module m = makeSurfaceModule();
    ir::FuncId f = m.findFunction("hot");
    auto before = test::runScript(m, f, {{0}, {1}, {7}});
    harden::applyDefenses(m, cfg);
    ASSERT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runScript(m, f, {{0}, {1}, {7}}), before);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, HardenCombos,
                         ::testing::Range(0, 16));

/** Modules with switches and indirect calls, in several functions. */
std::vector<Module>
switchAndICallModules()
{
    std::vector<Module> out;
    out.push_back(makeSurfaceModule());
    kernel::KernelConfig kcfg;
    kcfg.num_drivers = 8;
    out.push_back(kernel::buildKernel(kcfg).module);
    scale::ScaleConfig scfg;
    scfg.target_insts = 10000;
    out.push_back(scale::buildScaleModule(scfg));
    return out;
}

size_t
switchesIn(const ir::Function& f)
{
    size_t n = 0;
    for (const auto& bb : f.blocks)
        n += bb.insts.back().op == ir::Opcode::kSwitch;
    return n;
}

// `touched` is the incremental-invalidation set of the pass sandwich:
// exactly the functions whose switches were lowered, not the ones that
// were only retagged.
TEST(Harden, TouchedIsExactlyTheLoweredFunctions)
{
    for (Module& m : switchAndICallModules()) {
        const Module before = m;
        std::vector<ir::FuncId> touched;
        const auto report =
            harden::applyDefenses(m, DefenseConfig::all(), &touched);
        std::vector<ir::FuncId> lowered;
        for (const ir::Function& f : m.functions())
            if (switchesIn(f) < switchesIn(before.func(f.id)))
                lowered.push_back(f.id);
        EXPECT_GT(report.lowered_switches, 0u);
        EXPECT_GT(report.protected_icalls, 0u);
        EXPECT_EQ(touched, lowered);
    }
}

void
expectSameCfgAndLiveness(const ir::Function& a, const ir::Function& b)
{
    const check::Cfg ca(a);
    const check::Cfg cb(b);
    ASSERT_EQ(ca.numBlocks(), cb.numBlocks()) << a.name;
    EXPECT_EQ(ca.reversePostOrder(), cb.reversePostOrder()) << a.name;
    const check::Liveness la(a, ca);
    const check::Liveness lb(b, cb);
    for (ir::BlockId blk = 0; blk < ca.numBlocks(); ++blk) {
        EXPECT_EQ(ca.succs(blk), cb.succs(blk)) << a.name;
        EXPECT_EQ(ca.preds(blk), cb.preds(blk)) << a.name;
        EXPECT_EQ(ca.isReachable(blk), cb.isReachable(blk)) << a.name;
        EXPECT_EQ(ca.inCycle(blk), cb.inCycle(blk)) << a.name;
        EXPECT_TRUE(la.liveIn(blk) == lb.liveIn(blk)) << a.name;
        EXPECT_TRUE(la.liveOut(blk) == lb.liveOut(blk)) << a.name;
    }
}

// Retagging schemes changes nothing any cached analysis reads, so a
// switch-free module reports no touched functions, and its CFGs,
// liveness and feasible target sets are the same after hardening.
TEST(Harden, RetagOnlyTouchesNothing)
{
    std::vector<Module> modules = switchAndICallModules();
    modules.push_back(test::generateModule(test::GenConfig{}));
    for (Module& m : modules) {
        opt::lowerJumpTables(m);
        const Module before = m;
        std::vector<ir::FuncId> touched;
        const auto report =
            harden::applyDefenses(m, DefenseConfig::all(), &touched);
        EXPECT_GT(report.protected_rets, 0u);
        EXPECT_TRUE(touched.empty());

        for (const ir::Function& f : m.functions())
            if (!f.isDeclaration())
                expectSameCfgAndLiveness(before.func(f.id), f);

        check::TargetSetAnalysis sets_before(before);
        check::TargetSetAnalysis sets_after(m);
        const auto& sa = sets_before.sites();
        const auto& sb = sets_after.sites();
        ASSERT_EQ(sa.size(), sb.size());
        for (auto ia = sa.begin(), ib = sb.begin(); ia != sa.end();
             ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first);
            EXPECT_EQ(ia->second.func, ib->second.func);
            EXPECT_EQ(ia->second.block, ib->second.block);
            EXPECT_EQ(ia->second.index, ib->second.index);
            EXPECT_EQ(ia->second.ptr, ib->second.ptr);
            EXPECT_EQ(ia->second.is_asm, ib->second.is_asm);
            EXPECT_EQ(ia->second.incomplete, ib->second.incomplete);
            EXPECT_EQ(ia->second.targets, ib->second.targets);
        }
    }
}

} // namespace
} // namespace pibe
