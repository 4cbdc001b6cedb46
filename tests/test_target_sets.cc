/**
 * @file
 * Tests for the interprocedural target-set analysis
 * (check/target_sets.h): constraint rules (op-table seeding, copies,
 * taint, globals, call arg/ret), completeness semantics, the
 * incremental invalidation contract (also with summaries extracted on
 * helper threads), wiring-time sends of icall edges, the
 * verify.targets / coverage.targets checkers (including the seeded
 * out-of-set-promotion bug they must catch), the surface report, a
 * clean total-promotion build of a genkernel-scale module, and golden
 * digests of the solved analysis on random, generated and adversarial
 * copy-graph modules.
 */
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "check/analysis_manager.h"
#include "check/checks.h"
#include "check/target_sets.h"
#include "ir/builder.h"
#include "kernel/kernel.h"
#include "opt/icp.h"
#include "pibe/pipeline.h"
#include "runtime/digest.h"
#include "runtime/thread_pool.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using check::TargetSet;
using check::TargetSetAnalysis;
using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;

std::vector<const check::Diagnostic*>
withId(const check::CheckReport& report, const std::string& id)
{
    std::vector<const check::Diagnostic*> out;
    for (const check::Diagnostic& d : report.diags)
        if (d.check_id == id)
            out.push_back(&d);
    return out;
}

/** Two leaves, an op table holding both, and a dispatcher that loads
 *  from the table and calls indirectly. */
struct TableModule
{
    Module m;
    ir::FuncId f1, f2, dispatcher;
    ir::SiteId site;
};

TableModule
makeTableModule()
{
    TableModule t;
    t.f1 = t.m.addFunction("f1", 1);
    t.f2 = t.m.addFunction("f2", 1);
    {
        FunctionBuilder b(t.m, t.f1);
        b.ret(b.binImm(BinKind::kAdd, b.param(0), 1));
    }
    {
        FunctionBuilder b(t.m, t.f2);
        b.ret(b.binImm(BinKind::kMul, b.param(0), 3));
    }
    t.m.addGlobal("ops", {ir::funcAddrValue(t.f1),
                          ir::funcAddrValue(t.f2)});
    t.dispatcher = t.m.addFunction("dispatcher", 2);
    FunctionBuilder b(t.m, t.dispatcher);
    ir::Reg idx = b.binImm(BinKind::kAnd, b.param(0), 1);
    ir::Reg target = b.load(0, idx, 0);
    ir::Reg r = b.icall(target, {b.param(1)});
    const auto& insts = t.m.func(t.dispatcher).blocks[0].insts;
    t.site = insts[insts.size() - 1].site_id;
    b.ret(r);
    return t;
}

TEST(TargetSets, OpTableSeedingYieldsCompleteSet)
{
    TableModule t = makeTableModule();
    TargetSetAnalysis tsa(t.m);
    const check::SiteTargets* st = tsa.site(t.site);
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->complete());
    EXPECT_EQ(st->targets, (std::vector<ir::FuncId>{t.f1, t.f2}));
    EXPECT_EQ(tsa.addressTaken(), (std::vector<ir::FuncId>{t.f1, t.f2}));
    EXPECT_TRUE(tsa.badGlobalSlots().empty());
}

TEST(TargetSets, FuncAddrAndMoveFlow)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(7));
    }
    ir::FuncId caller = m.addFunction("caller", 0);
    FunctionBuilder b(m, caller);
    ir::Reg a = b.funcAddr(leaf);
    ir::Reg c = b.move(a);
    b.ret(b.icall(c, {}));
    ir::SiteId site =
        m.func(caller).blocks[0].insts[2].site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* st = tsa.site(site);
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->complete());
    EXPECT_EQ(st->targets, std::vector<ir::FuncId>{leaf});
}

TEST(TargetSets, RootParameterIsIncomplete)
{
    Module m;
    ir::FuncId main = m.addFunction("main", 1); // default root
    FunctionBuilder b(m, main);
    b.ret(b.icall(b.param(0), {}));
    ir::SiteId site = m.func(main).blocks[0].insts[0].site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* st = tsa.site(site);
    ASSERT_NE(st, nullptr);
    EXPECT_FALSE(st->complete());
}

TEST(TargetSets, ArithmeticOnPointerTaints)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(1));
    }
    ir::FuncId caller = m.addFunction("caller", 0);
    FunctionBuilder b(m, caller);
    ir::Reg a = b.funcAddr(leaf);
    ir::Reg mangled = b.binImm(BinKind::kAdd, a, 0);
    b.ret(b.icall(mangled, {}));
    ir::SiteId site = ir::kNoSite;
    for (const auto& inst : m.func(caller).blocks[0].insts)
        if (inst.op == ir::Opcode::kICall)
            site = inst.site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* st = tsa.site(site);
    ASSERT_NE(st, nullptr);
    EXPECT_FALSE(st->complete()) << "pointer escaped into arithmetic";
}

TEST(TargetSets, StoreThenLoadThroughGlobalFlows)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(2));
    }
    ir::GlobalId slot = m.addGlobal("slot", {0});
    ir::FuncId writer = m.addFunction("writer", 0);
    {
        FunctionBuilder b(m, writer);
        ir::Reg a = b.funcAddr(leaf);
        ir::Reg zero = b.constI(0);
        b.store(slot, zero, a);
        b.ret(zero);
    }
    ir::FuncId reader = m.addFunction("reader", 0);
    FunctionBuilder b(m, reader);
    ir::Reg zero = b.constI(0);
    ir::Reg p = b.load(slot, zero, 0);
    b.ret(b.icall(p, {}));
    ir::SiteId site = m.func(reader).blocks[0].insts[2].site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* st = tsa.site(site);
    ASSERT_NE(st, nullptr);
    EXPECT_TRUE(st->complete());
    EXPECT_EQ(st->targets, std::vector<ir::FuncId>{leaf});
}

TEST(TargetSets, CallArgumentAndReturnPropagation)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(3));
    }
    // provider() returns &leaf.
    ir::FuncId provider = m.addFunction("provider", 0);
    {
        FunctionBuilder b(m, provider);
        b.ret(b.funcAddr(leaf));
    }
    // sink(fp) calls through its parameter.
    ir::FuncId sink = m.addFunction("sink_fn", 1);
    {
        FunctionBuilder b(m, sink);
        b.ret(b.icall(b.param(0), {}));
    }
    // glue: fp = provider(); sink(fp)
    ir::FuncId glue = m.addFunction("glue", 0);
    {
        FunctionBuilder b(m, glue);
        ir::Reg fp = b.call(provider, {});
        ir::Reg r2 = b.icall(fp, {});
        (void)r2;
        b.call(sink, {fp});
        b.ret(fp);
    }
    ir::SiteId ret_site = m.func(glue).blocks[0].insts[1].site_id;
    ir::SiteId arg_site = m.func(sink).blocks[0].insts[0].site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* via_ret = tsa.site(ret_site);
    ASSERT_NE(via_ret, nullptr);
    EXPECT_TRUE(via_ret->complete());
    EXPECT_EQ(via_ret->targets, std::vector<ir::FuncId>{leaf});

    const check::SiteTargets* via_arg = tsa.site(arg_site);
    ASSERT_NE(via_arg, nullptr);
    EXPECT_TRUE(via_arg->complete());
    EXPECT_EQ(via_arg->targets, std::vector<ir::FuncId>{leaf});
}

TEST(TargetSets, IncompleteIcallTaintsAddressTakenParams)
{
    Module m;
    // handler(fp) is address-taken and calls through its parameter.
    ir::FuncId handler = m.addFunction("handler", 1);
    {
        FunctionBuilder b(m, handler);
        b.ret(b.icall(b.param(0), {}));
    }
    // main (root) calls through an unresolved pointer with one arg —
    // it may invoke handler with an arbitrary pointer, so handler's
    // own icall must be incomplete.
    ir::FuncId main = m.addFunction("main", 1);
    {
        FunctionBuilder b(m, main);
        ir::Reg taken = b.funcAddr(handler); // makes handler a target
        (void)taken;
        b.ret(b.icall(b.param(0), {b.param(0)}));
    }
    ir::SiteId handler_site = m.func(handler).blocks[0].insts[0].site_id;

    TargetSetAnalysis tsa(m);
    const check::SiteTargets* st = tsa.site(handler_site);
    ASSERT_NE(st, nullptr);
    EXPECT_FALSE(st->complete())
        << "an unresolved icall may reach handler with any pointer";
}

TEST(TargetSets, BadGlobalSlotReported)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    {
        FunctionBuilder b(m, f);
        b.ret(b.constI(0));
    }
    // Slot decodes as a function address for a nonexistent id.
    m.addGlobal("ops", {static_cast<int64_t>(ir::funcAddrValue(99))});

    TargetSetAnalysis tsa(m);
    ASSERT_EQ(tsa.badGlobalSlots().size(), 1u);
    EXPECT_EQ(tsa.badGlobalSlots()[0].slot, 0u);

    check::CheckOptions opts;
    opts.lint = false;
    opts.targets = true;
    check::CheckReport report = check::runChecks(m, opts);
    EXPECT_FALSE(withId(report, "verify.targets").empty());
}

TEST(TargetSets, EmptyCompleteSiteWarns)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 1);
    FunctionBuilder b(m, f);
    ir::Reg never = b.newReg(); // never written: empty, complete
    b.ret(b.icall(never, {}));

    check::CheckOptions opts;
    opts.lint = false;
    opts.targets = true;
    check::CheckReport report = check::runChecks(m, opts);
    auto diags = withId(report, "verify.targets");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->severity, check::Severity::kWarning);
}

// The acceptance-criteria seeded bug: a corrupt profile makes ICP
// promote a target outside the site's complete feasible set; the
// translation-validation checker must flag the promoted direct call.
TEST(TargetSets, SeededOutOfSetPromotionCaught)
{
    TableModule t = makeTableModule();
    // evil has matching arity but is NOT in the op table.
    ir::FuncId evil = t.m.addFunction("evil", 1);
    {
        FunctionBuilder b(t.m, evil);
        b.ret(b.binImm(BinKind::kXor, b.param(0), 0x41));
    }
    profile::EdgeProfile prof;
    prof.addIndirect(t.site, evil, 1000); // corrupt: never observable

    opt::IcpConfig cfg;
    opt::IcpAudit audit = opt::runIcp(t.m, prof, cfg);
    ASSERT_EQ(audit.promoted_targets, 1u) << "bug must be injected";
    ASSERT_TRUE(test::verifies(t.m)) << "structurally valid, yet wrong";

    check::CheckOptions opts;
    opts.lint = false;
    opts.targets = true;
    check::CheckReport report = check::runChecks(t.m, opts);
    auto diags = withId(report, "verify.targets");
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0]->severity, check::Severity::kError);
    EXPECT_NE(diags[0]->message.find("outside"), std::string::npos);
}

TEST(TargetSets, InSetPromotionIsClean)
{
    TableModule t = makeTableModule();
    profile::EdgeProfile prof;
    prof.addIndirect(t.site, t.f1, 900);
    prof.addIndirect(t.site, t.f2, 100);
    opt::runIcp(t.m, prof, {});

    check::CheckOptions opts;
    opts.lint = false;
    opts.targets = true;
    check::CheckReport report = check::runChecks(t.m, opts);
    EXPECT_TRUE(withId(report, "verify.targets").empty());
}

TEST(TargetSets, CoverageTargetsFlagsImpossibleProfile)
{
    TableModule t = makeTableModule();
    ir::FuncId evil = t.m.addFunction("evil", 1);
    {
        FunctionBuilder b(t.m, evil);
        b.ret(b.param(0));
    }
    profile::EdgeProfile prof;
    prof.addIndirect(t.site, t.f1, 500);
    prof.addIndirect(t.site, evil, 5); // outside the static set

    check::CheckOptions opts;
    opts.verify = false;
    opts.lint = false;
    opts.targets = true;
    opts.profile = &prof;
    check::CheckReport report = check::runChecks(t.m, opts);
    auto diags = withId(report, "coverage.targets");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0]->severity, check::Severity::kError);
}

TEST(TargetSets, IncrementalInvalidationReextractsExactlyOne)
{
    test::GenConfig gcfg;
    gcfg.seed = 11;
    Module m = test::generateModule(gcfg);

    TargetSetAnalysis tsa(m);
    const auto sites_before = tsa.sites(); // copy
    const size_t base = tsa.summariesExtracted();
    EXPECT_EQ(base, m.numFunctions());
    EXPECT_EQ(tsa.solves(), 1u);

    tsa.invalidateFunction(0);
    const auto& sites_after = tsa.sites();
    EXPECT_EQ(tsa.summariesExtracted(), base + 1)
        << "exactly the invalidated summary is re-extracted";
    EXPECT_EQ(tsa.solves(), 2u);

    // Parity: incremental re-solve == fresh analysis.
    TargetSetAnalysis fresh(m);
    const auto& sites_fresh = fresh.sites();
    ASSERT_EQ(sites_after.size(), sites_fresh.size());
    for (const auto& [sid, st] : sites_fresh) {
        auto it = sites_after.find(sid);
        ASSERT_NE(it, sites_after.end());
        EXPECT_EQ(it->second.targets, st.targets);
        EXPECT_EQ(it->second.incomplete, st.incomplete);
    }
    (void)sites_before;
}

/** Every register's facts and every site of `tsa` equal a fresh
 *  analysis of the same module. */
void
expectSameAsFresh(TargetSetAnalysis& tsa, const Module& m,
                  const std::string& what)
{
    TargetSetAnalysis fresh(m);
    for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
        for (ir::Reg r = 0; r < m.func(f).num_regs; ++r) {
            const check::TargetSet got = tsa.regTargets(f, r);
            const check::TargetSet want = fresh.regTargets(f, r);
            EXPECT_EQ(got.targets, want.targets)
                << what << " f" << f << " r" << r;
            EXPECT_EQ(got.incomplete, want.incomplete)
                << what << " f" << f << " r" << r;
        }
    }
    ASSERT_EQ(tsa.sites().size(), fresh.sites().size()) << what;
    for (const auto& [sid, st] : fresh.sites()) {
        const check::SiteTargets* got = tsa.site(sid);
        ASSERT_NE(got, nullptr) << what;
        EXPECT_EQ(got->targets, st.targets) << what;
        EXPECT_EQ(got->incomplete, st.incomplete) << what;
        EXPECT_EQ(got->block, st.block) << what;
        EXPECT_EQ(got->index, st.index) << what;
    }
}

// A re-solve whose re-extracted summaries all equal the cached ones
// keeps the fixpoint (re-laid out when registers were added); any
// real change, or invalidateAll(), re-runs it.
TEST(TargetSets, UnchangedSummariesKeepTheFixpoint)
{
    test::GenConfig gcfg;
    gcfg.seed = 11;
    Module m = test::generateModule(gcfg);
    TargetSetAnalysis tsa(m);
    tsa.ensureSolved();
    ir::FuncId body = 0;
    while (m.func(body).isDeclaration())
        ++body;

    tsa.invalidateFunction(body);
    expectSameAsFresh(tsa, m, "untouched");
    EXPECT_EQ(tsa.solutionsKept(), 1u);

    // Unused registers move every later node.
    m.func(body).num_regs += 3;
    tsa.invalidateFunction(body);
    expectSameAsFresh(tsa, m, "registers added");
    EXPECT_EQ(tsa.solutionsKept(), 2u);
    EXPECT_EQ(tsa.solves(), 3u);

    tsa.invalidateAll();
    expectSameAsFresh(tsa, m, "invalidateAll");
    EXPECT_EQ(tsa.solutionsKept(), 2u);

    // A new function-address seed changes the summary.
    ir::Function& fn = m.func(body);
    ir::Instruction seed;
    seed.op = ir::Opcode::kFuncAddr;
    seed.dst = fn.num_regs++;
    seed.callee = body;
    fn.blocks[0].insts.insert(fn.blocks[0].insts.begin(), seed);
    tsa.invalidateFunction(body);
    expectSameAsFresh(tsa, m, "seed added");
    EXPECT_EQ(tsa.solutionsKept(), 2u);
    EXPECT_EQ(tsa.solves(), 5u);
}

/** A generated module of at least two extraction helpers' worth of
 *  instructions, so a solve extracts summaries on helper threads. */
Module
threadedModule(uint64_t seed)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = 140000;
    cfg.seed = seed;
    Module m = scale::buildScaleModule(cfg);
    size_t insts = 0;
    for (const ir::Function& f : m.functions())
        insts += f.instructionCount();
    EXPECT_GE(insts, 2 * runtime::kInstsPerHelper);
    return m;
}

// The keep decision compares every re-extracted summary with the one
// it replaces, however the sweep's chunks were scheduled.
TEST(TargetSets, KeepDecisionComparesEverySummary)
{
    Module m = threadedModule(7);
    TargetSetAnalysis tsa(m);
    tsa.ensureSolved();
    const size_t nf = m.numFunctions();
    auto invalidateEvery = [&] {
        for (ir::FuncId f = 0; f < nf; ++f)
            tsa.invalidateFunction(f);
    };

    invalidateEvery();
    tsa.ensureSolved();
    EXPECT_EQ(tsa.solutionsKept(), 1u);
    EXPECT_EQ(tsa.summariesExtracted(), 2 * nf);

    // A new function-address seed in one function mid-module.
    ir::FuncId body = static_cast<ir::FuncId>(nf / 2);
    while (m.func(body).isDeclaration())
        ++body;
    ir::Function& fn = m.func(body);
    ir::Instruction seed;
    seed.op = ir::Opcode::kFuncAddr;
    seed.dst = fn.num_regs++;
    seed.callee = body;
    fn.blocks[0].insts.insert(fn.blocks[0].insts.begin(), seed);
    invalidateEvery();
    expectSameAsFresh(tsa, m, "one function changed");
    EXPECT_EQ(tsa.solutionsKept(), 1u);
    EXPECT_EQ(tsa.solves(), 3u);
}

// The site's pointer reaches `target` only at the end of a long copy
// chain, after the nodes that feed the wired edges (the argument
// register and ret(target)) have been popped: the edges must send
// when they are wired. Either function order puts one of the two
// sources first.
TEST(TargetSets, LateWiredEdgesStillFlow)
{
    for (const bool caller_first : {true, false}) {
        SCOPED_TRACE(caller_first ? "caller first" : "target first");
        Module m;
        const ir::FuncId returned = m.addFunction("returned", 0);
        const ir::FuncId passed = m.addFunction("passed", 0);
        ir::FuncId caller = ir::kInvalidFunc;
        ir::FuncId target = ir::kInvalidFunc;
        if (caller_first) {
            caller = m.addFunction("caller", 0);
            target = m.addFunction("target", 1);
        } else {
            target = m.addFunction("target", 1);
            caller = m.addFunction("caller", 0);
        }
        for (const ir::FuncId leaf : {returned, passed}) {
            FunctionBuilder b(m, leaf);
            b.ret(b.constI(0));
        }
        {
            FunctionBuilder b(m, target);
            b.sink(b.param(0));
            b.ret(b.funcAddr(returned));
        }
        ir::Reg dst = ir::kNoReg;
        {
            FunctionBuilder b(m, caller);
            ir::Reg ptr = b.funcAddr(target);
            for (int i = 0; i < 60; ++i)
                ptr = b.move(ptr);
            dst = b.icall(ptr, {b.funcAddr(passed)});
            b.ret(dst);
        }
        ASSERT_TRUE(test::verifies(m));

        TargetSetAnalysis tsa(m);
        const TargetSet got = tsa.regTargets(caller, dst);
        EXPECT_FALSE(got.incomplete);
        EXPECT_EQ(got.targets, std::vector<ir::FuncId>{returned});
        const TargetSet param = tsa.regTargets(target, 0);
        EXPECT_FALSE(param.incomplete);
        EXPECT_EQ(param.targets, std::vector<ir::FuncId>{passed});
    }
}

TEST(TargetSets, AnalysisManagerInvalidationTracksMutation)
{
    TableModule t = makeTableModule();
    check::AnalysisManager am(t.m);
    const check::SiteTargets* st = am.targetSets().site(t.site);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->targets.size(), 2u);

    // Mutate: dispatcher now calls through a tainted pointer.
    ir::Function& f = t.m.func(t.dispatcher);
    for (auto& bb : f.blocks) {
        for (auto& inst : bb.insts) {
            if (inst.op == ir::Opcode::kBinOp &&
                inst.bin == BinKind::kAnd)
                inst.op = ir::Opcode::kMove; // idx = param0 (unbounded)
        }
    }
    am.invalidate(t.dispatcher);
    const check::SiteTargets* st2 = am.targetSets().site(t.site);
    ASSERT_NE(st2, nullptr);
    // Still loads from the table: same set, still complete.
    EXPECT_EQ(st2->targets.size(), 2u);
}

TEST(TargetSets, SurfaceReportCountsAndAir)
{
    TableModule t = makeTableModule();
    TargetSetAnalysis tsa(t.m);
    check::SurfaceReport rep = check::buildSurfaceReport(tsa, 8);
    EXPECT_EQ(rep.icall_sites, 1u);
    EXPECT_EQ(rep.complete_sites, 1u);
    EXPECT_EQ(rep.address_taken, 2u);
    EXPECT_EQ(rep.switchpoline_eligible, 1u);
    EXPECT_EQ(rep.set_size_hist.at(2), 1u);
    ASSERT_FALSE(rep.defenses.empty());
    // Unhardened module: no site is behind a forward scheme yet.
    for (const auto& row : rep.defenses)
        EXPECT_EQ(row.protected_icalls + row.unprotected_icalls,
                  rep.icall_sites);
    const std::string json = check::renderSurfaceJson(rep);
    EXPECT_NE(json.find("\"bench\": \"surface\""), std::string::npos);
    EXPECT_NE(json.find("\"defenses\""), std::string::npos);
}

// genkernel smoke: a 10^5-instruction synthetic kernel's op-table
// discipline must give every site a complete feasible set, and
// verify.targets must be clean — including through a total-promotion
// build, whose sandwich re-runs verify.targets after every pass.
TEST(TargetSets, GenkernelSmokeCompleteAndClean)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = 100000;
    cfg.seed = 13;
    Module m = scale::buildScaleModule(cfg);

    TargetSetAnalysis tsa(m);
    size_t incomplete = 0;
    for (const auto& [sid, st] : tsa.sites())
        incomplete += st.incomplete;
    EXPECT_EQ(incomplete, 0u);
    EXPECT_FALSE(tsa.sites().empty());

    check::CheckOptions opts;
    opts.lint = false;
    opts.targets = true;
    check::CheckReport report = check::runChecks(m, opts);
    EXPECT_TRUE(withId(report, "verify.targets").empty());

    profile::EdgeProfile prof = scale::synthesizeProfile(m);
    core::OptConfig opt;
    opt.icp_total_promotion = true;
    core::BuildReport rep;
    core::buildImage(m, prof, opt, harden::DefenseConfig::all(), &rep);
    EXPECT_GT(rep.icp.fallbacks_dropped, 0u);
    EXPECT_EQ(check::countSeverity(rep.sandwich, check::Severity::kError),
              0u);
}

// --- golden solutions -------------------------------------------------

// Digest of every queryable fact of the solved analysis: each site's
// (site, func, completeness, targets), the address-taken pool, the bad
// global slots, and every register's target set and completeness.
std::string
solutionDigest(TargetSetAnalysis& tsa)
{
    runtime::Digest d;
    for (const auto& [sid, st] : tsa.sites()) {
        d.add(sid).add(st.func).add(st.incomplete);
        d.add(static_cast<uint64_t>(st.targets.size()));
        for (ir::FuncId t : st.targets)
            d.add(t);
    }
    d.add(static_cast<uint64_t>(tsa.addressTaken().size()));
    for (ir::FuncId f : tsa.addressTaken())
        d.add(f);
    d.add(static_cast<uint64_t>(tsa.badGlobalSlots().size()));
    for (const check::BadGlobalSlot& b : tsa.badGlobalSlots())
        d.add(b.global).add(static_cast<uint64_t>(b.slot)).add(b.value);
    const Module& m = tsa.module();
    for (ir::FuncId f = 0; f < m.numFunctions(); ++f) {
        for (ir::Reg r = 0; r < m.func(f).num_regs; ++r) {
            const TargetSet ts = tsa.regTargets(f, r);
            d.add(ts.incomplete);
            d.add(static_cast<uint64_t>(ts.targets.size()));
            for (ir::FuncId t : ts.targets)
                d.add(t);
        }
    }
    return d.hex();
}

// The digests were recorded when an SCC-collapsing, difference-
// propagating solver and a naive worklist both computed, and were
// asserted to agree on, each module's least fixpoint.
void
expectGolden(const Module& m, const std::string& digest)
{
    TargetSetAnalysis tsa(m);
    EXPECT_EQ(solutionDigest(tsa), digest);
}

// A random copy graph in one function: registers loaded from four op
// tables with disjoint handlers, copied along random moves, plus extra
// moves into existing registers (merges, and cycles when the source is
// downstream), drained by icalls. Sets merge, grow and cover one
// another in an order the seed decides.
Module
randomCopyGraph(uint64_t seed)
{
    Module m;
    for (int t = 0; t < 4; ++t) {
        std::vector<int64_t> init;
        for (int i = 0; i < 6; ++i) {
            ir::FuncId f = m.addFunction(
                "h" + std::to_string(t) + "_" + std::to_string(i), 1);
            FunctionBuilder b(m, f);
            b.ret(b.binImm(BinKind::kAdd, b.param(0), 1));
            init.push_back(ir::funcAddrValue(f));
        }
        m.addGlobal("ops" + std::to_string(t), std::move(init));
    }
    Rng rng(seed);
    const ir::FuncId g = m.addFunction("graph", 1);
    FunctionBuilder b(m, g);
    std::vector<ir::Reg> regs;
    for (ir::GlobalId t = 0; t < 4; ++t)
        regs.push_back(b.load(t, b.param(0), 0));
    const size_t chain = 60;
    for (size_t i = 0; i < chain; ++i)
        regs.push_back(b.move(regs[rng.below(regs.size())]));
    std::vector<ir::Reg> merge_dst;
    for (int i = 0; i < 30; ++i) {
        merge_dst.push_back(regs[4 + rng.below(chain)]);
        b.move(regs[rng.below(regs.size())]);
    }
    ir::Reg acc = b.param(0);
    for (int i = 0; i < 6; ++i)
        acc = b.icall(regs[4 + rng.below(chain)], {acc});
    b.ret(acc);
    // Point the extra moves at their existing destination registers.
    size_t moves = 0;
    for (ir::Instruction& in : m.func(g).blocks[0].insts)
        if (in.op == ir::Opcode::kMove && moves++ >= chain)
            in.dst = merge_dst[moves - chain - 1];
    return m;
}

TEST(TargetSetsGolden, RandomCopyGraphs)
{
    const std::pair<uint64_t, const char*> golden[] = {
        {3, "32db7b6348d8b5577b288a4f19a2d642"},
        {11, "4697003eea7c51c3869ea2acc2d32ed6"},
        {29, "bb182b37b459a63cb7a7ce9769d2d429"},
    };
    for (const auto& [seed, digest] : golden) {
        const Module m = randomCopyGraph(seed);
        ASSERT_TRUE(test::verifies(m));
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectGolden(m, digest);
    }
}

TEST(TargetSetsGolden, RandomModules)
{
    const std::pair<uint64_t, const char*> golden[] = {
        {1, "5fcf70f38bb133382ab26864fec2146d"},
        {5, "cbf335d646aefab583f6052b0aaff9e0"},
        {17, "307dce59ddadb2669c944d62f387a9b3"},
        {42, "318e0efcd2c997a9338c2098f78afd3c"},
        {101, "d283804b902a772d15cf80e5e78e24f8"},
        {999, "2db2dad283527b3936d722130eaa212c"},
    };
    for (const auto& [seed, digest] : golden) {
        test::GenConfig gcfg;
        gcfg.seed = seed;
        gcfg.num_mids = 9;
        gcfg.max_blocks = 6;
        const ir::Module m = test::generateModule(gcfg);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectGolden(m, digest);
    }
}

// The synthetic kernel: many icall sites over large op-table sets, and
// root parameters whose incompleteness flows through calls.
TEST(TargetSetsGolden, SyntheticKernels)
{
    const std::pair<uint32_t, const char*> golden[] = {
        {8, "4e93656de1b3df2c3470415f32cbafb9"},
        {64, "c8f22fc934e9df891a8b3244d9c45354"},
    };
    for (const auto& [drivers, digest] : golden) {
        kernel::KernelConfig kcfg;
        kcfg.num_drivers = drivers;
        SCOPED_TRACE("drivers " + std::to_string(drivers));
        expectGolden(kernel::buildKernel(kcfg).module, digest);
    }
}

TEST(TargetSetsGolden, GenkernelModules)
{
    const std::pair<uint64_t, const char*> golden[] = {
        {7, "e234e7f2e7c61220628afa990c191f0d"},
        {13, "5ed0dd1a2a3ff4658b28d55d0dd4f1f4"},
    };
    for (const auto& [seed, digest] : golden) {
        scale::ScaleConfig cfg;
        cfg.target_insts = 20000;
        cfg.seed = seed;
        const Module m = scale::buildScaleModule(cfg);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectGolden(m, digest);
    }
}

// A ring of kMove copies (one big SCC) fed from an op table and
// drained by an icall: every reg in the cycle must reach the fixpoint
// holding the whole table.
TEST(TargetSetsGolden, CopyRingSCC)
{
    Module m;
    std::vector<int64_t> init;
    for (int i = 0; i < 40; ++i) {
        ir::FuncId f = m.addFunction("h" + std::to_string(i), 1);
        FunctionBuilder b(m, f);
        b.ret(b.binImm(BinKind::kAdd, b.param(0), 1));
        init.push_back(ir::funcAddrValue(f));
    }
    m.addGlobal("ops", std::move(init));

    ir::FuncId d = m.addFunction("ring", 1);
    {
        FunctionBuilder b(m, d);
        ir::Reg seed = b.load(0, b.param(0), 0);
        const int n = 300;
        std::vector<ir::Reg> regs;
        for (int i = 0; i < n; ++i)
            regs.push_back(b.move(seed));
        b.ret(b.icall(regs[n - 1], {b.param(0)}));
        // Rewire the moves into a chain regs[0] <- seed <- ... and
        // close the cycle with an extra back-edge move
        // regs[0] <- regs[n-1] spliced in before the icall.
        ir::Function& fn = m.func(d);
        int mi = 0;
        ir::Instruction back_edge;
        for (auto& inst : fn.blocks[0].insts) {
            if (inst.op != ir::Opcode::kMove)
                continue;
            if (mi == 0)
                back_edge = inst; // template: same op/shape
            inst.a = (mi == 0) ? seed : regs[mi - 1];
            ++mi;
        }
        back_edge.dst = regs[0];
        back_edge.a = regs[n - 1];
        auto& insts = fn.blocks[0].insts;
        insts.insert(insts.end() - 2, back_edge);
    }
    ASSERT_TRUE(test::verifies(m));
    expectGolden(m, "465af7d8f5547a4daaaa2ec944d33998");

    // Every reg in the ring aliases the whole table.
    TargetSetAnalysis tsa(m);
    for (const auto& [sid, targets] : tsa.sites()) {
        EXPECT_EQ(targets.targets.size(), 40u);
        EXPECT_TRUE(targets.complete());
    }
}

// A deep linear copy chain routed through a frame slot round-trip:
// the table's set travels 500 copies to reach the icall.
TEST(TargetSetsGolden, DeepChainThroughFrame)
{
    Module m;
    std::vector<int64_t> init;
    for (int i = 0; i < 25; ++i) {
        ir::FuncId f = m.addFunction("leaf" + std::to_string(i), 1);
        FunctionBuilder b(m, f);
        b.ret(b.binImm(BinKind::kAdd, b.param(0), 1));
        init.push_back(ir::funcAddrValue(f));
    }
    m.addGlobal("ops", std::move(init));

    ir::FuncId d = m.addFunction("chain", 1);
    {
        FunctionBuilder b(m, d);
        ir::Reg prev = b.load(0, b.param(0), 0);
        for (int i = 0; i < 500; ++i)
            prev = b.move(prev);
        const uint32_t slot = b.newFrameSlot();
        b.frameStore(slot, prev);
        ir::Reg back = b.frameLoad(slot);
        b.ret(b.icall(back, {b.param(0)}));
    }
    ASSERT_TRUE(test::verifies(m));
    expectGolden(m, "2dc52e2f8958a6254d2f95ae113bf8b0");
}

/** Every field of every site, one line each. */
std::string
sitesText(TargetSetAnalysis& tsa)
{
    std::ostringstream os;
    for (const auto& [sid, st] : tsa.sites()) {
        os << sid << ' ' << st.func << ' ' << st.block << ' ' << st.index
           << ' ' << st.ptr << ' ' << st.is_asm << ' ' << st.incomplete
           << ':';
        for (ir::FuncId t : st.targets)
            os << ' ' << t;
        os << '\n';
    }
    return os.str();
}

// A fork()ed child has no helper pool, so it extracts every summary on
// the caller alone; the parent's solves recruit helpers. Both must
// reach the same registers' sets and the same sites.
TEST(TargetSetsGolden, ParallelExtractionMatchesForkedSolve)
{
    std::vector<Module> modules;
    modules.push_back(threadedModule(7));
    modules.push_back(threadedModule(13));
    // Solved here first, so the helper pool exists and belongs to this
    // process, not to the child.
    std::vector<std::string> parent;
    for (const Module& m : modules) {
        TargetSetAnalysis tsa(m);
        parent.push_back(solutionDigest(tsa) + "\n" + sitesText(tsa));
        EXPECT_EQ(tsa.summariesExtracted(), m.numFunctions());
    }
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        for (const Module& m : modules) {
            TargetSetAnalysis tsa(m);
            const std::string out =
                solutionDigest(tsa) + "\n" + sitesText(tsa);
            const uint64_t size = out.size();
            if (write(fds[1], &size, sizeof size) != sizeof size ||
                write(fds[1], out.data(), out.size()) !=
                    static_cast<ssize_t>(out.size()))
                _exit(1);
        }
        _exit(0);
    }
    close(fds[1]);
    auto readFully = [&](void* dst, size_t n) {
        for (char* p = static_cast<char*>(dst); n > 0;) {
            const ssize_t got = read(fds[0], p, n);
            if (got <= 0)
                return false;
            p += got;
            n -= static_cast<size_t>(got);
        }
        return true;
    };
    for (size_t i = 0; i < modules.size(); ++i) {
        uint64_t size = 0;
        std::string child;
        ASSERT_TRUE(readFully(&size, sizeof size)) << "module " << i;
        child.resize(size);
        ASSERT_TRUE(readFully(child.data(), size)) << "module " << i;
        EXPECT_EQ(parent[i], child) << "module " << i;
    }
    close(fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}


/** The icall in `f` whose instruction sits at `index` in block 0. */
ir::Instruction&
icallAt(Module& m, ir::FuncId f, size_t index)
{
    ir::Instruction& in = m.func(f).blocks[0].insts[index];
    EXPECT_EQ(in.op, ir::Opcode::kICall);
    return in;
}

// Many sites calling through one op-table, in every shape the call-hub
// rules single out (DESIGN.md §11): mixed arities over a table that
// holds arity-mismatched targets, a declaration target, a pointer that
// is a parameter of an address-taken function, a pointer behind a
// taint edge, a self-referential icall, an icall result feeding
// another site's pointer, a single-inflow copy cycle and a site
// without a result. Each pointer the rules exclude from single-inflow
// (a seed, an address-taken parameter, an icall result, a taint
// target) also has exactly one static copy in-edge, so dropping a rule
// picks a wrong representative. The pointers behind taint edges
// (`tainted`) and a call through a root's parameter (`unresolved`)
// are incomplete, and each taints every address-taken parameter, so
// they come one at a time.
Module
sharedOpTableModule(bool tainted, bool unresolved)
{
    Module m;
    auto leaf = [&](const std::string& name, uint32_t params) {
        return m.addFunction(name, params);
    };
    const ir::FuncId z0 = leaf("z0", 0);
    const ir::FuncId z1 = leaf("z1", 0);
    const ir::FuncId u0 = leaf("u0", 1);
    const ir::FuncId u1 = leaf("u1", 1);
    const ir::FuncId u2 = leaf("u2", 1);
    const ir::FuncId u3 = leaf("u3", 1);
    const ir::FuncId b0 = leaf("b0", 2);
    const ir::FuncId b1 = leaf("b1", 2);
    const ir::FuncId id = leaf("id", 1);
    const ir::FuncId ext = leaf("ext", 1); // A declaration.
    {
        FunctionBuilder b(m, z0);
        b.ret(b.constI(5));
    }
    {
        FunctionBuilder b(m, z1);
        b.ret(b.funcAddr(u0));
    }
    {
        FunctionBuilder b(m, u0);
        b.sink(b.binImm(BinKind::kAdd, b.param(0), 1));
        b.ret(b.constI(1));
    }
    {
        FunctionBuilder b(m, u1);
        b.ret(b.param(0));
    }
    {
        FunctionBuilder b(m, u2);
        b.ret(b.funcAddr(z0));
    }
    {
        // Calls through its own (address-taken) parameter.
        FunctionBuilder b(m, u3);
        b.ret(b.icall(b.param(0), {}));
    }
    {
        FunctionBuilder b(m, b0);
        b.ret(b.param(1));
    }
    {
        FunctionBuilder b(m, b1);
        b.ret(b.icall(b.param(0), {b.param(1)}));
    }
    {
        FunctionBuilder b(m, id);
        b.ret(b.param(0));
    }
    std::vector<int64_t> ops;
    for (ir::FuncId f : {u0, u1, u2, u3, b0, b1, z0, z1})
        ops.push_back(ir::funcAddrValue(f));
    const ir::GlobalId table = m.addGlobal("ops", ops);
    const ir::GlobalId ext_table = m.addGlobal(
        "ext_ops", {ir::funcAddrValue(u1), ir::funcAddrValue(ext)});
    const ir::GlobalId self_table =
        m.addGlobal("self_ops", {ir::funcAddrValue(id)});

    // Several arities through one loaded pointer; the arity-0 site
    // keeps no result.
    const ir::FuncId c0 = m.addFunction("c0", 1);
    {
        FunctionBuilder b(m, c0);
        const ir::Reg p = b.load(table, b.param(0), 0);
        const ir::Reg r = b.icall(p, {b.funcAddr(z0)});
        const ir::Reg r2 = b.icall(p, {r});
        const ir::Reg r3 = b.icall(p, {b.param(0), r2});
        b.icall(p, {});
        // u3's parameter also has one static copy in-edge.
        b.call(u3, {b.funcAddr(z0)});
        b.ret(r3);
    }
    icallAt(m, c0, 5).dst = ir::kNoReg;
    // The same table through a frame slot and a copy, and the
    // declaration's table.
    const ir::FuncId c1 = m.addFunction("c1", 1);
    {
        FunctionBuilder b(m, c1);
        const ir::Reg p = b.load(table, b.param(0), 0);
        const uint32_t slot = b.newFrameSlot();
        b.frameStore(slot, p);
        const ir::Reg q = b.move(b.frameLoad(slot));
        const ir::Reg r = b.icall(q, {b.funcAddr(z1)});
        const ir::Reg e = b.load(ext_table, b.param(0), 0);
        // A seeded pointer with one copy in-edge.
        const ir::Reg s = b.funcAddr(id);
        b.setReg(s, e);
        b.icall(s, {b.funcAddr(b0)});
        b.ret(b.icall(e, {r}));
    }
    // An icall result is another site's pointer, directly and through
    // a copy.
    const ir::FuncId c3 = m.addFunction("c3", 1);
    {
        FunctionBuilder b(m, c3);
        const ir::Reg p = b.load(table, b.param(0), 0);
        const ir::Reg f = b.icall(p, {b.funcAddr(u3)});
        b.setReg(f, b.funcAddr(z1));
        const ir::Reg g = b.icall(f, {});
        const ir::Reg h = b.move(f);
        b.ret(b.icall(h, {g}));
    }
    // A self-referential icall: the call's result flows back into its
    // own pointer, so wiring grows the set it is wiring from.
    const ir::FuncId c4 = m.addFunction("c4", 1);
    {
        FunctionBuilder b(m, c4);
        const ir::Reg p = b.move(b.load(self_table, b.param(0), 0));
        const ir::Reg r = b.icall(p, {b.funcAddr(z1)});
        b.setReg(p, r);
        b.ret(b.icall(p, {r}));
    }
    // A copy cycle that nothing feeds: both sites stay empty.
    const ir::FuncId c5 = m.addFunction("c5", 1);
    {
        FunctionBuilder b(m, c5);
        const ir::Reg a = b.constI(0);
        const ir::Reg c = b.move(a);
        b.setReg(a, c);
        const ir::Reg r = b.icall(c, {b.param(0)});
        b.ret(b.icall(a, {r}));
    }
    if (tainted) {
        // A pointer with a copy and two taint in-edges, and one with a
        // single taint in-edge: its other operand is out of range, so
        // the summary skips it.
        const ir::FuncId c6 = m.addFunction("c6", 1);
        FunctionBuilder b(m, c6);
        const ir::Reg p = b.load(table, b.param(0), 0);
        const ir::Reg q = b.move(p);
        b.setRegBin(q, BinKind::kAdd, q, b.param(0));
        const ir::Reg r = b.icall(q, {b.param(0)});
        const ir::Reg t = b.bin(BinKind::kAdd, p, p);
        b.ret(b.icall(t, {r}));
        for (ir::Instruction& in : m.func(c6).blocks[0].insts)
            if (in.op == ir::Opcode::kBinOp && in.dst == t)
                in.b = m.func(c6).num_regs + 7;
    }
    if (unresolved) {
        const ir::FuncId root = m.addFunction("main", 1);
        FunctionBuilder b(m, root);
        const ir::Reg r = b.icall(b.param(0), {b.funcAddr(u3)});
        const ir::Reg q = b.move(b.param(0));
        b.ret(b.icall(q, {r}));
    }
    return m;
}

TEST(TargetSetsGolden, SharedOpTableHubs)
{
    const struct
    {
        bool tainted;
        bool unresolved;
        const char* digest;
    } golden[] = {
        {false, false, "d98800f5e519a2eb88c212d075894afe"},
        {true, false, "80289f8d73df7619b23010475ecd012c"},
        {false, true, "3426062468aa365055e6bfb91f460825"},
    };
    for (const auto& [tainted, unresolved, digest] : golden) {
        const Module m = sharedOpTableModule(tainted, unresolved);
        SCOPED_TRACE(std::string(tainted ? "tainted " : "") +
                     (unresolved ? "unresolved" : "resolved"));
        expectGolden(m, digest);
    }
}

// The 448-driver kernel: 897 of its 917 sites load one op-table. Call
// hubs wire each target once per (pointer, arity), not once per site.
TEST(TargetSets, HubsCollapseDynamicEdges)
{
    const Module m = kernel::buildKernel(kernel::KernelConfig{}).module;
    TargetSetAnalysis tsa(m);
    EXPECT_EQ(solutionDigest(tsa), "a455a8b453077985f557b220a324a5e0");
    EXPECT_LT(tsa.solverStats().dynamic_edges, 50000u);
    EXPECT_GT(tsa.solverStats().call_hubs, 0u);
}

} // namespace
} // namespace pibe
