/**
 * @file
 * Tests for the interprocedural target-set analysis
 * (check/target_sets.h): constraint rules (op-table seeding, copies,
 * taint, globals, call arg/ret), completeness semantics, the
 * incremental invalidation contract, the verify.targets /
 * coverage.targets checkers (including the seeded out-of-set-promotion
 * bug they must catch), the surface report, and a clean
 * total-promotion build of a genkernel-scale module.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "check/analysis_manager.h"
#include "check/checks.h"
#include "check/target_sets.h"
#include "ir/builder.h"
#include "opt/icp.h"
#include "pibe/pipeline.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
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

// --- fast solver vs reference oracle --------------------------------

// Both engines compute the unique least fixpoint, so every queryable
// fact — per-site target sets, completeness flags, the address-taken
// pool, bad global slots — must be bit-identical.
void
expectSolversAgree(const Module& m)
{
    TargetSetAnalysis fast(m);
    fast.setSolverMode(check::SolverMode::kFast);
    TargetSetAnalysis ref(m);
    ref.setSolverMode(check::SolverMode::kReference);

    const auto& sf = fast.sites();
    const auto& sr = ref.sites();
    ASSERT_EQ(sf.size(), sr.size());
    auto it = sf.begin();
    auto jt = sr.begin();
    for (; it != sf.end(); ++it, ++jt) {
        EXPECT_EQ(it->first, jt->first);
        EXPECT_EQ(it->second.incomplete, jt->second.incomplete)
            << "site " << it->first;
        EXPECT_EQ(it->second.targets, jt->second.targets)
            << "site " << it->first;
    }
    EXPECT_EQ(fast.addressTaken(), ref.addressTaken());
    ASSERT_EQ(fast.badGlobalSlots().size(),
              ref.badGlobalSlots().size());
    for (size_t i = 0; i < fast.badGlobalSlots().size(); ++i) {
        EXPECT_EQ(fast.badGlobalSlots()[i].global,
                  ref.badGlobalSlots()[i].global);
        EXPECT_EQ(fast.badGlobalSlots()[i].slot,
                  ref.badGlobalSlots()[i].slot);
    }
    EXPECT_EQ(fast.solverStats().mode, check::SolverMode::kFast);
    EXPECT_EQ(ref.solverStats().mode, check::SolverMode::kReference);
}

TEST(SolverDifferential, AgreesOnRandomModules)
{
    for (uint64_t seed : {1u, 5u, 17u, 42u, 101u, 999u}) {
        test::GenConfig gcfg;
        gcfg.seed = seed;
        gcfg.num_mids = 9;
        gcfg.max_blocks = 6;
        const ir::Module m = test::generateModule(gcfg);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSolversAgree(m);
    }
}

TEST(SolverDifferential, AgreesOnGenkernelModules)
{
    for (uint64_t seed : {7u, 13u}) {
        scale::ScaleConfig cfg;
        cfg.target_insts = 20000;
        cfg.seed = seed;
        const Module m = scale::buildScaleModule(cfg);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectSolversAgree(m);
    }
}

// A ring of kMove copies (one big SCC) fed from an op table and
// drained by an icall: the shape that forces the fast solver through
// its cycle-collapsing paths (offline Tarjan catches the static ring;
// LCD catches cycles closed through dynamic call edges).
TEST(SolverDifferential, AgreesOnCopyRingSCC)
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
    expectSolversAgree(m);

    // The collapsed solve must actually have collapsed the ring.
    TargetSetAnalysis fast(m);
    fast.setSolverMode(check::SolverMode::kFast);
    fast.ensureSolved();
    EXPECT_GT(fast.solverStats().scc_collapsed +
                  fast.solverStats().lcd_collapsed,
              0u);
    // Every reg in the ring aliases the whole table.
    for (const auto& [sid, targets] : fast.sites()) {
        EXPECT_EQ(targets.targets.size(), 40u);
        EXPECT_TRUE(targets.complete());
    }
}

// A deep linear copy chain routed through a frame slot round-trip:
// stresses difference propagation down long paths.
TEST(SolverDifferential, AgreesOnDeepChainThroughFrame)
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
    expectSolversAgree(m);
}

} // namespace
} // namespace pibe
