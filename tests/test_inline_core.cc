/** @file Tests for the inlining transformation mechanics. */
#include <gtest/gtest.h>

#include <string>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "opt/inline_core.h"
#include "runtime/thread_pool.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;
using ir::Opcode;

/** Find the first kCall site id in a function. */
ir::SiteId
firstCallSite(const ir::Function& f)
{
    for (const auto& bb : f.blocks) {
        for (const auto& inst : bb.insts) {
            if (inst.op == Opcode::kCall)
                return inst.site_id;
        }
    }
    return ir::kNoSite;
}

size_t
countCalls(const ir::Function& f)
{
    size_t n = 0;
    for (const auto& bb : f.blocks) {
        for (const auto& inst : bb.insts)
            n += (inst.op == Opcode::kCall);
    }
    return n;
}

TEST(InlineCore, InlinesSimpleCallee)
{
    Module m;
    ir::FuncId callee = m.addFunction("callee", 1);
    {
        FunctionBuilder b(m, callee);
        b.ret(b.binImm(BinKind::kMul, b.param(0), 3));
    }
    ir::FuncId caller = m.addFunction("caller", 1);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(callee, {b.param(0)});
        b.ret(b.binImm(BinKind::kAdd, r, 1));
    }
    auto before = test::runFunction(m, caller, {5});
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(countCalls(m.func(caller)), 0u);
    EXPECT_EQ(test::runFunction(m, caller, {5}), before);
    EXPECT_EQ(test::runFunction(m, caller, {5}).result, 16);
}

TEST(InlineCore, HandlesVoidStyleReturn)
{
    Module m;
    m.addGlobal("g", {0});
    ir::FuncId callee = m.addFunction("store7", 0);
    {
        FunctionBuilder b(m, callee);
        ir::Reg z = b.constI(0);
        ir::Reg seven = b.constI(7);
        b.store(0, z, seven);
        b.ret(); // void return
    }
    ir::FuncId caller = m.addFunction("caller", 0);
    {
        FunctionBuilder b(m, caller);
        b.call(callee);
        ir::Reg z = b.constI(0);
        ir::Reg v = b.load(0, z);
        b.ret(v);
    }
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, caller, {}).result, 7);
}

TEST(InlineCore, MultipleReturnPaths)
{
    Module m;
    ir::FuncId callee = m.addFunction("abs_like", 1);
    {
        FunctionBuilder b(m, callee);
        ir::Reg neg = b.binImm(BinKind::kLt, b.param(0), 0);
        ir::BlockId n = b.newBlock();
        ir::BlockId p = b.newBlock();
        b.condBr(neg, n, p);
        b.setBlock(n);
        ir::Reg z = b.constI(0);
        b.ret(b.bin(BinKind::kSub, z, b.param(0)));
        b.setBlock(p);
        b.ret(b.param(0));
    }
    ir::FuncId caller = m.addFunction("caller", 1);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(callee, {b.param(0)});
        b.ret(r);
    }
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, caller, {-9}).result, 9);
    EXPECT_EQ(test::runFunction(m, caller, {4}).result, 4);
}

TEST(InlineCore, RemapsFrameSlots)
{
    Module m;
    ir::FuncId callee = m.addFunction("uses_frame", 1);
    {
        FunctionBuilder b(m, callee);
        uint32_t s = b.newFrameSlot();
        b.frameStore(s, b.param(0));
        b.ret(b.frameLoad(s));
    }
    ir::FuncId caller = m.addFunction("caller", 1);
    {
        FunctionBuilder b(m, caller);
        uint32_t s = b.newFrameSlot();
        b.frameStore(s, b.param(0));
        ir::Reg r = b.call(callee, {b.binImm(BinKind::kAdd,
                                             b.param(0), 100)});
        ir::Reg mine = b.frameLoad(s);
        b.ret(b.bin(BinKind::kAdd, r, mine));
    }
    uint32_t caller_frame = m.func(caller).frame_size;
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    ASSERT_TRUE(outcome.ok);
    EXPECT_TRUE(test::verifies(m));
    // Caller's frame grew by the callee's.
    EXPECT_EQ(m.func(caller).frame_size, caller_frame + 1);
    // (x+100) + x with x=5 -> 110.
    EXPECT_EQ(test::runFunction(m, caller, {5}).result, 110);
}

TEST(InlineCore, ReportsInheritedSitesWithFreshIds)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(1));
    }
    ir::FuncId mid = m.addFunction("mid", 0);
    ir::SiteId mid_call_site;
    {
        FunctionBuilder b(m, mid);
        ir::Reg r = b.call(leaf);
        mid_call_site = firstCallSite(m.func(mid));
        ir::Reg t = b.funcAddr(leaf);
        ir::Reg r2 = b.icall(t, {});
        b.ret(b.bin(BinKind::kAdd, r, r2));
    }
    ir::FuncId caller = m.addFunction("caller", 0);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(mid);
        b.ret(r);
    }
    ir::SiteId bound_before = m.siteIdBound();
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    ASSERT_TRUE(outcome.ok);
    ASSERT_EQ(outcome.inherited.size(), 2u);
    // One direct (leaf) and one indirect inherited site.
    int direct = 0, indirect = 0;
    for (const auto& inh : outcome.inherited) {
        EXPECT_GE(inh.new_site, bound_before); // fresh ids
        if (inh.indirect) {
            ++indirect;
        } else {
            ++direct;
            EXPECT_EQ(inh.callee_site, mid_call_site);
        }
    }
    EXPECT_EQ(direct, 1);
    EXPECT_EQ(indirect, 1);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, caller, {}).result, 2);
}

TEST(InlineCore, RefusesNoInlineCallee)
{
    Module m;
    ir::FuncId callee =
        m.addFunction("stubborn", 0, ir::kAttrNoInline);
    {
        FunctionBuilder b(m, callee);
        b.ret(b.constI(0));
    }
    ir::FuncId caller = m.addFunction("caller", 0);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(callee);
        b.ret(r);
    }
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    EXPECT_FALSE(outcome.ok);
    EXPECT_STREQ(outcome.reason, "callee is noinline");
}

TEST(InlineCore, RefusesOptNoneCaller)
{
    Module m;
    ir::FuncId callee = m.addFunction("callee", 0);
    {
        FunctionBuilder b(m, callee);
        b.ret(b.constI(0));
    }
    ir::FuncId caller = m.addFunction("caller", 0, ir::kAttrOptNone);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(callee);
        b.ret(r);
    }
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    EXPECT_FALSE(outcome.ok);
    EXPECT_STREQ(outcome.reason, "caller is optnone");
}

TEST(InlineCore, RefusesSelfRecursion)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 1);
    {
        FunctionBuilder b(m, f);
        ir::Reg stop = b.binImm(BinKind::kLe, b.param(0), 0);
        ir::BlockId base = b.newBlock();
        ir::BlockId rec = b.newBlock();
        b.condBr(stop, base, rec);
        b.setBlock(base);
        b.ret(b.constI(0));
        b.setBlock(rec);
        ir::Reg r = b.call(f, {b.binImm(BinKind::kSub, b.param(0), 1)});
        b.ret(r);
    }
    auto outcome =
        opt::inlineCallSite(m, f, firstCallSite(m.func(f)));
    EXPECT_FALSE(outcome.ok);
    EXPECT_STREQ(outcome.reason, "self-recursive call");
}

TEST(InlineCore, RefusesDeclaration)
{
    Module m;
    ir::FuncId ext = m.addFunction("external", 0, ir::kAttrExternal);
    ir::FuncId caller = m.addFunction("caller", 0);
    {
        FunctionBuilder b(m, caller);
        ir::Reg r = b.call(ext);
        b.ret(r);
    }
    auto outcome = opt::inlineCallSite(m, caller,
                                       firstCallSite(m.func(caller)));
    EXPECT_FALSE(outcome.ok);
}

TEST(InlineCore, UnknownSiteFailsGracefully)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    {
        FunctionBuilder b(m, f);
        b.ret(b.constI(0));
    }
    auto outcome = opt::inlineCallSite(m, f, 424242);
    EXPECT_FALSE(outcome.ok);
    EXPECT_STREQ(outcome.reason, "site not found");
}

/** Property: inlining every inlinable site preserves semantics. */
class InlineCoreProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(InlineCoreProperty, ExhaustiveInliningPreservesSemantics)
{
    test::GenConfig cfg;
    cfg.seed = GetParam();
    Module m = test::generateModule(cfg);
    ir::FuncId main = test::generatedMain(m);
    auto before = test::runScript(m, main, test::argMatrix());

    // Inline main's direct call sites repeatedly (bounded rounds).
    for (int round = 0; round < 4; ++round) {
        std::vector<ir::SiteId> sites;
        for (const auto& bb : m.func(main).blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op == Opcode::kCall)
                    sites.push_back(inst.site_id);
            }
        }
        if (sites.empty())
            break;
        for (ir::SiteId s : sites)
            opt::inlineCallSite(m, main, s);
        ASSERT_TRUE(test::verifies(m));
    }
    auto after = test::runScript(m, main, test::argMatrix());
    EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------------
// Operand pool growth. Inlining appends the callee's argument and case
// lists to the caller's pool; when that pool is full the append moves
// it, and a span held across the append (the call's own arguments are
// read after the callee's operands went in) would read freed memory.
// Under ASan that is a use-after-free, so this test runs there; it
// also parses its module on several threads (the filler functions put
// the parse above runtime::kInstsPerHelper), which the TSan job runs.

/** A callee with calls, icalls, a switch and a frame slot, a caller
 *  that calls it between two other calls, and filler functions. */
std::string
poolGrowthText(uint32_t filler_funcs, uint32_t calls_per_filler)
{
    std::string text =
        "func @leaf(params=2, regs=3, frame=0) {\n"
        "bb0:\n"
        "    r2 = add r0, r1\n"
        "    ret r2 !site 0\n"
        "}\n"
        "func @callee(params=2, regs=8, frame=1) {\n"
        "bb0:\n"
        "    frame[0] = r1\n"
        "    r2 = call @leaf(r0, r1) !site 1\n"
        "    r3 = funcaddr @leaf\n"
        "    r4 = icall r3(r2, r0) !retpoline !site 2\n"
        "    switch r4 default bb3, 0->bb1, 1->bb2, 7->bb1, -5->bb3\n"
        "bb1:\n"
        "    r5 = call @leaf(r4, r1) !site 3\n"
        "    ret r5 !site 4\n"
        "bb2:\n"
        "    r6 = icall r3(r1, r1) !site 5\n"
        "    r7 = frame[0]\n"
        "    r6 = call @leaf(r6, r7) !site 6\n"
        "    ret r6 !site 7\n"
        "bb3:\n"
        "    ret r0 !site 8\n"
        "}\n"
        "func @caller(params=2, regs=4, frame=0) {\n"
        "bb0:\n"
        "    r2 = call @leaf(r0, r1) !site 9\n"
        "    r3 = call @callee(r1, r2) !site 10\n"
        "    r3 = call @leaf(r3, r2) !site 11\n"
        "    ret r3 !site 12\n"
        "}\n";
    uint32_t site = 13;
    for (uint32_t f = 0; f < filler_funcs; ++f) {
        text += "func @fill" + std::to_string(f) +
                "(params=2, regs=3, frame=0) {\nbb0:\n";
        for (uint32_t c = 0; c < calls_per_filler; ++c)
            text += "    r2 = call @leaf(r" + std::to_string(c % 2) +
                    ", r2) !site " + std::to_string(site++) + "\n";
        text += "    ret r2 !site " + std::to_string(site++) + "\n}\n";
    }
    return text;
}

TEST(OperandPool, InlineReallocatesCallerPoolMidInline)
{
    // 160 x 1000 filler calls: the parse runs on more than one thread.
    const uint32_t filler_funcs = 160;
    const uint32_t calls = 1000;
    ASSERT_GT(filler_funcs * calls, 2 * runtime::kInstsPerHelper);
    const std::string text = poolGrowthText(filler_funcs, calls);
    Module m = ir::parseModule(text);
    ASSERT_EQ(ir::printModule(m), text); // pools filled in parallel
    const ir::FuncId caller = m.findFunction("caller");
    ir::Function& f = m.func(caller);
    f.operands.args.shrink_to_fit();
    f.operands.cases.shrink_to_fit();
    const size_t args_capacity = f.operands.args.capacity();
    ASSERT_EQ(args_capacity, f.operands.args.size());
    ASSERT_EQ(f.operands.cases.capacity(), 0u);

    auto outcome = opt::inlineCallSite(m, caller, 10);
    ASSERT_TRUE(outcome.ok) << outcome.reason;
    EXPECT_TRUE(test::verifies(m));
    // The callee's lists did not fit: the pool moved mid-inline.
    EXPECT_GT(f.operands.args.size(), args_capacity);
    EXPECT_EQ(f.operands.cases.size(), 4u);
    // The text the inliner printed before operands moved to a pool
    // (fresh site ids follow the filler's).
    EXPECT_EQ(ir::printFunction(m, f),
              "func @caller(params=2, regs=12, frame=1) {\n"
              "bb0:\n"
              "    r2 = call @leaf(r0, r1) !site 9\n"
              "    r4 = move r1\n"
              "    r5 = move r2\n"
              "    br bb2\n"
              "bb1:\n"
              "    r3 = call @leaf(r3, r2) !site 11\n"
              "    ret r3 !site 12\n"
              "bb2:\n"
              "    frame[0] = r5\n"
              "    r6 = call @leaf(r4, r5) !site 160173\n"
              "    r7 = funcaddr @leaf\n"
              "    r8 = icall r7(r6, r4) !retpoline !site 160174\n"
              "    switch r8 default bb5, 0->bb3, 1->bb4, 7->bb3, "
              "-5->bb5\n"
              "bb3:\n"
              "    r9 = call @leaf(r8, r5) !site 160175\n"
              "    r3 = move r9\n"
              "    br bb1\n"
              "bb4:\n"
              "    r10 = icall r7(r5, r5) !site 160176\n"
              "    r11 = frame[0]\n"
              "    r10 = call @leaf(r10, r11) !site 160177\n"
              "    r3 = move r10\n"
              "    br bb1\n"
              "bb5:\n"
              "    r3 = move r4\n"
              "    br bb1\n"
              "}\n");
}

INSTANTIATE_TEST_SUITE_P(Seeds, InlineCoreProperty,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
} // namespace pibe
