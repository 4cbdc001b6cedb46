/** @file Unit tests for call graph, inline cost, and code layout. */
#include <gtest/gtest.h>

#include "analysis/call_graph.h"
#include "analysis/inline_cost.h"
#include "analysis/layout.h"
#include "ir/builder.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;

/** a -> b -> c, d self-recursive, e <-> f mutually recursive. */
Module
makeGraphModule()
{
    Module m;
    ir::FuncId c = m.addFunction("c", 0);
    ir::FuncId b_ = m.addFunction("b", 0);
    ir::FuncId a = m.addFunction("a", 0);
    ir::FuncId d = m.addFunction("d", 0);
    ir::FuncId e = m.addFunction("e", 0);
    ir::FuncId f = m.addFunction("f", 0);
    {
        FunctionBuilder fb(m, c);
        fb.ret(fb.constI(1));
    }
    {
        FunctionBuilder fb(m, b_);
        fb.call(c);
        fb.call(c); // duplicate edge, must dedup
        fb.ret(fb.constI(2));
    }
    {
        FunctionBuilder fb(m, a);
        fb.call(b_);
        fb.ret(fb.constI(3));
    }
    {
        FunctionBuilder fb(m, d);
        fb.call(d);
        fb.ret(fb.constI(4));
    }
    {
        FunctionBuilder fb(m, e);
        fb.call(f);
        fb.ret(fb.constI(5));
    }
    {
        FunctionBuilder fb(m, f);
        fb.call(e);
        fb.ret(fb.constI(6));
    }
    return m;
}

TEST(CallGraph, CalleesAreDeduplicated)
{
    Module m = makeGraphModule();
    analysis::CallGraph cg(m);
    EXPECT_EQ(cg.callees(m.findFunction("b")).size(), 1u);
    EXPECT_EQ(cg.callees(m.findFunction("c")).size(), 0u);
}

TEST(CallGraph, SelfRecursionDetected)
{
    Module m = makeGraphModule();
    analysis::CallGraph cg(m);
    EXPECT_TRUE(cg.isRecursive(m.findFunction("d")));
    EXPECT_FALSE(cg.isRecursive(m.findFunction("a")));
}

TEST(CallGraph, MutualRecursionDetected)
{
    Module m = makeGraphModule();
    analysis::CallGraph cg(m);
    EXPECT_TRUE(cg.isRecursive(m.findFunction("e")));
    EXPECT_TRUE(cg.isRecursive(m.findFunction("f")));
}

TEST(CallGraph, BottomUpOrderPutsCalleesFirst)
{
    Module m = makeGraphModule();
    analysis::CallGraph cg(m);
    const auto& order = cg.bottomUpOrder();
    ASSERT_EQ(order.size(), m.numFunctions());
    auto pos = [&](const char* name) {
        ir::FuncId id = m.findFunction(name);
        for (size_t i = 0; i < order.size(); ++i) {
            if (order[i] == id)
                return i;
        }
        ADD_FAILURE() << name << " missing from bottom-up order";
        return size_t{0};
    };
    EXPECT_LT(pos("c"), pos("b"));
    EXPECT_LT(pos("b"), pos("a"));
}

TEST(CallGraph, FindSiteLocatesInstruction)
{
    Module m = makeGraphModule();
    ir::SiteId site =
        m.func(m.findFunction("a")).blocks[0].insts[0].site_id;
    analysis::SiteRef where;
    const ir::Instruction* inst = analysis::findSite(m, site, &where);
    ASSERT_NE(inst, nullptr);
    EXPECT_EQ(where.func, m.findFunction("a"));
    EXPECT_EQ(inst->op, ir::Opcode::kCall);
    EXPECT_EQ(analysis::findSite(m, 999999), nullptr);
}

TEST(InlineCost, PerInstructionCosts)
{
    ir::Instruction i;
    i.op = ir::Opcode::kConst;
    EXPECT_EQ(analysis::instructionCost(i), 0);
    i.op = ir::Opcode::kMove;
    EXPECT_EQ(analysis::instructionCost(i), 0);
    i.op = ir::Opcode::kBinOp;
    EXPECT_EQ(analysis::instructionCost(i), 5);
    i.op = ir::Opcode::kRet;
    EXPECT_EQ(analysis::instructionCost(i), 5);
    // Paper: a nested call costs 5 + 5 * num_args.
    i.op = ir::Opcode::kCall;
    i.operand_count = 3; // three arguments
    EXPECT_EQ(analysis::instructionCost(i), 20);
    i.op = ir::Opcode::kSwitch;
    i.operand_count = 4; // four cases
    EXPECT_EQ(analysis::instructionCost(i), 13);
}

TEST(InlineCost, FunctionCostSumsInstructions)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 1);
    FunctionBuilder b(m, f);
    ir::Reg r = b.bin(BinKind::kAdd, b.param(0), b.param(0)); // 5
    b.sink(r);                                                // 5
    b.ret(r);                                                 // 5
    EXPECT_EQ(analysis::functionCost(m.func(f)), 15);
}

TEST(InlineCost, CacheInvalidation)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 1);
    {
        FunctionBuilder b(m, f);
        b.ret(b.param(0));
    }
    analysis::InlineCostCache cache(m);
    int64_t before = cache.cost(f);
    // Append an instruction behind the cache's back.
    ir::Instruction s;
    s.op = ir::Opcode::kSink;
    s.a = 0;
    auto& insts = m.func(f).blocks[0].insts;
    insts.insert(insts.begin(), s);
    EXPECT_EQ(cache.cost(f), before); // stale until invalidated
    cache.invalidate(f);
    EXPECT_EQ(cache.cost(f), before + 5);
}

TEST(Layout, AddressesAreMonotonic)
{
    test::GenConfig cfg;
    cfg.seed = 3;
    Module m = test::generateModule(cfg);
    analysis::CodeLayout layout(m);
    uint64_t prev_end = 0;
    for (const ir::Function& f : m.functions()) {
        EXPECT_GE(layout.funcBase(f.id), prev_end);
        uint64_t end = 0;
        for (ir::BlockId b = 0; b < f.blocks.size(); ++b) {
            EXPECT_LE(layout.blockStart(f.id, b),
                      layout.blockEnd(f.id, b));
            for (uint32_t i = 0; i < f.blocks[b].insts.size(); ++i) {
                uint64_t addr = layout.instAddr(f.id, b, i);
                EXPECT_GE(addr, layout.blockStart(f.id, b));
                EXPECT_LT(addr, layout.blockEnd(f.id, b));
            }
            end = std::max(end, layout.blockEnd(f.id, b));
        }
        prev_end = end;
    }
    EXPECT_GE(layout.imageSize(), prev_end);
}

TEST(Layout, HardeningGrowsInstructionSize)
{
    ir::Instruction icall;
    icall.op = ir::Opcode::kICall;
    icall.a = 0;
    uint32_t plain = analysis::instByteSize(icall);
    icall.fwd_scheme = ir::FwdScheme::kFencedRetpoline;
    EXPECT_GT(analysis::instByteSize(icall), plain);

    ir::Instruction ret;
    ret.op = ir::Opcode::kRet;
    uint32_t plain_ret = analysis::instByteSize(ret);
    EXPECT_EQ(plain_ret, 1u);
    ret.ret_scheme = ir::RetScheme::kFencedRet;
    EXPECT_GT(analysis::instByteSize(ret), plain_ret);
}

TEST(Layout, HardenedModuleIsLarger)
{
    test::GenConfig cfg;
    cfg.seed = 5;
    Module m = test::generateModule(cfg);
    uint64_t before = analysis::CodeLayout(m).imageSize();
    for (ir::Function& f : m.functions()) {
        for (auto& bb : f.blocks) {
            for (auto& inst : bb.insts) {
                if (inst.op == ir::Opcode::kICall)
                    inst.fwd_scheme = ir::FwdScheme::kFencedRetpoline;
                if (inst.op == ir::Opcode::kRet)
                    inst.ret_scheme = ir::RetScheme::kFencedRet;
            }
        }
    }
    EXPECT_GT(analysis::CodeLayout(m).imageSize(), before);
}

TEST(Layout, ResidentTextRoundsToLargePages)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    FunctionBuilder b(m, f);
    b.ret(b.constI(0));
    analysis::CodeLayout layout(m);
    // A near-empty image still occupies one large page of text.
    EXPECT_EQ(layout.residentTextSize(), 256ull << 10);
    EXPECT_EQ(layout.residentTextSize() % (256ull << 10), 0u);
}

} // namespace
} // namespace pibe
