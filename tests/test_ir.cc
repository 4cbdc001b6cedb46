/** @file Unit tests for the PIR core: builder, verifier, printer. */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/module.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;
using ir::Opcode;

TEST(FuncAddr, RoundTrips)
{
    for (ir::FuncId f : {0u, 1u, 17u, 65535u}) {
        int64_t v = ir::funcAddrValue(f);
        EXPECT_TRUE(ir::isFuncAddrValue(v));
        EXPECT_EQ(ir::funcAddrTarget(v), f);
    }
}

TEST(FuncAddr, PlainIntegersAreNotFunctionValues)
{
    EXPECT_FALSE(ir::isFuncAddrValue(0));
    EXPECT_FALSE(ir::isFuncAddrValue(12345));
    EXPECT_FALSE(ir::isFuncAddrValue(-1));
}

TEST(Module, AddFunctionAssignsSequentialIds)
{
    Module m;
    EXPECT_EQ(m.addFunction("a", 0), 0u);
    EXPECT_EQ(m.addFunction("b", 2), 1u);
    EXPECT_EQ(m.findFunction("b"), 1u);
    EXPECT_EQ(m.findFunction("missing"), ir::kInvalidFunc);
    EXPECT_EQ(m.func(1).num_params, 2u);
}

TEST(ModuleDeath, DuplicateFunctionName)
{
    Module m;
    m.addFunction("dup", 0);
    EXPECT_DEATH(m.addFunction("dup", 1), "duplicate function");
}

TEST(Module, GlobalsHoldInitialValues)
{
    Module m;
    ir::GlobalId g = m.addGlobal("table", {1, 2, 3});
    EXPECT_EQ(m.global(g).init.size(), 3u);
    EXPECT_EQ(m.global(g).init[1], 2);
}

TEST(Module, SiteIdsAreModuleUnique)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    ir::FuncId g = m.addFunction("g", 0);
    {
        FunctionBuilder b(m, f);
        b.ret(b.constI(1));
    }
    {
        FunctionBuilder b(m, g);
        b.call(f);
        b.ret(b.constI(2));
    }
    EXPECT_TRUE(test::verifies(m));
    EXPECT_GE(m.siteIdBound(), 3u); // two rets + one call
}

TEST(Builder, SimpleFunctionVerifiesAndRuns)
{
    Module m;
    ir::FuncId f = m.addFunction("double_it", 1);
    FunctionBuilder b(m, f);
    ir::Reg r = b.binImm(BinKind::kMul, b.param(0), 2);
    b.ret(r);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, f, {21}).result, 42);
}

TEST(Builder, FrameSlots)
{
    Module m;
    ir::FuncId f = m.addFunction("spill", 1);
    FunctionBuilder b(m, f);
    uint32_t slot = b.newFrameSlot();
    b.frameStore(slot, b.param(0));
    ir::Reg v = b.frameLoad(slot);
    b.ret(v);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, f, {99}).result, 99);
    EXPECT_EQ(m.func(f).frame_size, 1u);
}

TEST(Builder, SetRegAssignsExistingRegister)
{
    Module m;
    ir::FuncId f = m.addFunction("loopish", 1);
    FunctionBuilder b(m, f);
    ir::Reg acc = b.newReg();
    b.setRegConst(acc, 5);
    b.setRegBin(acc, BinKind::kAdd, acc, b.param(0));
    b.ret(acc);
    EXPECT_EQ(test::runFunction(m, f, {10}).result, 15);
}

TEST(BuilderDeath, EmitPastTerminator)
{
    Module m;
    ir::FuncId f = m.addFunction("bad", 0);
    FunctionBuilder b(m, f);
    b.ret(b.constI(0));
    EXPECT_DEATH(b.constI(1), "past terminator");
}

TEST(Verifier, AcceptsWellFormedSwitch)
{
    Module m;
    ir::FuncId f = m.addFunction("sw", 1);
    FunctionBuilder b(m, f);
    ir::BlockId d = b.newBlock();
    ir::BlockId c1 = b.newBlock();
    b.switchOn(b.param(0), d, {{1, c1}});
    b.setBlock(d);
    b.ret(b.constI(0));
    b.setBlock(c1);
    b.ret(b.constI(1));
    EXPECT_TRUE(test::verifies(m));
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    m.func(f).blocks.emplace_back();
    ir::Instruction i;
    i.op = Opcode::kConst;
    i.dst = 0;
    m.func(f).num_regs = 1;
    m.func(f).blocks[0].insts.push_back(i);
    auto problems = ir::verifyFunction(m, m.func(f));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesBadRegister)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    m.func(f).blocks.emplace_back();
    ir::Instruction mv;
    mv.op = Opcode::kMove;
    mv.dst = 0;
    mv.a = 57; // out of range
    m.func(f).num_regs = 1;
    ir::Instruction ret;
    ret.op = Opcode::kRet;
    ret.site_id = m.allocSiteId();
    m.func(f).blocks[0].insts = {mv, ret};
    auto problems = ir::verifyFunction(m, m.func(f));
    ASSERT_FALSE(problems.empty());
}

TEST(Verifier, CatchesBadBranchTarget)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    m.func(f).blocks.emplace_back();
    ir::Instruction br;
    br.op = Opcode::kBr;
    br.t0 = 9;
    m.func(f).blocks[0].insts = {br};
    auto problems = ir::verifyFunction(m, m.func(f));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("out of range"), std::string::npos);
}

TEST(Verifier, CatchesCallArityMismatch)
{
    // One argument too few, then one too many, for a two-parameter
    // callee.
    const std::vector<ir::Reg> arg_lists[] = {{0}, {0, 0, 0}};
    for (const std::vector<ir::Reg>& args : arg_lists) {
        SCOPED_TRACE(args.size());
        Module m;
        ir::FuncId callee = m.addFunction("callee", 2);
        {
            FunctionBuilder b(m, callee);
            b.ret(b.param(0));
        }
        ir::FuncId f = m.addFunction("f", 0);
        m.func(f).blocks.emplace_back();
        ir::Instruction call;
        call.op = Opcode::kCall;
        call.callee = callee;
        call.dst = 0;
        call.site_id = m.allocSiteId();
        m.func(f).setArgs(call, args);
        m.func(f).num_regs = 1;
        ir::Instruction ret;
        ret.op = Opcode::kRet;
        ret.site_id = m.allocSiteId();
        m.func(f).blocks[0].insts = {call, ret};
        auto problems = ir::verifyFunction(m, m.func(f));
        ASSERT_EQ(problems.size(), 1u);
        EXPECT_EQ(problems[0], "f bb0[0]: call to callee with " +
                                   std::to_string(args.size()) +
                                   " args, expected 2");
    }
}

/** f(p0) { r1 = call @callee(p0) ; ret r1 } with a one-param callee:
 *  a well-formed start for the operand-range cases below. */
Module
callModule()
{
    Module m;
    ir::FuncId callee = m.addFunction("callee", 1);
    {
        FunctionBuilder b(m, callee);
        b.ret(b.param(0));
    }
    ir::FuncId f = m.addFunction("f", 1);
    {
        FunctionBuilder b(m, f);
        b.ret(b.call(callee, {b.param(0)}));
    }
    return m;
}

TEST(Verifier, CatchesCallRangeLeavingThePool)
{
    Module m = callModule();
    ir::Function& f = m.func(1);
    ASSERT_EQ(f.operands.args.size(), 1u);
    ir::Instruction& call = f.blocks[0].insts[0];
    call.operand_offset = 1; // [1, 2) of a one-entry pool
    auto problems = ir::verifyFunction(m, f);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(problems[0], "f bb0[0]: operand range [1, 2) leaves the "
                           "function's pool of 1");
}

TEST(Verifier, CatchesSwitchRangeLeavingThePool)
{
    Module m;
    ir::FuncId fid = m.addFunction("sw", 1);
    FunctionBuilder b(m, fid);
    ir::BlockId d = b.newBlock();
    b.switchOn(b.param(0), d, {{1, d}, {2, d}});
    b.setBlock(d);
    b.ret();
    ir::Function& f = m.func(fid);
    f.blocks[0].insts.back().operand_count = 3; // two cases in the pool
    auto problems = ir::verifyFunction(m, f);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(problems[0], "sw bb0[0]: operand range [0, 3) leaves the "
                           "function's pool of 2");
}

TEST(Verifier, CatchesOperandCountOnListlessOpcode)
{
    Module m = callModule();
    ir::Function& f = m.func(1);
    ir::Instruction& ret = f.blocks[0].insts.back();
    ASSERT_EQ(ret.op, Opcode::kRet);
    ret.operand_count = 1; // in the pool's bounds, but ret takes no list
    auto problems = ir::verifyFunction(m, f);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_EQ(problems[0], "f bb0[1]: operand count 1 on an opcode that "
                           "takes no operand list");
}

TEST(Verifier, CatchesDuplicateSiteIds)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    {
        FunctionBuilder b(m, f);
        b.ret(b.constI(0));
    }
    ir::FuncId g = m.addFunction("g", 0);
    {
        FunctionBuilder b(m, g);
        b.ret(b.constI(0));
    }
    // Force g's ret to share f's site id.
    m.func(g).blocks[0].insts.back().site_id =
        m.func(f).blocks[0].insts.back().site_id;
    auto problems = ir::verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("duplicate site id"), std::string::npos);
}

TEST(Verifier, CatchesFrameOutOfRange)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 0);
    m.func(f).blocks.emplace_back();
    m.func(f).num_regs = 1;
    ir::Instruction fl;
    fl.op = Opcode::kFrameLoad;
    fl.dst = 0;
    fl.imm = 3; // frame_size is 0
    ir::Instruction ret;
    ret.op = Opcode::kRet;
    ret.site_id = m.allocSiteId();
    m.func(f).blocks[0].insts = {fl, ret};
    auto problems = ir::verifyFunction(m, m.func(f));
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("frame"), std::string::npos);
}

TEST(Printer, InstructionRendering)
{
    Module m;
    ir::FuncId callee = m.addFunction("callee", 1);
    {
        FunctionBuilder b(m, callee);
        b.ret(b.param(0));
    }
    ir::FuncId f = m.addFunction("f", 1);
    FunctionBuilder b(m, f);
    ir::Reg r = b.call(callee, {b.param(0)});
    b.ret(r);
    std::string text = ir::printFunction(m, m.func(f));
    EXPECT_NE(text.find("call @callee(r0)"), std::string::npos);
    EXPECT_NE(text.find("!site"), std::string::npos);
    EXPECT_NE(text.find("func @f"), std::string::npos);
}

TEST(Printer, SchemeAnnotations)
{
    Module m;
    ir::FuncId f = m.addFunction("f", 1);
    FunctionBuilder b(m, f);
    ir::Reg t = b.funcAddr(f);
    ir::Reg r = b.icall(t, {b.param(0)});
    b.ret(r);
    auto& icall = m.func(f).blocks[0].insts[1];
    icall.fwd_scheme = ir::FwdScheme::kFencedRetpoline;
    auto& ret = m.func(f).blocks[0].insts.back();
    ret.ret_scheme = ir::RetScheme::kReturnRetpoline;
    std::string text = ir::printFunction(m, m.func(f));
    EXPECT_NE(text.find("!fenced-retpoline"), std::string::npos);
    EXPECT_NE(text.find("!return-retpoline"), std::string::npos);
}

TEST(Printer, ModuleListsGlobals)
{
    Module m;
    m.addGlobal("kmem", std::vector<int64_t>(16, 0));
    std::string text = ir::printModule(m);
    EXPECT_NE(text.find("global @kmem[16]"), std::string::npos);
}

TEST(Printer, SchemeNames)
{
    EXPECT_STREQ(ir::fwdSchemeName(ir::FwdScheme::kRetpoline),
                 "retpoline");
    EXPECT_STREQ(ir::fwdSchemeName(ir::FwdScheme::kJumpSwitch),
                 "jump-switch");
    EXPECT_STREQ(ir::retSchemeName(ir::RetScheme::kFencedRet),
                 "fenced-ret");
    EXPECT_STREQ(ir::binKindName(ir::BinKind::kShl), "shl");
}

} // namespace
} // namespace pibe
