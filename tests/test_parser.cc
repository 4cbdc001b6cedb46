/** @file Tests for the PIR text parser (round-trip with the printer). */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "kernel/kernel.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;

/** print -> parse -> print must be a fixpoint. */
void
expectRoundTrip(const Module& m)
{
    std::string text = ir::printModule(m);
    Module parsed = ir::parseModule(text);
    EXPECT_TRUE(test::verifies(parsed));
    EXPECT_EQ(ir::printModule(parsed), text);
}

TEST(Parser, RoundTripsEveryInstructionKind)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 2, ir::kAttrNoInline);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.bin(BinKind::kAdd, b.param(0), b.param(1)));
    }
    m.addGlobal("table", {ir::funcAddrValue(leaf), 0, -7});
    ir::FuncId f = m.addFunction("everything", 2);
    FunctionBuilder b(m, f);
    uint32_t slot = b.newFrameSlot();
    ir::Reg c = b.constI(-42);
    ir::Reg mv = b.move(c);
    ir::Reg sum = b.bin(BinKind::kXor, mv, b.param(0));
    ir::Reg fa = b.funcAddr(leaf);
    ir::Reg ld = b.load(0, b.param(1), 1);
    b.store(0, b.param(1), ld, 2);
    b.frameStore(slot, sum);
    ir::Reg fl = b.frameLoad(slot);
    ir::Reg call = b.call(leaf, {fl, sum});
    ir::Reg icall = b.icall(fa, {call, ld}, /*is_asm=*/true);
    b.sink(icall);
    ir::BlockId t1 = b.newBlock();
    ir::BlockId t2 = b.newBlock();
    ir::BlockId t3 = b.newBlock();
    b.switchOn(icall, t1, {{-3, t2}, {9, t3}}, /*is_asm=*/true);
    b.setBlock(t1);
    b.condBr(sum, t2, t3);
    b.setBlock(t2);
    b.br(t3);
    b.setBlock(t3);
    b.ret(icall);
    ASSERT_TRUE(test::verifies(m));
    expectRoundTrip(m);
}

TEST(Parser, RoundTripsSchemesAndAttributes)
{
    Module m;
    ir::FuncId boot =
        m.addFunction("boot_fn", 0,
                      ir::kAttrBootSection | ir::kAttrOptNone);
    {
        FunctionBuilder b(m, boot);
        b.ret(b.constI(0));
    }
    m.addFunction("ext", 3, ir::kAttrExternal); // declaration
    ir::FuncId f = m.addFunction("hardened", 1);
    FunctionBuilder b(m, f);
    ir::Reg t = b.funcAddr(boot);
    ir::Reg r = b.icall(t, {});
    b.sink(r);
    b.ret(b.param(0));
    // Tag schemes directly.
    auto& insts = m.func(f).blocks[0].insts;
    insts[1].fwd_scheme = ir::FwdScheme::kFencedRetpoline;
    insts.back().ret_scheme = ir::RetScheme::kFencedRet;
    expectRoundTrip(m);

    Module parsed = ir::parseModule(ir::printModule(m));
    EXPECT_TRUE(parsed.func(parsed.findFunction("ext"))
                    .hasAttr(ir::kAttrExternal));
    EXPECT_TRUE(parsed.func(parsed.findFunction("ext")).isDeclaration());
    const auto& pinsts =
        parsed.func(parsed.findFunction("hardened")).blocks[0].insts;
    EXPECT_EQ(pinsts[1].fwd_scheme, ir::FwdScheme::kFencedRetpoline);
    EXPECT_EQ(pinsts.back().ret_scheme, ir::RetScheme::kFencedRet);
}

TEST(Parser, PreservesSiteIds)
{
    Module m;
    ir::FuncId leaf = m.addFunction("leaf", 0);
    {
        FunctionBuilder b(m, leaf);
        b.ret(b.constI(1));
    }
    ir::FuncId f = m.addFunction("caller", 0);
    {
        FunctionBuilder b(m, f);
        ir::Reg r = b.call(leaf);
        b.ret(r);
    }
    Module parsed = ir::parseModule(ir::printModule(m));
    EXPECT_EQ(parsed.func(1).blocks[0].insts[0].site_id,
              m.func(1).blocks[0].insts[0].site_id);
    // Fresh allocations must not collide with parsed ids.
    EXPECT_GE(parsed.allocSiteId(), m.siteIdBound());
}

TEST(Parser, GlobalSparseInitializers)
{
    Module m;
    std::vector<int64_t> init(100, 0);
    init[3] = 17;
    init[99] = -5;
    m.addGlobal("sparse", std::move(init));
    Module parsed = ir::parseModule(ir::printModule(m));
    EXPECT_EQ(parsed.global(0).init.size(), 100u);
    EXPECT_EQ(parsed.global(0).init[3], 17);
    EXPECT_EQ(parsed.global(0).init[99], -5);
    EXPECT_EQ(parsed.global(0).init[50], 0);
}

TEST(Parser, ParsedModuleBehavesIdentically)
{
    test::GenConfig cfg;
    cfg.seed = 99;
    Module m = test::generateModule(cfg);
    Module parsed = ir::parseModule(ir::printModule(m));
    ir::FuncId main = test::generatedMain(m);
    EXPECT_EQ(test::runScript(m, main, test::argMatrix()),
              test::runScript(parsed, test::generatedMain(parsed),
                              test::argMatrix()));
}

/** Property: round-trip holds across generated modules. */
class ParserProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ParserProperty, RoundTrip)
{
    test::GenConfig cfg;
    cfg.seed = GetParam();
    Module m = test::generateModule(cfg);
    expectRoundTrip(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserProperty,
                         ::testing::Range<uint64_t>(1, 13));

TEST(Parser, RoundTripsTheEntireKernel)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = 8;
    kernel::KernelImage k = kernel::buildKernel(cfg);
    std::string text = ir::printModule(k.module);
    Module parsed = ir::parseModule(text);
    EXPECT_TRUE(test::verifies(parsed));
    EXPECT_EQ(ir::printModule(parsed), text);
    EXPECT_EQ(parsed.numFunctions(), k.module.numFunctions());
}

TEST(ParserDeath, UnknownOpcode)
{
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb0:\n"
                                 "    r0 = quux r0, r0\n"
                                 "}\n"),
                 "unknown opcode");
}

TEST(ParserDeath, UnknownFunctionReference)
{
    EXPECT_DEATH(
        ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                        "bb0:\n"
                        "    r0 = call @missing()\n"
                        "}\n"),
        "unknown function");
}

TEST(ParserDeath, NonSequentialBlocks)
{
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb1:\n"
                                 "    ret !site 0\n"
                                 "}\n"),
                 "non-sequential");
}

TEST(ParserDeath, InitializerOutOfRange)
{
    EXPECT_DEATH(ir::parseModule("global @g[4] { 9: 1 }\n"),
                 "out of range");
}

TEST(ParserDeath, TrailingGarbage)
{
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb0:\n"
                                 "    ret !site 0 junk\n"
                                 "}\n"),
                 "trailing tokens");
}

// Oversized literals and a lone '-' are line-numbered parse errors,
// not exceptions escaping the parser.
TEST(ParserDeath, IntegerOutOfRange)
{
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb0:\n"
                                 "    ret !site 99999999999999999999\n"
                                 "}\n"),
                 "PIR parse error at line 3: integer out of range");
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb0:\n"
                                 "    r0 = const -99999999999999999999\n"
                                 "    ret !site 0\n"
                                 "}\n"),
                 "PIR parse error at line 3: integer out of range");
}

TEST(ParserDeath, LoneMinusIsNotAnInteger)
{
    EXPECT_DEATH(ir::parseModule("func @f(params=0, regs=1, frame=0) {\n"
                                 "bb0:\n"
                                 "    r0 = const -\n"
                                 "    ret !site 0\n"
                                 "}\n"),
                 "PIR parse error at line 3: expected integer");
}

} // namespace
} // namespace pibe
