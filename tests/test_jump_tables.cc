/** @file Tests for jump-table lowering. */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "opt/jump_tables.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using ir::BinKind;
using ir::FunctionBuilder;
using ir::Module;

/** switcher(x): returns 100+case for known cases, -7 for default. */
ir::FuncId
makeSwitchFunction(Module& m, const std::string& name, int num_cases,
                   bool is_asm = false)
{
    ir::FuncId f = m.addFunction(name, 1);
    FunctionBuilder b(m, f);
    ir::BlockId d = b.newBlock();
    std::vector<ir::SwitchCase> cases;
    for (int c = 0; c < num_cases; ++c)
        cases.push_back({c * 3, b.newBlock()}); // sparse values
    b.switchOn(b.param(0), d, cases, is_asm);
    for (int c = 0; c < num_cases; ++c) {
        b.setBlock(cases[c].target);
        b.ret(b.constI(100 + c));
    }
    b.setBlock(d);
    b.ret(b.constI(-7));
    return f;
}

TEST(JumpTables, CountSwitches)
{
    Module m;
    makeSwitchFunction(m, "s1", 4);
    makeSwitchFunction(m, "s2", 9);
    EXPECT_EQ(opt::countSwitches(m), 2u);
}

TEST(JumpTables, LoweringRemovesNonAsmSwitches)
{
    Module m;
    makeSwitchFunction(m, "s1", 4);
    makeSwitchFunction(m, "s2", 9);
    makeSwitchFunction(m, "s_asm", 5, /*is_asm=*/true);
    uint32_t lowered = opt::lowerJumpTables(m);
    EXPECT_EQ(lowered, 2u);
    EXPECT_EQ(opt::countSwitches(m), 1u); // the asm one survives
    EXPECT_TRUE(test::verifies(m));
}

TEST(JumpTables, EmptySwitchBecomesBranchToDefault)
{
    Module m;
    ir::FuncId f = makeSwitchFunction(m, "s0", 0);
    opt::lowerJumpTables(m);
    EXPECT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, f, {5}).result, -7);
}

/** Property sweep: lowering preserves semantics for any case count. */
class JumpTableProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(JumpTableProperty, LoweringPreservesSemantics)
{
    const int num_cases = GetParam();
    Module m;
    ir::FuncId f = makeSwitchFunction(m, "s", num_cases);

    std::vector<std::vector<int64_t>> probes;
    for (int c = 0; c < num_cases; ++c)
        probes.push_back({c * 3});     // each case value
    for (int64_t v : {-1, 1, 2, 500})  // default paths
        probes.push_back({v});

    auto before = test::runScript(m, f, probes);
    uint32_t lowered = opt::lowerJumpTables(m);
    EXPECT_EQ(lowered, 1u);
    ASSERT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runScript(m, f, probes), before);
    EXPECT_EQ(opt::countSwitches(m), 0u);
}

INSTANTIATE_TEST_SUITE_P(CaseCounts, JumpTableProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 11, 16,
                                           23, 48));

TEST(JumpTables, LinearLimitOneProducesPureChain)
{
    Module m;
    ir::FuncId f = makeSwitchFunction(m, "s", 7);
    opt::lowerJumpTables(m, /*linear_limit=*/1);
    EXPECT_TRUE(test::verifies(m));
    for (int c = 0; c < 7; ++c)
        EXPECT_EQ(test::runFunction(m, f, {c * 3}).result, 100 + c);
    EXPECT_EQ(test::runFunction(m, f, {1}).result, -7);
}

} // namespace
} // namespace pibe
