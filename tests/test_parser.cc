/**
 * @file
 * Tests for the PIR text parser: round trips with the printer (small
 * modules, the paper kernel, generated Linux-scale modules), edge
 * cases of the line split, errors as values, and a deterministic
 * byte-mutation fuzzer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "kernel/kernel.h"
#include "runtime/thread_pool.h"
#include "scale/parallel_pipeline.h"
#include "scale/scale_builder.h"
#include "support/rng.h"
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
    kernel::KernelImage k = kernel::buildKernel(kernel::KernelConfig{});
    std::string text = ir::printModule(k.module);
    Module parsed = ir::parseModule(text);
    EXPECT_TRUE(test::verifies(parsed));
    EXPECT_EQ(ir::printModule(parsed), text);
    EXPECT_EQ(parsed.numFunctions(), k.module.numFunctions());
    EXPECT_EQ(scale::moduleDigest(parsed), scale::moduleDigest(k.module));
}

/** printFunction/printInstruction render exactly printModule's lines. */
TEST(Printer, PiecesAreSlicesOfTheModuleText)
{
    kernel::KernelConfig cfg;
    cfg.num_drivers = 4;
    const Module m = kernel::buildKernel(cfg).module;
    const std::string text = ir::printModule(m);
    size_t at = 0;
    for (size_t i = 0; i < m.numGlobals(); ++i)
        at = text.find('\n', at) + 1;
    for (const ir::Function& f : m.functions()) {
        const std::string func = ir::printFunction(m, f);
        ASSERT_EQ(text.compare(at, func.size(), func), 0) << f.name;
        size_t line = func.find('\n') + 1;
        for (const ir::BasicBlock& bb : f.blocks) {
            line = func.find('\n', line) + 1; // the block label
            for (const ir::Instruction& inst : bb.insts) {
                const std::string want =
                    "    " + ir::printInstruction(m, f, inst) + "\n";
                ASSERT_EQ(func.compare(line, want.size(), want), 0)
                    << f.name;
                line += want.size();
            }
        }
        EXPECT_EQ(func.substr(line), "}\n");
        at += func.size();
    }
    EXPECT_EQ(at, text.size());
}

// The text is split into lines the way std::getline splits it: the
// last line needs no newline, and empty lines between functions are
// skipped.
TEST(Parser, FinalLineWithoutNewline)
{
    const std::string text = "global @g[2] { 1: 7 }\n"
                             "func @f(params=0, regs=1, frame=0) {\n"
                             "bb0:\n"
                             "    ret !site 3";
    const Module m = ir::parseModule(text);
    ASSERT_EQ(m.numFunctions(), 1u);
    EXPECT_EQ(m.func(0).blocks[0].insts[0].site_id, 3u);
    EXPECT_EQ(m.siteIdBound(), 4u);
    EXPECT_EQ(ir::printModule(m), "global @g[2] { 1: 7 }\n"
                                  "func @f(params=0, regs=1, frame=0) {\n"
                                  "bb0:\n"
                                  "    ret !site 3\n"
                                  "}\n");
    EXPECT_EQ(ir::parseModule("global @g[2]").global(0).init.size(), 2u);
}

TEST(Parser, BlankLinesBetweenFunctions)
{
    const std::string text = "\n"
                             "func @a(params=0, regs=0, frame=0) {\n"
                             "bb0:\n"
                             "    ret\n"
                             "}\n"
                             "\n\n"
                             "func @b(params=0, regs=0, frame=0) {\n"
                             "\n"
                             "bb0:\n"
                             "    ret\n"
                             "}\n"
                             "\n";
    const Module m = ir::parseModule(text);
    ASSERT_EQ(m.numFunctions(), 2u);
    EXPECT_EQ(m.func(1).blocks.size(), 1u);
    // A line of spaces is not blank: outside a function it is a stray
    // instruction, reported on its own line number.
    const ir::ParseResult r = ir::tryParseModule("\n  \n");
    EXPECT_FALSE(r.module);
    EXPECT_EQ(r.error,
              "PIR parse error at line 2: instruction outside function "
              "near ''");
}

TEST(Parser, ErrorsAreValues)
{
    const ir::ParseResult ok = ir::tryParseModule("global @g[1]\n");
    ASSERT_TRUE(ok.module);
    EXPECT_TRUE(ok.error.empty());
    EXPECT_EQ(ok.module->numGlobals(), 1u);

    const ir::ParseResult bad =
        ir::tryParseModule("func @f(params=0, regs=1, frame=0) {\n"
                           "bb0:\n"
                           "    r0 = quux r0, r0\n"
                           "}\n");
    EXPECT_FALSE(bad.module);
    EXPECT_EQ(bad.error, "PIR parse error at line 3: unknown opcode "
                         "'quux' near ' r0, r0'");

    // A declared size is bounded before anything is allocated.
    EXPECT_EQ(ir::tryParseModule("global @g[999999999999]\n").error,
              "PIR parse error at line 1: global size exceeds 16777216 "
              "slots near ''");

    // Redeclared names are parse errors too, not assertion failures.
    EXPECT_EQ(ir::tryParseModule("global @g[1]\nglobal @g[2]\n").error,
              "PIR parse error at line 2: duplicate global '@g' near ''");
    EXPECT_EQ(ir::tryParseModule("func @f(params=0, regs=0, frame=0) {\n"
                                 "}\n"
                                 "func @f(params=0, regs=0, frame=0) {\n"
                                 "}\n")
                  .error,
              "PIR parse error at line 3: duplicate function '@f' near "
              "''");
}

// A header line may be indented: the parser skips leading spaces before
// every keyword.
TEST(Parser, IndentedHeadersAreHeaders)
{
    const Module m = ir::parseModule("  global @g[1]\n"
                                     "    func @f(params=0, regs=0, "
                                     "frame=0) {\n"
                                     "  bb0:\n"
                                     "    ret\n"
                                     "  }\n");
    EXPECT_EQ(ir::printModule(m), "global @g[1]\n"
                                  "func @f(params=0, regs=0, frame=0) {\n"
                                  "bb0:\n"
                                  "    ret\n"
                                  "}\n");
}

// ---------------------------------------------------------------------
// Texts large enough that the parser's sweeps recruit helper threads.

/** A generated module above the body pass's two-helper grain. */
const std::string&
threadedText()
{
    static const std::string text = [] {
        scale::ScaleConfig cfg;
        cfg.target_insts = 140000;
        cfg.seed = 7;
        const Module m = scale::buildScaleModule(cfg);
        size_t insts = 0;
        for (const ir::Function& f : m.functions())
            insts += f.instructionCount();
        EXPECT_GE(insts, 2 * runtime::kInstsPerHelper);
        return ir::printModule(m);
    }();
    return text;
}

/** The error, or the printed module and its site-id bound. */
std::string
parseOutcome(const std::string& text)
{
    const ir::ParseResult r = ir::tryParseModule(text);
    if (!r.module)
        return r.error;
    return ir::printModule(*r.module) + "bound " +
           std::to_string(r.module->siteIdBound());
}

/** One or two of: bit flip (half the time the low bit of a digit, so
 *  the text often still parses), erase, or insert "bb" or "}\n". */
std::string
threadedMutant(const std::string& base, Rng& rng)
{
    std::string text = base;
    for (uint64_t k = 1 + rng.below(2); k > 0; --k) {
        size_t at = rng.below(text.size());
        switch (rng.below(5)) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
            break;
          case 1:
            at = text.find_first_of("0123456789", at);
            if (at != std::string::npos)
                text[at] = static_cast<char>(text[at] ^ 1);
            break;
          case 2:
            text.erase(at, 1 + rng.below(8));
            break;
          case 3:
            text.insert(at, "bb");
            break;
          default:
            text.insert(at, "}\n");
            break;
        }
    }
    return text;
}

// A fork()ed child has no helper pool, so it parses on the caller
// alone; the parent's parses recruit helpers. Every mutant must have
// the same outcome in both.
TEST(Parser, ThreadedParseMatchesForkedSerialParse)
{
    const std::string& base = threadedText();
    // Parsed once here first, so the helper pool exists and belongs
    // to this process, not to the child.
    ASSERT_TRUE(ir::tryParseModule(base).module);
    constexpr int kMutants = 300;
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        Rng rng(7);
        for (int i = 0; i < kMutants; ++i) {
            const std::string out =
                parseOutcome(threadedMutant(base, rng));
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
    Rng rng(7);
    int failed = 0;
    int i = 0;
    for (; i < kMutants; ++i) {
        const std::string threaded =
            parseOutcome(threadedMutant(base, rng));
        uint64_t size = 0;
        std::string serial;
        if (!readFully(&size, sizeof size))
            break;
        serial.resize(size);
        if (!readFully(serial.data(), size))
            break;
        if (threaded != serial) {
            ADD_FAILURE() << "mutant " << i << ": threaded '"
                          << threaded.substr(0, 200) << "', serial '"
                          << serial.substr(0, 200) << "'";
            break;
        }
        failed += threaded.rfind("PIR parse error", 0) == 0;
    }
    close(fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_EQ(i, kMutants);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    // Both outcomes must be exercised.
    EXPECT_GT(failed, kMutants / 10);
    EXPECT_LT(failed, kMutants - kMutants / 10);
}

// Each function body is parsed on its own; with two defects the one on
// the earlier line is reported, however the bodies were scheduled.
TEST(Parser, FirstErrorInLineOrderWins)
{
    const std::string& base = threadedText();
    const Module m = ir::parseModule(base);
    const ir::Function* largest = &m.func(0);
    for (const ir::Function& f : m.functions())
        if (f.instructionCount() > largest->instructionCount())
            largest = &f;
    const ir::Function* small = nullptr;
    for (size_t k = largest->id + 1; k < m.numFunctions(); ++k) {
        const ir::Function& f = m.func(static_cast<ir::FuncId>(k));
        if (!f.isDeclaration() &&
            (!small || f.instructionCount() < small->instructionCount()))
            small = &f;
    }
    ASSERT_NE(small, nullptr);
    ASSERT_GT(largest->instructionCount(), 2 * small->instructionCount());

    const std::string defect = "    r0 = quux r0, r0\n";
    auto afterEntryLabel = [&](const std::string& text,
                               const ir::Function& f) {
        const size_t header = text.find("func @" + f.name + "(");
        return text.find("\nbb0:\n", header) + 6;
    };
    std::string text = base;
    text.insert(afterEntryLabel(text, *small), defect);
    const size_t early = afterEntryLabel(text, *largest);
    text.insert(early, defect);
    const size_t line = 1 + static_cast<size_t>(std::count(
                                text.begin(), text.begin() + early, '\n'));
    for (int rep = 0; rep < 5; ++rep)
        EXPECT_EQ(ir::tryParseModule(text).error,
                  "PIR parse error at line " + std::to_string(line) +
                      ": unknown opcode 'quux' near ' r0, r0'");
}

TEST(Parser, RoundTripsTwoHundredThousandInstructions)
{
    scale::ScaleConfig cfg;
    cfg.target_insts = 200000;
    const Module m = scale::buildScaleModule(cfg);
    const std::string text = ir::printModule(m);
    const Module parsed = ir::parseModule(text);
    EXPECT_EQ(ir::printModule(parsed), text);
    EXPECT_EQ(scale::moduleDigest(parsed), scale::moduleDigest(m));
}

// ---------------------------------------------------------------------
// Deterministic mutation fuzzer over every shipped example module and a
// printed 64-driver kernel.

std::vector<std::string>
fuzzCorpus()
{
    std::vector<std::string> corpus;
    std::vector<std::filesystem::path> paths;
    for (const auto& entry : std::filesystem::directory_iterator(
             PIBE_SOURCE_DIR "/examples/pir"))
        if (entry.path().extension() == ".pir")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    for (const auto& path : paths) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        corpus.push_back(os.str());
    }
    kernel::KernelConfig cfg;
    cfg.num_drivers = 64;
    corpus.push_back(ir::printModule(kernel::buildKernel(cfg).module));
    return corpus;
}

/** Apply one byte-level mutation: bit flip, insert, delete, truncate. */
void
mutate(std::string& text, Rng& rng)
{
    // Inserted tokens the language cares about, beside random bytes.
    static const char* const kTokens[] = {
        "\n", " ", "}", "{", "bb", "!", "!site ", "-", "9", "@", "r",
        "_", ",", "=", "[", "]", "(", ")", "func @f(params=0, regs=0, "
        "frame=0) {\n", "global @g[4]\n", "99999999999999999999",
    };
    if (text.empty()) {
        text = kTokens[rng.below(std::size(kTokens))];
        return;
    }
    const size_t at = rng.below(text.size());
    switch (rng.below(5)) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
        break;
      case 1:
        text.insert(at, 1, static_cast<char>(rng.below(256)));
        break;
      case 2:
        text.insert(at, kTokens[rng.below(std::size(kTokens))]);
        break;
      case 3:
        text.erase(at, 1 + rng.below(8));
        break;
      default: {
        // Truncate, half the time just after a line.
        const size_t eol = text.find('\n', at);
        text.resize(rng.below(2) == 0 && eol != std::string::npos ? eol + 1
                                                                 : at);
        break;
      }
    }
}

/**
 * Parse `iterations` mutants of the corpus. Every mutant must come
 * back as a module or a line-numbered error, and every module must
 * print to a fixed point of print -> parse -> print.
 */
void
fuzzParser(uint64_t seed, size_t iterations)
{
    const std::vector<std::string> corpus = fuzzCorpus();
    ASSERT_GE(corpus.size(), 4u);
    Rng rng(seed);
    size_t accepted = 0;
    for (size_t i = 0; i < iterations; ++i) {
        // The kernel text is ~1000x an example's: one mutant in 16.
        const size_t pick = i % 16 == 15 ? corpus.size() - 1
                                         : i % (corpus.size() - 1);
        std::string text = corpus[pick];
        const uint64_t mutations = rng.below(4) == 0 ? 2 + rng.below(3) : 1;
        for (uint64_t k = 0; k < mutations; ++k)
            mutate(text, rng);
        const ir::ParseResult r = ir::tryParseModule(text);
        if (!r.module) {
            ASSERT_EQ(r.error.rfind("PIR parse error at line ", 0), 0u)
                << r.error;
            continue;
        }
        ++accepted;
        const std::string printed = ir::printModule(*r.module);
        const ir::ParseResult again = ir::tryParseModule(printed);
        ASSERT_TRUE(again.module)
            << "mutant " << i << ": " << again.error;
        ASSERT_EQ(ir::printModule(*again.module), printed)
            << "mutant " << i;
    }
    // Both outcomes must be exercised, or the fuzzer tests nothing.
    EXPECT_GT(accepted, iterations / 20);
    EXPECT_LT(accepted, iterations - iterations / 20);
}

TEST(ParserFuzz, MutantsParseOrFailCleanly)
{
    fuzzParser(1, 2000);
}

// The long leg (CI runs it under ASan/UBSan with
// --gtest_also_run_disabled_tests).
TEST(ParserFuzz, DISABLED_LongLeg)
{
    fuzzParser(2, 100000);
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
