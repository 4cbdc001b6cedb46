/** @file Unit tests for edge profiles, profile serialization and the
 *  profile reader's mutation fuzzer. */
#include <gtest/gtest.h>

#include <iterator>

#include "profile/edge_profile.h"
#include "profile/serialize.h"
#include "scale/scale_builder.h"
#include "scale/synthetic_profile.h"
#include "support/logging.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace pibe {
namespace {

using profile::EdgeProfile;

TEST(EdgeProfile, DirectCounts)
{
    EdgeProfile p;
    p.addDirect(5);
    p.addDirect(5, 9);
    EXPECT_EQ(p.directCount(5), 10u);
    EXPECT_EQ(p.directCount(6), 0u);
    EXPECT_EQ(p.totalDirectWeight(), 10u);
    EXPECT_EQ(p.numDirectSites(), 1u);
}

TEST(EdgeProfile, IndirectValueProfileSortedHottestFirst)
{
    EdgeProfile p;
    p.addIndirect(3, /*target=*/7, 10);
    p.addIndirect(3, /*target=*/9, 50);
    p.addIndirect(3, /*target=*/2, 50);
    auto targets = p.indirectTargets(3);
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0].count, 50u);
    // Equal counts tie-break by target id for determinism.
    EXPECT_EQ(targets[0].target, 2u);
    EXPECT_EQ(targets[1].target, 9u);
    EXPECT_EQ(targets[2].target, 7u);
    EXPECT_EQ(p.indirectCount(3), 110u);
    EXPECT_EQ(p.totalIndirectWeight(), 110u);
}

TEST(EdgeProfile, Invocations)
{
    EdgeProfile p;
    p.addInvocation(4, 3);
    p.addInvocation(4);
    EXPECT_EQ(p.invocations(4), 4u);
    EXPECT_EQ(p.invocations(100), 0u);
}

TEST(EdgeProfile, ConsumeIndirectRemovesAndReturns)
{
    EdgeProfile p;
    p.addIndirect(1, 10, 42);
    p.addIndirect(1, 11, 7);
    EXPECT_EQ(p.consumeIndirect(1, 10), 42u);
    EXPECT_EQ(p.consumeIndirect(1, 10), 0u); // already consumed
    EXPECT_EQ(p.indirectCount(1), 7u);
    EXPECT_EQ(p.consumeIndirect(1, 11), 7u);
    EXPECT_EQ(p.numIndirectSites(), 0u); // site fully drained
}

TEST(EdgeProfile, MergeAccumulates)
{
    EdgeProfile a, b;
    a.addDirect(1, 5);
    a.addIndirect(2, 3, 4);
    a.addInvocation(0, 2);
    b.addDirect(1, 10);
    b.addDirect(9, 1);
    b.addIndirect(2, 3, 6);
    b.addInvocation(0, 8);
    a.merge(b);
    EXPECT_EQ(a.directCount(1), 15u);
    EXPECT_EQ(a.directCount(9), 1u);
    EXPECT_EQ(a.indirectCount(2), 10u);
    EXPECT_EQ(a.invocations(0), 10u);
}

TEST(Serialize, RoundTripPreservesProfile)
{
    // Build a module so targets have names.
    ir::Module m;
    ir::FuncId f = m.addFunction("foo", 0);
    ir::FuncId g = m.addFunction("bar", 0);
    {
        ir::FunctionBuilder b(m, f);
        b.ret(b.constI(0));
    }
    {
        ir::FunctionBuilder b(m, g);
        b.ret(b.constI(0));
    }

    EdgeProfile p;
    p.addDirect(10, 111);
    p.addDirect(11, 5);
    p.addIndirect(20, f, 7);
    p.addIndirect(20, g, 3);
    p.addInvocation(f, 100);

    std::string text = profile::serializeProfile(m, p);
    size_t dropped = 123;
    EdgeProfile q = profile::liftProfile(m, text, &dropped);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(q.directCount(10), 111u);
    EXPECT_EQ(q.directCount(11), 5u);
    EXPECT_EQ(q.indirectCount(20), 10u);
    auto targets = q.indirectTargets(20);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_EQ(targets[0].target, f);
    EXPECT_EQ(q.invocations(f), 100u);
}

TEST(Serialize, LiftDropsUnresolvableNames)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("kept", 0);
    {
        ir::FunctionBuilder b(m, f);
        b.ret(b.constI(0));
    }
    std::string text = "pibe-profile v1\n"
                       "I 1 kept 5\n"
                       "I 1 removed_function 9\n"
                       "F gone 3\n";
    size_t dropped = 0;
    EdgeProfile p = profile::liftProfile(m, text, &dropped);
    EXPECT_EQ(dropped, 2u);
    EXPECT_EQ(p.indirectCount(1), 5u);
}

TEST(SerializeDeath, BadHeader)
{
    ir::Module m;
    EXPECT_DEATH(profile::liftProfile(m, "not-a-profile\n"),
                 "bad profile header");
}

TEST(SerializeDeath, MalformedRecord)
{
    ir::Module m;
    EXPECT_DEATH(
        profile::liftProfile(m, "pibe-profile v1\nD broken\n"),
        "bad profile line");
}

TEST(Serialize, SurvivesFunctionRenumbering)
{
    // Profile collected on module A, lifted onto module B where the
    // same functions exist under different ids -- the §7 lifting
    // property that motivates symbolic target names.
    ir::Module a;
    ir::FuncId af = a.addFunction("foo", 0);
    ir::FuncId ag = a.addFunction("bar", 0);
    {
        ir::FunctionBuilder b(a, af);
        b.ret(b.constI(0));
    }
    {
        ir::FunctionBuilder b(a, ag);
        b.ret(b.constI(0));
    }
    EdgeProfile p;
    p.addIndirect(1, af, 42);
    p.addInvocation(ag, 9);
    std::string text = profile::serializeProfile(a, p);

    ir::Module bmod;
    ir::FuncId bg = bmod.addFunction("bar", 0); // swapped order
    ir::FuncId bf = bmod.addFunction("foo", 0);
    {
        ir::FunctionBuilder b(bmod, bg);
        b.ret(b.constI(0));
    }
    {
        ir::FunctionBuilder b(bmod, bf);
        b.ret(b.constI(0));
    }
    EdgeProfile q = profile::liftProfile(bmod, text);
    auto targets = q.indirectTargets(1);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0].target, bf); // resolved by name, not id
    EXPECT_EQ(q.invocations(bg), 9u);
}

// ---------------------------------------------------------------------
// Profile-reader fuzzer.

/** A generated module and its serialized synthetic profile. */
struct ProfileCorpus
{
    ir::Module module;
    std::string text;
};

const ProfileCorpus&
profileCorpus()
{
    static const ProfileCorpus corpus = [] {
        scale::ScaleConfig cfg;
        cfg.target_insts = 10000;
        cfg.seed = 42;
        ProfileCorpus c{scale::buildScaleModule(cfg), ""};
        c.text = profile::serializeProfile(c.module,
                                           scale::synthesizeProfile(c.module));
        return c;
    }();
    return corpus;
}

/** Apply one byte-level mutation: bit flip, insert, delete, truncate. */
void
mutateProfile(std::string& text, Rng& rng, const std::string& name)
{
    // Inserted tokens the format cares about, beside random bytes.
    static const char* const kTokens[] = {
        "\n", " ", "\t", "D ", "I ", "F ", "X ", "-", "+", "0", "9", "-1",
        "18446744073709551616", "99999999999999999999",
        "pibe-profile v1\n", "\n\n",
    };
    if (text.empty()) {
        text = kTokens[rng.below(std::size(kTokens))];
        return;
    }
    const size_t at = rng.below(text.size());
    switch (rng.below(6)) {
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
        // A name the module knows, where a count or a site belongs.
        text.insert(at, name);
        break;
      case 4:
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

/** Silences warn() (the reader warns on every dropped name). */
struct QuietLog
{
    LogLevel saved = logLevel();
    QuietLog() { setLogLevel(LogLevel::kQuiet); }
    ~QuietLog() { setLogLevel(saved); }
};

/**
 * Lift `iterations` mutants of the corpus profile. Every mutant must
 * come back as a profile or a "bad profile" error, and every profile
 * must serialize to a fixed point of lift -> serialize.
 */
void
fuzzProfileReader(uint64_t seed, size_t iterations)
{
    const ProfileCorpus& corpus = profileCorpus();
    const ir::Module& m = corpus.module;
    QuietLog quiet;
    Rng rng(seed);
    size_t lifted = 0;
    for (size_t i = 0; i < iterations; ++i) {
        std::string text = corpus.text;
        const uint64_t mutations = rng.below(4) == 0 ? 2 + rng.below(3) : 1;
        for (uint64_t k = 0; k < mutations; ++k)
            mutateProfile(text, rng,
                          m.func(rng.below(m.numFunctions())).name);
        const profile::LiftResult r = profile::tryLiftProfile(m, text);
        if (!r.profile) {
            ASSERT_EQ(r.error.rfind("bad profile", 0), 0u)
                << "mutant " << i << ": " << r.error;
            continue;
        }
        ++lifted;
        const std::string once = profile::serializeProfile(m, *r.profile);
        const profile::LiftResult again = profile::tryLiftProfile(m, once);
        ASSERT_TRUE(again.profile) << "mutant " << i << ": " << again.error;
        EXPECT_EQ(again.dropped, 0u) << "mutant " << i;
        ASSERT_EQ(profile::serializeProfile(m, *again.profile), once)
            << "mutant " << i;
    }
    // Both outcomes must be exercised, or the fuzzer tests nothing.
    EXPECT_GT(lifted, iterations / 20);
    EXPECT_LT(lifted, iterations - iterations / 20);
}

TEST(ProfileFuzz, MutantsLiftOrFailCleanly)
{
    fuzzProfileReader(1, 2000);
}

// The long leg (CI runs it under ASan/UBSan with
// --gtest_also_run_disabled_tests).
TEST(ProfileFuzz, DISABLED_LongLeg)
{
    fuzzProfileReader(2, 100000);
}

} // namespace
} // namespace pibe
