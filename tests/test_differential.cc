/**
 * @file
 * Differential tests for the pre-decoded execution engine.
 *
 * The decoded hot loop (Simulator::run) must be bit-identical to the
 * tree-walking interpreter it replaced — same cycles, instruction
 * counts, predictor counters, and sink hash. Three lines of defense:
 *
 *  1. Golden constants: tests/golden_stats.h was generated by the
 *     ORIGINAL interpreter before the rewrite; both today's decoded
 *     loop and today's reference loop must reproduce every row
 *     exactly.
 *  2. Live differential: decoded vs. reference on random generated
 *     modules and hand-built switch/recursion corner cases.
 *  3. Allocation check: the steady-state decoded loop must not touch
 *     the heap (pooled register windows, no per-call vectors).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harden/harden.h"
#include "kernel/kernel.h"
#include "pibe/experiment.h"
#include "pibe/pipeline.h"
#include "tests/golden_stats.h"
#include "tests/test_util.h"
#include "uarch/decoded_module.h"
#include "uarch/simulator.h"
#include "workload/workload.h"

// --- Global allocation counter (ZeroAllocSteadyState) ---------------
// Replacing the global allocator is the only portable way to observe
// "zero per-call heap allocations"; outside the measured window it
// behaves exactly like the default new/delete.
// GCC cannot see that the replacement operator new below is
// malloc-backed, so it flags every new/free pairing in this TU; the
// pairing is in fact correct.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<uint64_t> g_alloc_count{0};

void*
operator new(size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](size_t size)
{
    return ::operator new(size);
}

// The nothrow forms must be replaced along with the throwing ones:
// libstdc++'s get_temporary_buffer (stable_sort) allocates through
// operator new(nothrow), and under ASan the default nothrow new is an
// interceptor, not a wrapper around the (replaced) throwing new — the
// resulting pointer would then be freed by our free()-backed delete
// and trip alloc-dealloc-mismatch.
void*
operator new(size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void*
operator new[](size_t size, const std::nothrow_t& tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace pibe {
namespace {

using test::GoldenStats;
using test::kGoldenStats;

struct ImageSpec
{
    const char* name;
    core::OptConfig opt;
    harden::DefenseConfig defense;
};

std::vector<ImageSpec>
goldenImageSpecs()
{
    return {
        {"baseline", core::OptConfig::none(),
         harden::DefenseConfig::none()},
        {"all_defenses", core::OptConfig::icpAndInline(0.999),
         harden::DefenseConfig::all()},
        {"jumpswitches", core::OptConfig::none(),
         harden::DefenseConfig::jumpSwitches()},
    };
}

/** The exact measurement procedure golden_stats.h was recorded with:
 *  boot, setup, 30 warmup iterations, clearStats, 50 measured. */
void
runGoldenProcedure(uarch::Simulator& sim,
                   const kernel::KernelInfo& info,
                   workload::Workload& wl)
{
    workload::KernelHandle handle(sim, info);
    handle.boot();
    wl.setup(handle);
    for (uint64_t i = 0; i < 30; ++i)
        wl.iteration(handle, i);
    sim.clearStats();
    for (uint64_t i = 30; i < 80; ++i)
        wl.iteration(handle, i);
}

void
expectMatchesGolden(const uarch::Simulator& sim, const GoldenStats& g,
                    const char* path)
{
    const uarch::RunStats& s = sim.stats();
    SCOPED_TRACE(std::string(path) + ": " + g.image + "/" +
                 g.workload);
    EXPECT_EQ(s.cycles, g.cycles);
    EXPECT_EQ(s.instructions, g.instructions);
    EXPECT_EQ(sim.sinkHash(), g.sink_hash);
    EXPECT_EQ(s.direct_calls, g.direct_calls);
    EXPECT_EQ(s.indirect_calls, g.indirect_calls);
    EXPECT_EQ(s.returns, g.returns);
    EXPECT_EQ(s.cond_branches, g.cond_branches);
    EXPECT_EQ(s.switches, g.switches);
    EXPECT_EQ(s.icache_misses, g.icache_misses);
    EXPECT_EQ(s.btb_mispredicts, g.btb_mispredicts);
    EXPECT_EQ(s.rsb_mispredicts, g.rsb_mispredicts);
    EXPECT_EQ(s.pht_mispredicts, g.pht_mispredicts);
    EXPECT_EQ(s.thunk_execs, g.thunk_execs);
    EXPECT_EQ(s.js_hits, g.js_hits);
    EXPECT_EQ(s.js_misses, g.js_misses);
    EXPECT_EQ(s.js_patches, g.js_patches);
    EXPECT_EQ(s.js_learning, g.js_learning);
    EXPECT_EQ(s.max_call_depth, g.max_call_depth);
    EXPECT_EQ(s.peak_frame_slots, g.peak_frame_slots);
}

const GoldenStats*
findGolden(const std::string& image, const std::string& workload)
{
    for (const GoldenStats& g : kGoldenStats) {
        if (image == g.image && workload == g.workload)
            return &g;
    }
    return nullptr;
}

/** Kernel + profile + hardened images shared by the golden tests. */
class DifferentialTest : public ::testing::Test
{
  protected:
    struct Image
    {
        std::string name;
        ir::Module module;
        kernel::KernelInfo info;
        std::shared_ptr<const uarch::DecodedModule> decoded;
    };

    static void
    SetUpTestSuite()
    {
        kernel::KernelConfig cfg;
        cfg.num_drivers = 8;
        kernel::KernelImage k = kernel::buildKernel(cfg);
        auto suite = workload::makeLmbenchSuite();
        profile::EdgeProfile profile =
            core::collectProfile(k.module, k.info, suite, 40);

        images_ = new std::vector<Image>();
        const auto specs = goldenImageSpecs();
        // The decoded image references the module in place, so the
        // module must never move again: reserve, then build in place.
        images_->reserve(specs.size());
        for (const ImageSpec& spec : specs) {
            Image& img = images_->emplace_back();
            img.name = spec.name;
            img.module = core::buildImage(k.module, profile, spec.opt,
                                          spec.defense);
            img.info = kernel::kernelInfoFromModule(img.module);
            img.decoded = std::make_shared<const uarch::DecodedModule>(
                img.module);
        }
    }

    static void
    TearDownTestSuite()
    {
        delete images_;
        images_ = nullptr;
    }

    static std::vector<std::unique_ptr<workload::Workload>>
    goldenWorkloads()
    {
        auto wls = workload::makeLmbenchSuite();
        wls.push_back(workload::makeNginxWorkload());
        wls.push_back(workload::makeApacheWorkload());
        wls.push_back(workload::makeDbenchWorkload());
        return wls;
    }

    /** Run every golden (image, workload) row on one of the two
     *  execution paths and compare all counters exactly. */
    static void
    checkAllRows(bool use_reference, const char* path)
    {
        size_t rows_checked = 0;
        for (const Image& img : *images_) {
            for (auto& wl : goldenWorkloads()) {
                const GoldenStats* g =
                    findGolden(img.name, wl->name());
                ASSERT_NE(g, nullptr)
                    << "no golden row for " << img.name << "/"
                    << wl->name();
                uarch::Simulator sim(img.decoded);
                sim.setUseReferencePath(use_reference);
                runGoldenProcedure(sim, img.info, *wl);
                expectMatchesGolden(sim, *g, path);
                ++rows_checked;
            }
        }
        EXPECT_EQ(rows_checked, std::size(kGoldenStats))
            << "golden table has rows the test never replayed";
    }

    static std::vector<Image>* images_;
};

std::vector<DifferentialTest::Image>* DifferentialTest::images_ =
    nullptr;

// The decoded hot loop reproduces every pre-rewrite counter exactly.
TEST_F(DifferentialTest, DecodedMatchesPreRewriteGolden)
{
    checkAllRows(/*use_reference=*/false, "decoded");
}

// The retained reference loop is still the original interpreter.
TEST_F(DifferentialTest, ReferenceMatchesPreRewriteGolden)
{
    checkAllRows(/*use_reference=*/true, "reference");
}

// Decoding with superinstruction fusion disabled is a pure
// performance knob: every golden counter still matches, and the
// fused-execution counters stay zero.
TEST_F(DifferentialTest, UnfusedDecodeMatchesPreRewriteGolden)
{
    for (const Image& img : *images_) {
        auto unfused = std::make_shared<const uarch::DecodedModule>(
            img.module, /*fuse=*/false);
        EXPECT_EQ(unfused->decodeStats().fused_pairs, 0u);
        for (auto& wl : goldenWorkloads()) {
            const GoldenStats* g = findGolden(img.name, wl->name());
            ASSERT_NE(g, nullptr);
            uarch::Simulator sim(unfused);
            runGoldenProcedure(sim, img.info, *wl);
            expectMatchesGolden(sim, *g, "decoded/unfused");
            for (uint64_t n : sim.stats().fused)
                EXPECT_EQ(n, 0u);
        }
    }
}

// A fresh per-module decode (the Simulator(module) constructor) and a
// shared pre-decoded image produce identical executions.
TEST_F(DifferentialTest, SharedDecodeEqualsPrivateDecode)
{
    const Image& img = (*images_)[1]; // all_defenses
    auto wls = goldenWorkloads();
    workload::Workload& wl = *wls.front();

    uarch::Simulator shared_sim(img.decoded);
    runGoldenProcedure(shared_sim, img.info, wl);

    uarch::Simulator private_sim(img.module);
    runGoldenProcedure(private_sim, img.info, wl);

    EXPECT_EQ(shared_sim.stats().cycles, private_sim.stats().cycles);
    EXPECT_EQ(shared_sim.stats().instructions,
              private_sim.stats().instructions);
    EXPECT_EQ(shared_sim.sinkHash(), private_sim.sinkHash());
}

ir::Module
fibModule()
{
    ir::Module m;
    ir::FuncId fib = m.addFunction("fib", 1);
    ir::FunctionBuilder b(m, fib);
    ir::BlockId base = b.newBlock();
    ir::BlockId rec = b.newBlock();
    ir::Reg two = b.constI(2);
    ir::Reg lt = b.bin(ir::BinKind::kLt, b.param(0), two);
    b.condBr(lt, base, rec);
    b.setBlock(base);
    b.ret(b.param(0));
    b.setBlock(rec);
    ir::Reg n1 = b.binImm(ir::BinKind::kSub, b.param(0), 1);
    ir::Reg n2 = b.binImm(ir::BinKind::kSub, b.param(0), 2);
    ir::Reg a = b.call(fib, {n1});
    ir::Reg c = b.call(fib, {n2});
    b.ret(b.bin(ir::BinKind::kAdd, a, c));
    return m;
}

// After one warmup run has grown the pooled stacks and populated the
// predictors, a run making ~10k nested calls performs ZERO heap
// allocations: register windows come from the pooled stack and
// arguments are copied window-to-window — no per-call vectors.
TEST(RegisterWindows, ZeroAllocSteadyState)
{
    ir::Module m = fibModule();
    const ir::FuncId fib = m.findFunction("fib");
    uarch::Simulator sim(m);
    const std::vector<int64_t> args = {18};
    ASSERT_EQ(sim.run(fib, args), 2584); // warmup: grow every pool

    const uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const int64_t result = sim.run(fib, args);
    const uint64_t after =
        g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(result, 2584);
    EXPECT_GT(sim.stats().direct_calls, 8000u);
    EXPECT_EQ(after, before)
        << "steady-state decoded loop touched the heap";
}

// The dispatch shims perfbench stamps into its provenance name the one
// loop run() has.
TEST(DispatchShim, ReportsTheSwitchLoop)
{
    ir::Module m = test::generateModule(test::GenConfig{});
    uarch::Simulator sim(m);
    EXPECT_EQ(uarch::Simulator::defaultDispatchMode(),
              uarch::Simulator::DispatchMode::kSwitch);
    EXPECT_STREQ(sim.dispatchModeName(), "switch");
}

// --- Live decoded-vs-reference differential -------------------------

uarch::RunStats
statsOfRun(const ir::Module& m, ir::FuncId f,
           const std::vector<std::vector<int64_t>>& calls,
           bool use_reference, uint64_t* sink, int64_t* last)
{
    uarch::Simulator sim(m);
    sim.setUseReferencePath(use_reference);
    for (const auto& args : calls)
        *last = sim.run(f, args);
    *sink = sim.sinkHash();
    return sim.stats();
}

void
expectSameExecution(const ir::Module& m, ir::FuncId f,
                    const std::vector<std::vector<int64_t>>& calls)
{
    uint64_t sink_d = 0, sink_r = 0;
    int64_t last_d = 0, last_r = 0;
    const uarch::RunStats d =
        statsOfRun(m, f, calls, false, &sink_d, &last_d);
    const uarch::RunStats r =
        statsOfRun(m, f, calls, true, &sink_r, &last_r);
    EXPECT_EQ(last_d, last_r);
    EXPECT_EQ(sink_d, sink_r);
    EXPECT_EQ(d.cycles, r.cycles);
    EXPECT_EQ(d.instructions, r.instructions);
    EXPECT_EQ(d.direct_calls, r.direct_calls);
    EXPECT_EQ(d.indirect_calls, r.indirect_calls);
    EXPECT_EQ(d.returns, r.returns);
    EXPECT_EQ(d.cond_branches, r.cond_branches);
    EXPECT_EQ(d.switches, r.switches);
    EXPECT_EQ(d.icache_misses, r.icache_misses);
    EXPECT_EQ(d.btb_mispredicts, r.btb_mispredicts);
    EXPECT_EQ(d.rsb_mispredicts, r.rsb_mispredicts);
    EXPECT_EQ(d.pht_mispredicts, r.pht_mispredicts);
    EXPECT_EQ(d.max_call_depth, r.max_call_depth);
    EXPECT_EQ(d.peak_frame_slots, r.peak_frame_slots);
}

TEST(DecodedVsReference, RandomModules)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        test::GenConfig cfg;
        cfg.seed = seed;
        ir::Module m = test::generateModule(cfg);
        ASSERT_TRUE(test::verifies(m));
        expectSameExecution(m, test::generatedMain(m),
                            test::argMatrix());
    }
}

// Switch dispatch corner cases: dense table, binary-search fallback,
// and first-match semantics for duplicate case values.
ir::Module
switchModule(const std::vector<std::pair<int64_t, int64_t>>& cases)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("dispatch", 1);
    ir::FunctionBuilder b(m, f);
    std::vector<ir::SwitchCase> arms;
    std::vector<std::pair<ir::BlockId, int64_t>> returns;
    for (const auto& [value, result] : cases) {
        ir::BlockId bb = b.newBlock();
        arms.push_back({value, bb});
        returns.push_back({bb, result});
    }
    ir::BlockId deflt = b.newBlock();
    b.switchOn(b.param(0), deflt, arms);
    for (const auto& [bb, result] : returns) {
        b.setBlock(bb);
        ir::Reg r = b.constI(result);
        b.sink(r);
        b.ret(r);
    }
    b.setBlock(deflt);
    b.ret(b.constI(-1));
    return m;
}

TEST(DecodedVsReference, DenseSwitch)
{
    // Contiguous values 0..9: the decoder builds a dense table.
    std::vector<std::pair<int64_t, int64_t>> cases;
    for (int64_t v = 0; v < 10; ++v)
        cases.push_back({v, 100 + v});
    ir::Module m = switchModule(cases);
    const ir::FuncId f = m.findFunction("dispatch");
    ASSERT_TRUE(
        m.func(f).blocks[0].insts.back().op == ir::Opcode::kSwitch);
    std::vector<std::vector<int64_t>> calls;
    for (int64_t v = -3; v < 14; ++v)
        calls.push_back({v});
    expectSameExecution(m, f, calls);
    EXPECT_EQ(test::runFunction(m, f, {7}).result, 107);
    EXPECT_EQ(test::runFunction(m, f, {12}).result, -1);
}

TEST(DecodedVsReference, SparseSwitchBinarySearch)
{
    // Values too spread for a dense table: binary-search path.
    ir::Module m = switchModule({{-1000000, 1},
                                 {-7, 2},
                                 {0, 3},
                                 {913, 4},
                                 {1 << 30, 5}});
    const ir::FuncId f = m.findFunction("dispatch");
    std::vector<std::vector<int64_t>> calls = {
        {-1000000}, {-999999}, {-8}, {-7}, {0},
        {1},        {912},     {913}, {914}, {1 << 30},
        {(1 << 30) + 1}};
    expectSameExecution(m, f, calls);
    EXPECT_EQ(test::runFunction(m, f, {913}).result, 4);
    EXPECT_EQ(test::runFunction(m, f, {914}).result, -1);
}

TEST(DecodedVsReference, DuplicateSwitchValuesFirstMatch)
{
    // The pre-rewrite linear scan takes the FIRST matching case; the
    // decoder's dedup must preserve that for duplicate values.
    ir::Module m = switchModule({{5, 10}, {5, 20}, {6, 30}});
    const ir::FuncId f = m.findFunction("dispatch");
    expectSameExecution(m, f, {{5}, {6}, {7}});
    EXPECT_EQ(test::runFunction(m, f, {5}).result, 10);
}

// --- Register-window argument passing --------------------------------

TEST(RegisterWindows, RecursionGetsFreshWindows)
{
    // fib(n): each recursive call's window must not clobber the
    // caller's live registers across the first recursive call.
    ir::Module m = fibModule();
    const ir::FuncId fib = m.findFunction("fib");
    ASSERT_TRUE(test::verifies(m));
    EXPECT_EQ(test::runFunction(m, fib, {10}).result, 55);
    EXPECT_EQ(test::runFunction(m, fib, {20}).result, 6765);
    expectSameExecution(m, fib, {{15}});
}

TEST(RegisterWindows, DeepCallChainGrowsPool)
{
    // countdown(n, acc): tail-ish recursion 20k deep forces repeated
    // reg_stack_ reallocation mid-call; argument transfer must survive
    // the pool moving under it.
    ir::Module m;
    ir::FuncId f = m.addFunction("countdown", 2);
    {
        ir::FunctionBuilder b(m, f);
        ir::BlockId done = b.newBlock();
        ir::BlockId next = b.newBlock();
        b.condBr(b.param(0), next, done);
        b.setBlock(done);
        b.ret(b.param(1));
        b.setBlock(next);
        ir::Reg n1 = b.binImm(ir::BinKind::kSub, b.param(0), 1);
        ir::Reg acc = b.bin(ir::BinKind::kAdd, b.param(1), b.param(0));
        b.ret(b.call(f, {n1, acc}));
    }
    ASSERT_TRUE(test::verifies(m));
    const int64_t n = 20000;
    uarch::Simulator sim(m);
    sim.setTimingEnabled(false);
    EXPECT_EQ(sim.run(f, {n, 0}), n * (n + 1) / 2);
    EXPECT_EQ(sim.stats().max_call_depth,
              static_cast<uint64_t>(n + 1));
    expectSameExecution(m, f, {{2000, 0}});
}

TEST(RegisterWindows, CallerRegistersSurviveCallee)
{
    // A callee that writes all of its own registers must not disturb
    // caller registers other than the declared return destination.
    ir::Module m;
    ir::FuncId scribble = m.addFunction("scribble", 3);
    {
        ir::FunctionBuilder b(m, scribble);
        ir::Reg s = b.bin(ir::BinKind::kAdd, b.param(0), b.param(1));
        s = b.bin(ir::BinKind::kMul, s, b.param(2));
        for (int i = 0; i < 8; ++i)
            s = b.binImm(ir::BinKind::kXor, s, 0x5aa5 + i);
        b.ret(s);
    }
    ir::FuncId caller = m.addFunction("caller", 2);
    {
        ir::FunctionBuilder b(m, caller);
        ir::Reg x = b.binImm(ir::BinKind::kAdd, b.param(0), 11);
        ir::Reg y = b.binImm(ir::BinKind::kMul, b.param(1), 13);
        ir::Reg r =
            b.call(scribble, {x, y, b.param(0)});
        // x and y must still hold their pre-call values here.
        ir::Reg t = b.bin(ir::BinKind::kSub, x, y);
        t = b.bin(ir::BinKind::kXor, t, r);
        b.sink(x);
        b.sink(y);
        b.ret(t);
    }
    ASSERT_TRUE(test::verifies(m));
    const auto outcome = test::runFunction(m, caller, {3, 4});
    // Compute the expectation independently.
    const int64_t x = 3 + 11, y = 4 * 13;
    int64_t s = (x + y) * 3;
    for (int i = 0; i < 8; ++i)
        s ^= 0x5aa5 + i;
    uint64_t h = 0x9dc5;
    h = h * 0x100000001b3ull ^ static_cast<uint64_t>(x);
    h = h * 0x100000001b3ull ^ static_cast<uint64_t>(y);
    EXPECT_EQ(outcome.result, (x - y) ^ s);
    EXPECT_EQ(outcome.sink_hash, h);
    expectSameExecution(m, caller, test::argMatrix());
}

// --- Superinstruction fusion: hostile shapes and parity --------------

// A const whose consuming binop sits at the start of a *branch
// target* block must not fuse: fusion is strictly within-block, so a
// control transfer can never land on the second half of a pair.
TEST(FusionHostile, PairSplitAcrossBlockBoundaryDoesNotFuse)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("split", 1);
    {
        ir::FunctionBuilder b(m, f);
        ir::BlockId tgt = b.newBlock();
        ir::BlockId other = b.newBlock();
        ir::Reg c = b.constI(7); // last value before the terminator
        b.condBr(b.param(0), tgt, other);
        b.setBlock(other);
        b.sink(b.param(0));
        b.br(tgt);
        b.setBlock(tgt);
        // Branch target starts with the binop consuming `c`: in the
        // flat decoded layout this is the would-be second slot.
        ir::Reg r = b.bin(ir::BinKind::kAdd, c, c);
        b.sink(r);
        b.ret(r);
    }
    ASSERT_TRUE(test::verifies(m));
    auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    EXPECT_EQ(decoded->decodeStats().fused_pairs, 0u)
        << "fusion crossed a block boundary";
    expectSameExecution(m, f, {{0}, {1}, {5}});
}

// cmp+condbr fuses even though the comparison's destination is read
// again in both successor blocks: the superinstruction must still
// architecturally write the compare result.
TEST(FusionHostile, FusedCmpResultStaysLive)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("livecmp", 1);
    {
        ir::FunctionBuilder b(m, f);
        ir::BlockId lo = b.newBlock();
        ir::BlockId hi = b.newBlock();
        ir::Reg ten = b.constI(10);
        b.sink(ten); // keeps the const from pairing with the compare
        ir::Reg lt = b.bin(ir::BinKind::kLt, b.param(0), ten);
        b.condBr(lt, lo, hi);
        b.setBlock(lo);
        b.ret(b.binImm(ir::BinKind::kAdd, lt, 100));
        b.setBlock(hi);
        b.ret(b.binImm(ir::BinKind::kAdd, lt, 200));
    }
    ASSERT_TRUE(test::verifies(m));
    auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    const size_t cmpbr =
        static_cast<size_t>(uarch::FusedFamily::kCmpBr);
    ASSERT_GT(decoded->decodeStats().fused_sites[cmpbr], 0u)
        << "test no longer exercises a fused cmp+condbr";
    EXPECT_EQ(test::runFunction(m, f, {3}).result, 101);  // lt == 1
    EXPECT_EQ(test::runFunction(m, f, {42}).result, 200); // lt == 0
    expectSameExecution(m, f, {{3}, {9}, {10}, {42}});
}

// A const fused into the call arg-window setup, with the const's
// register read again AFTER the call returns. 20k-deep recursion
// forces the pooled register stack to reallocate mid-call, so the
// post-call read must go through the relocated window base.
TEST(FusionHostile, PooledStackRelocationMidFusedCallSetup)
{
    ir::Module m;
    ir::FuncId f = m.addFunction("deepfused", 2);
    {
        ir::FunctionBuilder b(m, f);
        ir::BlockId done = b.newBlock();
        ir::BlockId next = b.newBlock();
        b.condBr(b.param(0), next, done);
        b.setBlock(done);
        b.ret(b.param(1));
        b.setBlock(next);
        ir::Reg n1 = b.binImm(ir::BinKind::kSub, b.param(0), 1);
        ir::Reg acc =
            b.bin(ir::BinKind::kAdd, b.param(1), b.param(0));
        b.sink(acc); // keeps `acc` from pairing with the const
        ir::Reg salt = b.constI(0x5151); // fuses with the call below
        ir::Reg r = b.call(f, {n1, acc});
        b.ret(b.bin(ir::BinKind::kXor, r, salt));
    }
    ASSERT_TRUE(test::verifies(m));
    auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    const size_t cc =
        static_cast<size_t>(uarch::FusedFamily::kConstCall);
    ASSERT_GT(decoded->decodeStats().fused_sites[cc], 0u)
        << "test no longer exercises a fused const+call";

    const int64_t n = 20000; // even: the per-level salt XORs cancel
    uarch::Simulator sim(decoded);
    sim.setTimingEnabled(false);
    EXPECT_EQ(sim.run(f, {n, 0}), n * (n + 1) / 2);
    EXPECT_EQ(sim.stats().max_call_depth,
              static_cast<uint64_t>(n + 1));
    EXPECT_GT(sim.stats().fused[cc], 0u);
    expectSameExecution(m, f, {{2000, 0}, {2001, 0}});
}

/** Straight-line body containing a fusable pair from every family
 *  the decoder knows, plus post-fusion reads of every first-slot
 *  destination. Greedy left-to-right pairing makes the layout below
 *  fuse exactly one site per family. */
ir::Module
fusionZooModule()
{
    ir::Module m;
    ir::FuncId helper = m.addFunction("helper", 1);
    {
        ir::FunctionBuilder b(m, helper);
        b.ret(b.binImm(ir::BinKind::kMul, b.param(0), 3));
    }
    ir::FuncId zoo = m.addFunction("zoo", 2);
    {
        ir::FunctionBuilder b(m, zoo);
        ir::BlockId lo = b.newBlock();
        ir::BlockId hi = b.newBlock();
        const uint32_t s0 = b.newFrameSlot();
        const uint32_t s1 = b.newFrameSlot();
        ir::Reg c1 = b.constI(5); // const+binop
        ir::Reg x = b.bin(ir::BinKind::kAdd, b.param(0), c1);
        ir::Reg y = b.bin(ir::BinKind::kMul, x, b.param(1));
        ir::Reg c2 = b.constI(9); // ...binop+const
        ir::Reg mv = b.move(y);   // move+binop
        ir::Reg z = b.bin(ir::BinKind::kXor, mv, c2);
        b.frameStore(s0, z);
        ir::Reg fl = b.frameLoad(s0); // frameload+binop
        ir::Reg w = b.bin(ir::BinKind::kAdd, fl, x);
        ir::Reg c3 = b.constI(11); // const+call
        ir::Reg r1 = b.call(helper, {w});
        ir::Reg mv2 = b.move(r1); // move+call
        ir::Reg r2 = b.call(helper, {mv2});
        b.frameStore(s1, r2);
        ir::Reg fl2 = b.frameLoad(s1); // frameload+call
        ir::Reg r3 = b.call(helper, {fl2});
        ir::Reg lt = b.bin(ir::BinKind::kLt, r3, b.param(1));
        b.condBr(lt, lo, hi); // cmp+condbr
        b.setBlock(lo);
        b.sink(c3); // post-call read of the fused const's register
        b.ret(b.bin(ir::BinKind::kAdd, r3, c3));
        b.setBlock(hi);
        b.sink(lt);
        b.ret(b.bin(ir::BinKind::kSub, r3, lt));
    }
    return m;
}

// Every fused family executes identically with the timing model on
// and off (the two Timing template instantiations share one handler
// include).
TEST(FusionParity, TimingOnAndOffAgreeForEveryFamily)
{
    ir::Module m = fusionZooModule();
    ASSERT_TRUE(test::verifies(m));
    const ir::FuncId zoo = m.findFunction("zoo");
    auto decoded = std::make_shared<const uarch::DecodedModule>(m);
    for (size_t fam = 0; fam < uarch::kNumFusedFamilies; ++fam) {
        EXPECT_GT(decoded->decodeStats().fused_sites[fam], 0u)
            << "zoo module lost coverage of family "
            << uarch::fusedFamilyName(
                   static_cast<uarch::FusedFamily>(fam));
    }

    struct Run
    {
        int64_t last = 0;
        uint64_t sink = 0;
        uarch::RunStats stats;
    };
    const auto calls = test::argMatrix();
    auto go = [&](bool timing) {
        Run out;
        uarch::Simulator sim(decoded);
        sim.setTimingEnabled(timing);
        for (const auto& args : calls)
            out.last = sim.run(zoo, args);
        out.sink = sim.sinkHash();
        out.stats = sim.stats();
        return out;
    };
    const Run timed = go(true);
    for (size_t fam = 0; fam < uarch::kNumFusedFamilies; ++fam)
        EXPECT_GT(timed.stats.fused[fam], 0u);
    const Run untimed = go(false);
    EXPECT_EQ(untimed.last, timed.last);
    EXPECT_EQ(untimed.sink, timed.sink);
    EXPECT_EQ(untimed.stats.instructions, timed.stats.instructions);
    EXPECT_EQ(untimed.stats.direct_calls, timed.stats.direct_calls);
    EXPECT_EQ(untimed.stats.cond_branches, timed.stats.cond_branches);
    EXPECT_EQ(untimed.stats.fused, timed.stats.fused);
    expectSameExecution(m, zoo, calls);
}

} // namespace
} // namespace pibe
