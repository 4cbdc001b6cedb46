#include "scale/scale_builder.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "kernel/kernel.h"
#include "support/logging.h"
#include "support/rng.h"

namespace pibe::scale {

namespace {

constexpr uint32_t kNumSubsys = 4;
const char* const kSubsysName[kNumSubsys] = {"core", "fs", "net", "drv"};

uint64_t
nextPow2(uint64_t v)
{
    uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** One function-pointer op table (file_operations analogue). */
struct TablePlan
{
    uint32_t arity = 1;
    std::vector<ir::FuncId> handlers;
    ir::GlobalId global = 0;
    uint64_t mask = 0; ///< Padded-size-minus-one (power of two).
};

/** Everything decided about a function before its body is emitted. */
struct FuncPlan
{
    uint32_t subsys = 0;
    uint32_t layer = 0;
    uint32_t params = 1;
    uint32_t budget = 0; ///< Instruction count to aim for.
    uint32_t attrs = ir::kAttrNone;
    bool has_switch = false;
    std::vector<ir::FuncId> callees;
    std::vector<uint32_t> tables; ///< Op-table index per icall site.
};

/**
 * Builds the module in two phases: plan (sizes, layers, call edges,
 * tables — pure bookkeeping) and emit (function bodies). All
 * randomness flows through one Rng, so the result is a pure function
 * of the config.
 */
class Builder
{
  public:
    explicit Builder(const ScaleConfig& config)
        : cfg_(config), rng_(config.seed)
    {
    }

    ir::Module
    build(ScaleStats* stats)
    {
        plan();
        emit();
        if (stats)
            *stats = stats_;
        return std::move(module_);
    }

  private:
    // --- planning ---------------------------------------------------

    void
    plan()
    {
        const uint32_t mean_body =
            (cfg_.body_insts_min + cfg_.body_insts_max) / 2;
        const uint64_t n64 =
            std::max<uint64_t>(8, cfg_.target_insts / mean_body);
        const uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(n64, 1u << 24));
        const uint32_t depth =
            std::max<uint32_t>(2, std::min(cfg_.depth, n / 2));

        // Layer populations grow geometrically toward the leaves.
        std::vector<double> weights(depth);
        double w = 1.0;
        for (uint32_t l = 0; l < depth; ++l, w *= cfg_.layer_growth)
            weights[l] = w;
        const double total =
            std::accumulate(weights.begin(), weights.end(), 0.0);
        layer_count_.assign(depth, 1);
        uint32_t assigned = depth;
        for (uint32_t l = 0; l < depth && assigned < n; ++l) {
            const uint32_t extra = std::min<uint32_t>(
                n - assigned,
                static_cast<uint32_t>(weights[l] / total * (n - depth)));
            layer_count_[l] += extra;
            assigned += extra;
        }
        layer_count_.back() += n - assigned;

        // Ids: 0 = kernel_init, 1 = sys_dispatch, then layers in order
        // (so ascending id is a topological order of the call graph).
        layer_start_.resize(depth + 1);
        layer_start_[0] = 2;
        for (uint32_t l = 0; l < depth; ++l)
            layer_start_[l + 1] = layer_start_[l] + layer_count_[l];
        const uint32_t num_funcs = layer_start_[depth];

        plans_.resize(num_funcs);
        const std::vector<double> mix = {cfg_.frac_core, cfg_.frac_fs,
                                         cfg_.frac_net,
                                         cfg_.frac_drivers};
        for (uint32_t l = 0; l < depth; ++l) {
            for (ir::FuncId f = layer_start_[l]; f < layer_start_[l + 1];
                 ++f) {
                FuncPlan& p = plans_[f];
                p.layer = l;
                p.subsys = static_cast<uint32_t>(rng_.weightedIndex(mix));
                p.params = static_cast<uint32_t>(rng_.range(1, 3));
                p.budget = static_cast<uint32_t>(rng_.range(
                    cfg_.body_insts_min, cfg_.body_insts_max));
                if (rng_.chance(cfg_.boot_fraction))
                    p.attrs |= ir::kAttrBootSection;
                p.has_switch = rng_.chance(cfg_.switch_fraction);
            }
        }

        planTables(depth);
        planEntries();
        planEdges(depth);
    }

    /** Deepest-layer functions become op-table handlers. */
    void
    planTables(uint32_t depth)
    {
        const ir::FuncId lo = layer_start_[depth - 1];
        const ir::FuncId hi = layer_start_[depth];
        const uint32_t per = std::max<uint32_t>(2, cfg_.ops_per_table);
        const uint32_t num_tables =
            std::max<uint32_t>(1, (hi - lo) / per);
        tables_.resize(num_tables);
        for (uint32_t t = 0; t < num_tables; ++t) {
            TablePlan& tab = tables_[t];
            tab.arity = 1 + (t % 3);
            for (uint32_t k = 0; k < per; ++k) {
                const ir::FuncId h = lo + t * per + k;
                if (h >= hi)
                    break;
                tab.handlers.push_back(h);
                FuncPlan& p = plans_[h];
                p.params = tab.arity;
                p.attrs &= ~ir::kAttrBootSection; // handlers stay hot
                p.has_switch = false;             // leaves stay simple
            }
        }
    }

    /** First layer-0 functions are the syscall-table entry points. */
    void
    planEntries()
    {
        const uint32_t n = std::min<uint32_t>(
            std::max<uint32_t>(1, cfg_.num_entry_points),
            layer_count_[0]);
        for (uint32_t i = 0; i < n; ++i) {
            const ir::FuncId f = layer_start_[0] + i;
            entries_.push_back(f);
            plans_[f].params = 3;
            plans_[f].attrs &= ~ir::kAttrBootSection;
        }
    }

    /** Direct call edges (strictly deeper) and icall site tables. */
    void
    planEdges(uint32_t depth)
    {
        // Per-subsystem id lists, ascending (== ascending layer).
        std::vector<std::vector<ir::FuncId>> by_subsys(kNumSubsys);
        for (ir::FuncId f = 2; f < plans_.size(); ++f)
            by_subsys[plans_[f].subsys].push_back(f);

        // Expected icall count drives a per-function site rate.
        const uint64_t icall_budget = static_cast<uint64_t>(
            static_cast<double>(cfg_.target_insts) *
            cfg_.icalls_per_kinst / 1000.0);
        const uint32_t eligible =
            layer_start_[depth - 1] - layer_start_[0];
        const double lambda =
            eligible ? static_cast<double>(icall_budget) / eligible : 0;

        const uint32_t fan_hi = std::max<uint32_t>(
            1, static_cast<uint32_t>(2.0 * cfg_.fanout) - 1);

        for (ir::FuncId f = 2; f < plans_.size(); ++f) {
            FuncPlan& p = plans_[f];
            if (p.layer + 1 >= depth)
                continue; // leaves: no outgoing edges

            const ir::FuncId deeper = layer_start_[p.layer + 1];
            const uint32_t n_callees =
                static_cast<uint32_t>(rng_.range(1, fan_hi));
            for (uint32_t i = 0; i < n_callees; ++i) {
                // Subsystem locality: prefer callees of the same
                // subsystem when any exist in deeper layers.
                ir::FuncId callee = ir::kInvalidFunc;
                if (rng_.chance(0.7)) {
                    const auto& pool = by_subsys[p.subsys];
                    auto it = std::lower_bound(pool.begin(), pool.end(),
                                               deeper);
                    if (it != pool.end()) {
                        const size_t k = static_cast<size_t>(
                            it - pool.begin());
                        callee =
                            pool[k + rng_.below(pool.size() - k)];
                    }
                }
                if (callee == ir::kInvalidFunc) {
                    callee = deeper +
                             static_cast<ir::FuncId>(rng_.below(
                                 plans_.size() - deeper));
                }
                p.callees.push_back(callee);
            }

            uint32_t n_icalls =
                static_cast<uint32_t>(std::floor(lambda));
            if (rng_.chance(lambda - std::floor(lambda)))
                ++n_icalls;
            for (uint32_t i = 0; i < n_icalls; ++i)
                p.tables.push_back(static_cast<uint32_t>(
                    rng_.below(tables_.size())));
        }
    }

    // --- emission ---------------------------------------------------

    void
    emit()
    {
        const ir::FuncId init = module_.addFunction(
            kernel::kKernelInitName, 0, ir::kAttrBootSection);
        const ir::FuncId dispatch =
            module_.addFunction(kernel::kSysDispatchName, 4);
        PIBE_ASSERT(init == 0 && dispatch == 1,
                    "scale: root ids must be 0/1");

        for (ir::FuncId f = 2; f < plans_.size(); ++f) {
            const FuncPlan& p = plans_[f];
            std::string name = std::string(kSubsysName[p.subsys]) +
                               "_l" + std::to_string(p.layer) + "_f" +
                               std::to_string(f);
            const ir::FuncId got =
                module_.addFunction(std::move(name), p.params, p.attrs);
            PIBE_ASSERT(got == f, "scale: id mismatch");
        }

        emitGlobals();

        emitInit();
        emitDispatch();
        for (ir::FuncId f = 2; f < plans_.size(); ++f)
            emitBody(f);

        stats_.num_functions = module_.numFunctions();
        stats_.num_tables = tables_.size();
        stats_.num_globals = module_.numGlobals();
    }

    void
    emitGlobals()
    {
        mem_ = module_.addGlobal(
            "scale_mem", std::vector<int64_t>(kMemSlots, 0));

        {
            const uint64_t size = nextPow2(entries_.size());
            std::vector<int64_t> init(size,
                                      ir::funcAddrValue(entries_[0]));
            for (size_t i = 0; i < entries_.size(); ++i)
                init[i] = ir::funcAddrValue(entries_[i]);
            systable_ = module_.addGlobal("scale_syscall_table",
                                          std::move(init));
            systable_mask_ = size - 1;
        }

        for (size_t t = 0; t < tables_.size(); ++t) {
            TablePlan& tab = tables_[t];
            const uint64_t size = nextPow2(tab.handlers.size());
            std::vector<int64_t> init(
                size, ir::funcAddrValue(tab.handlers[0]));
            for (size_t i = 0; i < tab.handlers.size(); ++i)
                init[i] = ir::funcAddrValue(tab.handlers[i]);
            tab.global = module_.addGlobal(
                "scale_ops_" + std::to_string(t), std::move(init));
            tab.mask = size - 1;
        }
    }

    // Small instruction helpers. `fb` state below tracks the function
    // being emitted; registers follow a fixed scheme: params, then
    // acc / cst / scratch0 / scratch1 / fptr.

    struct FuncState
    {
        ir::Function* f = nullptr;
        ir::BlockId cur = 0; ///< Spine block under construction.
        ir::Reg acc = 0;
        ir::Reg cst = 0;
        ir::Reg s0 = 0;
        ir::Reg s1 = 0;
        ir::Reg fptr = 0;
        uint32_t emitted = 0; ///< Instructions emitted so far.
    };

    void
    push(FuncState& fs, const ir::Instruction& inst)
    {
        fs.f->blocks[fs.cur].insts.push_back(inst);
        ++fs.emitted;
        ++stats_.num_insts;
    }

    void
    emitConst(FuncState& fs, ir::Reg dst, int64_t imm)
    {
        ir::Instruction i;
        i.op = ir::Opcode::kConst;
        i.dst = dst;
        i.imm = imm;
        push(fs, i);
    }

    void
    emitBin(FuncState& fs, ir::BinKind kind, ir::Reg dst, ir::Reg a,
            ir::Reg b)
    {
        ir::Instruction i;
        i.op = ir::Opcode::kBinOp;
        i.bin = kind;
        i.dst = dst;
        i.a = a;
        i.b = b;
        push(fs, i);
    }

    void
    emitSink(FuncState& fs, ir::Reg a)
    {
        ir::Instruction i;
        i.op = ir::Opcode::kSink;
        i.a = a;
        push(fs, i);
    }

    void
    emitBr(FuncState& fs, ir::BlockId t)
    {
        ir::Instruction i;
        i.op = ir::Opcode::kBr;
        i.t0 = t;
        push(fs, i);
    }

    ir::BlockId
    newBlock(FuncState& fs)
    {
        fs.f->blocks.emplace_back();
        return static_cast<ir::BlockId>(fs.f->blocks.size() - 1);
    }

    /** acc = acc <op> small-constant (2 instructions). */
    void
    emitFiller(FuncState& fs)
    {
        static const ir::BinKind kOps[] = {
            ir::BinKind::kAdd, ir::BinKind::kXor, ir::BinKind::kSub,
            ir::BinKind::kMul, ir::BinKind::kOr};
        emitConst(fs, fs.cst,
                  static_cast<int64_t>(rng_.range(1, 255)));
        emitBin(fs, kOps[rng_.below(5)], fs.acc, fs.acc, fs.cst);
    }

    /** Frame round-trip: store acc, load it back, fold (3 insts). */
    void
    emitFrameOps(FuncState& fs)
    {
        if (cfg_.frame_slots == 0) {
            emitFiller(fs);
            return;
        }
        const int64_t slot =
            static_cast<int64_t>(rng_.below(cfg_.frame_slots));
        ir::Instruction st;
        st.op = ir::Opcode::kFrameStore;
        st.a = fs.acc;
        st.imm = slot;
        push(fs, st);
        ir::Instruction ld;
        ld.op = ir::Opcode::kFrameLoad;
        ld.dst = fs.s0;
        ld.imm = slot;
        push(fs, ld);
        emitBin(fs, ir::BinKind::kAdd, fs.acc, fs.acc, fs.s0);
    }

    /** Masked load/store against the shared data global (4 insts). */
    void
    emitMemOps(FuncState& fs)
    {
        emitConst(fs, fs.cst, kMemSlots - 1);
        emitBin(fs, ir::BinKind::kAnd, fs.s0, fs.acc, fs.cst);
        if (rng_.chance(0.5)) {
            ir::Instruction ld;
            ld.op = ir::Opcode::kLoad;
            ld.dst = fs.s1;
            ld.a = fs.s0;
            ld.global = mem_;
            push(fs, ld);
            emitBin(fs, ir::BinKind::kXor, fs.acc, fs.acc, fs.s1);
        } else {
            ir::Instruction st;
            st.op = ir::Opcode::kStore;
            st.a = fs.s0;
            st.b = fs.acc;
            st.global = mem_;
            push(fs, st);
            emitFiller(fs);
        }
    }

    /** Side-exit arm: compute something, sink it, branch to join. */
    void
    emitArm(FuncState& fs, ir::BlockId arm, ir::BlockId join)
    {
        const ir::BlockId saved = fs.cur;
        fs.cur = arm;
        emitConst(fs, fs.s0, static_cast<int64_t>(rng_.range(1, 999)));
        emitBin(fs, ir::BinKind::kAdd, fs.s1, fs.s0, fs.acc);
        emitSink(fs, fs.s1);
        emitBr(fs, join);
        fs.cur = saved;
    }

    /** Two-arm diamond; the spine continues at the join block. */
    void
    emitDiamond(FuncState& fs)
    {
        const ir::BlockId a = newBlock(fs);
        const ir::BlockId b = newBlock(fs);
        const ir::BlockId join = newBlock(fs);
        emitConst(fs, fs.cst, 1);
        emitBin(fs, ir::BinKind::kAnd, fs.s0, fs.acc, fs.cst);
        ir::Instruction br;
        br.op = ir::Opcode::kCondBr;
        br.a = fs.s0;
        br.t0 = a;
        br.t1 = b;
        push(fs, br);
        emitArm(fs, a, join);
        emitArm(fs, b, join);
        fs.cur = join;
    }

    /** Multiway dispatch lowered from a masked accumulator value. */
    void
    emitSwitch(FuncState& fs)
    {
        const uint32_t cases = std::max<uint32_t>(2, cfg_.switch_cases);
        const int64_t mask =
            static_cast<int64_t>(nextPow2(cases) - 1);
        emitConst(fs, fs.cst, mask);
        emitBin(fs, ir::BinKind::kAnd, fs.s0, fs.acc, fs.cst);

        std::vector<ir::SwitchCase> arms(cases);
        for (uint32_t c = 0; c < cases; ++c)
            arms[c] = {c, newBlock(fs)};
        const ir::BlockId join = newBlock(fs);

        ir::Instruction sw;
        sw.op = ir::Opcode::kSwitch;
        sw.a = fs.s0;
        sw.t0 = join; // default
        fs.f->setCases(sw, arms);
        push(fs, sw);
        ++stats_.switch_sites;

        for (uint32_t c = 0; c < cases; ++c)
            emitArm(fs, arms[c].target, join);
        fs.cur = join;
    }

    /** Direct call to a planned deeper callee (1 instruction). */
    void
    emitCall(FuncState& fs, ir::FuncId callee)
    {
        const ir::Function& target = module_.func(callee);
        ir::Instruction call;
        call.op = ir::Opcode::kCall;
        call.dst = fs.s1;
        call.callee = callee;
        // First arg carries the accumulator; the rest reuse the
        // caller's own parameters where it has enough.
        args_.clear();
        for (uint32_t p = 0; p < target.num_params; ++p)
            args_.push_back(p == 0 || p > fs.f->num_params
                                ? fs.acc
                                : static_cast<ir::Reg>(p - 1));
        fs.f->setArgs(call, args_);
        call.site_id = module_.allocSiteId();
        push(fs, call);
        emitBin(fs, ir::BinKind::kXor, fs.acc, fs.acc, fs.s1);
        ++stats_.call_sites;
    }

    /** Indirect call through an op table (5 instructions). */
    void
    emitICall(FuncState& fs, const TablePlan& tab)
    {
        emitConst(fs, fs.cst, static_cast<int64_t>(tab.mask));
        emitBin(fs, ir::BinKind::kAnd, fs.s0, fs.acc, fs.cst);
        ir::Instruction ld;
        ld.op = ir::Opcode::kLoad;
        ld.dst = fs.fptr;
        ld.a = fs.s0;
        ld.global = tab.global;
        push(fs, ld);

        ir::Instruction icall;
        icall.op = ir::Opcode::kICall;
        icall.dst = fs.s1;
        icall.a = fs.fptr;
        args_.assign(tab.arity, fs.acc);
        fs.f->setArgs(icall, args_);
        icall.site_id = module_.allocSiteId();
        icall.is_asm = rng_.chance(cfg_.asm_site_fraction);
        if (icall.is_asm)
            ++stats_.asm_icall_sites;
        push(fs, icall);
        emitBin(fs, ir::BinKind::kXor, fs.acc, fs.acc, fs.s1);
        ++stats_.icall_sites;
    }

    void
    emitRet(FuncState& fs)
    {
        emitSink(fs, fs.acc);
        ir::Instruction ret;
        ret.op = ir::Opcode::kRet;
        ret.a = fs.acc;
        ret.site_id = module_.allocSiteId();
        push(fs, ret);
        ++stats_.ret_sites;
    }

    FuncState
    openFunction(ir::FuncId id)
    {
        FuncState fs;
        fs.f = &module_.func(id);
        fs.f->blocks.emplace_back();
        fs.cur = 0;
        const uint32_t p = fs.f->num_params;
        fs.acc = p;
        fs.cst = p + 1;
        fs.s0 = p + 2;
        fs.s1 = p + 3;
        fs.fptr = p + 4;
        fs.f->num_regs = p + 5;
        fs.f->frame_size = cfg_.frame_slots;
        // Seed the accumulator from the parameters (or a constant for
        // parameterless functions) so every later read is defined.
        if (p == 0) {
            emitConst(fs, fs.acc, 0x5eed);
        } else {
            ir::Instruction mv;
            mv.op = ir::Opcode::kMove;
            mv.dst = fs.acc;
            mv.a = 0;
            push(fs, mv);
            for (uint32_t i = 1; i < p; ++i)
                emitBin(fs, ir::BinKind::kAdd, fs.acc, fs.acc, i);
        }
        return fs;
    }

    void
    emitInit()
    {
        FuncState fs = openFunction(0);
        const uint32_t n =
            std::min<uint32_t>(4, layer_count_.empty()
                                      ? 0
                                      : layer_count_[0]);
        for (uint32_t i = 0; i < n; ++i)
            emitCall(fs, layer_start_[0] + i);
        emitRet(fs);
    }

    void
    emitDispatch()
    {
        FuncState fs = openFunction(1);
        emitConst(fs, fs.cst, static_cast<int64_t>(systable_mask_));
        emitBin(fs, ir::BinKind::kAnd, fs.s0, 0, fs.cst);
        ir::Instruction ld;
        ld.op = ir::Opcode::kLoad;
        ld.dst = fs.fptr;
        ld.a = fs.s0;
        ld.global = systable_;
        push(fs, ld);
        ir::Instruction icall;
        icall.op = ir::Opcode::kICall;
        icall.dst = fs.s1;
        icall.a = fs.fptr;
        // Entry arity is 3 by construction.
        const ir::Reg entry_args[] = {1, 2, 3};
        fs.f->setArgs(icall, entry_args);
        icall.site_id = module_.allocSiteId();
        push(fs, icall);
        ++stats_.icall_sites;
        emitBin(fs, ir::BinKind::kXor, fs.acc, fs.acc, fs.s1);
        emitRet(fs);
    }

    void
    emitBody(ir::FuncId id)
    {
        const FuncPlan& p = plans_[id];
        FuncState fs = openFunction(id);

        // Required features first, interleaved with filler so call
        // sites spread through the body, then pad to the budget.
        size_t next_callee = 0;
        size_t next_table = 0;
        bool switch_done = !p.has_switch;
        while (next_callee < p.callees.size() ||
               next_table < p.tables.size() || !switch_done) {
            emitFiller(fs);
            if (next_callee < p.callees.size()) {
                emitCall(fs, p.callees[next_callee++]);
                continue;
            }
            if (next_table < p.tables.size()) {
                emitICall(fs, tables_[p.tables[next_table++]]);
                continue;
            }
            emitSwitch(fs);
            switch_done = true;
        }

        // Structural variety plus padding up to the planned budget.
        while (fs.emitted + 2 < p.budget) {
            const uint32_t remaining = p.budget - fs.emitted;
            const uint64_t pick = rng_.below(10);
            if (pick == 0 && remaining >= 12) {
                emitDiamond(fs);
            } else if (pick < 3 && remaining >= 5) {
                emitFrameOps(fs);
            } else if (pick < 5 && remaining >= 6) {
                emitMemOps(fs);
            } else {
                emitFiller(fs);
            }
        }
        emitRet(fs);
    }

    static constexpr int64_t kMemSlots = 4096;

    const ScaleConfig& cfg_;
    Rng rng_;
    ir::Module module_;
    ScaleStats stats_;

    std::vector<uint32_t> layer_count_;
    std::vector<ir::FuncId> layer_start_;
    std::vector<FuncPlan> plans_;
    std::vector<TablePlan> tables_;
    std::vector<ir::FuncId> entries_;
    std::vector<ir::Reg> args_; ///< Reused argument list of one call.

    ir::GlobalId mem_ = 0;
    ir::GlobalId systable_ = 0;
    uint64_t systable_mask_ = 0;
};

} // namespace

ir::Module
buildScaleModule(const ScaleConfig& config, ScaleStats* stats)
{
    return Builder(config).build(stats);
}

} // namespace pibe::scale
