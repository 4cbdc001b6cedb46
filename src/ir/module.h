/**
 * @file
 * PIR — the PIBE intermediate representation.
 *
 * PIR is a small register-machine IR: a Module holds Functions, each
 * Function holds BasicBlocks of Instructions operating on per-function
 * virtual registers plus a per-activation frame of i64 slots. It is
 * deliberately simpler than LLVM IR (no SSA, a single i64 value type)
 * while still expressing everything the PIBE algorithms care about:
 * direct calls, indirect calls through function-pointer values,
 * returns, conditional branches, and switches (jump tables).
 *
 * Function addresses are first-class values: ir::funcAddrValue(id)
 * encodes function `id` as an i64 that can be stored in globals (e.g.
 * a syscall table) and called indirectly.
 */
#ifndef PIBE_IR_MODULE_H_
#define PIBE_IR_MODULE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/logging.h"

namespace pibe::ir {

/** Index of a function within its Module. */
using FuncId = uint32_t;
/** Index of a basic block within its Function. */
using BlockId = uint32_t;
/** Virtual register index within a Function. */
using Reg = uint32_t;
/** Index of a global array within its Module. */
using GlobalId = uint32_t;
/** Unique id of a call/return site, used to key profile data. */
using SiteId = uint32_t;

constexpr FuncId kInvalidFunc = 0xffffffffu;
constexpr GlobalId kInvalidGlobal = 0xffffffffu;
constexpr Reg kNoReg = 0xffffffffu;
constexpr SiteId kNoSite = 0xffffffffu;

/** Bias added to a FuncId to form its i64 function-address value. */
constexpr int64_t kFuncAddrBase = int64_t{1} << 32;

/** Encode a function id as an i64 function-pointer value. */
constexpr int64_t
funcAddrValue(FuncId f)
{
    return kFuncAddrBase + static_cast<int64_t>(f);
}

/** True if an i64 value is a function-pointer value. */
constexpr bool
isFuncAddrValue(int64_t v)
{
    return v >= kFuncAddrBase && v < kFuncAddrBase + kFuncAddrBase;
}

/** Decode a function-pointer value back to a FuncId. */
constexpr FuncId
funcAddrTarget(int64_t v)
{
    return static_cast<FuncId>(v - kFuncAddrBase);
}

/** Instruction opcodes. */
enum class Opcode : uint8_t {
    kConst,      ///< dst = imm
    kMove,       ///< dst = a
    kBinOp,      ///< dst = a <bin> b
    kFuncAddr,   ///< dst = funcAddrValue(callee)
    kLoad,       ///< dst = global[a + imm]
    kStore,      ///< global[a + imm] = b
    kFrameLoad,  ///< dst = frame[imm]
    kFrameStore, ///< frame[imm] = a
    kCall,       ///< dst = callee(args...)
    kICall,      ///< dst = (*a)(args...)
    kRet,        ///< return a (or void when a == kNoReg)
    kBr,         ///< goto t0
    kCondBr,     ///< if (a != 0) goto t0 else goto t1
    kSwitch,     ///< indexed multiway jump (jump table candidate)
    kSink,       ///< observable side effect consuming a (inhibits DCE)
};

/** Binary operator kinds for Opcode::kBinOp. Comparisons yield 0/1. */
enum class BinKind : uint8_t {
    kAdd, kSub, kMul, kDiv, kRem,
    kAnd, kOr, kXor, kShl, kShr,
    kEq, kNe, kLt, kLe, kGt, kGe,
};

/** Hardening scheme applied to a forward edge (kICall / kSwitch). */
enum class FwdScheme : uint8_t {
    kNone,            ///< Plain BTB-predicted indirect branch.
    kRetpoline,       ///< Spectre-V2 retpoline thunk (Listing 4).
    kLviCfi,          ///< LFENCE'd indirect thunk (Listing 5).
    kFencedRetpoline, ///< Combined LVI-protected retpoline (Listing 7).
    kJumpSwitch,      ///< JumpSwitches runtime-patched call (ATC'19).
};

/** Hardening scheme applied to a backward edge (kRet). */
enum class RetScheme : uint8_t {
    kNone,            ///< Plain RSB-predicted return.
    kReturnRetpoline, ///< Intel return retpoline.
    kLviRet,          ///< pop + LFENCE + jmp (Listing 6).
    kFencedRet,       ///< Combined return retpoline + LVI fence.
};

/**
 * A single PIR instruction.
 *
 * The struct is a tagged union in spirit: which fields are meaningful
 * depends on `op` (see Opcode docs). `site_id` tags call sites and
 * returns with a stable identifier used by the profiler.
 *
 * Variable-length operands live in the owning Function's operand
 * pool: a kCall/kICall's argument list or a kSwitch's case list is
 * the range [operand_offset, operand_offset + operand_count) of that
 * pool, read through Function::args() / Function::cases(). Every
 * other opcode has operand_count 0. The byte-sized fields come first
 * so the struct packs into 56 bytes.
 */
struct Instruction
{
    Opcode op = Opcode::kConst;
    BinKind bin = BinKind::kAdd;
    FwdScheme fwd_scheme = FwdScheme::kNone;
    RetScheme ret_scheme = RetScheme::kNone;

    /**
     * Call site implemented via an inline-assembly macro (e.g. the
     * kernel's paravirt hypercalls). Such sites cannot be rewritten by
     * hardening passes or promoted (§3, Table 11 "Vuln. ICalls").
     */
    bool is_asm = false;

    int64_t imm = 0;

    Reg dst = kNoReg;
    Reg a = kNoReg;
    Reg b = kNoReg;

    FuncId callee = kInvalidFunc; ///< kCall / kFuncAddr target.
    GlobalId global = 0;          ///< kLoad / kStore array.

    BlockId t0 = 0; ///< kBr / kCondBr-true / kSwitch-default target.
    BlockId t1 = 0; ///< kCondBr-false target.

    SiteId site_id = kNoSite;

    /** Range of the call's arguments / the switch's cases in the
     *  function's operand pool (count 0 for every other opcode). */
    uint32_t operand_offset = 0;
    uint32_t operand_count = 0;

    /** True for terminator opcodes (must be last in their block). */
    bool
    isTerminator() const
    {
        return op == Opcode::kRet || op == Opcode::kBr ||
               op == Opcode::kCondBr || op == Opcode::kSwitch;
    }

    /** True for kCall / kICall, the opcodes that take arguments. */
    bool
    isCall() const
    {
        return op == Opcode::kCall || op == Opcode::kICall;
    }

    /** True if this instruction writes a register. */
    bool
    hasDst() const
    {
        return dst != kNoReg;
    }

    /** True if removing this instruction could change behaviour. */
    bool
    hasSideEffects() const
    {
        switch (op) {
          case Opcode::kStore:
          case Opcode::kFrameStore:
          case Opcode::kCall:
          case Opcode::kICall:
          case Opcode::kSink:
            return true;
          default:
            return isTerminator();
        }
    }
};

static_assert(sizeof(Instruction) <= 56,
              "variable-length operands belong in the operand pool");

/** One arm of a kSwitch: jump to `target` when the value is `value`. */
struct SwitchCase
{
    int64_t value = 0;
    BlockId target = 0;
};

/**
 * A function's operand pool: the argument lists of its calls and the
 * case lists of its switches, one array per element type. Each
 * instruction owns its own range (ranges are never shared) and the
 * range of an erased instruction stays behind as dead entries until
 * the module is reparsed.
 */
struct OperandPool
{
    std::vector<Reg> args;
    std::vector<SwitchCase> cases;
};

/** A basic block: straight-line instructions ending in a terminator. */
struct BasicBlock
{
    std::vector<Instruction> insts;

    /** The block's terminator. @pre the block is non-empty and valid. */
    const Instruction&
    terminator() const
    {
        PIBE_ASSERT(!insts.empty(), "terminator() on empty block");
        return insts.back();
    }
};

/** Function attribute flags (bitmask). */
enum FuncAttr : uint32_t {
    kAttrNone = 0,
    /** Never inline this function (callee-side inhibitor). */
    kAttrNoInline = 1u << 0,
    /** Do not optimize within this function (caller-side inhibitor). */
    kAttrOptNone = 1u << 1,
    /** Runs only during boot; its returns are not attack surface. */
    kAttrBootSection = 1u << 2,
    /** External/leaf model: body is a synthetic cost, never transformed. */
    kAttrExternal = 1u << 3,
};

/**
 * A PIR function.
 *
 * Parameters occupy registers [0, num_params); the body may use
 * registers [0, num_regs) and frame slots [0, frame_size). Block 0 is
 * the entry block.
 */
struct Function
{
    std::string name;
    FuncId id = kInvalidFunc;
    uint32_t num_params = 0;
    uint32_t num_regs = 0;
    uint32_t frame_size = 0;
    uint32_t attrs = kAttrNone;
    std::vector<BasicBlock> blocks;
    OperandPool operands;

    bool hasAttr(FuncAttr attr) const { return (attrs & attr) != 0; }
    bool isDeclaration() const { return blocks.empty(); }

    /** Total number of instructions across all blocks. */
    size_t
    instructionCount() const
    {
        size_t n = 0;
        for (const auto& bb : blocks)
            n += bb.insts.size();
        return n;
    }

    /**
     * A call's arguments and a switch's cases: spans into the pool,
     * empty for every other opcode. An append to the same function's
     * pool (setArgs, setCases, copyArgs) may move it, so no span is
     * held across one.
     */
    std::span<const Reg>
    args(const Instruction& inst) const
    {
        return slice(std::span(operands.args), inst, inst.isCall());
    }
    std::span<Reg>
    args(const Instruction& inst)
    {
        return slice(std::span(operands.args), inst, inst.isCall());
    }
    std::span<const SwitchCase>
    cases(const Instruction& inst) const
    {
        return slice(std::span(operands.cases), inst,
                     inst.op == Opcode::kSwitch);
    }
    std::span<SwitchCase>
    cases(const Instruction& inst)
    {
        return slice(std::span(operands.cases), inst,
                     inst.op == Opcode::kSwitch);
    }

    /** Append `regs` (not a span of this pool) as `inst`'s arguments. */
    void
    setArgs(Instruction& inst, std::span<const Reg> regs)
    {
        append(operands.args, inst, regs);
    }

    /** Append `cases` (not a span of this pool) as `inst`'s cases. */
    void
    setCases(Instruction& inst, std::span<const SwitchCase> cases)
    {
        append(operands.cases, inst, cases);
    }

    /** Give call `to` its own copy of call `from`'s arguments. */
    void
    copyArgs(Instruction& to, const Instruction& from)
    {
        std::vector<Reg>& pool = operands.args;
        const uint32_t src = from.operand_offset;
        const uint32_t n = from.operand_count;
        PIBE_ASSERT(pool.size() + n <= UINT32_MAX, "operand pool overflow");
        to.operand_offset = static_cast<uint32_t>(pool.size());
        to.operand_count = n;
        pool.resize(pool.size() + n); // may move the pool: copy by index
        std::copy_n(pool.begin() + src, n, pool.begin() + to.operand_offset);
    }

  private:
    template <typename T>
    static std::span<T>
    slice(std::span<T> pool, const Instruction& inst, bool has_list)
    {
        return has_list ? pool.subspan(inst.operand_offset,
                                       inst.operand_count)
                        : pool.first(0);
    }

    template <typename T>
    static void
    append(std::vector<T>& pool, Instruction& inst,
           std::span<const T> items)
    {
        PIBE_ASSERT(pool.size() + items.size() <= UINT32_MAX,
                    "operand pool overflow");
        inst.operand_offset = static_cast<uint32_t>(pool.size());
        inst.operand_count = static_cast<uint32_t>(items.size());
        pool.insert(pool.end(), items.begin(), items.end());
    }
};

/** A module-level global: a named array of i64 slots. */
struct Global
{
    std::string name;
    std::vector<int64_t> init;
};

/**
 * A PIR module: the unit of linking, optimization, and hardening.
 *
 * Modules are value types; copying a Module snapshots the whole
 * program, which the pipeline uses to derive per-configuration images
 * from one linked baseline. FuncIds and GlobalIds are stable for the
 * lifetime of a module (functions are never deleted, only emptied).
 */
class Module
{
  public:
    /** Create a function; returns its id. Name must be unique. */
    FuncId
    addFunction(std::string name, uint32_t num_params,
                uint32_t attrs = kAttrNone)
    {
        PIBE_ASSERT(!func_by_name_.count(name),
                    "duplicate function name: ", name);
        FuncId id = static_cast<FuncId>(functions_.size());
        Function f;
        f.name = std::move(name);
        f.id = id;
        f.num_params = num_params;
        f.num_regs = num_params;
        f.attrs = attrs;
        func_by_name_.emplace(f.name, id);
        functions_.push_back(std::move(f));
        return id;
    }

    /** Create a global array; returns its id. Name must be unique. */
    GlobalId
    addGlobal(std::string name, std::vector<int64_t> init)
    {
        PIBE_ASSERT(!global_by_name_.count(name),
                    "duplicate global name: ", name);
        GlobalId id = static_cast<GlobalId>(globals_.size());
        global_by_name_.emplace(name, id);
        globals_.push_back(Global{std::move(name), std::move(init)});
        return id;
    }

    Function& func(FuncId id)
    {
        PIBE_ASSERT(id < functions_.size(), "bad FuncId ", id);
        return functions_[id];
    }
    const Function& func(FuncId id) const
    {
        PIBE_ASSERT(id < functions_.size(), "bad FuncId ", id);
        return functions_[id];
    }

    Global& global(GlobalId id)
    {
        PIBE_ASSERT(id < globals_.size(), "bad GlobalId ", id);
        return globals_[id];
    }
    const Global& global(GlobalId id) const
    {
        PIBE_ASSERT(id < globals_.size(), "bad GlobalId ", id);
        return globals_[id];
    }

    /** Look up a function id by name; kInvalidFunc if absent. */
    FuncId
    findFunction(const std::string& name) const
    {
        auto it = func_by_name_.find(name);
        return it == func_by_name_.end() ? kInvalidFunc : it->second;
    }

    /** Look up a global id by name; kInvalidGlobal if absent. */
    GlobalId
    findGlobal(const std::string& name) const
    {
        auto it = global_by_name_.find(name);
        return it == global_by_name_.end() ? kInvalidGlobal : it->second;
    }

    size_t numFunctions() const { return functions_.size(); }
    size_t numGlobals() const { return globals_.size(); }

    const std::vector<Function>& functions() const { return functions_; }
    std::vector<Function>& functions() { return functions_; }
    const std::vector<Global>& globals() const { return globals_; }

    /** Allocate a fresh, module-unique call/return site id. */
    SiteId allocSiteId() { return next_site_id_++; }

    /** Ensure future allocSiteId() results are >= `bound` (used when
     *  reconstructing a module whose sites carry explicit ids). */
    void
    reserveSiteIds(SiteId bound)
    {
        if (bound > next_site_id_)
            next_site_id_ = bound;
    }

    /** Upper bound (exclusive) on site ids allocated so far. */
    SiteId siteIdBound() const { return next_site_id_; }

  private:
    std::vector<Function> functions_;
    std::vector<Global> globals_;
    std::unordered_map<std::string, FuncId> func_by_name_;
    std::unordered_map<std::string, GlobalId> global_by_name_;
    SiteId next_site_id_ = 0;
};

} // namespace pibe::ir

#endif // PIBE_IR_MODULE_H_
