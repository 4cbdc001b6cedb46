/**
 * @file
 * Convenience builder for constructing PIR functions.
 */
#ifndef PIBE_IR_BUILDER_H_
#define PIBE_IR_BUILDER_H_

#include <vector>

#include "ir/module.h"

namespace pibe::ir {

/**
 * Incrementally builds the body of one function.
 *
 * The builder appends instructions to a current block, allocates
 * virtual registers and frame slots, and assigns stable site ids to
 * every call and return it emits. Typical use:
 *
 * @code
 *   FuncId f = module.addFunction("f", 1);
 *   FunctionBuilder b(module, f);
 *   Reg two = b.constI(2);
 *   Reg r = b.bin(BinKind::kMul, b.param(0), two);
 *   b.ret(r);
 * @endcode
 */
class FunctionBuilder
{
  public:
    /** Start building `func`'s body; creates the entry block. */
    FunctionBuilder(Module& module, FuncId func);

    Module& module() { return module_; }
    Function& function() { return module_.func(func_); }
    FuncId funcId() const { return func_; }

    /** Create a new (empty) block; does not change the current block. */
    BlockId newBlock();

    /** Switch the insertion point to `block`. */
    void setBlock(BlockId block);

    /** Current insertion block. */
    BlockId currentBlock() const { return cur_; }

    /** Allocate a fresh virtual register. */
    Reg newReg();

    /** Register holding parameter `i`. */
    Reg param(uint32_t i) const;

    /** Allocate a frame slot (models a stack variable). */
    uint32_t newFrameSlot();

    // --- instruction emitters (each returns the defined register) ---

    Reg constI(int64_t value);
    Reg move(Reg src);
    Reg bin(BinKind kind, Reg a, Reg b);
    /** Assign into an existing register (loop variables, accumulators). */
    void setReg(Reg dst, Reg src);
    void setRegConst(Reg dst, int64_t value);
    void setRegBin(Reg dst, BinKind kind, Reg a, Reg b);
    /** bin() against an immediate; emits the kConst for you. */
    Reg binImm(BinKind kind, Reg a, int64_t imm);
    Reg funcAddr(FuncId target);
    Reg load(GlobalId g, Reg index, int64_t offset = 0);
    void store(GlobalId g, Reg index, Reg value, int64_t offset = 0);
    Reg frameLoad(uint32_t slot);
    void frameStore(uint32_t slot, Reg value);

    /** Direct call; returns the destination register. */
    Reg call(FuncId callee, std::vector<Reg> args = {});
    /** Indirect call through a function-pointer value in `target`. */
    Reg icall(Reg target, std::vector<Reg> args = {}, bool is_asm = false);
    /** Observable side effect (keeps `value` live through DCE). */
    void sink(Reg value);

    // --- terminators ---

    void ret(Reg value = kNoReg);
    void br(BlockId target);
    void condBr(Reg cond, BlockId if_true, BlockId if_false);
    /** Multiway jump; lowered to a jump table unless defenses forbid.
     *  `is_asm` marks hand-written assembly dispatch that hardening
     *  passes must leave alone (it stays a vulnerable indirect jump). */
    void switchOn(Reg value, BlockId default_target,
                  std::vector<SwitchCase> cases, bool is_asm = false);

  private:
    Instruction& emit(Instruction inst);

    Module& module_;
    FuncId func_;
    BlockId cur_ = 0;
};

} // namespace pibe::ir

#endif // PIBE_IR_BUILDER_H_
