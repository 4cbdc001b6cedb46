#include "ir/builder.h"

namespace pibe::ir {

FunctionBuilder::FunctionBuilder(Module& module, FuncId func)
    : module_(module), func_(func)
{
    Function& f = function();
    PIBE_ASSERT(f.blocks.empty(), "function ", f.name, " already has a body");
    f.blocks.emplace_back();
    cur_ = 0;
}

BlockId
FunctionBuilder::newBlock()
{
    Function& f = function();
    f.blocks.emplace_back();
    return static_cast<BlockId>(f.blocks.size() - 1);
}

void
FunctionBuilder::setBlock(BlockId block)
{
    PIBE_ASSERT(block < function().blocks.size(), "setBlock: bad block");
    cur_ = block;
}

Reg
FunctionBuilder::newReg()
{
    return function().num_regs++;
}

Reg
FunctionBuilder::param(uint32_t i) const
{
    const Function& f = module_.func(func_);
    PIBE_ASSERT(i < f.num_params, "param index out of range");
    return i;
}

uint32_t
FunctionBuilder::newFrameSlot()
{
    return function().frame_size++;
}

Instruction&
FunctionBuilder::emit(Instruction inst)
{
    Function& f = function();
    PIBE_ASSERT(cur_ < f.blocks.size(), "no current block");
    BasicBlock& bb = f.blocks[cur_];
    PIBE_ASSERT(bb.insts.empty() || !bb.insts.back().isTerminator(),
                "emitting past terminator in ", f.name);
    bb.insts.push_back(std::move(inst));
    return bb.insts.back();
}

Reg
FunctionBuilder::constI(int64_t value)
{
    Instruction i;
    i.op = Opcode::kConst;
    i.dst = newReg();
    i.imm = value;
    return emit(std::move(i)).dst;
}

Reg
FunctionBuilder::move(Reg src)
{
    Instruction i;
    i.op = Opcode::kMove;
    i.dst = newReg();
    i.a = src;
    return emit(std::move(i)).dst;
}

void
FunctionBuilder::setReg(Reg dst, Reg src)
{
    Instruction i;
    i.op = Opcode::kMove;
    i.dst = dst;
    i.a = src;
    emit(std::move(i));
}

void
FunctionBuilder::setRegConst(Reg dst, int64_t value)
{
    Instruction i;
    i.op = Opcode::kConst;
    i.dst = dst;
    i.imm = value;
    emit(std::move(i));
}

void
FunctionBuilder::setRegBin(Reg dst, BinKind kind, Reg a, Reg b)
{
    Instruction i;
    i.op = Opcode::kBinOp;
    i.bin = kind;
    i.dst = dst;
    i.a = a;
    i.b = b;
    emit(std::move(i));
}

Reg
FunctionBuilder::bin(BinKind kind, Reg a, Reg b)
{
    Instruction i;
    i.op = Opcode::kBinOp;
    i.bin = kind;
    i.dst = newReg();
    i.a = a;
    i.b = b;
    return emit(std::move(i)).dst;
}

Reg
FunctionBuilder::binImm(BinKind kind, Reg a, int64_t imm)
{
    return bin(kind, a, constI(imm));
}

Reg
FunctionBuilder::funcAddr(FuncId target)
{
    Instruction i;
    i.op = Opcode::kFuncAddr;
    i.dst = newReg();
    i.callee = target;
    return emit(std::move(i)).dst;
}

Reg
FunctionBuilder::load(GlobalId g, Reg index, int64_t offset)
{
    Instruction i;
    i.op = Opcode::kLoad;
    i.dst = newReg();
    i.a = index;
    i.global = g;
    i.imm = offset;
    return emit(std::move(i)).dst;
}

void
FunctionBuilder::store(GlobalId g, Reg index, Reg value, int64_t offset)
{
    Instruction i;
    i.op = Opcode::kStore;
    i.a = index;
    i.b = value;
    i.global = g;
    i.imm = offset;
    emit(std::move(i));
}

Reg
FunctionBuilder::frameLoad(uint32_t slot)
{
    PIBE_ASSERT(slot < function().frame_size, "frameLoad: bad slot");
    Instruction i;
    i.op = Opcode::kFrameLoad;
    i.dst = newReg();
    i.imm = slot;
    return emit(std::move(i)).dst;
}

void
FunctionBuilder::frameStore(uint32_t slot, Reg value)
{
    PIBE_ASSERT(slot < function().frame_size, "frameStore: bad slot");
    Instruction i;
    i.op = Opcode::kFrameStore;
    i.a = value;
    i.imm = slot;
    emit(std::move(i));
}

Reg
FunctionBuilder::call(FuncId callee, std::vector<Reg> args)
{
    PIBE_ASSERT(callee < module_.numFunctions(), "call: bad callee");
    Instruction i;
    i.op = Opcode::kCall;
    i.dst = newReg();
    i.callee = callee;
    function().setArgs(i, args);
    i.site_id = module_.allocSiteId();
    return emit(std::move(i)).dst;
}

Reg
FunctionBuilder::icall(Reg target, std::vector<Reg> args, bool is_asm)
{
    Instruction i;
    i.op = Opcode::kICall;
    i.dst = newReg();
    i.a = target;
    function().setArgs(i, args);
    i.is_asm = is_asm;
    i.site_id = module_.allocSiteId();
    return emit(std::move(i)).dst;
}

void
FunctionBuilder::sink(Reg value)
{
    Instruction i;
    i.op = Opcode::kSink;
    i.a = value;
    emit(std::move(i));
}

void
FunctionBuilder::ret(Reg value)
{
    Instruction i;
    i.op = Opcode::kRet;
    i.a = value;
    i.site_id = module_.allocSiteId();
    emit(std::move(i));
}

void
FunctionBuilder::br(BlockId target)
{
    Instruction i;
    i.op = Opcode::kBr;
    i.t0 = target;
    emit(std::move(i));
}

void
FunctionBuilder::condBr(Reg cond, BlockId if_true, BlockId if_false)
{
    Instruction i;
    i.op = Opcode::kCondBr;
    i.a = cond;
    i.t0 = if_true;
    i.t1 = if_false;
    emit(std::move(i));
}

void
FunctionBuilder::switchOn(Reg value, BlockId default_target,
                          std::vector<SwitchCase> cases, bool is_asm)
{
    Instruction i;
    i.op = Opcode::kSwitch;
    i.a = value;
    i.t0 = default_target;
    i.is_asm = is_asm;
    function().setCases(i, cases);
    emit(std::move(i));
}

} // namespace pibe::ir
