/**
 * @file
 * The pre-rewrite interpreter loop, kept as the executable
 * specification of the decoded engine in simulator.cc: it walks the
 * IR through per-instruction CodeLayout lookups and allocates a
 * register vector per activation, exactly as the engine did before
 * the pre-decode rewrite. Differential tests run both paths and
 * assert bit-identical stats; the interpreter microbench reports the
 * decoded engine's speedup over this loop.
 */
#include <algorithm>

#include "uarch/eval_bin.h"
#include "uarch/simulator.h"

namespace pibe::uarch {

void
Simulator::fetchBlock(ir::FuncId f, ir::BlockId bb, uint32_t from_ip)
{
    if (!timing_)
        return;
    const analysis::CodeLayout& layout = decoded_->layout();
    fetchRange(layout.instAddr(f, bb, from_ip), layout.blockEnd(f, bb));
}

void
Simulator::enterFunction(ir::FuncId f, const std::vector<int64_t>& args,
                         ir::Reg ret_dst, uint64_t ret_addr)
{
    const ir::Function& func = module_.func(f);
    PIBE_ASSERT(args.size() == func.num_params,
                "call arity mismatch for ", func.name);
    if (profiler_)
        profiler_->addInvocation(f);

    Activation act;
    act.func = &func;
    act.fid = f;
    act.bb = 0;
    act.ip = 0;
    act.frame_base = pushSlots(frame_stack_, frame_top_,
                               func.frame_size);
    act.ret_dst = ret_dst;
    act.ret_addr = ret_addr;
    act.regs.assign(func.num_regs, 0);
    std::copy(args.begin(), args.end(), act.regs.begin());
    acts_.push_back(std::move(act));

    stats_.max_call_depth =
        std::max<uint64_t>(stats_.max_call_depth, acts_.size());
    stats_.peak_frame_slots =
        std::max<uint64_t>(stats_.peak_frame_slots, frame_top_);
    fetchBlock(f, 0, 0);
}

void
Simulator::leaveFunction(int64_t value)
{
    const Activation done = std::move(acts_.back());
    acts_.pop_back();
    frame_top_ = done.frame_base;
    last_return_ = value;
    if (!acts_.empty()) {
        Activation& caller = acts_.back();
        if (done.ret_dst != ir::kNoReg)
            caller.regs[done.ret_dst] = value;
        // Resume mid-block: refetch the remainder of the caller block
        // (the callee may have evicted the caller's lines).
        fetchBlock(caller.fid, caller.bb, caller.ip);
    }
}

int64_t
Simulator::runReference(ir::FuncId entry,
                        const std::vector<int64_t>& args)
{
    PIBE_ASSERT(frames_.empty() && acts_.empty(),
                "Simulator::runReference is not reentrant");
    if (!beginRun(entry, args.size()))
        return 0;
    const analysis::CodeLayout& layout = decoded_->layout();
    enterFunction(entry, args, ir::kNoReg, 0);

    while (!acts_.empty()) {
        Activation& act = acts_.back();
        const ir::Function& f = *act.func;
        PIBE_ASSERT(act.bb < f.blocks.size(), "bad block in ", f.name);
        const ir::BasicBlock& bb = f.blocks[act.bb];
        PIBE_ASSERT(act.ip < bb.insts.size(), "fell off block in ",
                    f.name);
        const ir::Instruction& inst = bb.insts[act.ip];
        ++stats_.instructions;

        switch (inst.op) {
          case ir::Opcode::kConst:
            act.regs[inst.dst] = inst.imm;
            if (timing_)
                stats_.cycles += params_.cost_free;
            ++act.ip;
            break;
          case ir::Opcode::kMove:
            act.regs[inst.dst] = act.regs[inst.a];
            if (timing_)
                stats_.cycles += params_.cost_free;
            ++act.ip;
            break;
          case ir::Opcode::kBinOp:
            act.regs[inst.dst] =
                evalBin(inst.bin, act.regs[inst.a], act.regs[inst.b]);
            if (timing_)
                stats_.cycles += params_.cost_simple;
            ++act.ip;
            break;
          case ir::Opcode::kFuncAddr:
            act.regs[inst.dst] = ir::funcAddrValue(inst.callee);
            if (timing_)
                stats_.cycles += params_.cost_free;
            ++act.ip;
            break;
          case ir::Opcode::kLoad: {
            auto& g = globals_[inst.global];
            const int64_t index = act.regs[inst.a] + inst.imm;
            if (index < 0 || index >= static_cast<int64_t>(g.size())) {
                PIBE_FATAL("load out of bounds: @",
                           module_.global(inst.global).name, "[", index,
                           "] in ", f.name);
            }
            act.regs[inst.dst] = g[index];
            if (timing_)
                stats_.cycles += params_.cost_mem;
            ++act.ip;
            break;
          }
          case ir::Opcode::kStore: {
            auto& g = globals_[inst.global];
            const int64_t index = act.regs[inst.a] + inst.imm;
            if (index < 0 || index >= static_cast<int64_t>(g.size())) {
                PIBE_FATAL("store out of bounds: @",
                           module_.global(inst.global).name, "[", index,
                           "] in ", f.name);
            }
            g[index] = act.regs[inst.b];
            if (timing_)
                stats_.cycles += params_.cost_mem;
            ++act.ip;
            break;
          }
          case ir::Opcode::kFrameLoad:
            act.regs[inst.dst] =
                frame_stack_[act.frame_base + inst.imm];
            if (timing_)
                stats_.cycles += params_.cost_simple;
            ++act.ip;
            break;
          case ir::Opcode::kFrameStore:
            frame_stack_[act.frame_base + inst.imm] = act.regs[inst.a];
            if (timing_)
                stats_.cycles += params_.cost_simple;
            ++act.ip;
            break;
          case ir::Opcode::kSink:
            sink_hash_ = sink_hash_ * 0x100000001b3ull ^
                         static_cast<uint64_t>(act.regs[inst.a]);
            if (timing_)
                stats_.cycles += params_.cost_simple;
            ++act.ip;
            break;
          case ir::Opcode::kCall: {
            ++stats_.direct_calls;
            if (profiler_)
                profiler_->addDirect(inst.site_id);
            const ir::Function& callee = module_.func(inst.callee);
            const uint64_t call_addr =
                layout.instAddr(act.fid, act.bb, act.ip);
            const uint64_t next_addr =
                call_addr + analysis::instByteSize(inst);
            if (timing_) {
                stats_.cycles +=
                    params_.cost_dcall +
                    params_.cost_arg * inst.operand_count;
            }
            ++act.ip; // resume after the call upon return
            if (callee.isDeclaration()) {
                if (profiler_)
                    profiler_->addInvocation(inst.callee);
                if (timing_)
                    stats_.cycles += params_.cost_external;
                if (inst.dst != ir::kNoReg)
                    act.regs[inst.dst] = 0;
                break;
            }
            rsb_.push(next_addr);
            std::vector<int64_t> call_args;
            call_args.reserve(inst.operand_count);
            for (ir::Reg r : f.args(inst))
                call_args.push_back(act.regs[r]);
            enterFunction(inst.callee, call_args, inst.dst, next_addr);
            break;
          }
          case ir::Opcode::kICall: {
            ++stats_.indirect_calls;
            const int64_t value = act.regs[inst.a];
            if (!ir::isFuncAddrValue(value)) {
                PIBE_FATAL("indirect call through non-function value ",
                           value, " in ", f.name);
            }
            const ir::FuncId target = ir::funcAddrTarget(value);
            if (target >= module_.numFunctions())
                PIBE_FATAL("indirect call to unknown function in ",
                           f.name);
            const ir::Function& callee = module_.func(target);
            if (callee.num_params != inst.operand_count) {
                PIBE_FATAL("indirect call arity mismatch: ", f.name,
                           " -> ", callee.name);
            }
            if (profiler_)
                profiler_->addIndirect(inst.site_id, target);
            const uint64_t call_addr =
                layout.instAddr(act.fid, act.bb, act.ip);
            const uint64_t next_addr =
                call_addr + analysis::instByteSize(inst);
            if (observer_) {
                observer_->onIndirectBranch(call_addr, inst.fwd_scheme,
                                            layout.funcBase(target),
                                            btb_);
            }
            if (timing_) {
                stats_.cycles +=
                    indirectCallCost(call_addr,
                                     layout.funcBase(target), target,
                                     inst.fwd_scheme,
                                     decoded_->jsSlotOf(inst.site_id)) +
                    params_.cost_arg * inst.operand_count;
            }
            ++act.ip;
            if (callee.isDeclaration()) {
                if (profiler_)
                    profiler_->addInvocation(target);
                if (timing_)
                    stats_.cycles += params_.cost_external;
                if (inst.dst != ir::kNoReg)
                    act.regs[inst.dst] = 0;
                break;
            }
            rsb_.push(next_addr);
            std::vector<int64_t> call_args;
            call_args.reserve(inst.operand_count);
            for (ir::Reg r : f.args(inst))
                call_args.push_back(act.regs[r]);
            enterFunction(target, call_args, inst.dst, next_addr);
            break;
          }
          case ir::Opcode::kRet: {
            ++stats_.returns;
            const int64_t value =
                inst.a == ir::kNoReg ? 0 : act.regs[inst.a];
            const uint64_t ret_inst_addr =
                layout.instAddr(act.fid, act.bb, act.ip);
            if (observer_) {
                observer_->onReturn(ret_inst_addr, inst.ret_scheme,
                                    act.ret_addr, rsb_);
            }
            if (timing_) {
                stats_.cycles +=
                    returnCost(act.ret_addr, inst.ret_scheme);
            } else {
                rsb_.pop();
            }
            leaveFunction(value);
            break;
          }
          case ir::Opcode::kBr:
            if (timing_)
                stats_.cycles += params_.cost_br;
            act.bb = inst.t0;
            act.ip = 0;
            fetchBlock(act.fid, act.bb, 0);
            break;
          case ir::Opcode::kCondBr: {
            ++stats_.cond_branches;
            const bool taken = act.regs[inst.a] != 0;
            if (timing_) {
                const uint64_t addr =
                    layout.instAddr(act.fid, act.bb, act.ip);
                const bool predicted = pht_.predictTaken(addr);
                pht_.update(addr, taken);
                if (predicted == taken) {
                    stats_.cycles += params_.cost_condbr_predicted;
                } else {
                    ++stats_.pht_mispredicts;
                    stats_.cycles += params_.cost_condbr_mispredict;
                }
            }
            act.bb = taken ? inst.t0 : inst.t1;
            act.ip = 0;
            fetchBlock(act.fid, act.bb, 0);
            break;
          }
          case ir::Opcode::kSwitch: {
            ++stats_.switches;
            const int64_t value = act.regs[inst.a];
            ir::BlockId target = inst.t0;
            for (const ir::SwitchCase& c : f.cases(inst)) {
                if (c.value == value) {
                    target = c.target;
                    break;
                }
            }
            const uint64_t addr =
                layout.instAddr(act.fid, act.bb, act.ip);
            const uint64_t target_addr =
                layout.blockStart(act.fid, target);
            if (observer_) {
                // A jump-table switch is an indirect jump (forward
                // edge); surviving ones are unhardened by definition.
                observer_->onIndirectBranch(addr, inst.fwd_scheme,
                                            target_addr, btb_);
            }
            if (timing_) {
                const uint64_t predicted = btb_.predict(addr);
                btb_.update(addr, target_addr);
                if (predicted == target_addr) {
                    stats_.cycles += params_.cost_icall_predicted;
                } else {
                    ++stats_.btb_mispredicts;
                    stats_.cycles += params_.cost_icall_mispredict;
                }
            }
            act.bb = target;
            act.ip = 0;
            fetchBlock(act.fid, act.bb, 0);
            break;
          }
        }
    }
    return last_return_;
}

} // namespace pibe::uarch
