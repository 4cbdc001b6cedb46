/**
 * @file
 * Shared simulator state management and the pre-decoded hot loop.
 * The reference (pre-rewrite) loop lives in simulator_ref.cc.
 */
#include "uarch/simulator.h"

#include <algorithm>

#include "uarch/eval_bin.h"

namespace pibe::uarch {

Simulator::Simulator(const ir::Module& module, const CostParams& params)
    : Simulator(std::make_shared<const DecodedModule>(module), params)
{
}

Simulator::Simulator(std::shared_ptr<const DecodedModule> decoded,
                     const CostParams& params)
    : decoded_(std::move(decoded)),
      module_(decoded_->module()),
      params_(params),
      btb_(params_.btb_entries),
      rsb_(params_.rsb_entries),
      pht_(params_.pht_entries),
      icache_(params_.icache_bytes, params_.icache_assoc,
              params_.icache_line),
      js_states_(decoded_->numJsSlots())
{
    resetMemory();
}

void
Simulator::resetMemory()
{
    globals_.clear();
    globals_.reserve(module_.numGlobals());
    for (const ir::Global& g : module_.globals())
        globals_.push_back(g.init);
}

void
Simulator::resetMicroarch()
{
    btb_.flush();
    rsb_.flush();
    pht_.flush();
    icache_.flush();
    js_states_.assign(decoded_->numJsSlots(), JsState{});
}

int64_t
Simulator::readGlobal(ir::GlobalId g, size_t index) const
{
    PIBE_ASSERT(g < globals_.size() && index < globals_[g].size(),
                "readGlobal out of range");
    return globals_[g][index];
}

void
Simulator::writeGlobal(ir::GlobalId g, size_t index, int64_t value)
{
    PIBE_ASSERT(g < globals_.size() && index < globals_[g].size(),
                "writeGlobal out of range");
    globals_[g][index] = value;
}

uint32_t
Simulator::indirectCallCost(uint64_t branch_addr, uint64_t target_addr,
                            ir::FuncId target, ir::FwdScheme scheme,
                            uint32_t js_slot)
{
    switch (scheme) {
      case ir::FwdScheme::kNone: {
        const uint64_t predicted = btb_.predict(branch_addr);
        btb_.update(branch_addr, target_addr);
        const uint32_t eibrs_tax =
            params_.eibrs ? params_.cost_eibrs_branch : 0;
        if (predicted == target_addr)
            return params_.cost_icall_predicted + eibrs_tax;
        ++stats_.btb_mispredicts;
        return params_.cost_icall_mispredict + eibrs_tax;
      }
      case ir::FwdScheme::kRetpoline:
        ++stats_.thunk_execs;
        return params_.cost_retpoline;
      case ir::FwdScheme::kLviCfi: {
        // The LVI thunk's jmpq *%r11 still predicts through the BTB;
        // the LFENCE adds a fixed serialization cost.
        ++stats_.thunk_execs;
        const uint64_t predicted = btb_.predict(branch_addr);
        btb_.update(branch_addr, target_addr);
        uint32_t base = params_.cost_icall_predicted;
        if (predicted != target_addr) {
            ++stats_.btb_mispredicts;
            base = params_.cost_icall_mispredict;
        }
        return base + params_.cost_lvi_fwd;
      }
      case ir::FwdScheme::kFencedRetpoline:
        ++stats_.thunk_execs;
        return params_.cost_fenced_retpoline;
      case ir::FwdScheme::kJumpSwitch: {
        PIBE_ASSERT(js_slot < js_states_.size(),
                    "JumpSwitch site without a decoded state slot");
        JsState& js = js_states_[js_slot];
        ++js.execs;
        // Multi-target sites periodically drop back into a learning
        // retpoline that re-ranks targets (§8.2).
        if (js.multi_target &&
            js.execs % params_.js_learn_period <
                params_.js_learn_duration) {
            ++stats_.js_learning;
            return params_.cost_retpoline;
        }
        uint32_t cost = 0;
        for (size_t i = 0; i < js.inline_targets.size(); ++i) {
            cost += params_.cost_js_check;
            if (js.inline_targets[i] == target) {
                ++stats_.js_hits;
                return cost + params_.cost_dcall;
            }
        }
        if (js.inline_targets.size() < params_.js_max_inline_targets) {
            // Live-patch the new target into the switch.
            js.inline_targets.push_back(target);
            js.multi_target = js.inline_targets.size() > 1;
            ++stats_.js_patches;
            return cost + params_.cost_js_patch;
        }
        ++stats_.js_misses;
        return cost + params_.cost_retpoline;
      }
    }
    PIBE_PANIC("unhandled FwdScheme");
}

uint32_t
Simulator::returnCost(uint64_t actual_ret_addr, ir::RetScheme scheme)
{
    switch (scheme) {
      case ir::RetScheme::kNone: {
        const uint64_t predicted = rsb_.pop();
        if (predicted == actual_ret_addr)
            return params_.cost_ret_predicted;
        ++stats_.rsb_mispredicts;
        return params_.cost_ret_mispredict;
      }
      case ir::RetScheme::kReturnRetpoline:
        ++stats_.thunk_execs;
        rsb_.pop(); // keep the hardware stack consistent
        return params_.cost_ret_retpoline;
      case ir::RetScheme::kLviRet:
        ++stats_.thunk_execs;
        rsb_.pop();
        return params_.cost_lvi_ret;
      case ir::RetScheme::kFencedRet:
        ++stats_.thunk_execs;
        rsb_.pop();
        return params_.cost_fenced_ret;
    }
    PIBE_PANIC("unhandled RetScheme");
}

bool
Simulator::beginRun(ir::FuncId entry, size_t num_args)
{
    const DecodedFunction& ef = decoded_->func(entry);
    if (ef.is_declaration) {
        if (timing_)
            stats_.cycles += params_.cost_external;
        if (profiler_)
            profiler_->addInvocation(entry);
        return false;
    }
    PIBE_ASSERT(num_args == ef.num_params, "call arity mismatch for ",
                ef.func->name);
    // Kernel entry: entry-time attackers pollute predictor state
    // first; RSB refilling (when enabled) then overwrites it (§6.4).
    if (observer_)
        observer_->onKernelEntry(rsb_);
    if (params_.rsb_refill_on_entry) {
        rsb_.flush();
        for (uint32_t i = 0; i < params_.rsb_entries; ++i)
            rsb_.push(0); // benign stuffing
        if (timing_)
            stats_.cycles += params_.cost_rsb_refill;
    }
    return true;
}

void
Simulator::enterDecoded(ir::FuncId f, ir::Reg ret_dst,
                        uint64_t ret_addr)
{
    const DecodedFunction& df = decoded_->func(f);
    if (profiler_)
        profiler_->addInvocation(f);

    Frame fr;
    fr.pc = df.entry.code_index;
    // pushSlots zeroes the claimed window, so a window reused after an
    // earlier return starts from zero again — same as the fresh
    // per-activation vector it replaces.
    fr.reg_base = pushSlots(reg_stack_, reg_top_, df.num_regs);
    fr.frame_base = pushSlots(frame_stack_, frame_top_, df.frame_size);
    fr.fid = f;
    fr.func = df.func;
    fr.ret_dst = ret_dst;
    fr.ret_addr = ret_addr;
    frames_.push_back(fr);

    stats_.max_call_depth =
        std::max<uint64_t>(stats_.max_call_depth, frames_.size());
    stats_.peak_frame_slots =
        std::max<uint64_t>(stats_.peak_frame_slots, frame_top_);
    if (timing_)
        fetchRange(df.entry.start_addr, df.entry.end_addr);
}

void
Simulator::leaveDecoded(int64_t value)
{
    const Frame done = frames_.back();
    frames_.pop_back();
    frame_top_ = done.frame_base;
    reg_top_ = done.reg_base;
    last_return_ = value;
    if (!frames_.empty()) {
        Frame& caller = frames_.back();
        if (done.ret_dst != ir::kNoReg)
            reg_stack_[caller.reg_base + done.ret_dst] = value;
        // Resume mid-block: refetch the remainder of the caller block
        // (the callee may have evicted the caller's lines).
        if (timing_) {
            const DecodedInst& resume = decoded_->code()[caller.pc];
            fetchRange(resume.addr,
                       decoded_->aux()[caller.pc].block_end);
        }
    }
}

int64_t
Simulator::run(ir::FuncId entry, const std::vector<int64_t>& args)
{
    if (use_reference_)
        return runReference(entry, args);
    PIBE_ASSERT(frames_.empty() && acts_.empty(),
                "Simulator::run is not reentrant");
    if (!beginRun(entry, args.size()))
        return 0;
    enterDecoded(entry, ir::kNoReg, 0);
    std::copy(args.begin(), args.end(),
              reg_stack_.begin() + frames_.back().reg_base);
    return timing_ ? runLoop<true>() : runLoop<false>();
}

/**
 * The decoded hot loop. Its body lives in interp_loop.inc, which
 * includes the handler bodies from interp_ops.inc; run() instantiates
 * it for Timing = true/false.
 */
template <bool Timing>
int64_t
Simulator::runLoop()
{
#include "uarch/interp_loop.inc"
}

} // namespace pibe::uarch
