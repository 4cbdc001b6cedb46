/**
 * @file
 * The PIR execution engine: functional interpreter + timing model +
 * profiling hook + speculation hook, in one loop.
 *
 * A single engine serves every phase of the PIBE pipeline:
 *  - with a profiler attached it is the profiling run (collecting the
 *    call-graph edge profile of §7);
 *  - with timing enabled it is the performance testbed (cycle counts
 *    from the cost model, i-cache, BTB/RSB/PHT);
 *  - with a SpeculationObserver attached it is the attack testbed
 *    (§8.6).
 * Using one engine guarantees the profile, the measurements, and the
 * security verdicts all see the same execution.
 *
 * Execution has two paths over the same microarchitectural state:
 *
 *  - run() executes the pre-decoded stream of a DecodedModule in one
 *    switch-dispatch loop (interp_loop.inc): flat code indices
 *    instead of (block, ip) pairs, precomputed byte addresses and
 *    fetch ranges, pooled contiguous register windows with
 *    caller-to-callee argument transfer written directly into the
 *    callee's window (zero per-call heap allocation in steady state),
 *    dense JumpSwitch state slots, and binary-search / dense switch
 *    dispatch.
 *  - runReference() is the original tree-walking loop, kept as the
 *    executable specification: differential tests assert both paths
 *    produce bit-identical stats, and the interpreter microbench
 *    reports the decoded engine's speedup over it.
 */
#ifndef PIBE_UARCH_SIMULATOR_H_
#define PIBE_UARCH_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/layout.h"
#include "ir/module.h"
#include "profile/edge_profile.h"
#include "uarch/cost_model.h"
#include "uarch/decoded_module.h"
#include "uarch/icache.h"
#include "uarch/predictors.h"
#include "uarch/speculation.h"

namespace pibe::uarch {

/** Counters accumulated while running. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t direct_calls = 0;
    uint64_t indirect_calls = 0;
    uint64_t returns = 0;
    uint64_t cond_branches = 0;
    uint64_t switches = 0;
    uint64_t icache_misses = 0;
    uint64_t btb_mispredicts = 0;
    uint64_t rsb_mispredicts = 0;
    uint64_t pht_mispredicts = 0;
    uint64_t thunk_execs = 0; ///< Hardened branch executions.
    uint64_t js_hits = 0;     ///< JumpSwitch inline-check hits.
    uint64_t js_misses = 0;   ///< JumpSwitch fallback retpolines.
    uint64_t js_patches = 0;  ///< JumpSwitch live-patch events.
    uint64_t js_learning = 0; ///< Executions in learning mode.
    uint64_t max_call_depth = 0;
    uint64_t peak_frame_slots = 0; ///< Peak stack usage (slots).
    /**
     * Superinstructions executed, per FusedFamily — decoded-path-only
     * diagnostics (the reference loop has no fusion). Deliberately NOT
     * part of the golden-stats comparison set: fusion coverage is
     * observability, not architecture.
     */
    std::array<uint64_t, kNumFusedFamilies> fused{};
};

/**
 * Interprets a PIR module.
 *
 * The module must outlive the simulator and must not be mutated while
 * a simulator references it (the decoded image is computed at
 * construction).
 */
class Simulator
{
  public:
    // Provenance shims, read only by perfbench. run() has one dispatch
    // loop, a switch, so they always name it; they go when perfbench
    // stops reading them.
    enum class DispatchMode : uint8_t { kThreaded, kSwitch };
    static DispatchMode defaultDispatchMode() { return DispatchMode::kSwitch; }
    const char* dispatchModeName() const { return "switch"; }

    explicit Simulator(const ir::Module& module,
                       const CostParams& params = {});

    /**
     * Share a pre-decoded image across simulators: decoding is paid
     * once per module, not once per Simulator (measureSuite uses this
     * to decode each image a single time for the whole suite).
     */
    explicit Simulator(std::shared_ptr<const DecodedModule> decoded,
                       const CostParams& params = {});

    /**
     * Call function `f` with `args` and run to completion; returns the
     * function's return value. Global memory persists across calls
     * (the kernel keeps state); use resetMemory() for a cold boot.
     */
    int64_t run(ir::FuncId f, const std::vector<int64_t>& args);

    /**
     * The pre-rewrite interpreter loop (per-instruction layout
     * lookups, per-activation register vectors). Stats, sink hash,
     * and microarchitectural effects are bit-identical to run();
     * exists for differential testing and benchmarking only.
     */
    int64_t runReference(ir::FuncId f,
                         const std::vector<int64_t>& args);

    /** Reinitialize global memory from the module's initializers. */
    void resetMemory();

    /** Flush caches, predictors, and JumpSwitch runtime state. */
    void resetMicroarch();

    const RunStats& stats() const { return stats_; }
    void clearStats() { stats_ = RunStats{}; }

    /** Attach an edge profiler (nullptr to detach). */
    void setProfiler(profile::EdgeProfile* profiler)
    {
        profiler_ = profiler;
    }

    /** Attach a speculation observer (nullptr to detach). */
    void setObserver(SpeculationObserver* observer)
    {
        observer_ = observer;
    }

    /** Enable/disable the timing model (profiling runs disable it). */
    void setTimingEnabled(bool enabled) { timing_ = enabled; }

    /**
     * Route run() through runReference() instead of the decoded loop.
     * Lets workload drivers (KernelHandle) execute unmodified on
     * either path; used by differential tests and the interpreter
     * microbenchmark.
     */
    void setUseReferencePath(bool use) { use_reference_ = use; }

    /** Running hash of all kSink values — the observable behaviour of
     *  an execution; equal hashes mean equivalent observed effects. */
    uint64_t sinkHash() const { return sink_hash_; }
    void resetSinkHash() { sink_hash_ = 0x9dc5; }

    const analysis::CodeLayout& layout() const
    {
        return decoded_->layout();
    }
    const DecodedModule& decoded() const { return *decoded_; }
    const CostParams& params() const { return params_; }

    /** Read a global slot (workload setup/verification). */
    int64_t readGlobal(ir::GlobalId g, size_t index) const;
    /** Write a global slot (workload setup). */
    void writeGlobal(ir::GlobalId g, size_t index, int64_t value);

  private:
    /** Decoded-path activation: indices into the pooled stacks. */
    struct Frame
    {
        uint32_t pc = 0;         ///< Code index of the next inst.
        uint32_t reg_base = 0;   ///< Window start in reg_stack_.
        uint32_t frame_base = 0; ///< Window start in frame_stack_.
        ir::FuncId fid = ir::kInvalidFunc;
        const ir::Function* func = nullptr; ///< For diagnostics.
        ir::Reg ret_dst = ir::kNoReg; ///< Destination in caller regs.
        uint64_t ret_addr = 0;        ///< Code address after the call.
    };

    /** Reference-path activation (the pre-rewrite representation). */
    struct Activation
    {
        const ir::Function* func = nullptr;
        ir::FuncId fid = ir::kInvalidFunc;
        ir::BlockId bb = 0;
        uint32_t ip = 0;
        uint32_t frame_base = 0;
        ir::Reg ret_dst = ir::kNoReg; ///< Destination in caller's regs.
        uint64_t ret_addr = 0;        ///< Code address after the call.
        std::vector<int64_t> regs;
    };

    /** JumpSwitch per-site runtime state (§8.2), in dense slots. */
    struct JsState
    {
        std::vector<ir::FuncId> inline_targets;
        uint64_t execs = 0;
        bool multi_target = false;
    };

    // Shared by both paths -------------------------------------------
    /**
     * Claim `n` zeroed slots on a pooled stack and return the window
     * base. The vector is a capacity buffer: `top` is the live size
     * (popping a window is just `top = base`, no vector traffic).
     */
    static uint32_t
    pushSlots(std::vector<int64_t>& buf, uint32_t& top, uint32_t n)
    {
        const uint32_t base = top;
        if (top + n > buf.size())
            buf.resize(std::max<size_t>(buf.size() * 2, top + n));
        std::fill_n(buf.data() + base, n, 0);
        top += n;
        return base;
    }

    /** i-cache fetch of the byte range [start, end). Inline: runs on
     *  every simulated block transition, call, and return. */
    void
    fetchRange(uint64_t start, uint64_t end)
    {
        const uint32_t misses = icache_.touchRange(start, end);
        stats_.icache_misses += misses;
        stats_.cycles += static_cast<uint64_t>(misses) *
                         params_.icache_miss_penalty;
    }
    uint32_t indirectCallCost(uint64_t branch_addr,
                              uint64_t target_addr, ir::FuncId target,
                              ir::FwdScheme scheme, uint32_t js_slot);
    uint32_t returnCost(uint64_t actual_ret_addr, ir::RetScheme scheme);
    /** Kernel-entry prologue (observer + RSB refill); false when the
     *  entry is a declaration and the run is already accounted. */
    bool beginRun(ir::FuncId entry, size_t num_args);

    // Decoded path ----------------------------------------------------
    /**
     * The decoded hot loop (interp_loop.inc + interp_ops.inc),
     * specialized on the timing model so the functional path carries
     * no per-instruction timing branches.
     */
    template <bool Timing> int64_t runLoop();
    void enterDecoded(ir::FuncId f, ir::Reg ret_dst,
                      uint64_t ret_addr);
    void leaveDecoded(int64_t value);

    // Reference path --------------------------------------------------
    void enterFunction(ir::FuncId f, const std::vector<int64_t>& args,
                       ir::Reg ret_dst, uint64_t ret_addr);
    void leaveFunction(int64_t value);
    void fetchBlock(ir::FuncId f, ir::BlockId bb, uint32_t from_ip);

    std::shared_ptr<const DecodedModule> decoded_;
    const ir::Module& module_;
    CostParams params_;

    Btb btb_;
    Rsb rsb_;
    Pht pht_;
    ICache icache_;

    std::vector<std::vector<int64_t>> globals_;
    std::vector<int64_t> frame_stack_; ///< Capacity buffer; see top.
    std::vector<int64_t> reg_stack_;   ///< Pooled register windows.
    uint32_t frame_top_ = 0; ///< Live size of frame_stack_.
    uint32_t reg_top_ = 0;   ///< Live size of reg_stack_.
    std::vector<Frame> frames_;
    std::vector<Activation> acts_; ///< Reference path only.
    std::vector<JsState> js_states_;

    profile::EdgeProfile* profiler_ = nullptr;
    SpeculationObserver* observer_ = nullptr;
    bool timing_ = true;
    bool use_reference_ = false;

    RunStats stats_;
    uint64_t sink_hash_ = 0x9dc5;
    int64_t last_return_ = 0;
};

} // namespace pibe::uarch

#endif // PIBE_UARCH_SIMULATOR_H_
