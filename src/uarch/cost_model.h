/**
 * @file
 * Timing cost model for the PIR simulator.
 *
 * The thunk costs are calibrated to the paper's Table 1 measurements
 * on an i7-8700K (clock ticks of overhead per call type): a retpoline
 * adds ~21 ticks to an indirect call, a return retpoline ~16 ticks to
 * a return, LVI-CFI ~9 ticks to a forward edge and ~11 to a backward
 * edge, and the combined fenced retpoline ~42 (forward) / ~32
 * (backward). Because every downstream experiment consumes these same
 * constants, relative results across defense configurations inherit
 * the paper's cost structure.
 */
#ifndef PIBE_UARCH_COST_MODEL_H_
#define PIBE_UARCH_COST_MODEL_H_

#include <cstdint>

#include "ir/module.h"

namespace pibe::uarch {

/** All tunable cycle costs and structure sizes of the simulator. */
struct CostParams
{
    // --- base instruction costs (cycles) ---
    uint32_t cost_simple = 1;   ///< ALU / frame access / sink.
    /**
     * Constants, register moves, and address materialization cost
     * nothing: immediates fold into their consumers and out-of-order
     * cores eliminate moves at rename. This matters for fidelity: an
     * ICP guard (funcaddr + cmp + condbr) must cost ~2 cycles like the
     * paper's cmp/jcc pair, and inlining's argument-binding moves must
     * be free like register-allocated arguments.
     */
    uint32_t cost_free = 0;
    uint32_t cost_mem = 2;      ///< Load/store (d-cache hit assumed).
    uint32_t cost_dcall = 1;    ///< Direct call issue cost.
    uint32_t cost_arg = 1;      ///< Per-argument marshalling cost.
    uint32_t cost_br = 1;       ///< Unconditional branch.

    // --- prediction outcomes ---
    uint32_t cost_ret_predicted = 1;
    uint32_t cost_ret_mispredict = 20;  ///< RSB miss -> pipeline flush.
    uint32_t cost_icall_predicted = 2;
    uint32_t cost_icall_mispredict = 17; ///< BTB miss -> pipeline flush.
    uint32_t cost_condbr_predicted = 1;
    uint32_t cost_condbr_mispredict = 15;

    // --- hardening thunk costs (Table 1 calibration) ---
    uint32_t cost_retpoline = 21;        ///< Forward retpoline.
    uint32_t cost_lvi_fwd = 9;           ///< LFENCE'd indirect thunk.
    uint32_t cost_fenced_retpoline = 42; ///< Listing 7 forward.
    uint32_t cost_ret_retpoline = 16;    ///< Return retpoline.
    uint32_t cost_lvi_ret = 11;          ///< pop+lfence+jmp.
    uint32_t cost_fenced_ret = 32;       ///< Listing 7 backward.

    // --- JumpSwitches runtime model (§8.2) ---
    uint32_t cost_js_check = 2;       ///< Per inline target compare.
    uint32_t cost_js_patch = 600;     ///< Live-patch stall (RCU sync).
    uint32_t js_max_inline_targets = 6;
    uint32_t js_learn_period = 4096;  ///< Relearn interval (execs).
    uint32_t js_learn_duration = 256; ///< Execs spent per learning bout.

    // --- external/declaration call model ---
    uint32_t cost_external = 25;

    // --- i-cache ---
    uint32_t icache_bytes = 32 * 1024;
    uint32_t icache_assoc = 8;
    uint32_t icache_line = 64;
    uint32_t icache_miss_penalty = 14;

    // --- predictors ---
    uint32_t btb_entries = 1024; ///< Direct-mapped BTB slots.
    uint32_t rsb_entries = 16;   ///< Hardware return stack depth.
    uint32_t pht_entries = 4096; ///< 2-bit counters.

    // --- eIBRS (§6.4) ---
    /**
     * Enhanced IBRS: hardware isolates branch predictions across
     * privilege levels, replacing retpolines at a small per-branch
     * cost. It does NOT isolate predictions within the kernel, so
     * attacks that train on kernel execution itself still work — the
     * paper's reason retpolines remain the recommended defense.
     */
    bool eibrs = false;
    uint32_t cost_eibrs_branch = 3; ///< Per unhardened indirect branch.

    // --- RSB refilling (§6.4) ---
    /**
     * The kernel's ad-hoc Ret2spec mitigation: stuff the RSB with
     * benign entries on every kernel entry. Defends against RSB state
     * poisoned *before* entry, but not against poisoning while kernel
     * code runs — which is why the paper argues return retpolines are
     * the comprehensive backward-edge defense.
     */
    bool rsb_refill_on_entry = false;
    uint32_t cost_rsb_refill = 32; ///< ~2 cycles per stuffed entry.

    /** Simulated clock in cycles per reported microsecond. */
    uint32_t cycles_per_us = 1000;

    bool operator==(const CostParams&) const = default;
};

} // namespace pibe::uarch

#endif // PIBE_UARCH_COST_MODEL_H_
