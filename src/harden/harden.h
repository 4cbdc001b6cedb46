/**
 * @file
 * Transient control-flow hardening passes (§6).
 *
 * The pass rewrites every remaining indirect branch with the thunk
 * sequence implied by the selected defense combination:
 *
 *  - retpolines (Spectre V2, forward edges, Listing 4);
 *  - LVI-CFI (LVI, both edges, Listings 5/6);
 *  - return retpolines (Ret2spec, backward edges);
 *  - when retpolines and LVI-CFI are both requested, the two
 *    instrument the same code sequence and are incompatible, so the
 *    combined *fenced retpoline* (Listing 7) is emitted instead — on
 *    both edges when return retpolines are also on.
 *
 * In PIR, "emitting a thunk" means tagging the kICall/kSwitch/kRet
 * instruction with a FwdScheme/RetScheme; the uarch cost model and the
 * speculation engine give the tags their performance and security
 * semantics, and the layout gives them their size.
 *
 * Sites that cannot be rewritten stay vulnerable and are reported by
 * CoverageReport (Table 11): inline-assembly indirect calls (the
 * kernel's paravirt hypercalls) and asm switch dispatch; returns in
 * boot-section functions are skipped as they only run before any
 * attacker can execute (§8.6).
 */
#ifndef PIBE_HARDEN_HARDEN_H_
#define PIBE_HARDEN_HARDEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/module.h"

namespace pibe::harden {

/** Which transient defenses to enable (any combination). */
struct DefenseConfig
{
    bool retpoline = false;      ///< Spectre V2 (forward edge).
    bool lvi_cfi = false;        ///< LVI (forward + backward edge).
    bool ret_retpoline = false;  ///< Ret2spec (backward edge).
    /**
     * Use the JumpSwitches runtime-patching mechanism on forward edges
     * instead of static thunks (§8.2 baseline). Only meaningful with
     * `retpoline` (JumpSwitches supports only retpolines); remaining
     * misses fall back to a retpoline at run time.
     */
    bool jump_switches = false;

    /** True if any transient defense is enabled. */
    bool
    any() const
    {
        return retpoline || lvi_cfi || ret_retpoline;
    }

    /** Short human-readable name, e.g. "retpolines+lvi-cfi". */
    std::string name() const;

    // Canonical configurations used throughout the evaluation.
    static DefenseConfig none() { return {}; }
    static DefenseConfig retpolinesOnly();
    static DefenseConfig retRetpolinesOnly();
    static DefenseConfig lviOnly();
    static DefenseConfig all();
    static DefenseConfig jumpSwitches();
};

/**
 * Inverse of the canonical configuration names used across the CLI
 * and the serve control plane: "none", "retpolines", "ret-retpolines",
 * "lvi", "all", "jumpswitches". Returns std::nullopt for anything
 * else.
 */
std::optional<DefenseConfig> defenseByName(const std::string& name);

/** Scheme selected for forward edges under `config`. */
ir::FwdScheme forwardSchemeFor(const DefenseConfig& config);

/** Scheme selected for backward edges under `config`. */
ir::RetScheme returnSchemeFor(const DefenseConfig& config);

/** Per-image hardening coverage (Table 11). */
struct CoverageReport
{
    uint32_t protected_icalls = 0;   ///< "Def. ICalls".
    uint32_t vulnerable_icalls = 0;  ///< "Vuln. ICalls" (asm sites).
    uint32_t vulnerable_ijumps = 0;  ///< "Vuln. IJumps" (asm switches).
    uint32_t protected_rets = 0;
    uint32_t boot_only_rets = 0;     ///< Unprotected but boot-only.
    uint32_t lowered_switches = 0;   ///< Jump tables eliminated.

    // ICP interaction, filled in by the pipeline from IcpAudit (the
    // module alone cannot recover them, so analyzeCoverage() leaves
    // both zero and the coverage reconciler ignores them).
    /** Fallback icalls still holding live targets because a per-site
     *  promotion cap truncated the guard chain (residual surface). */
    uint32_t capped_residual_icalls = 0;
    /** Fallback icalls eliminated by total promotion. */
    uint32_t elided_icalls = 0;
};

/**
 * Apply `config` to every indirect branch of `module` (tagging schemes
 * and lowering jump tables when any defense is on). Returns the
 * coverage report. When `touched` is non-null it receives the ids of
 * every function whose structure changed (a switch lowered), sorted
 * and unique — the incremental invalidation set for a following check
 * stage. Retagging a scheme does not count: no analysis, verifier or
 * lint reads fwd_scheme/ret_scheme (only the coverage group does, and
 * it is never cached).
 */
CoverageReport applyDefenses(ir::Module& module,
                             const DefenseConfig& config,
                             std::vector<ir::FuncId>* touched = nullptr);

/** Recompute coverage of an already-hardened module. */
CoverageReport analyzeCoverage(const ir::Module& module);

} // namespace pibe::harden

#endif // PIBE_HARDEN_HARDEN_H_
