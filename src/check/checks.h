/**
 * @file
 * The PIBE audit suite (`pibe check`).
 *
 * Five checker groups over one module, all emitting structured
 * Diagnostics:
 *
 *  - verify    : the structural verifier (ir::verifyModule), surfaced
 *                as `verify.function` / `verify.sites` diagnostics so
 *                one runner covers well-formedness too;
 *  - lint      : dataflow lints the verifier cannot express —
 *                use-before-def and maybe-uninitialized registers
 *                (reaching defs / definite assignment), dead stores to
 *                registers and frame slots (liveness), unreachable
 *                blocks, indirect-call arity against resolvable
 *                targets;
 *  - coverage  : the hardening-coverage auditor — under a
 *                DefenseConfig, every *reachable* kICall/kSwitch/kRet
 *                must carry the scheme the config implies, modulo the
 *                asm/boot exemptions Table 11 models and an explicit
 *                allowlist; counts are reconciled against
 *                harden::analyzeCoverage so the audit and the report
 *                can never drift apart silently;
 *  - targets   : interprocedural feasible-target validation — every
 *                ICP-promoted guarded direct call and every global
 *                function-pointer table entry must be inside the
 *                site's statically feasible target set (translation
 *                validation of opt/icp.cc), and profile-observed
 *                targets must be a subset of complete static sets;
 *  - profile   : Kirchhoff-style flow conservation of an EdgeProfile
 *                against the module — per-function invocation counts
 *                equal the sum of incoming profiled call-edge counts
 *                (roots exempt downward), counts of sites outside CFG
 *                cycles never exceed their function's invocations,
 *                and every profiled SiteId / FuncId still resolves.
 */
#ifndef PIBE_CHECK_CHECKS_H_
#define PIBE_CHECK_CHECKS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/analysis_manager.h"
#include "check/diagnostic.h"
#include "harden/harden.h"
#include "profile/edge_profile.h"

namespace pibe::check {

/** Which groups run, and their inputs. */
struct CheckOptions
{
    bool verify = true;
    bool lint = true;
    /** Audit hardening coverage under `defense`. */
    bool coverage = false;
    /** Audit `profile` flow conservation (requires `profile`). */
    bool profile_flow = false;
    /**
     * Run the target-set checkers (module-wide; see target_sets.h):
     * `verify.targets` validates every ICP guard chain and global
     * function-pointer table entry against the interprocedural
     * feasible-target analysis, and — when `profile` is set —
     * `coverage.targets` checks profile-observed targets against the
     * static sets.
     */
    bool targets = false;

    harden::DefenseConfig defense;
    const profile::EdgeProfile* profile = nullptr;

    /** Sites exempt from coverage requirements (beyond asm/boot). */
    std::vector<ir::SiteId> allowed_sites;
    /** Functions (by name) exempt from coverage requirements. */
    std::vector<std::string> allowed_funcs;

    /**
     * Entry points invoked from outside the module (their invocation
     * counts may exceed their incoming profiled edges). Empty = the
     * conventional entry names: kernel_init, sys_dispatch, main.
     */
    std::vector<std::string> roots;
};

/** Result of one suite run. */
struct CheckReport
{
    std::vector<Diagnostic> diags;

    /**
     * Wall time per checker group, in run order (`pibe check
     * --timing`).
     */
    std::vector<std::pair<std::string, double>> group_ms;

    size_t errors() const { return countSeverity(diags, Severity::kError); }
    size_t warnings() const
    {
        return countSeverity(diags, Severity::kWarning);
    }
    size_t notes() const { return countSeverity(diags, Severity::kNote); }

    /** True if nothing at or above `fail_on` was found. */
    bool
    ok(Severity fail_on = Severity::kError) const
    {
        for (const Diagnostic& d : diags)
            if (d.severity >= fail_on)
                return false;
        return true;
    }
};

/**
 * Run the selected checker groups over `module`. Analyses are cached
 * in `am` when provided (it must wrap the same module); otherwise a
 * private manager is used.
 */
CheckReport runChecks(const ir::Module& module, const CheckOptions& opts,
                      AnalysisManager* am = nullptr);

/** Report plus the pass/fail verdict of one policy-gated run. */
struct CheckOutcome
{
    CheckReport report;
    Severity fail_on = Severity::kError;
    /** report.ok(fail_on): nothing at or above the threshold. */
    bool passed = true;
};

/**
 * Parse a `--fail-on` severity name ("note", "warn"/"warning",
 * "error"). Returns std::nullopt for anything else.
 */
std::optional<Severity> severityFromName(std::string_view name);

/**
 * runChecks() plus the pass/fail policy. This is the single gate
 * shared by the `pibe check` CLI and the in-process serve path, so
 * a `fail_on` threshold means the same exit verdict everywhere.
 */
CheckOutcome runChecksWithPolicy(const ir::Module& module,
                                 const CheckOptions& opts,
                                 Severity fail_on,
                                 AnalysisManager* am = nullptr);

} // namespace pibe::check

#endif // PIBE_CHECK_CHECKS_H_
