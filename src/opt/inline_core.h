/**
 * @file
 * Mechanics of inlining one direct call site in PIR.
 *
 * This is policy-free: deciding *which* sites to inline is the job of
 * the inliner passes (pibe_inliner.h, default_inliner.h); this header
 * implements the transformation itself plus what every policy shares:
 * the legality predicate and the profile update of an inline step.
 */
#ifndef PIBE_OPT_INLINE_CORE_H_
#define PIBE_OPT_INLINE_CORE_H_

#include <vector>

#include "ir/module.h"
#include "profile/edge_profile.h"

namespace pibe::opt {

/**
 * A call site of the callee that was copied into the caller by an
 * inline step. The inliner uses these to propagate scaled execution
 * counts onto the inherited sites (§5.2 Rule 1's constant-ratio
 * heuristic).
 */
struct InheritedSite
{
    ir::SiteId new_site = ir::kNoSite;    ///< Fresh id in the caller.
    ir::SiteId callee_site = ir::kNoSite; ///< Original id in the callee.
    bool indirect = false;                ///< kICall rather than kCall.
    /** Static callee of an inherited direct call (kInvalidFunc for
     *  indirect sites) — lets policies re-queue inherited candidates
     *  without re-scanning the caller. */
    ir::FuncId callee = ir::kInvalidFunc;
};

/** Result of an inlineCallSite() application. */
struct InlineOutcome
{
    bool ok = false;
    const char* reason = nullptr; ///< Refusal reason when !ok.
    std::vector<InheritedSite> inherited;
};

/**
 * Why a direct call site must not be inlined, or nullptr if it is
 * legal. Checks attributes (noinline/optnone/external), declarations,
 * and direct self-recursion; mutual recursion must be screened by the
 * caller via CallGraph::isRecursive.
 */
const char* inlineRefusalReason(const ir::Module& module,
                                ir::FuncId caller,
                                const ir::Instruction& call);

/**
 * Inline the direct call carrying `site` inside function `caller`.
 *
 * On success, the call instruction is replaced by argument moves and a
 * branch into a copy of the callee's blocks; callee returns become
 * moves plus branches to the continuation; every call site copied from
 * the callee gets a fresh SiteId (reported via InlineOutcome so the
 * policy can assign inherited weights). The caller's register count
 * and frame size grow by the callee's.
 */
InlineOutcome inlineCallSite(ir::Module& module, ir::FuncId caller,
                             ir::SiteId site);

/** An inherited direct site and the count it inherited. */
struct InheritedCount
{
    ir::SiteId site = ir::kNoSite;
    uint64_t count = 0;
};

/**
 * §5.2's constant-ratio heuristic, applied after one inline step of
 * an edge with `edge_weight` into a callee profiled with
 * `callee_invocations` calls: each call site copied from the callee
 * inherits its profiled count scaled by edge_weight /
 * callee_invocations (an indirect site its whole value profile).
 * Returns the direct sites that inherited a nonzero count, in
 * `inherited` order, so a policy can queue them. Nothing is inherited
 * when `callee_invocations` is 0.
 */
std::vector<InheritedCount>
inheritProfileCounts(profile::EdgeProfile& profile,
                     const std::vector<InheritedSite>& inherited,
                     uint64_t edge_weight, uint64_t callee_invocations);

} // namespace pibe::opt

#endif // PIBE_OPT_INLINE_CORE_H_
