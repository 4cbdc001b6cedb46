#include <algorithm>
#include <unordered_set>

#include "analysis/call_graph.h"
#include "analysis/inline_cost.h"
#include "opt/cleanup.h"
#include "opt/inline_core.h"
#include "opt/inliner.h"
#include "support/logging.h"

namespace pibe::opt {

namespace {

/**
 * Compute the weight cutoff such that sites at or above it cover
 * `budget` of the total profiled direct-call weight.
 */
uint64_t
hotWeightCutoff(const profile::EdgeProfile& profile, double budget,
                uint64_t* total_out)
{
    std::vector<uint64_t> weights;
    uint64_t total = 0;
    for (const auto& [site, count] : profile.directSites()) {
        (void)site;
        weights.push_back(count);
        total += count;
    }
    *total_out = total;
    if (weights.empty())
        return 1;
    std::sort(weights.begin(), weights.end(), std::greater<>());
    const double target = budget * static_cast<double>(total);
    double cum = 0;
    uint64_t cut = 1;
    for (uint64_t w : weights) {
        if (cum >= target)
            break;
        cut = w;
        cum += static_cast<double>(w);
    }
    return cut;
}

} // namespace

InlineAudit
runDefaultInliner(ir::Module& module, profile::EdgeProfile& profile,
                  const DefaultInlinerConfig& config)
{
    InlineAudit audit;
    analysis::CallGraph callgraph(module);
    analysis::InlineCostCache costs(module);

    uint64_t total = 0;
    const uint64_t hot_cut = hotWeightCutoff(profile, config.budget, &total);
    audit.total_weight = total;
    audit.candidate_sites =
        static_cast<uint32_t>(profile.directSites().size());

    // Snapshot invocation counts for inherited-site scaling (the
    // default inliner still propagates counts so that later passes see
    // a coherent profile; its *decisions* ignore weight order).
    std::vector<uint64_t> orig_invocations(module.numFunctions());
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f)
        orig_invocations[f] = profile.invocations(f);

    // Bottom-up over the SCC condensation, the way LLVM's inliner
    // walks the call graph: callees are finalized before callers.
    for (ir::FuncId caller_id : callgraph.bottomUpOrder()) {
        ir::Function& caller = module.func(caller_id);
        if (caller.isDeclaration() || caller.hasAttr(ir::kAttrOptNone))
            continue;

        bool changed = true;
        int rounds = 0;
        while (changed && rounds++ < 8) {
            changed = false;
            // Scan in code order; decisions depend on size and a
            // hot/cold hint only — NOT on weight order (§8.4: "its
            // inlining decisions are made solely based on size
            // complexity and inline hints").
            for (ir::BlockId b = 0; b < caller.blocks.size() && !changed;
                 ++b) {
                const auto& insts = caller.blocks[b].insts;
                for (uint32_t i = 0; i < insts.size(); ++i) {
                    const ir::Instruction& inst = insts[i];
                    if (inst.op != ir::Opcode::kCall)
                        continue;
                    const ir::SiteId site = inst.site_id;
                    const ir::FuncId callee = inst.callee;
                    const uint64_t weight = profile.directCount(site);
                    ++audit.attempted_sites;

                    if (inlineRefusalReason(module, caller_id, inst) ||
                        callgraph.isRecursive(callee)) {
                        audit.blocked_other_weight += weight;
                        continue;
                    }
                    const bool hot = weight >= hot_cut && weight > 0;
                    const int64_t threshold =
                        hot ? config.hot_callee_threshold
                            : config.cold_callee_threshold;
                    if (costs.cost(callee) > threshold) {
                        audit.blocked_rule3_weight += weight;
                        continue;
                    }
                    if (costs.cost(caller_id) >
                        config.caller_growth_cap) {
                        audit.blocked_rule2_weight += weight;
                        continue;
                    }

                    InlineOutcome outcome =
                        inlineCallSite(module, caller_id, site);
                    if (!outcome.ok) {
                        audit.blocked_other_weight += weight;
                        continue;
                    }
                    ++audit.inlined_sites;
                    audit.inlined_weight += weight;
                    audit.eligible_weight += weight;
                    audit.touched.push_back(caller_id);

                    inheritProfileCounts(profile, outcome.inherited,
                                         weight, orig_invocations[callee]);

                    costs.invalidate(caller_id);
                    changed = true;
                    break; // instruction vector was invalidated
                }
            }
        }
        if (config.cleanup_callers) {
            // Cleanup can mutate callers nothing was inlined into
            // (e.g. removing pre-existing dead stores), so every
            // cleaned caller belongs in the invalidation set.
            cleanupFunction(caller);
            costs.invalidate(caller_id);
            audit.touched.push_back(caller_id);
        }
    }

    std::sort(audit.touched.begin(), audit.touched.end());
    audit.touched.erase(
        std::unique(audit.touched.begin(), audit.touched.end()),
        audit.touched.end());
    return audit;
}

} // namespace pibe::opt
