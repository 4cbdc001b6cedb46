#include <algorithm>
#include <queue>
#include <unordered_map>

#include "analysis/call_graph.h"
#include "analysis/inline_cost.h"
#include "opt/cleanup.h"
#include "opt/inline_core.h"
#include "opt/inliner.h"
#include "support/logging.h"

namespace pibe::opt {

namespace {

/** One work item of the greedy inliner: a weighted direct call site. */
struct Candidate
{
    uint64_t weight = 0;
    uint64_t seq = 0; ///< Insertion order; breaks weight ties (FIFO).
    ir::SiteId site = ir::kNoSite;
    ir::FuncId caller = ir::kInvalidFunc;
};

struct HotterFirst
{
    bool
    operator()(const Candidate& a, const Candidate& b) const
    {
        if (a.weight != b.weight)
            return a.weight < b.weight; // max-heap by weight
        return a.seq > b.seq;           // then FIFO
    }
};

/** Locate the kCall instruction with `site` inside `caller`. */
const ir::Instruction*
findCallSite(const ir::Function& caller, ir::SiteId site)
{
    for (const auto& bb : caller.blocks) {
        for (const auto& inst : bb.insts) {
            if (inst.site_id == site && inst.op == ir::Opcode::kCall)
                return &inst;
        }
    }
    return nullptr;
}

} // namespace

InlineAudit
runPibeInliner(ir::Module& module, profile::EdgeProfile& profile,
               const PibeInlinerConfig& config)
{
    InlineAudit audit;
    analysis::CallGraph callgraph(module);
    analysis::InlineCostCache costs(module);

    // Snapshot profiling-time invocation counts for the constant-ratio
    // heuristic; they deliberately stay fixed during the run (§5.2).
    std::vector<uint64_t> orig_invocations(module.numFunctions());
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f)
        orig_invocations[f] = profile.invocations(f);

    // Rule 1: gather all profiled direct call sites and find the weight
    // cutoff such that the sites at or above it cover `budget` of the
    // cumulative execution weight.
    std::vector<Candidate> initial;
    uint64_t seq = 0;
    for (const ir::Function& f : module.functions()) {
        for (const auto& bb : f.blocks) {
            for (const auto& inst : bb.insts) {
                if (inst.op != ir::Opcode::kCall)
                    continue;
                uint64_t w = profile.directCount(inst.site_id);
                if (w == 0)
                    continue;
                initial.push_back({w, seq++, inst.site_id, f.id});
                audit.total_weight += w;
            }
        }
    }
    audit.candidate_sites = static_cast<uint32_t>(initial.size());
    if (initial.empty())
        return audit;

    std::vector<Candidate> sorted = initial;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        if (a.weight != b.weight)
            return a.weight > b.weight;
        return a.seq < b.seq;
    });

    const double budget_target =
        config.budget * static_cast<double>(audit.total_weight);
    const double lax_target =
        config.lax_budget * static_cast<double>(audit.total_weight);
    uint64_t weight_cut = 1;
    uint64_t lax_weight_cut = UINT64_MAX;
    {
        double cum = 0;
        for (const auto& c : sorted) {
            const bool in_budget = cum < budget_target;
            if (in_budget) {
                weight_cut = c.weight;
                audit.eligible_weight += c.weight;
            }
            if (config.lax_heuristics && cum < lax_target)
                lax_weight_cut = c.weight;
            cum += static_cast<double>(c.weight);
            if (!in_budget && (!config.lax_heuristics || cum >= lax_target))
                break;
        }
    }

    std::priority_queue<Candidate, std::vector<Candidate>, HotterFirst>
        queue;
    for (const auto& c : sorted) {
        if (c.weight >= weight_cut)
            queue.push(c);
    }

    // Greedy loop: always attempt the hottest remaining site.
    uint64_t steps = 0;
    while (!queue.empty()) {
        if (++steps > config.max_steps) {
            warn("pibe inliner: step limit reached, stopping early");
            break;
        }
        Candidate c = queue.top();
        queue.pop();
        ++audit.attempted_sites;

        ir::Function& caller = module.func(c.caller);
        const ir::Instruction* call = findCallSite(caller, c.site);
        if (!call) {
            // Site vanished (e.g. cleanup removed an unreachable copy).
            audit.blocked_other_weight += c.weight;
            continue;
        }
        ir::FuncId callee = call->callee;

        if (const char* reason =
                inlineRefusalReason(module, c.caller, *call)) {
            (void)reason;
            audit.blocked_other_weight += c.weight;
            continue;
        }
        if (callgraph.isRecursive(callee)) {
            audit.blocked_other_weight += c.weight;
            continue;
        }

        const bool lax_exempt =
            config.lax_heuristics && c.weight >= lax_weight_cut;
        const int64_t callee_cost = costs.cost(callee);
        if (!lax_exempt) {
            // Rule 3 first: a heavyweight callee is refused regardless
            // of the caller's remaining budget (§5.2, Figure 1).
            if (callee_cost > config.rule3_callee_threshold) {
                audit.blocked_rule3_weight += c.weight;
                continue;
            }
            // Rule 2: do not grow the caller past its complexity budget.
            if (costs.cost(c.caller) + callee_cost >
                config.rule2_caller_threshold) {
                audit.blocked_rule2_weight += c.weight;
                continue;
            }
        }

        InlineOutcome outcome = inlineCallSite(module, c.caller, c.site);
        if (!outcome.ok) {
            audit.blocked_other_weight += c.weight;
            continue;
        }
        ++audit.inlined_sites;
        audit.inlined_weight += c.weight;
        audit.touched.push_back(c.caller);

        // Constant-ratio heuristic; inherited direct sites hot enough
        // join the queue.
        const uint64_t callee_inv =
            config.propagate_inherited_counts ? orig_invocations[callee]
                                              : 0;
        for (const InheritedCount& inh : inheritProfileCounts(
                 profile, outcome.inherited, c.weight, callee_inv)) {
            if (inh.count >= weight_cut)
                queue.push({inh.count, seq++, inh.site, c.caller});
        }

        if (config.cleanup_callers)
            cleanupFunction(caller);
        costs.invalidate(c.caller);
    }

    std::sort(audit.touched.begin(), audit.touched.end());
    audit.touched.erase(
        std::unique(audit.touched.begin(), audit.touched.end()),
        audit.touched.end());
    return audit;
}

} // namespace pibe::opt
