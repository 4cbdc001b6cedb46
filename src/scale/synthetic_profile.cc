#include "scale/synthetic_profile.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <vector>

#include "analysis/call_graph.h"
#include "kernel/kernel.h"
#include "support/rng.h"

namespace pibe::scale {

namespace {

/** One address-taken function: topo position, id, and arity. */
struct PoolEntry
{
    uint32_t pos = 0;
    ir::FuncId func = ir::kInvalidFunc;
};

/**
 * Per-site hotness: a minority of sites runs nearly every invocation,
 * the rest form a strongly cold-skewed tail (u^3 pushes most of the
 * mass toward zero).
 */
double
siteFraction(Rng& rng, const SyntheticProfileConfig& cfg)
{
    if (rng.chance(cfg.hot_site_fraction))
        return 0.5 + rng.uniform() * 0.5;
    const double u = rng.uniform();
    return u * u * u;
}

/**
 * Split `total` over `targets` with Zipf(alpha) weights, hottest
 * first. Rounding remainder goes to the hottest target so the site
 * total is conserved exactly.
 */
void
splitZipf(uint64_t total, const std::vector<ir::FuncId>& targets,
          double alpha, ir::SiteId site, profile::EdgeProfile& out,
          std::vector<uint64_t>& incoming)
{
    double sum = 0;
    for (size_t i = 0; i < targets.size(); ++i)
        sum += std::pow(static_cast<double>(i + 1), -alpha);
    uint64_t assigned = 0;
    std::vector<uint64_t> counts(targets.size(), 0);
    for (size_t i = 0; i < targets.size(); ++i) {
        const double w =
            std::pow(static_cast<double>(i + 1), -alpha) / sum;
        counts[i] = static_cast<uint64_t>(
            static_cast<double>(total) * w);
        assigned += counts[i];
    }
    counts[0] += total - assigned;
    for (size_t i = 0; i < targets.size(); ++i) {
        if (counts[i] == 0)
            continue;
        out.addIndirect(site, targets[i], counts[i]);
        incoming[targets[i]] += counts[i];
    }
}

/**
 * If `reg` at instruction `upto` (exclusive) in `bb` is last defined
 * by a kLoad, return that load's global; kInvalidFunc-style sentinel
 * (false) otherwise. Intra-block only — exactly the pattern the
 * generator (and the synthetic kernel's dispatchers) emit.
 */
bool
tableOfOperand(const ir::BasicBlock& bb, size_t upto, ir::Reg reg,
               ir::GlobalId* global)
{
    for (size_t j = upto; j-- > 0;) {
        const ir::Instruction& inst = bb.insts[j];
        if (!inst.hasDst() || inst.dst != reg)
            continue;
        if (inst.op != ir::Opcode::kLoad)
            return false;
        *global = inst.global;
        return true;
    }
    return false;
}

} // namespace

profile::EdgeProfile
synthesizeProfile(const ir::Module& module,
                  const SyntheticProfileConfig& config)
{
    const size_t n = module.numFunctions();
    profile::EdgeProfile out;
    if (n == 0)
        return out;

    // Top-down topological order of the direct call graph via Kahn's
    // algorithm with smallest-id tie-breaking. Ids ascend with call
    // depth in generated modules, so this keeps the dispatch root (and
    // every icall-only dispatcher) ahead of its potential targets,
    // which a DFS-based order does not guarantee for functions with no
    // direct callees. Cycles are broken deterministically at the
    // smallest unprocessed id (those back edges then carry no weight).
    analysis::CallGraph cg(module);
    std::vector<uint32_t> indeg(n, 0);
    for (ir::FuncId f = 0; f < n; ++f)
        for (ir::FuncId c : cg.callees(f))
            if (c < n && c != f)
                ++indeg[c];
    std::priority_queue<ir::FuncId, std::vector<ir::FuncId>,
                        std::greater<ir::FuncId>>
        ready;
    for (ir::FuncId f = 0; f < n; ++f)
        if (indeg[f] == 0)
            ready.push(f);
    std::vector<bool> done(n, false);
    std::vector<ir::FuncId> order;
    order.reserve(n);
    ir::FuncId scan = 0; // cycle-break cursor
    while (order.size() < n) {
        if (ready.empty()) {
            while (done[scan])
                ++scan;
            ready.push(scan);
        }
        const ir::FuncId f = ready.top();
        ready.pop();
        if (done[f])
            continue;
        done[f] = true;
        order.push_back(f);
        for (ir::FuncId c : cg.callees(f))
            if (c < n && !done[c] && indeg[c] > 0 && --indeg[c] == 0)
                ready.push(c);
    }
    std::vector<uint32_t> pos(n, 0);
    for (uint32_t i = 0; i < order.size(); ++i)
        pos[order[i]] = i;

    // Address-taken pool (fallback target source when an icall's
    // operand cannot be traced to an op-table load), grouped by arity
    // and sorted by topo position so "strictly later than the caller"
    // is a suffix.
    std::vector<bool> taken(n, false);
    for (const ir::Global& g : module.globals())
        for (int64_t v : g.init)
            if (ir::isFuncAddrValue(v) &&
                ir::funcAddrTarget(v) < n)
                taken[ir::funcAddrTarget(v)] = true;
    for (const ir::Function& f : module.functions())
        for (const ir::BasicBlock& bb : f.blocks)
            for (const ir::Instruction& inst : bb.insts) {
                if (inst.op == ir::Opcode::kFuncAddr &&
                    inst.callee < n)
                    taken[inst.callee] = true;
                if (inst.op == ir::Opcode::kConst &&
                    ir::isFuncAddrValue(inst.imm) &&
                    ir::funcAddrTarget(inst.imm) < n)
                    taken[ir::funcAddrTarget(inst.imm)] = true;
            }
    std::unordered_map<uint32_t, std::vector<PoolEntry>> pool_by_arity;
    for (ir::FuncId f = 0; f < n; ++f)
        if (taken[f])
            pool_by_arity[module.func(f).num_params].push_back(
                PoolEntry{pos[f], f});
    for (auto& [arity, pool] : pool_by_arity)
        std::sort(pool.begin(), pool.end(),
                  [](const PoolEntry& a, const PoolEntry& b) {
                      return a.pos < b.pos;
                  });

    // External (root) invocations by conventional name.
    std::vector<uint64_t> external(n, 0);
    std::vector<uint64_t> incoming(n, 0);
    const ir::FuncId init =
        module.findFunction(kernel::kKernelInitName);
    const ir::FuncId dispatch =
        module.findFunction(kernel::kSysDispatchName);
    const ir::FuncId main_fn = module.findFunction("main");
    if (init != ir::kInvalidFunc)
        external[init] = 1;
    if (dispatch != ir::kInvalidFunc)
        external[dispatch] = config.root_invocations;
    if (main_fn != ir::kInvalidFunc)
        external[main_fn] = config.root_invocations;

    Rng rng(config.seed);
    std::vector<ir::FuncId> targets;
    for (uint32_t i = 0; i < order.size(); ++i) {
        const ir::FuncId fid = order[i];
        const ir::Function& f = module.func(fid);
        const uint64_t inv = external[fid] + incoming[fid];
        if (inv)
            out.addInvocation(fid, inv);
        if (f.isDeclaration())
            continue;

        for (const ir::BasicBlock& bb : f.blocks) {
            for (size_t j = 0; j < bb.insts.size(); ++j) {
                const ir::Instruction& inst = bb.insts[j];
                if (inst.op == ir::Opcode::kCall) {
                    const uint64_t cnt = static_cast<uint64_t>(
                        static_cast<double>(inv) *
                        siteFraction(rng, config));
                    // Back edges (callee not strictly later in topo
                    // order) get zero weight to preserve conservation.
                    if (cnt == 0 || inst.callee >= n ||
                        pos[inst.callee] <= i)
                        continue;
                    out.addDirect(inst.site_id, cnt);
                    incoming[inst.callee] += cnt;
                } else if (inst.op == ir::Opcode::kICall) {
                    const uint64_t cnt = static_cast<uint64_t>(
                        static_cast<double>(inv) *
                        siteFraction(rng, config));
                    const uint64_t rot = rng.next();
                    if (cnt == 0)
                        continue;

                    targets.clear();
                    ir::GlobalId table = 0;
                    if (tableOfOperand(bb, j, inst.a, &table)) {
                        // Value-profile the actual op table: its
                        // function-pointer entries, deduplicated,
                        // arity-matched, strictly topo-later.
                        for (int64_t v : module.global(table).init) {
                            if (!ir::isFuncAddrValue(v))
                                continue;
                            const ir::FuncId t = ir::funcAddrTarget(v);
                            if (t >= n || pos[t] <= i)
                                continue;
                            if (module.func(t).num_params !=
                                inst.operand_count)
                                continue;
                            if (std::find(targets.begin(),
                                          targets.end(),
                                          t) == targets.end())
                                targets.push_back(t);
                        }
                    }
                    if (targets.empty()) {
                        // Fallback: rotated window of the arity-
                        // matched address-taken pool.
                        auto it = pool_by_arity.find(
                            inst.operand_count);
                        if (it == pool_by_arity.end())
                            continue;
                        const auto& pool = it->second;
                        auto lo = std::lower_bound(
                            pool.begin(), pool.end(), i + 1,
                            [](const PoolEntry& e, uint32_t p) {
                                return e.pos < p;
                            });
                        const size_t k = static_cast<size_t>(
                            lo - pool.begin());
                        const size_t m = pool.size() - k;
                        if (m == 0)
                            continue;
                        const size_t start = rot % m;
                        const size_t take = std::min<size_t>(
                            config.max_targets_per_site, m);
                        for (size_t w = 0; w < take; ++w)
                            targets.push_back(
                                pool[k + (start + w) % m].func);
                    } else if (targets.size() >
                               config.max_targets_per_site) {
                        const size_t start = rot % targets.size();
                        std::rotate(targets.begin(),
                                    targets.begin() + start,
                                    targets.end());
                        targets.resize(config.max_targets_per_site);
                    }
                    splitZipf(cnt, targets, config.zipf_alpha,
                              inst.site_id, out, incoming);
                }
            }
        }
    }
    return out;
}

} // namespace pibe::scale
