#include "check/cfg.h"

#include <algorithm>

namespace pibe::check {

std::vector<ir::BlockId>
terminatorSuccessors(const ir::Function& func, const ir::Instruction& term)
{
    switch (term.op) {
      case ir::Opcode::kBr:
        return {term.t0};
      case ir::Opcode::kCondBr:
        return {term.t0, term.t1};
      case ir::Opcode::kSwitch: {
        std::vector<ir::BlockId> out{term.t0};
        for (const ir::SwitchCase& c : func.cases(term))
            out.push_back(c.target);
        return out;
      }
      case ir::Opcode::kRet:
        return {};
      default:
        PIBE_PANIC("terminatorSuccessors on non-terminator");
    }
}

Cfg::Cfg(const ir::Function& func)
{
    const size_t n = func.blocks.size();
    PIBE_ASSERT(n > 0, "Cfg over a declaration: ", func.name);
    succs_.resize(n);
    preds_.resize(n);
    reachable_.assign(n, false);
    in_cycle_.assign(n, false);
    rpo_index_.assign(n, SIZE_MAX);

    for (ir::BlockId b = 0; b < n; ++b) {
        for (ir::BlockId s :
             terminatorSuccessors(func, func.blocks[b].terminator())) {
            PIBE_ASSERT(s < n, "Cfg: out-of-range successor in ",
                        func.name);
            succs_[b].push_back(s);
        }
        // Deduplicate (a condbr may have t0 == t1; switches repeat
        // targets) so preds/succs are genuine edge sets.
        std::sort(succs_[b].begin(), succs_[b].end());
        succs_[b].erase(std::unique(succs_[b].begin(), succs_[b].end()),
                        succs_[b].end());
    }
    for (ir::BlockId b = 0; b < n; ++b)
        for (ir::BlockId s : succs_[b])
            preds_[s].push_back(b);

    // Iterative DFS from the entry block: reachability + post-order.
    std::vector<ir::BlockId> post;
    post.reserve(n);
    // Frame: (block, next successor index to visit).
    std::vector<std::pair<ir::BlockId, size_t>> stack;
    stack.emplace_back(0, 0);
    reachable_[0] = true;
    while (!stack.empty()) {
        auto& [b, next] = stack.back();
        if (next < succs_[b].size()) {
            ir::BlockId s = succs_[b][next++];
            if (!reachable_[s]) {
                reachable_[s] = true;
                stack.emplace_back(s, 0);
            }
        } else {
            post.push_back(b);
            stack.pop_back();
        }
    }
    rpo_.assign(post.rbegin(), post.rend());
    for (size_t i = 0; i < rpo_.size(); ++i)
        rpo_index_[rpo_[i]] = i;

    // Cycle membership via iterative Tarjan SCC over reachable blocks:
    // a block is on a cycle iff its SCC has >1 member or it has a
    // self-edge.
    std::vector<uint32_t> index(n, 0), lowlink(n, 0);
    std::vector<bool> on_stack(n, false), visited(n, false);
    std::vector<ir::BlockId> scc_stack;
    uint32_t next_index = 1;
    struct TFrame
    {
        ir::BlockId b;
        size_t next;
    };
    std::vector<TFrame> tstack;
    for (ir::BlockId root = 0; root < n; ++root) {
        if (visited[root] || !reachable_[root])
            continue;
        tstack.push_back({root, 0});
        visited[root] = true;
        index[root] = lowlink[root] = next_index++;
        scc_stack.push_back(root);
        on_stack[root] = true;
        while (!tstack.empty()) {
            TFrame& fr = tstack.back();
            if (fr.next < succs_[fr.b].size()) {
                ir::BlockId s = succs_[fr.b][fr.next++];
                if (!visited[s]) {
                    visited[s] = true;
                    index[s] = lowlink[s] = next_index++;
                    scc_stack.push_back(s);
                    on_stack[s] = true;
                    tstack.push_back({s, 0});
                } else if (on_stack[s]) {
                    lowlink[fr.b] = std::min(lowlink[fr.b], index[s]);
                }
            } else {
                const ir::BlockId b = fr.b;
                tstack.pop_back();
                if (!tstack.empty()) {
                    ir::BlockId parent = tstack.back().b;
                    lowlink[parent] =
                        std::min(lowlink[parent], lowlink[b]);
                }
                if (lowlink[b] == index[b]) {
                    // Pop one SCC.
                    std::vector<ir::BlockId> members;
                    for (;;) {
                        ir::BlockId m = scc_stack.back();
                        scc_stack.pop_back();
                        on_stack[m] = false;
                        members.push_back(m);
                        if (m == b)
                            break;
                    }
                    const bool cyclic =
                        members.size() > 1 ||
                        std::find(succs_[b].begin(), succs_[b].end(),
                                  b) != succs_[b].end();
                    if (cyclic)
                        for (ir::BlockId m : members)
                            in_cycle_[m] = true;
                }
            }
        }
    }
}

} // namespace pibe::check
