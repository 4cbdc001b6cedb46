#include "scale/parallel_pipeline.h"

#include "runtime/digest.h"

namespace pibe::scale {

std::string
moduleDigest(const ir::Module& module)
{
    runtime::Digest d;
    d.add(static_cast<uint64_t>(module.numFunctions()));
    for (const ir::Function& f : module.functions()) {
        d.add(f.name);
        d.add(f.num_params);
        d.add(f.num_regs);
        d.add(f.frame_size);
        d.add(f.attrs);
        d.add(static_cast<uint64_t>(f.blocks.size()));
        for (const ir::BasicBlock& bb : f.blocks) {
            d.add(static_cast<uint64_t>(bb.insts.size()));
            for (const ir::Instruction& inst : bb.insts) {
                d.add(static_cast<uint32_t>(inst.op));
                d.add(static_cast<uint32_t>(inst.bin));
                d.add(inst.dst);
                d.add(inst.a);
                d.add(inst.b);
                d.add(inst.imm);
                d.add(inst.callee);
                d.add(inst.global);
                d.add(inst.t0);
                d.add(inst.t1);
                d.add(static_cast<uint64_t>(inst.args.size()));
                for (ir::Reg r : inst.args)
                    d.add(r);
                d.add(static_cast<uint64_t>(inst.case_values.size()));
                for (int64_t v : inst.case_values)
                    d.add(v);
                for (ir::BlockId t : inst.case_targets)
                    d.add(t);
                d.add(inst.site_id);
                d.add(static_cast<uint32_t>(inst.fwd_scheme));
                d.add(static_cast<uint32_t>(inst.ret_scheme));
                d.add(inst.is_asm);
            }
        }
    }
    d.add(static_cast<uint64_t>(module.globals().size()));
    for (const ir::Global& g : module.globals()) {
        d.add(g.name);
        d.add(static_cast<uint64_t>(g.init.size()));
        for (int64_t v : g.init)
            d.add(v);
    }
    d.add(module.siteIdBound());
    return d.hex();
}

} // namespace pibe::scale
