/**
 * @file
 * Synthetic kernel: generated driver ballast.
 *
 * Each driver contributes an ops table (xmit/ioctl/irq/probe) reached
 * through indirect calls, and a chain of small helper functions with
 * RNG-shaped (but seed-deterministic) arithmetic bodies. Drivers give
 * the kernel its cold-code mass: hundreds of mostly-single-target
 * indirect call sites (Table 4's long tail), realistic image size, and
 * the big switch in driver_dispatch() is the kernel's largest
 * jump-table candidate.
 */
#include "kernel/kernel_builder_internal.h"

namespace pibe::kernel {

void
KernelBuilder::declareDrivers()
{
    driver_ops_.resize(cfg_.num_drivers);
    driver_helpers_.resize(cfg_.num_drivers);
    driver_work_.resize(cfg_.num_drivers);
    for (uint32_t d = 0; d < cfg_.num_drivers; ++d) {
        const std::string prefix = "drv" + std::to_string(d);
        driver_ops_[d] = {
            declare(prefix + "_xmit", 3),
            declare(prefix + "_ioctl", 3),
            declare(prefix + "_irq", 3),
            declare(prefix + "_probe", 3),
        };
        for (uint32_t h = 0; h < cfg_.helpers_per_driver; ++h) {
            driver_helpers_[d].push_back(
                declare(prefix + "_h" + std::to_string(h), 2));
        }
        driver_work_[d] = declare(prefix + "_work", 2);
    }
}

void
KernelBuilder::buildDrivers()
{
    for (uint32_t d = 0; d < cfg_.num_drivers; ++d) {
        const int64_t dev_base =
            L::kDriverBase + static_cast<int64_t>(d) * L::kDriverWords;
        const auto& helpers = driver_helpers_[d];
        const uint32_t nh = static_cast<uint32_t>(helpers.size());

        // Helpers: h_i mixes its arguments; all but the last chain to
        // h_{i+1}; leaves loop a few iterations. Shapes drawn from the
        // seeded RNG so drivers differ but builds are reproducible.
        for (uint32_t h = 0; h < nh; ++h) {
            FB b(m_, helpers[h]);
            const uint32_t alu = 3 + static_cast<uint32_t>(rng_.below(10));
            Reg mixed = b.bin(BK::kXor, b.param(0), b.param(1));
            Reg acc = emitAluChain(b, mixed, alu);
            if (h + 1 < nh && rng_.chance(0.7)) {
                Reg r = b.call(helpers[h + 1], {acc, b.param(1)});
                acc = b.bin(BK::kAdd, acc, r);
            } else if (rng_.chance(0.5)) {
                // Leaf with a small loop over the device region.
                Reg iters =
                    b.constI(2 + static_cast<int64_t>(rng_.below(5)));
                Reg sum = b.newReg();
                b.setReg(sum, acc);
                countedLoop(b, iters, [&](Reg i) {
                    Reg slot = b.binImm(BK::kAnd, i,
                                        L::kDriverWords - 1);
                    Reg v = kload(b, slot, dev_base);
                    Reg mixed2 = b.bin(BK::kAdd, sum, v);
                    b.setReg(sum, mixed2);
                });
                acc = sum;
            }
            b.ret(acc);
        }

        { // xmit(dev, a, b): the hot op — helper chain plus ring write.
            FB b(m_, driver_ops_[d][0]);
            Reg h0 = b.call(helpers[0], {b.param(1), b.param(2)});
            Reg iters = b.constI(2 + static_cast<int64_t>(rng_.below(6)));
            countedLoop(b, iters, [&](Reg i) {
                Reg mix = b.bin(BK::kAdd, h0, i);
                Reg slot = b.binImm(BK::kAnd, mix, L::kDriverWords - 1);
                Reg idx = b.bin(BK::kAdd, b.param(0), slot);
                // dev pointer is the region base; store stats word.
                Reg rel = b.binImm(BK::kSub, idx, dev_base);
                Reg masked = b.binImm(BK::kAnd, rel,
                                      L::kDriverWords - 1);
                kstore(b, masked, mix, dev_base);
            });
            Reg stat = kload(b, b.param(0), 0);
            Reg nstat = b.binImm(BK::kAdd, stat, 1);
            kstore(b, b.param(0), nstat, 0);
            b.ret(nstat);
        }
        { // ioctl(dev, cmd, arg): multiway command dispatch.
            FB b(m_, driver_ops_[d][1]);
            const uint32_t ncmds = 4 + static_cast<uint32_t>(
                                           rng_.below(5));
            Reg sel = b.binImm(BK::kAnd, b.param(1), 7);
            std::vector<ir::SwitchCase> cases;
            ir::BlockId dflt = b.newBlock();
            for (uint32_t c = 0; c < ncmds; ++c)
                cases.push_back({c, b.newBlock()});
            b.switchOn(sel, dflt, cases);
            for (uint32_t c = 0; c < ncmds; ++c) {
                b.setBlock(cases[c].target);
                Reg r = b.call(helpers[c % nh],
                               {b.param(2), b.param(1)});
                b.ret(r);
            }
            b.setBlock(dflt);
            b.ret(b.constI(-1));
        }
        { // irq(dev, a, b): quick acknowledgment.
            FB b(m_, driver_ops_[d][2]);
            Reg v = kload(b, b.param(0), 1);
            Reg mixed = b.bin(BK::kXor, v, b.param(1));
            kstore(b, b.param(0), mixed, 1);
            b.ret(mixed);
        }
        { // probe(dev, a, b): boot-time initialization of the region.
            FB b(m_, driver_ops_[d][3]);
            Reg n = b.constI(L::kDriverWords);
            countedLoop(b, n, [&](Reg i) {
                Reg mix = b.bin(BK::kAdd, b.param(1), i);
                Reg v = b.call(fn("k_hash"), {mix});
                kstore(b, i, v, dev_base);
            });
            b.ret(b.constI(0));
        }
        { // drvN_work(a, b): dispatch through the ops table (the
          // driver's indirect call sites — cold, single-target).
            FB b(m_, driver_work_[d]);
            Reg dev = b.constI(dev_base);
            Reg xmit_slot = b.constI(static_cast<int64_t>(d) * 4 + 0);
            Reg r = tableCall(b, drv_ops_, xmit_slot,
                              {dev, b.param(0), b.param(1)});
            Reg low = b.binImm(BK::kAnd, b.param(0), 7);
            Reg due = b.binImm(BK::kEq, low, 0);
            ifThen(b, due, [&] {
                Reg ioctl_slot =
                    b.constI(static_cast<int64_t>(d) * 4 + 1);
                Reg cmd = b.binImm(BK::kAnd, b.param(1), 7);
                Reg r2 = tableCall(b, drv_ops_, ioctl_slot,
                                   {dev, cmd, b.param(0)});
                b.sink(r2);
            });
            b.ret(r);
        }
    }

    { // driver_dispatch(d, a, b): the kernel's big jump table.
        FB b(m_, fn("driver_dispatch"));
        Reg sel = b.binImm(BK::kRem, b.param(0),
                           static_cast<int64_t>(cfg_.num_drivers));
        ir::BlockId dflt = b.newBlock();
        std::vector<ir::SwitchCase> cases;
        for (uint32_t d = 0; d < cfg_.num_drivers; ++d)
            cases.push_back({d, b.newBlock()});
        b.switchOn(sel, dflt, cases);
        for (uint32_t d = 0; d < cfg_.num_drivers; ++d) {
            b.setBlock(cases[d].target);
            Reg r = b.call(driver_work_[d], {b.param(1), b.param(2)});
            b.ret(r);
        }
        b.setBlock(dflt);
        b.ret(b.constI(-1));
    }
}

} // namespace pibe::kernel
