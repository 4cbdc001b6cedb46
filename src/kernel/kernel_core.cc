/**
 * @file
 * Synthetic kernel: build driver, emission helpers, utility layer,
 * security hooks, VFS, filesystems, and pipes. Networking, scheduling,
 * mm, signals, syscall machinery and boot code live in
 * kernel_systems.cc; driver ballast in kernel_drivers.cc.
 */
#include "kernel/kernel_builder_internal.h"

#include "ir/verifier.h"
#include "support/logging.h"

namespace pibe::kernel {

using ir::FunctionBuilder;

KernelBuilder::KernelBuilder(const KernelConfig& config)
    : cfg_(config), rng_(config.seed)
{
    PIBE_ASSERT(cfg_.num_drivers >= 1, "need at least one driver");
    PIBE_ASSERT(cfg_.kmem_slots >=
                    KernelLayout::kDriverBase +
                        static_cast<int64_t>(cfg_.num_drivers) *
                            KernelLayout::kDriverWords,
                "kmem too small for driver regions");
}

ir::FuncId
KernelBuilder::declare(const std::string& name, uint32_t params,
                       uint32_t attrs)
{
    return m_.addFunction(name, params, attrs);
}

ir::FuncId
KernelBuilder::fn(const std::string& name) const
{
    ir::FuncId f = m_.findFunction(name);
    PIBE_ASSERT(f != ir::kInvalidFunc, "unknown kernel function ", name);
    return f;
}

KernelImage
KernelBuilder::build()
{
    declareCore();
    declareDrivers();
    createGlobals();

    buildUtil();
    buildSecurity();
    buildVfs();
    buildFilesystems();
    buildPipes();
    buildSockets();
    buildSched();
    buildMm();
    buildSignals();
    buildIrqTrap();
    buildSyscalls();
    buildDrivers();
    buildBoot();

    // Every declared function must have received a body.
    for (const ir::Function& f : m_.functions()) {
        PIBE_ASSERT(!f.isDeclaration(),
                    "kernel function without body: ", f.name);
    }
    ir::verifyOrDie(m_, "synthetic kernel");

    info_.num_drivers = cfg_.num_drivers;
    KernelImage image;
    image.module = std::move(m_);
    image.info = info_;
    return image;
}

// ---------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------

ir::Reg
KernelBuilder::kload(FB& b, Reg index, int64_t off)
{
    return b.load(kmem_, index, off);
}

void
KernelBuilder::kstore(FB& b, Reg index, Reg value, int64_t off)
{
    b.store(kmem_, index, value, off);
}

ir::Reg
KernelBuilder::kloadAbs(FB& b, int64_t abs_off)
{
    Reg zero = b.constI(0);
    return b.load(kmem_, zero, abs_off);
}

void
KernelBuilder::kstoreAbs(FB& b, int64_t abs_off, Reg value)
{
    Reg zero = b.constI(0);
    b.store(kmem_, zero, value, abs_off);
}

bool
KernelBuilder::blockOpen(FB& b)
{
    const ir::Function& f = b.module().func(b.funcId());
    const auto& insts = f.blocks[b.currentBlock()].insts;
    return insts.empty() || !insts.back().isTerminator();
}

void
KernelBuilder::countedLoop(FB& b, Reg n,
                           const std::function<void(Reg)>& body)
{
    Reg i = b.newReg();
    b.setRegConst(i, 0);
    Reg one = b.constI(1);
    ir::BlockId head = b.newBlock();
    ir::BlockId body_bb = b.newBlock();
    ir::BlockId done = b.newBlock();
    b.br(head);
    b.setBlock(head);
    Reg cond = b.bin(BK::kLt, i, n);
    b.condBr(cond, body_bb, done);
    b.setBlock(body_bb);
    body(i);
    PIBE_ASSERT(blockOpen(b), "countedLoop body must not terminate");
    b.setRegBin(i, BK::kAdd, i, one);
    b.br(head);
    b.setBlock(done);
}

void
KernelBuilder::ifThen(FB& b, Reg cond, const std::function<void()>& body)
{
    ir::BlockId then_bb = b.newBlock();
    ir::BlockId done = b.newBlock();
    b.condBr(cond, then_bb, done);
    b.setBlock(then_bb);
    body();
    if (blockOpen(b))
        b.br(done);
    b.setBlock(done);
}

void
KernelBuilder::ifThenElse(FB& b, Reg cond, const std::function<void()>& t,
                          const std::function<void()>& e)
{
    ir::BlockId then_bb = b.newBlock();
    ir::BlockId else_bb = b.newBlock();
    ir::BlockId done = b.newBlock();
    b.condBr(cond, then_bb, else_bb);
    b.setBlock(then_bb);
    t();
    if (blockOpen(b))
        b.br(done);
    b.setBlock(else_bb);
    e();
    if (blockOpen(b))
        b.br(done);
    b.setBlock(done);
}

ir::Reg
KernelBuilder::emitAluChain(FB& b, Reg seed, uint32_t n)
{
    static const BK kOps[] = {BK::kAdd, BK::kXor, BK::kMul, BK::kShr,
                              BK::kOr,  BK::kSub, BK::kAnd, BK::kShl};
    Reg acc = seed;
    for (uint32_t i = 0; i < n; ++i) {
        BK op = kOps[(i * 5 + 3) % 8];
        int64_t imm;
        switch (op) {
          case BK::kShr:
          case BK::kShl:
            imm = 1 + static_cast<int64_t>(i % 5);
            break;
          case BK::kAnd:
            imm = 0x7fffffff;
            break;
          case BK::kMul:
            imm = 0x9e37 + static_cast<int64_t>(i);
            break;
          default:
            imm = 0x5bd1e995 + static_cast<int64_t>(i * 7);
            break;
        }
        acc = b.binImm(op, acc, imm);
    }
    return acc;
}

void
KernelBuilder::useLocals(FB& b, Reg seed, uint32_t n)
{
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t slot = b.newFrameSlot();
        Reg v = b.binImm(BK::kAdd, seed, static_cast<int64_t>(i));
        b.frameStore(slot, v);
    }
}

ir::Reg
KernelBuilder::tableCall(FB& b, ir::GlobalId g, Reg slot,
                         std::vector<Reg> args, bool is_asm)
{
    Reg target = b.load(g, slot, 0);
    return b.icall(target, std::move(args), is_asm);
}

// ---------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------

void
KernelBuilder::declareCore()
{
    // util
    declare("k_memcpy", 3);
    declare("k_memset", 3);
    declare("k_hash", 1);
    declare("k_min", 2);
    declare("k_access_ok", 2);
    declare("k_copy_to_user", 3);
    declare("k_copy_from_user", 3);
    declare("k_cond_resched", 0);
    declare("k_current", 0);
    declare("k_panic", 1, ir::kAttrNoInline);
    declare("debug_trace", 1, ir::kAttrOptNone);

    // security hooks (LSM stack: three chained modules per hook)
    declare("sec_cap_check", 1);
    declare("apparmor_file_permission", 2);
    declare("selinux_file_permission", 2);
    declare("bpf_lsm_hook", 2);
    declare("sec_file_permission", 2);
    declare("sec_socket_check", 2);
    declare("security_file_open", 2);

    // syscall entry/exit bulk (audit & seccomp models)
    declare("audit_syscall", 1);
    declare("seccomp_filter", 1);
    declare("rcu_note_context_switch", 1, ir::kAttrNoInline);

    // vfs
    declare("fd_lookup", 1);
    declare("fdget", 1);
    declare("fdput", 1);
    declare("alloc_fd", 0);
    declare("get_unused_fd", 0);
    declare("fd_install", 2);
    declare("d_hash_probe", 1);
    declare("d_insert", 2);
    declare("dget", 1);
    declare("step_into", 2);
    declare("link_path_walk", 1);
    declare("path_lookup", 1);
    declare("rw_verify_area", 2);
    declare("iocb_setup", 2);
    declare("fsnotify_access", 1);
    declare("fsnotify_modify", 1);
    declare("file_accessed", 1);
    declare("mark_page_accessed", 1);
    declare("touch_atime", 1);
    declare("balance_dirty", 0);
    declare("vfs_read", 3);
    declare("vfs_write", 3);
    declare("vfs_open", 2);
    declare("vfs_close", 1);
    declare("vfs_poll", 1);
    declare("vfs_stat", 2);
    declare("vfs_fstat", 2);
    declare("vfs_lseek", 2);
    declare("fput_slow", 1, ir::kAttrNoInline);
    declare("find_page", 2);
    declare("generic_file_read", 3);
    declare("generic_file_write", 3);

    // filesystems (uniform 3-arg op signatures)
    static const char* kFsNames[] = {"ramfs", "extfs", "procfs",
                                     "devfs", "sockfs", "pipefs"};
    for (const char* fs : kFsNames) {
        declare(std::string(fs) + "_read", 3);
        declare(std::string(fs) + "_write", 3);
        declare(std::string(fs) + "_open", 3);
        declare(std::string(fs) + "_poll", 3);
        declare(std::string(fs) + "_stat", 3);
    }
    declare("extfs_journal_check", 1);
    declare("extfs_journal_commit", 1);

    // pipes
    declare("pipe_alloc", 0);
    declare("pipe_read", 3);
    declare("pipe_write", 3);
    declare("pipe_wake", 1);

    // sockets and the loopback TX/RX path
    declare("sock_alloc", 1);
    declare("net_checksum", 2);
    declare("sk_wake", 1);
    declare("sock_copy_to_peer", 3);
    declare("sock_poll", 1);
    declare("skb_alloc", 1);
    declare("skb_put", 2);
    declare("dev_queue_xmit", 3);
    declare("loopback_xmit", 3);
    declare("netif_rx", 3);
    declare("unix_rcv", 3);
    declare("tcp_rcv", 3);
    declare("udp_rcv", 3);
    for (const char* p : {"unix", "tcp", "udp"}) {
        declare(std::string(p) + "_sendmsg", 3);
        declare(std::string(p) + "_recvmsg", 3);
        declare(std::string(p) + "_connect", 3);
        declare(std::string(p) + "_accept", 3);
        declare(std::string(p) + "_poll", 3);
    }
    declare("tcp_transmit", 2);
    declare("tcp_init_sock", 1);

    // sched
    declare("alloc_task", 0);
    declare("copy_task", 2);
    declare("copy_mm", 2);
    declare("copy_pte_range", 3);
    declare("copy_files", 2);
    declare("fd_clone", 1);
    declare("schedule", 0);
    declare("context_switch", 2);

    // mm
    declare("find_vma", 1);
    declare("vma_merge_check", 2);
    declare("pte_walk", 1);
    declare("alloc_page_frame", 1);
    declare("flush_mm", 1);
    declare("load_binary", 2);

    // signals
    declare("do_signal", 1);
    declare("usr_sig_ignore", 1);
    declare("usr_sig_count", 1);
    declare("usr_sig_term", 1);
    declare("usr_sig_custom", 1);

    // paravirt ops (called through pv_ops with is_asm sites)
    declare("pv_flush_tlb_one", 1);
    declare("pv_flush_tlb_all", 1);
    declare("pv_write_cr3", 1);
    declare("pv_io_delay", 1);

    // irq / traps (assembly dispatchers)
    declare("do_trap", 3);
    declare("trap_divide", 1);
    declare("trap_gp", 1);
    declare("trap_nmi", 1);
    declare("trap_pf", 1);
    declare("mce_handler", 1);
    declare("irq_dispatch", 3);
    declare("irq_timer", 0);
    declare("irq_net", 0);
    declare("irq_disk", 0);
    declare("emergency_restart", 1);
    declare("acpi_event", 1);
    declare("run_softirq", 1);
    declare("driver_dispatch", 3);

    // syscall machinery
    declare("syscall_entry", 0);
    declare("syscall_exit_work", 0);
    declare("sys_ni", 3);
    static const char* kSysNames[] = {
        "sys_null",   "sys_read",    "sys_write",     "sys_open",
        "sys_close",  "sys_stat",    "sys_fstat",     "sys_lseek",
        "sys_pipe",   "sys_select",  "sys_socket",    "sys_connect",
        "sys_accept", "sys_send",    "sys_recv",      "sys_fork",
        "sys_exec",   "sys_exit",    "sys_mmap",      "sys_munmap",
        "sys_pagefault", "sys_sigaction", "sys_kill", "sys_yield",
        "sys_getpid",
    };
    static_assert(sizeof(kSysNames) / sizeof(kSysNames[0]) ==
                  sysno::kCount);
    for (const char* s : kSysNames)
        declare(s, 3);
    info_.sys_dispatch = declare(kSysDispatchName, 4);

    // boot
    info_.kernel_init = declare(kKernelInitName, 0, ir::kAttrBootSection);
    declare("init_vfs", 0, ir::kAttrBootSection);
    declare("init_net", 0, ir::kAttrBootSection);
    declare("init_tasks", 0, ir::kAttrBootSection);
    declare("init_drivers", 0, ir::kAttrBootSection);
}

void
KernelBuilder::createGlobals()
{
    kmem_ = m_.addGlobal(kKmemName,
                         std::vector<int64_t>(cfg_.kmem_slots, 0));
    info_.kmem = kmem_;

    // Syscall table: 32 slots, unused ones point at sys_ni.
    {
        std::vector<int64_t> table(32, ir::funcAddrValue(fn("sys_ni")));
        static const char* kSysNames[] = {
            "sys_null",   "sys_read",    "sys_write",     "sys_open",
            "sys_close",  "sys_stat",    "sys_fstat",     "sys_lseek",
            "sys_pipe",   "sys_select",  "sys_socket",    "sys_connect",
            "sys_accept", "sys_send",    "sys_recv",      "sys_fork",
            "sys_exec",   "sys_exit",    "sys_mmap",      "sys_munmap",
            "sys_pagefault", "sys_sigaction", "sys_kill", "sys_yield",
            "sys_getpid",
        };
        for (size_t i = 0; i < sysno::kCount; ++i)
            table[i] = ir::funcAddrValue(fn(kSysNames[i]));
        sys_table_ = m_.addGlobal(kSyscallTableName, std::move(table));
        info_.syscall_table = sys_table_;
    }

    // fops[fs*8 + op]: read, write, open, poll, stat.
    {
        static const char* kFsNames[] = {"ramfs", "extfs", "procfs",
                                         "devfs", "sockfs", "pipefs"};
        static const char* kOps[] = {"read", "write", "open", "poll",
                                     "stat"};
        std::vector<int64_t> table(fstype::kCount * 8, 0);
        for (int64_t f = 0; f < fstype::kCount; ++f) {
            for (int64_t o = 0; o < 5; ++o) {
                table[f * 8 + o] = ir::funcAddrValue(
                    fn(std::string(kFsNames[f]) + "_" + kOps[o]));
            }
        }
        fops_ = m_.addGlobal("fops", std::move(table));
    }

    // proto_ops[proto*8 + op]: sendmsg, recvmsg, connect, accept, poll.
    {
        static const char* kProtos[] = {"unix", "tcp", "udp"};
        static const char* kOps[] = {"sendmsg", "recvmsg", "connect",
                                     "accept", "poll"};
        std::vector<int64_t> table(proto::kCount * 8, 0);
        for (int64_t p = 0; p < proto::kCount; ++p) {
            for (int64_t o = 0; o < 5; ++o) {
                table[p * 8 + o] = ir::funcAddrValue(
                    fn(std::string(kProtos[p]) + "_" + kOps[o]));
            }
        }
        proto_ops_ = m_.addGlobal("proto_ops", std::move(table));
    }

    // Protocol receive handlers (netif_rx demux table).
    {
        std::vector<int64_t> table = {
            ir::funcAddrValue(fn("unix_rcv")),
            ir::funcAddrValue(fn("tcp_rcv")),
            ir::funcAddrValue(fn("udp_rcv")),
        };
        ptype_ = m_.addGlobal("ptype_table", std::move(table));
    }

    // Paravirt ops.
    {
        std::vector<int64_t> table = {
            ir::funcAddrValue(fn("pv_flush_tlb_one")),
            ir::funcAddrValue(fn("pv_flush_tlb_all")),
            ir::funcAddrValue(fn("pv_write_cr3")),
            ir::funcAddrValue(fn("pv_io_delay")),
        };
        pv_ops_ = m_.addGlobal("pv_ops", std::move(table));
    }

    // User signal handlers.
    {
        std::vector<int64_t> table = {
            ir::funcAddrValue(fn("usr_sig_ignore")),
            ir::funcAddrValue(fn("usr_sig_count")),
            ir::funcAddrValue(fn("usr_sig_term")),
            ir::funcAddrValue(fn("usr_sig_custom")),
        };
        sig_table_ = m_.addGlobal("sig_handlers", std::move(table));
    }

    // Driver ops: drv_ops[d*4 + {xmit, ioctl, irq, probe}].
    {
        std::vector<int64_t> table(cfg_.num_drivers * 4, 0);
        for (uint32_t d = 0; d < cfg_.num_drivers; ++d) {
            for (uint32_t o = 0; o < 4; ++o)
                table[d * 4 + o] = ir::funcAddrValue(driver_ops_[d][o]);
        }
        drv_ops_ = m_.addGlobal("drv_ops", std::move(table));
    }
}

// ---------------------------------------------------------------------
// Utility layer
// ---------------------------------------------------------------------

void
KernelBuilder::buildUtil()
{
    { // k_memcpy(dst, src, n): word copy within kmem.
        FB b(m_, fn("k_memcpy"));
        countedLoop(b, b.param(2), [&](Reg i) {
            Reg src = b.bin(BK::kAdd, b.param(1), i);
            Reg v = kload(b, src);
            Reg dst = b.bin(BK::kAdd, b.param(0), i);
            kstore(b, dst, v);
        });
        b.ret(b.param(2));
    }
    { // k_memset(dst, val, n)
        FB b(m_, fn("k_memset"));
        countedLoop(b, b.param(2), [&](Reg i) {
            Reg dst = b.bin(BK::kAdd, b.param(0), i);
            kstore(b, dst, b.param(1));
        });
        b.ret(b.param(2));
    }
    { // k_hash(x): small mixing function.
        FB b(m_, fn("k_hash"));
        Reg x = b.param(0);
        Reg h = b.binImm(BK::kMul, x, 2654435761);
        Reg s = b.binImm(BK::kShr, h, 13);
        Reg m = b.bin(BK::kXor, h, s);
        Reg r = b.binImm(BK::kAnd, m, 0x7fffffff);
        b.ret(r);
    }
    { // k_min(a, b)
        FB b(m_, fn("k_min"));
        Reg le = b.bin(BK::kLe, b.param(0), b.param(1));
        Reg out = b.newReg();
        ifThenElse(b, le, [&] { b.setReg(out, b.param(0)); },
                   [&] { b.setReg(out, b.param(1)); });
        b.ret(out);
    }
    { // k_access_ok(addr, n): user-range check.
        FB b(m_, fn("k_access_ok"));
        Reg nonneg = b.binImm(BK::kGe, b.param(0), 0);
        Reg end = b.bin(BK::kAdd, b.param(0), b.param(1));
        Reg below = b.binImm(BK::kLe, end, L::kUserSize);
        Reg ok = b.bin(BK::kAnd, nonneg, below);
        b.ret(ok);
    }
    { // k_copy_to_user(udst, ksrc, n): masked per-word user stores.
        FB b(m_, fn("k_copy_to_user"));
        Reg ok = b.call(fn("k_access_ok"), {b.param(0), b.param(2)});
        Reg bad = b.binImm(BK::kEq, ok, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        countedLoop(b, b.param(2), [&](Reg i) {
            Reg src = b.bin(BK::kAdd, b.param(1), i);
            Reg v = kload(b, src);
            Reg uoff = b.bin(BK::kAdd, b.param(0), i);
            Reg masked = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            kstore(b, masked, v, L::kUserBase);
        });
        b.ret(b.param(2));
    }
    { // k_copy_from_user(kdst, usrc, n)
        FB b(m_, fn("k_copy_from_user"));
        Reg ok = b.call(fn("k_access_ok"), {b.param(1), b.param(2)});
        Reg bad = b.binImm(BK::kEq, ok, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        countedLoop(b, b.param(2), [&](Reg i) {
            Reg uoff = b.bin(BK::kAdd, b.param(1), i);
            Reg masked = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            Reg v = kload(b, masked, L::kUserBase);
            Reg dst = b.bin(BK::kAdd, b.param(0), i);
            kstore(b, dst, v);
        });
        b.ret(b.param(2));
    }
    { // k_cond_resched()
        FB b(m_, fn("k_cond_resched"));
        Reg flag = kloadAbs(b, L::kNeedResched);
        ifThen(b, flag, [&] {
            Reg zero = b.constI(0);
            kstoreAbs(b, L::kNeedResched, zero);
            b.call(fn("schedule"), {});
        });
        b.ret(b.constI(0));
    }
    { // k_current(): offset of the running task.
        FB b(m_, fn("k_current"));
        Reg t = kloadAbs(b, L::kCurTask);
        Reg scaled = b.binImm(BK::kMul, t, L::kTaskSize);
        Reg off = b.binImm(BK::kAdd, scaled, L::kTaskTable);
        b.ret(off);
    }
    { // k_panic(code): record and dispatch emergency path.
        FB b(m_, fn("k_panic"));
        kstoreAbs(b, L::kScalars + 9, b.param(0));
        Reg r = b.call(fn("emergency_restart"), {b.param(0)});
        b.sink(r);
        b.ret(b.constI(-1));
    }
    { // debug_trace(x): optnone tracing hook.
        FB b(m_, fn("debug_trace"));
        Reg h = b.call(fn("k_hash"), {b.param(0)});
        Reg mixed = emitAluChain(b, h, 6);
        b.sink(mixed);
        b.ret(mixed);
    }
    { // audit_syscall(nr): a big, hot leaf — the kind of callee Rule 3
      // exists to keep out of callers (InlineCost > 3000).
        FB b(m_, fn("audit_syscall"));
        Reg acc = emitAluChain(b, b.param(0), 640);
        kstoreAbs(b, L::kScalars + 16, acc);
        b.ret(acc);
    }
    { // rcu_note_context_switch(j): RCU quiescent-state report —
      // noinstr/noinline in real kernels, so never an inline candidate
      // despite running on every syscall exit (Table 9 "other").
        FB b(m_, fn("rcu_note_context_switch"));
        Reg ctr = kloadAbs(b, L::kScalars + 23);
        Reg mixed = b.bin(BK::kXor, ctr, b.param(0));
        kstoreAbs(b, L::kScalars + 23, mixed);
        b.ret(b.constI(0));
    }
    { // seccomp_filter(nr): cached-verdict fast path; the full cBPF
      // program body keeps the static size large (Rule 3 bait at a
      // per-syscall call site).
        FB b(m_, fn("seccomp_filter"));
        Reg fast = emitAluChain(b, b.param(0), 8);
        Reg mode = kloadAbs(b, L::kScalars + 21);
        ifThen(b, mode, [&] {
            Reg acc = emitAluChain(b, fast, 620);
            Reg allow = b.binImm(BK::kGe, acc, 0);
            b.ret(allow);
        });
        Reg allow = b.binImm(BK::kGe, fast, 0);
        b.ret(allow);
    }
}

// ---------------------------------------------------------------------
// Security hooks (LSM-style small hot functions)
// ---------------------------------------------------------------------

void
KernelBuilder::buildSecurity()
{
    { // sec_cap_check(cap)
        FB b(m_, fn("sec_cap_check"));
        Reg cur = b.call(fn("k_current"), {});
        Reg mode = kload(b, cur, 8); // task cred word
        Reg masked = b.bin(BK::kAnd, mode, b.param(0));
        Reg ok = b.binImm(BK::kEq, masked, 0);
        b.ret(ok);
    }
    { // apparmor_file_permission(file, mask)
        FB b(m_, fn("apparmor_file_permission"));
        Reg flags = kload(b, b.param(0), 4);
        Reg mix = b.bin(BK::kAnd, flags, b.param(1));
        Reg ok = b.binImm(BK::kGe, mix, 0);
        b.ret(ok);
    }
    { // selinux_file_permission(file, mask): AVC fast path with a fat
      // cold-miss slow path. The whole body is what InlineCost sees —
      // a hot call site with a >3000-unit callee, i.e. Rule 3 bait.
        FB b(m_, fn("selinux_file_permission"));
        Reg ctr = kloadAbs(b, L::kScalars + 18);
        Reg nctr = b.binImm(BK::kAdd, ctr, 1);
        kstoreAbs(b, L::kScalars + 18, nctr);
        Reg cold = b.binImm(BK::kAnd, nctr, 255);
        Reg is_cold = b.binImm(BK::kEq, cold, 0);
        ifThen(b, is_cold, [&] {
            // AVC miss: recompute the access decision from policy.
            Reg ino = kload(b, b.param(0), 2);
            Reg acc = emitAluChain(b, ino, 680);
            kstoreAbs(b, L::kScalars + 19, acc);
            Reg ok = b.binImm(BK::kGe, acc, 0);
            b.ret(ok);
        });
        b.ret(b.constI(1)); // AVC hit
    }
    { // bpf_lsm_hook(file, mask)
        FB b(m_, fn("bpf_lsm_hook"));
        Reg mix = b.bin(BK::kXor, b.param(0), b.param(1));
        b.ret(b.binImm(BK::kGe, mix, 0));
    }
    { // sec_file_permission(file, mask): the stacked LSM chain.
        FB b(m_, fn("sec_file_permission"));
        Reg c0 = b.call(fn("sec_cap_check"), {b.param(1)});
        Reg c1 = b.call(fn("apparmor_file_permission"),
                        {b.param(0), b.param(1)});
        Reg c2 = b.call(fn("selinux_file_permission"),
                        {b.param(0), b.param(1)});
        Reg c3 = b.call(fn("bpf_lsm_hook"), {b.param(0), b.param(1)});
        Reg and01 = b.bin(BK::kAnd, c0, c1);
        Reg and23 = b.bin(BK::kAnd, c2, c3);
        Reg ok = b.bin(BK::kAnd, and01, and23);
        b.ret(ok);
    }
    { // security_file_open(file, flags)
        FB b(m_, fn("security_file_open"));
        Reg c1 = b.call(fn("apparmor_file_permission"),
                        {b.param(0), b.param(1)});
        Reg c2 = b.call(fn("selinux_file_permission"),
                        {b.param(0), b.param(1)});
        Reg ok = b.bin(BK::kAnd, c1, c2);
        b.ret(ok);
    }
    { // sec_socket_check(sock, op)
        FB b(m_, fn("sec_socket_check"));
        Reg c1 = b.call(fn("sec_cap_check"), {b.param(1)});
        b.ret(c1);
    }
}

// ---------------------------------------------------------------------
// VFS
// ---------------------------------------------------------------------

void
KernelBuilder::buildVfs()
{
    { // fd_lookup(fd) -> file offset or -1
        FB b(m_, fn("fd_lookup"));
        Reg fd = b.binImm(BK::kAnd, b.param(0), L::kNumFds - 1);
        Reg scaled = b.binImm(BK::kMul, fd, L::kFdSize);
        Reg off = b.binImm(BK::kAdd, scaled, L::kFdTable);
        Reg in_use = kload(b, off, 0);
        Reg dead = b.binImm(BK::kEq, in_use, 0);
        ifThen(b, dead, [&] { b.ret(b.constI(-1)); });
        b.ret(off);
    }
    { // fdget(fd): lookup + lightweight reference acquisition.
        FB b(m_, fn("fdget"));
        Reg file = b.call(fn("fd_lookup"), {b.param(0)});
        Reg bad = b.binImm(BK::kLt, file, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        Reg refs = kload(b, file, 0);
        Reg nrefs = b.binImm(BK::kAdd, refs, 1);
        kstore(b, file, nrefs, 0);
        b.ret(file);
    }
    { // fdput(file)
        FB b(m_, fn("fdput"));
        Reg refs = kload(b, b.param(0), 0);
        Reg nrefs = b.binImm(BK::kSub, refs, 1);
        Reg low = b.binImm(BK::kLt, nrefs, 1);
        Reg clamped = b.newReg();
        ifThenElse(b, low, [&] { b.setRegConst(clamped, 1); },
                   [&] { b.setReg(clamped, nrefs); });
        kstore(b, b.param(0), clamped, 0);
        b.ret(b.constI(0));
    }
    { // get_unused_fd()
        FB b(m_, fn("get_unused_fd"));
        Reg fd = b.call(fn("alloc_fd"), {});
        b.ret(fd);
    }
    { // fd_install(fd, ino)
        FB b(m_, fn("fd_install"));
        Reg scaled = b.binImm(BK::kMul, b.param(0), L::kFdSize);
        Reg off = b.binImm(BK::kAdd, scaled, L::kFdTable);
        kstore(b, off, b.param(1), 2);
        b.ret(off);
    }
    { // fsnotify_access(file)
        FB b(m_, fn("fsnotify_access"));
        Reg flags = kload(b, b.param(0), 4);
        Reg watched = b.binImm(BK::kAnd, flags, 1 << 14);
        ifThen(b, watched, [&] {
            Reg r = b.call(fn("debug_trace"), {b.param(0)});
            b.sink(r);
        });
        b.ret(b.constI(0));
    }
    { // fsnotify_modify(file)
        FB b(m_, fn("fsnotify_modify"));
        Reg flags = kload(b, b.param(0), 4);
        Reg watched = b.binImm(BK::kAnd, flags, 1 << 15);
        ifThen(b, watched, [&] {
            Reg r = b.call(fn("debug_trace"), {b.param(0)});
            b.sink(r);
        });
        b.ret(b.constI(0));
    }
    { // file_accessed(file)
        FB b(m_, fn("file_accessed"));
        Reg r = b.call(fn("touch_atime"), {b.param(0)});
        b.ret(r);
    }
    { // mark_page_accessed(page)
        FB b(m_, fn("mark_page_accessed"));
        Reg masked = b.binImm(BK::kAnd, b.param(0), L::kNumPages - 1);
        kstoreAbs(b, L::kScalars + 17, masked);
        b.ret(masked);
    }
    { // iocb_setup(file, len)
        FB b(m_, fn("iocb_setup"));
        Reg pos = kload(b, b.param(0), 3);
        Reg mix = b.bin(BK::kAdd, pos, b.param(1));
        Reg flags = kload(b, b.param(0), 4);
        Reg tag = b.bin(BK::kOr, mix, flags);
        b.ret(tag);
    }
    { // dget(ino)
        FB b(m_, fn("dget"));
        Reg masked = b.binImm(BK::kAnd, b.param(0), L::kNumInodes - 1);
        Reg scaled = b.binImm(BK::kMul, masked, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg links = kload(b, ioff, 3);
        Reg n = b.binImm(BK::kAdd, links, 1);
        kstore(b, ioff, n, 3);
        b.ret(ioff);
    }
    { // step_into(parent, ino): permission check on path descent.
        FB b(m_, fn("step_into"));
        Reg mix = b.bin(BK::kXor, b.param(0), b.param(1));
        Reg h = emitAluChain(b, mix, 3);
        Reg ok = b.binImm(BK::kGe, h, 0);
        b.ret(ok);
    }
    { // alloc_fd() -> fd index or -1 (fds 0..2 reserved)
        FB b(m_, fn("alloc_fd"));
        Reg n = b.constI(L::kNumFds);
        countedLoop(b, n, [&](Reg i) {
            Reg lo = b.binImm(BK::kGe, i, 3);
            ifThen(b, lo, [&] {
                Reg scaled = b.binImm(BK::kMul, i, L::kFdSize);
                Reg off = b.binImm(BK::kAdd, scaled, L::kFdTable);
                Reg in_use = kload(b, off, 0);
                Reg free_slot = b.binImm(BK::kEq, in_use, 0);
                ifThen(b, free_slot, [&] {
                    Reg one = b.constI(1);
                    kstore(b, off, one, 0);
                    b.ret(i);
                });
            });
        });
        b.ret(b.constI(-1));
    }
    { // d_hash_probe(h) -> inode or -1
        FB b(m_, fn("d_hash_probe"));
        Reg n = b.constI(8);
        countedLoop(b, n, [&](Reg i) {
            Reg sum = b.bin(BK::kAdd, b.param(0), i);
            Reg slot = b.binImm(BK::kAnd, sum, L::kNumDentries - 1);
            Reg scaled = b.binImm(BK::kMul, slot, L::kDentrySize);
            Reg off = b.binImm(BK::kAdd, scaled, L::kDentryTable);
            Reg valid = kload(b, off, 3);
            Reg name = kload(b, off, 0);
            Reg name_eq = b.bin(BK::kEq, name, b.param(0));
            Reg hit = b.bin(BK::kAnd, valid, name_eq);
            ifThen(b, hit, [&] {
                Reg ino = kload(b, off, 1);
                b.ret(ino);
            });
        });
        b.ret(b.constI(-1));
    }
    { // d_insert(h, ino): linear-probe insert (boot path).
        FB b(m_, fn("d_insert"));
        Reg n = b.constI(16);
        countedLoop(b, n, [&](Reg i) {
            Reg sum = b.bin(BK::kAdd, b.param(0), i);
            Reg slot = b.binImm(BK::kAnd, sum, L::kNumDentries - 1);
            Reg scaled = b.binImm(BK::kMul, slot, L::kDentrySize);
            Reg off = b.binImm(BK::kAdd, scaled, L::kDentryTable);
            Reg valid = kload(b, off, 3);
            Reg free_slot = b.binImm(BK::kEq, valid, 0);
            ifThen(b, free_slot, [&] {
                kstore(b, off, b.param(0), 0);
                kstore(b, off, b.param(1), 1);
                Reg one = b.constI(1);
                kstore(b, off, one, 3);
                b.ret(b.constI(0));
            });
        });
        b.ret(b.constI(-1));
    }
    { // link_path_walk(path_hash): walk 4 components, resolving each
      // through the dentry cache with a permission check per step.
        FB b(m_, fn("link_path_walk"));
        useLocals(b, b.param(0), 3);
        Reg ino = b.newReg();
        b.setRegConst(ino, 0);
        for (int64_t c = 0; c < 4; ++c) {
            Reg salted = b.binImm(BK::kAdd, b.param(0), c * 131);
            Reg h = b.call(fn("k_hash"), {salted});
            Reg next = b.call(fn("d_hash_probe"), {h});
            Reg miss = b.binImm(BK::kLt, next, 0);
            ifThen(b, miss, [&] { b.ret(b.constI(-1)); });
            Reg perm = b.call(fn("step_into"), {ino, next});
            b.sink(perm);
            Reg d = b.call(fn("dget"), {next});
            b.sink(d);
            b.setReg(ino, next);
        }
        b.ret(ino);
    }
    { // path_lookup(path_hash) -> inode or -1
        FB b(m_, fn("path_lookup"));
        Reg ino = b.call(fn("link_path_walk"), {b.param(0)});
        b.ret(ino);
    }
    { // rw_verify_area(file, len)
        FB b(m_, fn("rw_verify_area"));
        Reg pos = kload(b, b.param(0), 3);
        Reg end = b.bin(BK::kAdd, pos, b.param(1));
        Reg neg = b.binImm(BK::kLt, end, 0);
        ifThen(b, neg, [&] { b.ret(b.constI(-1)); });
        Reg flags = kload(b, b.param(0), 4);
        Reg mix = b.bin(BK::kOr, flags, end);
        Reg ok = b.binImm(BK::kGe, mix, 0);
        b.ret(ok);
    }
    { // touch_atime(file)
        FB b(m_, fn("touch_atime"));
        Reg ino = kload(b, b.param(0), 2);
        Reg masked = b.binImm(BK::kAnd, ino, L::kNumInodes - 1);
        Reg scaled = b.binImm(BK::kMul, masked, L::kInodeSize);
        Reg off = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg j = kloadAbs(b, L::kJiffies);
        kstore(b, off, j, 4);
        b.ret(b.constI(0));
    }
    { // balance_dirty()
        FB b(m_, fn("balance_dirty"));
        Reg j = kloadAbs(b, L::kJiffies);
        Reg mixed = emitAluChain(b, j, 4);
        Reg high = b.binImm(BK::kGt, mixed, int64_t{1} << 62);
        ifThen(b, high, [&] {
            Reg one = b.constI(1);
            kstoreAbs(b, L::kNeedResched, one);
        });
        b.ret(b.constI(0));
    }
    { // vfs_read(file, ubuf, len)
        FB b(m_, fn("vfs_read"));
        useLocals(b, b.param(2), 2);
        Reg v = b.call(fn("rw_verify_area"), {b.param(0), b.param(2)});
        Reg bad = b.binImm(BK::kLt, v, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        Reg mask = b.constI(4);
        Reg sec = b.call(fn("sec_file_permission"), {b.param(0), mask});
        b.sink(sec);
        Reg iocb = b.call(fn("iocb_setup"), {b.param(0), b.param(2)});
        b.sink(iocb);
        Reg fs = kload(b, b.param(0), 1);
        Reg scaled = b.binImm(BK::kMul, fs, 8);
        Reg r = tableCall(b, fops_, scaled,
                          {b.param(0), b.param(1), b.param(2)});
        Reg at = b.call(fn("file_accessed"), {b.param(0)});
        b.sink(at);
        b.ret(r);
    }
    { // vfs_write(file, ubuf, len)
        FB b(m_, fn("vfs_write"));
        Reg v = b.call(fn("rw_verify_area"), {b.param(0), b.param(2)});
        Reg bad = b.binImm(BK::kLt, v, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        Reg mask = b.constI(2);
        Reg sec = b.call(fn("sec_file_permission"), {b.param(0), mask});
        b.sink(sec);
        Reg iocb = b.call(fn("iocb_setup"), {b.param(0), b.param(2)});
        b.sink(iocb);
        Reg fs = kload(b, b.param(0), 1);
        Reg scaled = b.binImm(BK::kMul, fs, 8);
        Reg slot = b.binImm(BK::kAdd, scaled, 1);
        Reg r = tableCall(b, fops_, slot,
                          {b.param(0), b.param(1), b.param(2)});
        Reg bd = b.call(fn("balance_dirty"), {});
        b.sink(bd);
        b.ret(r);
    }
    { // vfs_open(path_hash, flags) -> fd or -1
        FB b(m_, fn("vfs_open"));
        useLocals(b, b.param(0), 3);
        Reg ino = b.call(fn("path_lookup"), {b.param(0)});
        Reg miss = b.binImm(BK::kLt, ino, 0);
        ifThen(b, miss, [&] { b.ret(b.constI(-1)); });
        Reg fd = b.call(fn("get_unused_fd"), {});
        Reg full = b.binImm(BK::kLt, fd, 0);
        ifThen(b, full, [&] { b.ret(b.constI(-1)); });
        Reg scaled = b.binImm(BK::kMul, fd, L::kFdSize);
        Reg off = b.binImm(BK::kAdd, scaled, L::kFdTable);
        Reg masked = b.binImm(BK::kAnd, ino, L::kNumInodes - 1);
        Reg iscaled = b.binImm(BK::kMul, masked, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, iscaled, L::kInodeTable);
        Reg fs = kload(b, ioff, 0);
        kstore(b, off, fs, 1);
        kstore(b, off, masked, 2);
        Reg zero = b.constI(0);
        kstore(b, off, zero, 3);
        kstore(b, off, b.param(1), 4);
        kstore(b, off, zero, 5);
        kstore(b, off, zero, 6);
        Reg sec = b.call(fn("security_file_open"), {off, b.param(1)});
        b.sink(sec);
        Reg inst = b.call(fn("fd_install"), {fd, masked});
        b.sink(inst);
        Reg fscaled = b.binImm(BK::kMul, fs, 8);
        Reg slot = b.binImm(BK::kAdd, fscaled, 2);
        Reg r = tableCall(b, fops_, slot, {off, masked, b.param(1)});
        b.sink(r);
        b.ret(fd);
    }
    { // vfs_close(fd)
        FB b(m_, fn("vfs_close"));
        Reg file = b.call(fn("fd_lookup"), {b.param(0)});
        Reg bad = b.binImm(BK::kLt, file, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        Reg gen = kload(b, file, 7);
        Reg corrupt = b.binImm(BK::kGt, gen, int64_t{1} << 40);
        ifThen(b, corrupt, [&] {
            Reg r = b.call(fn("k_panic"), {gen});
            b.sink(r);
        });
        Reg flags = kload(b, file, 4);
        Reg slow = b.binImm(BK::kGt, flags, 1 << 20);
        ifThen(b, slow, [&] {
            Reg r = b.call(fn("fput_slow"), {file});
            b.sink(r);
        });
        Reg zero = b.constI(0);
        // Release the underlying object: kind 2 = pipe, 3 = socket.
        Reg kind = kload(b, file, 5);
        Reg is_sock = b.binImm(BK::kEq, kind, 3);
        ifThen(b, is_sock, [&] {
            Reg s = kload(b, file, 6);
            Reg smask = b.binImm(BK::kAnd, s, L::kNumSocks - 1);
            Reg sscaled = b.binImm(BK::kMul, smask, L::kSockSize);
            Reg soff = b.binImm(BK::kAdd, sscaled, L::kSockTable);
            kstore(b, soff, zero, 1); // state = free
        });
        Reg is_pipe = b.binImm(BK::kEq, kind, 2);
        ifThen(b, is_pipe, [&] {
            Reg p = kload(b, file, 6);
            Reg pmask = b.binImm(BK::kAnd, p, L::kNumPipes - 1);
            Reg pscaled = b.binImm(BK::kMul, pmask, L::kPipeSize);
            Reg poff = b.binImm(BK::kAdd, pscaled, L::kPipeTable);
            Reg readers = kload(b, poff, 2);
            Reg nr = b.binImm(BK::kSub, readers, 1);
            Reg clamped = b.newReg();
            Reg neg = b.binImm(BK::kLt, nr, 0);
            ifThenElse(b, neg, [&] { b.setRegConst(clamped, 0); },
                       [&] { b.setReg(clamped, nr); });
            kstore(b, poff, clamped, 2);
        });
        kstore(b, file, zero, 0);
        b.ret(zero);
    }
    { // fput_slow(file): deferred fput path (noinline).
        FB b(m_, fn("fput_slow"));
        Reg mixed = emitAluChain(b, b.param(0), 10);
        b.sink(mixed);
        b.ret(b.constI(0));
    }
    { // vfs_poll(file)
        FB b(m_, fn("vfs_poll"));
        Reg fs = kload(b, b.param(0), 1);
        Reg scaled = b.binImm(BK::kMul, fs, 8);
        Reg slot = b.binImm(BK::kAdd, scaled, 3);
        Reg zero = b.constI(0);
        Reg r = tableCall(b, fops_, slot, {b.param(0), zero, zero});
        b.ret(r);
    }
    { // vfs_stat(path_hash, ubuf)
        FB b(m_, fn("vfs_stat"));
        Reg ino = b.call(fn("path_lookup"), {b.param(0)});
        Reg miss = b.binImm(BK::kLt, ino, 0);
        ifThen(b, miss, [&] { b.ret(b.constI(-1)); });
        Reg masked = b.binImm(BK::kAnd, ino, L::kNumInodes - 1);
        Reg scaled = b.binImm(BK::kMul, masked, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg fs = kload(b, ioff, 0);
        Reg fscaled = b.binImm(BK::kMul, fs, 8);
        Reg slot = b.binImm(BK::kAdd, fscaled, 4);
        Reg zero = b.constI(0);
        Reg r = tableCall(b, fops_, slot, {ioff, b.param(1), zero});
        b.sink(r);
        Reg six = b.constI(6);
        Reg copied = b.call(fn("k_copy_to_user"),
                            {b.param(1), ioff, six});
        b.ret(copied);
    }
    { // vfs_fstat(fd, ubuf)
        FB b(m_, fn("vfs_fstat"));
        Reg file = b.call(fn("fd_lookup"), {b.param(0)});
        Reg bad = b.binImm(BK::kLt, file, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        Reg ino = kload(b, file, 2);
        Reg scaled = b.binImm(BK::kMul, ino, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg six = b.constI(6);
        Reg copied = b.call(fn("k_copy_to_user"),
                            {b.param(1), ioff, six});
        b.ret(copied);
    }
    { // vfs_lseek(fd, pos)
        FB b(m_, fn("vfs_lseek"));
        Reg file = b.call(fn("fd_lookup"), {b.param(0)});
        Reg bad = b.binImm(BK::kLt, file, 0);
        ifThen(b, bad, [&] { b.ret(b.constI(-1)); });
        kstore(b, file, b.param(1), 3);
        b.ret(b.param(1));
    }
    { // find_page(ino_off, idx) -> page index (radix-walk flavored)
        FB b(m_, fn("find_page"));
        Reg base = kload(b, b.param(0), 2);
        Reg mix = b.bin(BK::kAdd, base, b.param(1));
        Reg h = emitAluChain(b, mix, 3);
        Reg even = b.binImm(BK::kAnd, h, 1);
        Reg page = b.newReg();
        ifThenElse(b, even,
                   [&] {
                       Reg p = b.binImm(BK::kAnd, base,
                                        L::kNumPages - 1);
                       b.setReg(page, p);
                   },
                   [&] {
                       Reg p = b.binImm(BK::kAnd, base,
                                        L::kNumPages - 1);
                       b.setReg(page, p);
                   });
        b.ret(page);
    }
    { // generic_file_read(file, ubuf, len)
        FB b(m_, fn("generic_file_read"));
        useLocals(b, b.param(1), 2);
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        Reg ino = kload(b, b.param(0), 2);
        Reg scaled = b.binImm(BK::kMul, ino, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg pos = kload(b, b.param(0), 3);
        Reg pidx = b.binImm(BK::kShr, pos, 6);
        Reg page = b.call(fn("find_page"), {ioff, pidx});
        Reg acc = b.call(fn("mark_page_accessed"), {page});
        b.sink(acc);
        Reg pscaled = b.binImm(BK::kMul, page, L::kPageWords);
        Reg in_page = b.binImm(BK::kAnd, pos, 31);
        Reg src0 = b.binImm(BK::kAdd, pscaled, L::kPageCache);
        Reg src = b.bin(BK::kAdd, src0, in_page);
        Reg copied = b.call(fn("k_copy_to_user"),
                            {b.param(1), src, len});
        Reg npos = b.bin(BK::kAdd, pos, len);
        kstore(b, b.param(0), npos, 3);
        b.sink(copied);
        b.ret(len);
    }
    { // generic_file_write(file, ubuf, len)
        FB b(m_, fn("generic_file_write"));
        useLocals(b, b.param(1), 2);
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        Reg ino = kload(b, b.param(0), 2);
        Reg scaled = b.binImm(BK::kMul, ino, L::kInodeSize);
        Reg ioff = b.binImm(BK::kAdd, scaled, L::kInodeTable);
        Reg pos = kload(b, b.param(0), 3);
        Reg pidx = b.binImm(BK::kShr, pos, 6);
        Reg page = b.call(fn("find_page"), {ioff, pidx});
        Reg pscaled = b.binImm(BK::kMul, page, L::kPageWords);
        Reg in_page = b.binImm(BK::kAnd, pos, 31);
        Reg dst0 = b.binImm(BK::kAdd, pscaled, L::kPageCache);
        Reg dst = b.bin(BK::kAdd, dst0, in_page);
        Reg copied = b.call(fn("k_copy_from_user"),
                            {dst, b.param(1), len});
        b.sink(copied);
        Reg npos = b.bin(BK::kAdd, pos, len);
        kstore(b, b.param(0), npos, 3);
        Reg one = b.constI(1);
        kstore(b, ioff, one, 5); // mtime/dirty
        b.ret(len);
    }
}

// ---------------------------------------------------------------------
// Filesystems
// ---------------------------------------------------------------------

void
KernelBuilder::buildFilesystems()
{
    auto trivial_ret = [&](const std::string& name, int64_t value) {
        FB b(m_, fn(name));
        b.ret(b.constI(value));
    };

    // --- ramfs: thin wrappers over the generic layer ---
    {
        FB b(m_, fn("ramfs_read"));
        Reg r = b.call(fn("generic_file_read"),
                       {b.param(0), b.param(1), b.param(2)});
        b.ret(r);
    }
    {
        FB b(m_, fn("ramfs_write"));
        Reg r = b.call(fn("generic_file_write"),
                       {b.param(0), b.param(1), b.param(2)});
        b.ret(r);
    }
    {
        FB b(m_, fn("ramfs_open"));
        Reg zero = b.constI(0);
        kstore(b, b.param(0), zero, 7);
        b.ret(zero);
    }
    trivial_ret("ramfs_poll", 1);
    {
        FB b(m_, fn("ramfs_stat"));
        Reg size = kload(b, b.param(0), 1);
        b.ret(size);
    }

    // --- extfs: journaled wrappers ---
    {
        FB b(m_, fn("extfs_journal_check"));
        Reg mixed = emitAluChain(b, b.param(0), 6);
        Reg ok = b.binImm(BK::kGe, mixed, 0);
        b.ret(ok);
    }
    {
        FB b(m_, fn("extfs_journal_commit"));
        Reg mixed = emitAluChain(b, b.param(0), 8);
        kstoreAbs(b, L::kScalars + 10, mixed);
        b.ret(b.constI(0));
    }
    {
        FB b(m_, fn("extfs_read"));
        Reg c = b.call(fn("extfs_journal_check"), {b.param(0)});
        b.sink(c);
        Reg r = b.call(fn("generic_file_read"),
                       {b.param(0), b.param(1), b.param(2)});
        b.ret(r);
    }
    {
        FB b(m_, fn("extfs_write"));
        Reg c = b.call(fn("extfs_journal_check"), {b.param(0)});
        b.sink(c);
        Reg r = b.call(fn("generic_file_write"),
                       {b.param(0), b.param(1), b.param(2)});
        Reg j = b.call(fn("extfs_journal_commit"), {r});
        b.sink(j);
        b.ret(r);
    }
    {
        FB b(m_, fn("extfs_open"));
        Reg c = b.call(fn("extfs_journal_check"), {b.param(1)});
        b.sink(c);
        b.ret(b.constI(0));
    }
    trivial_ret("extfs_poll", 1);
    {
        FB b(m_, fn("extfs_stat"));
        Reg size = kload(b, b.param(0), 1);
        b.ret(size);
    }

    // --- procfs: generated content, no page cache ---
    {
        FB b(m_, fn("procfs_read"));
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        Reg j = kloadAbs(b, L::kJiffies);
        countedLoop(b, len, [&](Reg i) {
            Reg mix = b.bin(BK::kAdd, j, i);
            Reg v = b.call(fn("k_hash"), {mix});
            Reg uoff = b.bin(BK::kAdd, b.param(1), i);
            Reg masked = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            kstore(b, masked, v, L::kUserBase);
        });
        b.ret(len);
    }
    trivial_ret("procfs_write", -1); // read-only
    trivial_ret("procfs_open", 0);
    trivial_ret("procfs_poll", 1);
    {
        FB b(m_, fn("procfs_stat"));
        Reg j = kloadAbs(b, L::kJiffies);
        b.ret(j);
    }

    // --- devfs: /dev/zero-style ---
    {
        FB b(m_, fn("devfs_read"));
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        Reg zero = b.constI(0);
        countedLoop(b, len, [&](Reg i) {
            Reg uoff = b.bin(BK::kAdd, b.param(1), i);
            Reg masked = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            kstore(b, masked, zero, L::kUserBase);
        });
        b.ret(len);
    }
    {
        FB b(m_, fn("devfs_write"));
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        b.sink(len);
        b.ret(len); // /dev/null semantics
    }
    trivial_ret("devfs_open", 0);
    trivial_ret("devfs_poll", 1);
    trivial_ret("devfs_stat", 0);

    // --- sockfs: delegate to the socket layer ---
    auto sock_off_of_file = [&](FB& b, Reg file) {
        Reg s = kload(b, file, 6);
        Reg masked = b.binImm(BK::kAnd, s, L::kNumSocks - 1);
        Reg scaled = b.binImm(BK::kMul, masked, L::kSockSize);
        return b.binImm(BK::kAdd, scaled, L::kSockTable);
    };
    {
        FB b(m_, fn("sockfs_read"));
        Reg so = sock_off_of_file(b, b.param(0));
        Reg proto_reg = kload(b, so, 0);
        Reg scaled = b.binImm(BK::kMul, proto_reg, 8);
        Reg slot = b.binImm(BK::kAdd, scaled, 1);
        Reg r = tableCall(b, proto_ops_, slot,
                          {so, b.param(1), b.param(2)});
        b.ret(r);
    }
    {
        FB b(m_, fn("sockfs_write"));
        Reg so = sock_off_of_file(b, b.param(0));
        Reg proto_reg = kload(b, so, 0);
        Reg scaled = b.binImm(BK::kMul, proto_reg, 8);
        Reg r = tableCall(b, proto_ops_, scaled,
                          {so, b.param(1), b.param(2)});
        b.ret(r);
    }
    trivial_ret("sockfs_open", 0);
    {
        FB b(m_, fn("sockfs_poll"));
        Reg so = sock_off_of_file(b, b.param(0));
        Reg r = b.call(fn("sock_poll"), {so});
        b.ret(r);
    }
    trivial_ret("sockfs_stat", 0);

    // --- pipefs: delegate to the pipe layer ---
    auto pipe_off_of_file = [&](FB& b, Reg file) {
        Reg p = kload(b, file, 6);
        Reg masked = b.binImm(BK::kAnd, p, L::kNumPipes - 1);
        Reg scaled = b.binImm(BK::kMul, masked, L::kPipeSize);
        return b.binImm(BK::kAdd, scaled, L::kPipeTable);
    };
    {
        FB b(m_, fn("pipefs_read"));
        Reg po = pipe_off_of_file(b, b.param(0));
        Reg r = b.call(fn("pipe_read"), {po, b.param(1), b.param(2)});
        b.ret(r);
    }
    {
        FB b(m_, fn("pipefs_write"));
        Reg po = pipe_off_of_file(b, b.param(0));
        Reg r = b.call(fn("pipe_write"), {po, b.param(1), b.param(2)});
        b.ret(r);
    }
    trivial_ret("pipefs_open", 0);
    {
        FB b(m_, fn("pipefs_poll"));
        Reg po = pipe_off_of_file(b, b.param(0));
        Reg head = kload(b, po, 0);
        Reg tail = kload(b, po, 1);
        Reg r = b.bin(BK::kLt, head, tail);
        b.ret(r);
    }
    trivial_ret("pipefs_stat", 0);
}

// ---------------------------------------------------------------------
// Pipes
// ---------------------------------------------------------------------

void
KernelBuilder::buildPipes()
{
    { // pipe_alloc() -> pipe index or -1
        FB b(m_, fn("pipe_alloc"));
        Reg n = b.constI(L::kNumPipes);
        countedLoop(b, n, [&](Reg i) {
            Reg scaled = b.binImm(BK::kMul, i, L::kPipeSize);
            Reg off = b.binImm(BK::kAdd, scaled, L::kPipeTable);
            Reg readers = kload(b, off, 2);
            Reg free_slot = b.binImm(BK::kEq, readers, 0);
            ifThen(b, free_slot, [&] {
                Reg one = b.constI(1);
                kstore(b, off, one, 2);
                kstore(b, off, one, 3);
                Reg zero = b.constI(0);
                kstore(b, off, zero, 0);
                kstore(b, off, zero, 1);
                b.ret(i);
            });
        });
        b.ret(b.constI(-1));
    }
    { // pipe_read(pipe_off, ubuf, len)
        FB b(m_, fn("pipe_read"));
        Reg head = kload(b, b.param(0), 0);
        Reg tail = kload(b, b.param(0), 1);
        Reg avail = b.bin(BK::kSub, tail, head);
        Reg want = b.binImm(BK::kAnd, b.param(2), 31);
        Reg n = b.call(fn("k_min"), {want, avail});
        countedLoop(b, n, [&](Reg i) {
            Reg pos = b.bin(BK::kAdd, head, i);
            Reg slot = b.binImm(BK::kAnd, pos, L::kPipeBuf - 1);
            Reg idx = b.bin(BK::kAdd, b.param(0), slot);
            Reg v = kload(b, idx, 4);
            Reg uoff = b.bin(BK::kAdd, b.param(1), i);
            Reg masked = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            kstore(b, masked, v, L::kUserBase);
        });
        Reg nhead = b.bin(BK::kAdd, head, n);
        kstore(b, b.param(0), nhead, 0);
        Reg w = b.call(fn("pipe_wake"), {b.param(0)});
        b.sink(w);
        b.ret(n);
    }
    { // pipe_write(pipe_off, ubuf, len)
        FB b(m_, fn("pipe_write"));
        Reg tail = kload(b, b.param(0), 1);
        Reg len = b.binImm(BK::kAnd, b.param(2), 31);
        countedLoop(b, len, [&](Reg i) {
            Reg uoff = b.bin(BK::kAdd, b.param(1), i);
            Reg umask = b.binImm(BK::kAnd, uoff, L::kUserSize - 1);
            Reg v = kload(b, umask, L::kUserBase);
            Reg pos = b.bin(BK::kAdd, tail, i);
            Reg slot = b.binImm(BK::kAnd, pos, L::kPipeBuf - 1);
            Reg idx = b.bin(BK::kAdd, b.param(0), slot);
            kstore(b, idx, v, 4);
        });
        Reg ntail = b.bin(BK::kAdd, tail, len);
        kstore(b, b.param(0), ntail, 1);
        Reg w = b.call(fn("pipe_wake"), {b.param(0)});
        b.sink(w);
        b.ret(len);
    }
    { // pipe_wake(pipe_off)
        FB b(m_, fn("pipe_wake"));
        Reg head = kload(b, b.param(0), 0);
        Reg tail = kload(b, b.param(0), 1);
        Reg pressure = b.bin(BK::kSub, tail, head);
        Reg high = b.binImm(BK::kGt, pressure, L::kPipeBuf - 8);
        ifThen(b, high, [&] {
            Reg one = b.constI(1);
            kstoreAbs(b, L::kNeedResched, one);
        });
        b.ret(b.constI(0));
    }
}

KernelImage
buildKernel(const KernelConfig& config)
{
    KernelBuilder builder(config);
    return builder.build();
}

KernelInfoResult
tryKernelInfoFromModule(const ir::Module& module)
{
    KernelInfo info;
    info.sys_dispatch = module.findFunction(kSysDispatchName);
    info.kernel_init = module.findFunction(kKernelInitName);
    if (info.sys_dispatch == ir::kInvalidFunc ||
        info.kernel_init == ir::kInvalidFunc) {
        return {std::nullopt, "module is not a synthetic kernel "
                              "(missing sys_dispatch/kernel_init)"};
    }
    bool found_kmem = false;
    for (ir::GlobalId g = 0; g < module.numGlobals(); ++g) {
        if (module.global(g).name == kKmemName) {
            info.kmem = g;
            found_kmem = true;
        }
        if (module.global(g).name == kSyscallTableName)
            info.syscall_table = g;
    }
    if (!found_kmem)
        return {std::nullopt,
                "module is not a synthetic kernel (missing kmem)"};
    // Count driver modules by their work functions.
    uint32_t drivers = 0;
    while (module.findFunction("drv" + std::to_string(drivers) +
                               "_work") != ir::kInvalidFunc)
        ++drivers;
    info.num_drivers = drivers;
    return {info, {}};
}

KernelInfo
kernelInfoFromModule(const ir::Module& module)
{
    KernelInfoResult r = tryKernelInfoFromModule(module);
    if (!r.info)
        PIBE_FATAL(r.error);
    return *r.info;
}

} // namespace pibe::kernel
