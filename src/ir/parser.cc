#include "ir/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <unordered_map>
#include <vector>

#include "ir/printer.h"
#include "runtime/thread_pool.h"

namespace pibe::ir {

namespace {

/** A malformed input; thrown by LineCursor::fail, caught only by
 *  tryParseModule, so it never leaves this file. */
struct ParseError
{
    std::string message;
};

/** Cursor over one line of the caller's buffer. */
class LineCursor
{
  public:
    LineCursor(std::string_view line, size_t line_no)
        : line_(line), line_no_(line_no)
    {
    }

    void
    skipSpace()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ')
            ++pos_;
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos_ >= line_.size();
    }

    /** Consume `literal` if present; returns whether it was. Most
     *  calls fail on the first byte, so compare bytewise. */
    bool
    tryLiteral(std::string_view literal)
    {
        skipSpace();
        if (line_.size() - pos_ < literal.size())
            return false;
        for (size_t i = 0; i < literal.size(); ++i)
            if (line_[pos_ + i] != literal[i])
                return false;
        pos_ += literal.size();
        return true;
    }

    void
    expect(std::string_view literal)
    {
        if (!tryLiteral(literal))
            fail("expected '" + std::string(literal) + "'");
    }

    int64_t
    parseInt()
    {
        skipSpace();
        const size_t start = pos_;
        if (pos_ < line_.size() && line_[pos_] == '-')
            ++pos_;
        const size_t digits = pos_;
        while (pos_ < line_.size() && std::isdigit(
                                          static_cast<unsigned char>(
                                              line_[pos_])))
            ++pos_;
        const size_t end = pos_;
        pos_ = start; // point error messages at the literal
        if (end == digits)
            fail("expected integer");
        int64_t value = 0;
        if (std::from_chars(line_.data() + start, line_.data() + end,
                            value)
                .ec != std::errc())
            fail("integer out of range");
        pos_ = end;
        return value;
    }

    /** Parse "rN" or "_" (kNoReg). */
    Reg
    parseReg()
    {
        skipSpace();
        if (tryLiteral("_"))
            return kNoReg;
        expect("r");
        return static_cast<Reg>(parseInt());
    }

    /** Parse "bbN". */
    BlockId
    parseBlock()
    {
        expect("bb");
        return static_cast<BlockId>(parseInt());
    }

    /** Parse "@name"; the result views the input buffer. */
    std::string_view
    parseName()
    {
        expect("@");
        const size_t start = pos_;
        while (pos_ < line_.size()) {
            const char c = line_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_' || c == '.' || c == '$' || c == '-')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            fail("expected name after '@'");
        return line_.substr(start, pos_ - start);
    }

    /** Parse a bare word (letters, digits, '-', '_', '/'). */
    std::string_view
    parseWord()
    {
        skipSpace();
        const size_t start = pos_;
        while (pos_ < line_.size()) {
            const char c = line_[pos_];
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '-' || c == '_' || c == '/')
                ++pos_;
            else
                break;
        }
        if (pos_ == start)
            fail("expected word");
        return line_.substr(start, pos_ - start);
    }

    [[noreturn]] void
    fail(const std::string& what)
    {
        std::string msg = "PIR parse error at line ";
        msg += std::to_string(line_no_);
        msg += ": ";
        msg += what;
        msg += " near '";
        msg += line_.substr(pos_, 24);
        msg += "'";
        throw ParseError{std::move(msg)};
    }

  private:
    std::string_view line_;
    size_t line_no_;
    size_t pos_ = 0;
};

/** Call fn(line, line_no) for every '\n'-terminated line of `text`,
 *  numbering from `first_line`, the same split std::getline makes:
 *  the final line needs no '\n', and a trailing '\n' does not start
 *  an empty line. */
template <typename Fn>
void
forEachLine(std::string_view text, size_t first_line, Fn&& fn)
{
    size_t line_no = first_line - 1;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = text.size();
        fn(text.substr(pos, nl - pos), ++line_no);
        pos = nl + 1;
    }
}

/** Find the value in [first, last] that `name` prints as `word`. */
template <typename Enum>
bool
enumFromName(std::string_view word, Enum first, Enum last,
             const char* (*name)(Enum), Enum* out)
{
    for (int k = static_cast<int>(first); k <= static_cast<int>(last);
         ++k) {
        if (word == name(static_cast<Enum>(k))) {
            *out = static_cast<Enum>(k);
            return true;
        }
    }
    return false;
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Least bytes per chunk of the classification pass; a chunk ends
 *  where a `func` line begins. */
constexpr size_t kChunkBytes = size_t{256} << 10;

/**
 * Text bytes per helper of the classification pass, which runs before
 * the instructions are counted: 32 bytes for each of kInstsPerHelper
 * instruction lines (printed ones average about 22), so a module below
 * the body pass's grain classifies on the caller too.
 */
constexpr size_t kBytesPerHelper = runtime::kInstsPerHelper * 32;

/**
 * What the classification pass learns from one chunk: whole segments
 * (below), so no function or block spans two chunks.
 */
struct Chunk
{
    /** A `global` or `func` line, numbered within the chunk. */
    struct Header
    {
        std::string_view line;
        size_t line_no;
        bool is_func;
    };
    std::string_view text;
    size_t lines = 0;
    std::vector<Header> headers;
    /** Block labels after each of the chunk's `func` lines. */
    std::vector<uint32_t> func_blocks;
    /** Instruction lines after each of the chunk's block labels. */
    std::vector<uint32_t> block_insts;
    /** Labels before the text's first `func` line (each an error). */
    uint32_t orphan_blocks = 0;
};

/**
 * The lines from one `func` line up to the next (segment k + 1 is
 * function k's), or those before the first (segment 0). The body pass
 * parses each on its own.
 */
struct Segment
{
    std::string_view text;
    size_t first_line = 1;
    /** The function its `func` line declares; none for segment 0. */
    FuncId func = kInvalidFunc;
    SiteId max_site = 0;
    /** Its first parse error, if any. */
    std::string error;
};

/**
 * Two passes over the caller's buffer, each on runtime::parallelFor.
 * The classification pass sorts lines into headers, labels and
 * instructions chunk by chunk, counting blocks per function and
 * instructions per block. The caller then applies the `global` and
 * `func` headers in line order, so bodies may reference names declared
 * later, and sizes every function body. The body pass parses each
 * segment's instructions in place into those vectors; the first error
 * in line order is the one reported.
 */
class ModuleParser
{
  public:
    explicit ModuleParser(std::string_view text) : text_(text) {}

    Module
    run()
    {
        declare(classify());
        sizeBodies();
        sweep(segments_.size(), 1, insts_ / runtime::kInstsPerHelper,
              [this](size_t s) { parseSegment(segments_[s]); });
        SiteId max_site = 0;
        for (const Segment& seg : segments_) {
            if (!seg.error.empty())
                throw ParseError{seg.error};
            max_site = std::max(max_site, seg.max_site);
        }
        module_.reserveSiteIds(max_site + 1);
        return std::move(module_);
    }

    /** What the parallelFor sweeps so far added to the work beyond
     *  their wall time. */
    double sweepExtraMs() const { return sweep_extra_ms_; }

  private:
    /** parallelFor over [0, n), one `fn(i)` per index. */
    template <typename Fn>
    void
    sweep(size_t n, size_t grain, size_t helpers, Fn fn)
    {
        const auto t0 = std::chrono::steady_clock::now();
        const double work = runtime::parallelFor(
            n, grain, helpers, [&fn](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    fn(i);
            });
        sweep_extra_ms_ += work - msSince(t0);
    }

    /** Classification pass: split the text into chunks of whole
     *  segments and classify them in parallel. */
    std::vector<Chunk>
    classify()
    {
        // The start of the line after the one holding `pos`.
        auto nextLine = [this](size_t pos) {
            return std::min(text_.find('\n', pos), text_.size() - 1) + 1;
        };
        std::vector<Chunk> chunks;
        for (size_t begin = 0; begin < text_.size();) {
            size_t end = std::min(begin + kChunkBytes, text_.size());
            if (text_[end - 1] != '\n')
                end = nextLine(end);
            // `tryLiteral` stops at the line's end: "func " has no '\n'.
            while (end < text_.size() &&
                   !LineCursor(text_.substr(end), 0).tryLiteral("func "))
                end = nextLine(end);
            chunks.emplace_back().text = text_.substr(begin, end - begin);
            begin = end;
        }
        sweep(chunks.size(), 1, text_.size() / kBytesPerHelper,
              [&chunks](size_t c) { classifyChunk(chunks[c]); });
        return chunks;
    }

    /** A line counts as a header, label or instruction exactly when
     *  the body pass will treat it as one. */
    static void
    classifyChunk(Chunk& c)
    {
        bool in_block = false;
        forEachLine(c.text, 1, [&](std::string_view line, size_t no) {
            c.lines = no;
            LineCursor cur(line, no);
            if (cur.tryLiteral("global ")) {
                c.headers.push_back({line, no, false});
            } else if (cur.tryLiteral("func ")) {
                c.headers.push_back({line, no, true});
                c.func_blocks.push_back(0);
                in_block = false;
            } else if (line.empty()) {
                // Skipped by the body pass, like any global line.
            } else if (cur.tryLiteral("}")) {
                in_block = false;
            } else if (cur.tryLiteral("bb")) {
                ++(c.func_blocks.empty() ? c.orphan_blocks
                                         : c.func_blocks.back());
                c.block_insts.push_back(0);
                in_block = true;
            } else if (in_block) {
                ++c.block_insts.back();
            }
        });
    }

    /** Apply the headers in line order, open a segment at each `func`
     *  line, and join the chunks' counts. */
    void
    declare(const std::vector<Chunk>& chunks)
    {
        segments_.emplace_back();
        size_t line_base = 0;
        for (const Chunk& c : chunks) {
            for (const Chunk::Header& h : c.headers) {
                LineCursor cur(h.line, line_base + h.line_no);
                if (!h.is_func) {
                    cur.expect("global ");
                    declareGlobal(cur);
                    continue;
                }
                cur.expect("func ");
                Segment& seg = segments_.emplace_back();
                seg.first_line = line_base + h.line_no;
                seg.func = declareFunction(cur);
                seg.text = text_.substr(
                    static_cast<size_t>(h.line.data() - text_.data()));
            }
            line_base += c.lines;
            orphan_blocks_ += c.orphan_blocks;
            blocks_per_func_.insert(blocks_per_func_.end(),
                                    c.func_blocks.begin(),
                                    c.func_blocks.end());
            insts_per_block_.insert(insts_per_block_.end(),
                                    c.block_insts.begin(),
                                    c.block_insts.end());
        }
        // Each segment ends where the next begins.
        segments_[0].text = text_;
        for (size_t s = 0; s + 1 < segments_.size(); ++s)
            segments_[s].text.remove_suffix(segments_[s + 1].text.size());
    }

    /**
     * Size every function body on the calling thread, so the block and
     * instruction arrays come from its malloc arena whichever thread
     * fills them (see runtime::kInstsPerHelper).
     */
    void
    sizeBodies()
    {
        size_t block = orphan_blocks_;
        for (size_t k = 0; k < blocks_per_func_.size(); ++k) {
            Function& f = module_.func(static_cast<FuncId>(k));
            f.blocks.resize(blocks_per_func_[k]);
            for (BasicBlock& bb : f.blocks) {
                bb.insts.reserve(insts_per_block_[block]);
                insts_ += insts_per_block_[block++];
            }
        }
    }

    void
    declareGlobal(LineCursor& cur)
    {
        const std::string_view name = cur.parseName();
        cur.expect("[");
        const int64_t size = cur.parseInt();
        cur.expect("]");
        if (size < 0)
            cur.fail("negative global size");
        if (size > kMaxGlobalSlots)
            cur.fail("global size exceeds " +
                     std::to_string(kMaxGlobalSlots) + " slots");
        std::vector<int64_t> init(static_cast<size_t>(size), 0);
        if (cur.tryLiteral("{")) {
            while (true) {
                const int64_t idx = cur.parseInt();
                cur.expect(":");
                const int64_t value = cur.parseInt();
                if (idx < 0 || idx >= size)
                    cur.fail("initializer index out of range");
                init[static_cast<size_t>(idx)] = value;
                if (cur.tryLiteral(","))
                    continue;
                cur.expect("}");
                break;
            }
        }
        // Checked once the line has parsed, so a malformed line reports
        // its syntax error first.
        if (!globals_.emplace(name, module_.numGlobals()).second)
            cur.fail("duplicate global '@" + std::string(name) + "'");
        module_.addGlobal(std::string(name), std::move(init));
    }

    FuncId
    declareFunction(LineCursor& cur)
    {
        const std::string_view name = cur.parseName();
        cur.expect("(params=");
        const int64_t params = cur.parseInt();
        cur.expect(", regs=");
        const int64_t regs = cur.parseInt();
        cur.expect(", frame=");
        const int64_t frame = cur.parseInt();
        cur.expect(")");
        uint32_t attrs = kAttrNone;
        while (!cur.tryLiteral("{")) {
            const std::string_view word = cur.parseWord();
            if (word == "noinline")
                attrs |= kAttrNoInline;
            else if (word == "optnone")
                attrs |= kAttrOptNone;
            else if (word == "boot")
                attrs |= kAttrBootSection;
            else if (word == "external")
                attrs |= kAttrExternal;
            else
                cur.fail("unknown function attribute '" +
                         std::string(word) + "'");
        }
        if (!funcs_.emplace(name, module_.numFunctions()).second)
            cur.fail("duplicate function '@" + std::string(name) + "'");
        const FuncId id = module_.addFunction(
            std::string(name), static_cast<uint32_t>(params), attrs);
        Function& f = module_.func(id);
        f.num_regs = static_cast<uint32_t>(regs);
        f.frame_size = static_cast<uint32_t>(frame);
        return id;
    }

    /** Body pass over one segment. Its first error ends it and is
     *  kept, not thrown, so each segment reports its own. */
    void
    parseSegment(Segment& seg)
    {
        Function* current = nullptr;
        size_t blocks = 0; // labels parsed in `current`
        OperandPool lists; // one call's or switch's list, reused
        try {
            forEachLine(seg.text, seg.first_line,
                        [&](std::string_view line, size_t line_no) {
                if (line.empty())
                    return;
                LineCursor cur(line, line_no);
                if (cur.tryLiteral("global "))
                    return;
                if (cur.tryLiteral("func ")) {
                    current = &module_.func(seg.func);
                    return;
                }
                if (cur.tryLiteral("}")) {
                    current = nullptr;
                    return;
                }
                if (!current)
                    cur.fail("instruction outside function");
                if (cur.tryLiteral("bb")) {
                    const int64_t id = cur.parseInt();
                    cur.expect(":");
                    if (id != static_cast<int64_t>(blocks))
                        cur.fail("non-sequential block id");
                    ++blocks;
                    return;
                }
                if (blocks == 0)
                    cur.fail("instruction before first block label");
                parseInstruction(
                    cur, *current,
                    current->blocks[blocks - 1].insts.emplace_back(),
                    lists, seg.max_site);
            });
        } catch (ParseError& e) {
            seg.error = std::move(e.message);
        }
    }

    /** Trailing annotations: !asm, !<scheme>, !site N. */
    void
    parseAnnotations(LineCursor& cur, Instruction& inst,
                     SiteId& max_site) const
    {
        while (cur.tryLiteral("!")) {
            if (cur.tryLiteral("site")) {
                inst.site_id = static_cast<SiteId>(cur.parseInt());
                if (inst.site_id != kNoSite && inst.site_id > max_site)
                    max_site = inst.site_id;
                continue;
            }
            const std::string_view word = cur.parseWord();
            FwdScheme fwd;
            RetScheme ret;
            // Annotation words name every scheme except "none".
            if (word == "asm")
                inst.is_asm = true;
            else if (enumFromName(word, FwdScheme::kRetpoline,
                                  FwdScheme::kJumpSwitch, fwdSchemeName,
                                  &fwd))
                inst.fwd_scheme = fwd;
            else if (enumFromName(word, RetScheme::kReturnRetpoline,
                                  RetScheme::kFencedRet, retSchemeName,
                                  &ret))
                inst.ret_scheme = ret;
            else
                cur.fail("unknown annotation '!" + std::string(word) +
                         "'");
        }
        if (!cur.atEnd())
            cur.fail("trailing tokens");
    }

    /** Parse "(rA, rB, ...)" into `args` (cleared first). */
    static void
    parseArgList(LineCursor& cur, std::vector<Reg>& args)
    {
        args.clear();
        cur.expect("(");
        if (cur.tryLiteral(")"))
            return;
        while (true) {
            args.push_back(cur.parseReg());
            if (cur.tryLiteral(","))
                continue;
            cur.expect(")");
            break;
        }
    }

    FuncId
    resolveFunc(LineCursor& cur) const
    {
        const std::string_view name = cur.parseName();
        auto it = funcs_.find(name);
        if (it == funcs_.end())
            cur.fail("unknown function '@" + std::string(name) + "'");
        return it->second;
    }

    GlobalId
    resolveGlobal(LineCursor& cur) const
    {
        const std::string_view name = cur.parseName();
        auto it = globals_.find(name);
        if (it == globals_.end())
            cur.fail("unknown global '@" + std::string(name) + "'");
        return it->second;
    }

    void
    parseInstruction(LineCursor& cur, Function& f, Instruction& inst,
                     OperandPool& lists, SiteId& max_site) const
    {
        // Destination-less forms first.
        if (cur.tryLiteral("store ")) {
            inst.op = Opcode::kStore;
            inst.global = resolveGlobal(cur);
            cur.expect("[");
            inst.a = cur.parseReg();
            cur.expect("+");
            inst.imm = cur.parseInt();
            cur.expect("]");
            cur.expect("=");
            inst.b = cur.parseReg();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("frame[")) {
            inst.op = Opcode::kFrameStore;
            inst.imm = cur.parseInt();
            cur.expect("]");
            cur.expect("=");
            inst.a = cur.parseReg();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("sink ")) {
            inst.op = Opcode::kSink;
            inst.a = cur.parseReg();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("ret")) {
            inst.op = Opcode::kRet;
            inst.a = kNoReg;
            LineCursor probe = cur; // value is optional
            if (!probe.atEnd() && !probe.tryLiteral("!"))
                inst.a = cur.parseReg();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("br ")) {
            inst.op = Opcode::kBr;
            inst.t0 = cur.parseBlock();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("condbr ")) {
            inst.op = Opcode::kCondBr;
            inst.a = cur.parseReg();
            cur.expect(",");
            inst.t0 = cur.parseBlock();
            cur.expect(",");
            inst.t1 = cur.parseBlock();
            parseAnnotations(cur, inst, max_site);
            return;
        }
        if (cur.tryLiteral("switch ")) {
            inst.op = Opcode::kSwitch;
            inst.a = cur.parseReg();
            cur.expect("default");
            inst.t0 = cur.parseBlock();
            lists.cases.clear();
            while (cur.tryLiteral(",")) {
                SwitchCase& c = lists.cases.emplace_back();
                c.value = cur.parseInt();
                cur.expect("->");
                c.target = cur.parseBlock();
            }
            f.setCases(inst, lists.cases);
            parseAnnotations(cur, inst, max_site);
            return;
        }

        // "rD = ..." / "_ = ..." forms.
        inst.dst = cur.parseReg();
        cur.expect("=");
        if (cur.tryLiteral("const ")) {
            inst.op = Opcode::kConst;
            inst.imm = cur.parseInt();
        } else if (cur.tryLiteral("move ")) {
            inst.op = Opcode::kMove;
            inst.a = cur.parseReg();
        } else if (cur.tryLiteral("funcaddr ")) {
            inst.op = Opcode::kFuncAddr;
            inst.callee = resolveFunc(cur);
        } else if (cur.tryLiteral("load ")) {
            inst.op = Opcode::kLoad;
            inst.global = resolveGlobal(cur);
            cur.expect("[");
            inst.a = cur.parseReg();
            cur.expect("+");
            inst.imm = cur.parseInt();
            cur.expect("]");
        } else if (cur.tryLiteral("frame[")) {
            inst.op = Opcode::kFrameLoad;
            inst.imm = cur.parseInt();
            cur.expect("]");
        } else if (cur.tryLiteral("call ")) {
            inst.op = Opcode::kCall;
            inst.callee = resolveFunc(cur);
            parseArgList(cur, lists.args);
            f.setArgs(inst, lists.args);
        } else if (cur.tryLiteral("icall ")) {
            inst.op = Opcode::kICall;
            inst.a = cur.parseReg();
            parseArgList(cur, lists.args);
            f.setArgs(inst, lists.args);
        } else {
            const std::string_view word = cur.parseWord();
            BinKind kind;
            if (!enumFromName(word, BinKind::kAdd, BinKind::kGe,
                              binKindName, &kind))
                cur.fail("unknown opcode '" + std::string(word) + "'");
            inst.op = Opcode::kBinOp;
            inst.bin = kind;
            inst.a = cur.parseReg();
            cur.expect(",");
            inst.b = cur.parseReg();
        }
        parseAnnotations(cur, inst, max_site);
    }

    std::string_view text_;
    Module module_;
    /** Name -> id, keyed into the input buffer; read-only once the
     *  headers are applied. */
    std::unordered_map<std::string_view, FuncId> funcs_;
    std::unordered_map<std::string_view, GlobalId> globals_;
    std::vector<Segment> segments_;
    /** Size hints from the classification pass, in line order. */
    std::vector<uint32_t> blocks_per_func_;
    std::vector<uint32_t> insts_per_block_;
    /** Labels before the first function (each one an error). */
    uint32_t orphan_blocks_ = 0;
    uint64_t insts_ = 0;
    double sweep_extra_ms_ = 0;
};

} // namespace

ParseResult
tryParseModule(std::string_view text)
{
    const auto t0 = std::chrono::steady_clock::now();
    ModuleParser parser(text);
    ParseResult result;
    try {
        result.module = parser.run();
    } catch (ParseError& e) {
        result.error = std::move(e.message);
    }
    result.work_ms = msSince(t0) + parser.sweepExtraMs();
    return result;
}

Module
parseModule(std::string_view text)
{
    ParseResult parsed = tryParseModule(text);
    if (!parsed.module)
        PIBE_FATAL(parsed.error);
    return std::move(*parsed.module);
}

} // namespace pibe::ir
