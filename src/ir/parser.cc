#include "ir/parser.h"

#include <cctype>
#include <charconv>
#include <unordered_map>
#include <vector>

#include "ir/printer.h"

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
 *  the same split std::getline makes: the final line needs no '\n',
 *  and a trailing '\n' does not start an empty line. */
template <typename Fn>
void
forEachLine(std::string_view text, Fn&& fn)
{
    size_t line_no = 0;
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

/**
 * Two passes over the caller's buffer. The declaration pass creates
 * every global and function shell (so bodies may reference names
 * declared later) and counts blocks per function and instructions per
 * block; the body pass then parses each instruction in place into a
 * vector already sized for it.
 */
class ModuleParser
{
  public:
    explicit ModuleParser(std::string_view text) : text_(text) {}

    Module
    run()
    {
        forEachLine(text_, [this](std::string_view line, size_t no) {
            declareLine(line, no);
        });
        forEachLine(text_, [this](std::string_view line, size_t no) {
            bodyLine(line, no);
        });
        module_.reserveSiteIds(max_site_ + 1);
        return std::move(module_);
    }

  private:
    /** Declaration pass: globals, function shells, and size hints. A
     *  line counts as a label or an instruction exactly when the body
     *  pass will treat it as one. */
    void
    declareLine(std::string_view line, size_t line_no)
    {
        LineCursor cur(line, line_no);
        if (cur.tryLiteral("global ")) {
            declareGlobal(cur);
        } else if (cur.tryLiteral("func ")) {
            declareFunction(cur);
            blocks_per_func_.push_back(0);
            in_block_ = false;
        } else if (line.empty()) {
            // Skipped by the body pass, like any global line.
        } else if (cur.tryLiteral("}")) {
            in_block_ = false;
        } else if (cur.tryLiteral("bb")) {
            if (!blocks_per_func_.empty())
                ++blocks_per_func_.back();
            insts_per_block_.push_back(0);
            in_block_ = true;
        } else if (in_block_) {
            ++insts_per_block_.back();
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

    void
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
    }

    /** Body pass: parse function bodies now that every name resolves. */
    void
    bodyLine(std::string_view line, size_t line_no)
    {
        if (line.empty())
            return;
        LineCursor cur(line, line_no);
        if (cur.tryLiteral("global "))
            return;
        if (cur.tryLiteral("func ")) {
            current_ = &module_.func(funcs_.at(cur.parseName()));
            current_->blocks.reserve(blocks_per_func_[next_func_++]);
            return;
        }
        if (cur.tryLiteral("}")) {
            current_ = nullptr;
            return;
        }
        if (!current_)
            cur.fail("instruction outside function");
        if (cur.tryLiteral("bb")) {
            const int64_t id = cur.parseInt();
            cur.expect(":");
            if (id != static_cast<int64_t>(current_->blocks.size()))
                cur.fail("non-sequential block id");
            current_->blocks.emplace_back().insts.reserve(
                insts_per_block_[next_block_++]);
            return;
        }
        if (current_->blocks.empty())
            cur.fail("instruction before first block label");
        parseInstruction(cur,
                         current_->blocks.back().insts.emplace_back());
    }

    /** Trailing annotations: !asm, !<scheme>, !site N. */
    void
    parseAnnotations(LineCursor& cur, Instruction& inst)
    {
        while (cur.tryLiteral("!")) {
            if (cur.tryLiteral("site")) {
                inst.site_id = static_cast<SiteId>(cur.parseInt());
                if (inst.site_id != kNoSite && inst.site_id > max_site_)
                    max_site_ = inst.site_id;
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

    void
    parseArgList(LineCursor& cur, std::vector<Reg>& args)
    {
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
    resolveFunc(LineCursor& cur)
    {
        const std::string_view name = cur.parseName();
        auto it = funcs_.find(name);
        if (it == funcs_.end())
            cur.fail("unknown function '@" + std::string(name) + "'");
        return it->second;
    }

    GlobalId
    resolveGlobal(LineCursor& cur)
    {
        const std::string_view name = cur.parseName();
        auto it = globals_.find(name);
        if (it == globals_.end())
            cur.fail("unknown global '@" + std::string(name) + "'");
        return it->second;
    }

    void
    parseInstruction(LineCursor& cur, Instruction& inst)
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
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("frame[")) {
            inst.op = Opcode::kFrameStore;
            inst.imm = cur.parseInt();
            cur.expect("]");
            cur.expect("=");
            inst.a = cur.parseReg();
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("sink ")) {
            inst.op = Opcode::kSink;
            inst.a = cur.parseReg();
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("ret")) {
            inst.op = Opcode::kRet;
            inst.a = kNoReg;
            LineCursor probe = cur; // value is optional
            if (!probe.atEnd() && !probe.tryLiteral("!"))
                inst.a = cur.parseReg();
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("br ")) {
            inst.op = Opcode::kBr;
            inst.t0 = cur.parseBlock();
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("condbr ")) {
            inst.op = Opcode::kCondBr;
            inst.a = cur.parseReg();
            cur.expect(",");
            inst.t0 = cur.parseBlock();
            cur.expect(",");
            inst.t1 = cur.parseBlock();
            parseAnnotations(cur, inst);
            return;
        }
        if (cur.tryLiteral("switch ")) {
            inst.op = Opcode::kSwitch;
            inst.a = cur.parseReg();
            cur.expect("default");
            inst.t0 = cur.parseBlock();
            while (cur.tryLiteral(",")) {
                inst.case_values.push_back(cur.parseInt());
                cur.expect("->");
                inst.case_targets.push_back(cur.parseBlock());
            }
            parseAnnotations(cur, inst);
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
            parseArgList(cur, inst.args);
        } else if (cur.tryLiteral("icall ")) {
            inst.op = Opcode::kICall;
            inst.a = cur.parseReg();
            parseArgList(cur, inst.args);
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
        parseAnnotations(cur, inst);
    }

    std::string_view text_;
    Module module_;
    SiteId max_site_ = 0;
    /** Name → id, keyed into the input buffer. */
    std::unordered_map<std::string_view, FuncId> funcs_;
    std::unordered_map<std::string_view, GlobalId> globals_;
    /** Size hints from the declaration pass, consumed in order. */
    std::vector<uint32_t> blocks_per_func_;
    std::vector<uint32_t> insts_per_block_;
    bool in_block_ = false;
    size_t next_func_ = 0;
    size_t next_block_ = 0;
    Function* current_ = nullptr;
};

} // namespace

ParseResult
tryParseModule(std::string_view text)
{
    try {
        return {ModuleParser(text).run(), {}};
    } catch (ParseError& e) {
        return {std::nullopt, std::move(e.message)};
    }
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
