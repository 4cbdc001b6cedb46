#include "profile/serialize.h"

#include <sstream>

#include "support/logging.h"

namespace pibe::profile {

std::string
serializeProfile(const ir::Module& module, const EdgeProfile& profile)
{
    std::ostringstream os;
    os << "pibe-profile v1\n";
    for (const auto& [site, count] : profile.directSites())
        os << "D " << site << " " << count << "\n";
    for (const auto& [site, targets] : profile.indirectSites()) {
        for (const auto& [target, count] : targets) {
            os << "I " << site << " " << module.func(target).name << " "
               << count << "\n";
        }
    }
    for (ir::FuncId f = 0; f < module.numFunctions(); ++f) {
        uint64_t inv = profile.invocations(f);
        if (inv > 0)
            os << "F " << module.func(f).name << " " << inv << "\n";
    }
    return os.str();
}

LiftResult
tryLiftProfile(const ir::Module& module, const std::string& text)
{
    using detail::concat;
    LiftResult result;
    EdgeProfile profile;
    std::istringstream is(text);
    std::string header;
    if (!std::getline(is, header) || header != "pibe-profile v1") {
        result.error = concat("bad profile header: '", header, "'");
        return result;
    }

    size_t drop_count = 0;
    std::string line;
    size_t line_no = 1;
    const auto bad_line = [&] {
        result.error = concat("bad profile line ", line_no, ": ", line);
        return result;
    };
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        char kind = 0;
        ls >> kind;
        if (kind == 'D') {
            ir::SiteId site;
            uint64_t count;
            if (!(ls >> site >> count))
                return bad_line();
            profile.addDirect(site, count);
        } else if (kind == 'I') {
            ir::SiteId site;
            std::string name;
            uint64_t count;
            if (!(ls >> site >> name >> count))
                return bad_line();
            ir::FuncId target = module.findFunction(name);
            if (target == ir::kInvalidFunc) {
                ++drop_count;
                continue;
            }
            profile.addIndirect(site, target, count);
        } else if (kind == 'F') {
            std::string name;
            uint64_t count;
            if (!(ls >> name >> count))
                return bad_line();
            ir::FuncId f = module.findFunction(name);
            if (f == ir::kInvalidFunc) {
                ++drop_count;
                continue;
            }
            profile.addInvocation(f, count);
        } else {
            result.error = concat("bad profile record kind '", kind,
                                  "' at line ", line_no);
            return result;
        }
    }
    if (drop_count > 0) {
        warn("liftProfile: dropped ", drop_count,
             " unresolvable profile entries");
    }
    result.profile = std::move(profile);
    result.dropped = drop_count;
    return result;
}

EdgeProfile
liftProfile(const ir::Module& module, const std::string& text,
            size_t* dropped)
{
    LiftResult r = tryLiftProfile(module, text);
    if (!r.profile)
        PIBE_FATAL(r.error);
    if (dropped)
        *dropped = r.dropped;
    return std::move(*r.profile);
}

} // namespace pibe::profile
