#include "trace/trace_text.hpp"

#include <istream>
#include <ostream>
#include <sstream>

namespace sipre
{

namespace
{

InstClass
classFromName(const std::string &name, bool *ok)
{
    *ok = true;
    for (int c = 0; c < static_cast<int>(InstClass::kNumClasses); ++c) {
        const auto cls = static_cast<InstClass>(c);
        if (instClassName(cls) == name)
            return cls;
    }
    *ok = false;
    return InstClass::kAlu;
}

} // namespace

void
writeTraceText(const Trace &trace, std::ostream &os)
{
    os << "# sipre trace: " << trace.name() << " seed " << trace.seed()
       << " instructions " << trace.size() << "\n";
    os << std::hex;
    for (const auto &inst : trace) {
        os << inst.pc << ' ' << instClassName(inst.cls);
        if (inst.addrKind() == AddrKind::kTarget)
            os << " t=" << inst.addr;
        else if (inst.addrKind() == AddrKind::kEffective)
            os << " m=" << inst.addr;
        if (inst.taken)
            os << " taken";
        os << std::dec;
        if (inst.dst != kNoReg)
            os << " d=" << unsigned{inst.dst};
        if (inst.src[0] != kNoReg) {
            os << " s=" << unsigned{inst.src[0]};
            if (inst.src[1] != kNoReg)
                os << ',' << unsigned{inst.src[1]};
        }
        os << std::hex << '\n';
    }
    os << std::dec;
}

bool
readTraceText(std::istream &is, Trace &trace, std::string *error)
{
    trace.clear();
    std::string line;
    std::size_t line_no = 0;
    auto fail = [&](const std::string &what) {
        if (error) {
            std::ostringstream oss;
            oss << "line " << line_no << ": " << what;
            *error = oss.str();
        }
        return false;
    };

    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        TraceInstruction inst;

        std::string pc_str, cls_str;
        if (!(ls >> pc_str >> cls_str))
            return fail("expected '<pc> <class>'");
        try {
            inst.pc = std::stoull(pc_str, nullptr, 16);
        } catch (...) {
            return fail("bad pc '" + pc_str + "'");
        }
        bool ok = false;
        inst.cls = classFromName(cls_str, &ok);
        if (!ok)
            return fail("unknown class '" + cls_str + "'");

        std::string token;
        while (ls >> token) {
            try {
                const bool is_target = token.rfind("t=", 0) == 0;
                if (is_target || token.rfind("m=", 0) == 0) {
                    const AddrKind kind = is_target ? AddrKind::kTarget
                                                    : AddrKind::kEffective;
                    if (inst.addrKind() != kind) {
                        return fail("class '" + cls_str +
                                    "' takes no " + token.substr(0, 2) +
                                    " address");
                    }
                    inst.addr = std::stoull(token.substr(2), nullptr, 16);
                } else if (token == "taken") {
                    inst.taken = true;
                } else if (token.rfind("d=", 0) == 0) {
                    inst.dst = static_cast<RegId>(
                        std::stoul(token.substr(2), nullptr, 10));
                } else if (token.rfind("s=", 0) == 0) {
                    const std::string regs = token.substr(2);
                    const auto comma = regs.find(',');
                    inst.src[0] = static_cast<RegId>(
                        std::stoul(regs.substr(0, comma), nullptr, 10));
                    if (comma != std::string::npos) {
                        inst.src[1] = static_cast<RegId>(std::stoul(
                            regs.substr(comma + 1), nullptr, 10));
                    }
                } else {
                    return fail("unknown token '" + token + "'");
                }
            } catch (...) {
                return fail("bad value in token '" + token + "'");
            }
        }
        trace.append(inst);
    }
    if (error)
        error->clear();
    return true;
}

} // namespace sipre
