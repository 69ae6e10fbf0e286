#include "runner/trace_import.hh"

#include <array>
#include <cctype>
#include <istream>
#include <stdexcept>
#include <unordered_map>

namespace ppm {

namespace {

[[noreturn]] void
parseFail(const std::string &name, std::uint64_t line,
          const std::string &what)
{
    throw std::runtime_error(name + ":" + std::to_string(line) +
                             ": " + what);
}

} // namespace

ImportedTrace
parseBranchTrace(std::istream &in, const std::string &name)
{
    ImportedTrace trace;
    trace.program.name = name;

    std::unordered_map<Addr, StaticId> idOf;
    std::string line;
    std::uint64_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::size_t i = 0;
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= line.size() || line[i] == '#')
            continue;

        // pc field: hex with or without 0x; bare digits are hex too.
        // stoull would accept a sign, so reject one here.
        if (line[i] == '-' || line[i] == '+')
            parseFail(name, lineNo, "signed pc field");
        std::size_t end = 0;
        Addr pc = 0;
        try {
            pc = std::stoull(line.substr(i), &end, 16);
        } catch (const std::exception &) {
            parseFail(name, lineNo, "bad pc field");
        }
        i += end;
        if (i >= line.size() ||
            !std::isspace(static_cast<unsigned char>(line[i])))
            parseFail(name, lineNo,
                      "expected whitespace after pc");
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= line.size())
            parseFail(name, lineNo, "missing outcome field");

        bool taken = false;
        switch (line[i]) {
        case '1':
        case 'T':
        case 't':
            taken = true;
            break;
        case '0':
        case 'N':
        case 'n':
            taken = false;
            break;
        default:
            parseFail(name, lineNo,
                      "outcome not in {1,0,T,N,t,n}");
        }
        // Trailing fields (e.g. a ChampSim target) are ignored.

        auto [it, inserted] =
            idOf.emplace(pc, trace.program.textSize());
        if (inserted) {
            // A conditional branch over two zero operands whose
            // (never-simulated) target is the entry instruction.
            trace.program.text.push_back(
                Instruction::branch(Opcode::Bne, 0, 0, 0));
            trace.program.lineOf.push_back(
                static_cast<unsigned>(lineNo));
        }
        trace.stream.push_back(it->second);
        trace.taken.push_back(taken);
    }
    if (trace.stream.empty())
        parseFail(name, lineNo, "trace holds no branch records");
    return trace;
}

void
replayImported(const ImportedTrace &trace, TraceSink &sink)
{
    // Stage in blocks so the analyzer's prefetch pipeline gets the
    // same 256-instruction lookahead as fused lanes. instr pointers
    // are set here, into the caller-owned program, and stay valid
    // for the sink's lifetime.
    constexpr std::size_t kBlock = 256;
    std::array<DynInstr, kBlock> stage;
    std::size_t fill = 0;

    for (std::size_t n = 0; n < trace.stream.size(); ++n) {
        DynInstr &di = stage[fill++];
        di = DynInstr{};
        di.seq = static_cast<NodeId>(n);
        di.pc = trace.stream[n];
        di.instr = &trace.program.text[di.pc];
        di.numInputs = 2;
        di.inputs[0] = DynInput{InputKind::Imm, 0, 0, 0};
        di.inputs[1] = DynInput{InputKind::Imm, 0, 0, 0};
        di.isBranch = true;
        di.taken = trace.taken[n];
        if (fill == kBlock) {
            sink.onBlock(std::span<const DynInstr>(stage.data(),
                                                   fill));
            fill = 0;
        }
    }
    if (fill)
        sink.onBlock(std::span<const DynInstr>(stage.data(), fill));
    sink.onRunEnd();
}

} // namespace ppm
