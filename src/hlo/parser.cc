#include "hlo/parser.h"

#include <cstdlib>
#include <map>
#include <unordered_map>

#include "hlo/verifier.h"
#include "support/strings.h"

namespace overlap {

StatusOr<HloOpcode>
HloOpcodeFromName(const std::string& name)
{
    static const std::map<std::string, HloOpcode>* kTable = [] {
        auto* table = new std::map<std::string, HloOpcode>();
        for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
            HloOpcode opcode = static_cast<HloOpcode>(op);
            (*table)[HloOpcodeName(opcode)] = opcode;
        }
        return table;
    }();
    auto it = kTable->find(name);
    if (it == kTable->end()) {
        return InvalidArgument("unknown opcode '" + name + "'");
    }
    return it->second;
}

namespace {

/** Strips leading/trailing whitespace. */
std::string
Strip(const std::string& s)
{
    size_t first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) return "";
    size_t last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

/** Splits on `sep` at brace depth zero. */
std::vector<std::string>
SplitTopLevel(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::string current;
    int depth = 0;
    for (char c : text) {
        if (c == '{' || c == '(' || c == '[') ++depth;
        if (c == '}' || c == ')' || c == ']') --depth;
        if (c == sep && depth == 0) {
            parts.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    parts.push_back(current);
    return parts;
}

/** Parses "{1,2,3}" or "1,2,3" into integers; empty -> empty. */
StatusOr<std::vector<int64_t>>
ParseIntList(std::string text)
{
    text = Strip(text);
    if (!text.empty() && text.front() == '{') {
        if (text.back() != '}') {
            return InvalidArgument("unterminated list: " + text);
        }
        text = text.substr(1, text.size() - 2);
    }
    std::vector<int64_t> values;
    if (Strip(text).empty()) return values;
    for (const std::string& item : StrSplit(text, ',')) {
        char* end = nullptr;
        long long v = std::strtoll(item.c_str(), &end, 10);
        if (end == item.c_str()) {
            return InvalidArgument("bad integer '" + item + "'");
        }
        values.push_back(v);
    }
    return values;
}

/** Parses "{a,b}{c,d}..." into a list of brace groups. */
StatusOr<std::vector<std::vector<int64_t>>>
ParseGroupList(const std::string& text)
{
    std::vector<std::vector<int64_t>> groups;
    size_t pos = 0;
    while (pos < text.size()) {
        if (text[pos] != '{') {
            return InvalidArgument("expected '{' in group list: " + text);
        }
        size_t close = text.find('}', pos);
        if (close == std::string::npos) {
            return InvalidArgument("unterminated group in: " + text);
        }
        auto values = ParseIntList(text.substr(pos, close - pos + 1));
        if (!values.ok()) return values.status();
        groups.push_back(std::move(values).value());
        pos = close + 1;
    }
    return groups;
}

StatusOr<DType>
ParseDType(const std::string& name)
{
    if (name == "f32") return DType::kF32;
    if (name == "bf16") return DType::kBF16;
    if (name == "s32") return DType::kS32;
    if (name == "pred") return DType::kPred;
    return InvalidArgument("unknown dtype '" + name + "'");
}

class Parser {
  public:
    explicit Parser(const std::string& text) : lines_(StrSplit(text, '\n'))
    {
    }

    StatusOr<std::unique_ptr<HloModule>> Run()
    {
        auto module = ParseHeader();
        if (!module.ok()) return module.status();
        OVERLAP_RETURN_IF_ERROR(ParseComputation(module->get()));
        OVERLAP_RETURN_IF_ERROR(VerifyModule(**module));
        return module;
    }

  private:
    StatusOr<std::unique_ptr<HloModule>> ParseHeader()
    {
        std::string line = NextLine();
        auto tokens = StrSplit(line, ' ');
        if (tokens.size() < 2 || tokens[0] != "module") {
            return InvalidArgument("expected 'module NAME': " + line);
        }
        auto module = std::make_unique<HloModule>(tokens[1]);
        if (tokens.size() >= 3 && tokens[2].rfind("mesh[", 0) == 0 &&
            tokens[2].back() == ']') {
            auto dims = ParseIntList(
                tokens[2].substr(5, tokens[2].size() - 6));
            if (!dims.ok()) return dims.status();
            if (dims->size() == 1) {
                module->set_mesh(Mesh((*dims)[0]));
            } else if (dims->size() == 2) {
                module->set_mesh(Mesh((*dims)[0], (*dims)[1]));
            } else {
                return InvalidArgument("mesh must be 1-D or 2-D");
            }
        }
        return module;
    }

    Status ParseComputation(HloModule* module)
    {
        std::string line = NextLine();
        auto tokens = StrSplit(line, ' ');
        if (tokens.size() < 2 || tokens[0] != "computation") {
            return InvalidArgument("expected 'computation NAME {': " +
                                   line);
        }
        HloComputation* comp = module->AddEntryComputation(tokens[1]);
        while (true) {
            std::string instr_line = NextLine();
            if (instr_line.empty() && line_ >= lines_.size()) {
                return InvalidArgument("missing closing '}'");
            }
            if (instr_line == "}") break;
            if (instr_line.empty()) continue;
            OVERLAP_RETURN_IF_ERROR(ParseInstruction(comp, instr_line));
        }
        return Status::Ok();
    }

    Status ParseInstruction(HloComputation* comp, std::string line)
    {
        bool is_root = false;
        if (line.rfind("ROOT ", 0) == 0) {
            is_root = true;
            line = line.substr(5);
        }
        // %name = dtype[dims] opcode(%a, %b), attrs
        size_t eq = line.find(" = ");
        if (eq == std::string::npos || line[0] != '%') {
            return InvalidArgument("expected '%name = ...': " + line);
        }
        std::string name = line.substr(1, eq - 1);
        std::string rest = line.substr(eq + 3);

        size_t bracket = rest.find('[');
        if (bracket == std::string::npos) {
            return InvalidArgument("expected shape: " + line);
        }
        auto dtype = ParseDType(rest.substr(0, bracket));
        if (!dtype.ok()) return dtype.status();
        size_t bracket_end = rest.find(']', bracket);
        auto dims = ParseIntList(
            rest.substr(bracket + 1, bracket_end - bracket - 1));
        if (!dims.ok()) return dims.status();
        Shape shape(dtype.value(), std::move(dims).value());

        size_t paren = rest.find('(', bracket_end);
        size_t paren_end = rest.find(')', paren);
        if (paren == std::string::npos || paren_end == std::string::npos) {
            return InvalidArgument("expected operand list: " + line);
        }
        std::string opcode_name =
            Strip(rest.substr(bracket_end + 1, paren - bracket_end - 1));
        auto opcode = HloOpcodeFromName(opcode_name);
        if (!opcode.ok()) return opcode.status();

        std::vector<HloInstruction*> operands;
        std::string operand_text =
            rest.substr(paren + 1, paren_end - paren - 1);
        if (!Strip(operand_text).empty()) {
            for (const std::string& item :
                 SplitTopLevel(operand_text, ',')) {
                std::string operand_name = Strip(item);
                if (operand_name.empty() || operand_name[0] != '%') {
                    return InvalidArgument("bad operand '" + item + "'");
                }
                auto it = by_name_.find(operand_name.substr(1));
                if (it == by_name_.end()) {
                    return InvalidArgument("undefined operand " +
                                           operand_name);
                }
                operands.push_back(it->second);
            }
        }

        InstrAttrs attrs;
        int64_t fusion_group = -1;
        int64_t loop_group = -1;
        std::string attr_text = rest.substr(paren_end + 1);
        // Re-join comma splits that belong to the previous attribute's
        // value (einsum specs like "bf,fh->bh" contain bare commas).
        std::vector<std::string> attr_items;
        for (const std::string& raw : SplitTopLevel(attr_text, ',')) {
            if (raw.find('=') == std::string::npos &&
                !attr_items.empty()) {
                attr_items.back() += "," + raw;
            } else {
                attr_items.push_back(raw);
            }
        }
        for (const std::string& raw : attr_items) {
            std::string item = Strip(raw);
            if (item.empty()) continue;
            size_t eq_pos = item.find('=');
            if (eq_pos == std::string::npos) {
                return InvalidArgument("bad attribute '" + item + "'");
            }
            std::string key = item.substr(0, eq_pos);
            std::string value = item.substr(eq_pos + 1);
            OVERLAP_RETURN_IF_ERROR(ApplyAttr(opcode.value(), shape, key,
                                              value, &attrs,
                                              &fusion_group, &loop_group));
        }
        if (opcode.value() == HloOpcode::kConstant &&
            !attrs.literal.has_value()) {
            attrs.literal = Tensor(shape);  // elided literal -> zeros
        }

        HloInstruction* instr = comp->AddInstruction(
            opcode.value(), shape, std::move(operands), std::move(attrs));
        instr->set_name(name);
        instr->set_fusion_group(fusion_group);
        instr->set_loop_group(loop_group);
        if (is_root) comp->set_root(instr);
        if (!by_name_.emplace(name, instr).second) {
            return InvalidArgument("duplicate instruction name %" + name);
        }
        return Status::Ok();
    }

    Status ApplyAttr(HloOpcode opcode, const Shape& shape,
                     const std::string& key, const std::string& value,
                     InstrAttrs* attrs, int64_t* fusion_group,
                     int64_t* loop_group)
    {
        auto as_int = [&value]() -> int64_t {
            return std::strtoll(value.c_str(), nullptr, 10);
        };
        if (key == "index") {
            attrs->parameter_number = as_int();
        } else if (key == "spec") {
            attrs->einsum_spec = value;
        } else if (key == "dim") {
            attrs->dim = as_int();
        } else if (key == "axis") {
            attrs->mesh_axis = as_int();
        } else if (key == "channel") {
            attrs->channel_id = as_int();
        } else if (key == "chunk") {
            attrs->a2a_chunk = as_int();
        } else if (key == "fusion") {
            *fusion_group = as_int();
        } else if (key == "loop") {
            *loop_group = as_int();
        } else if (key == "starts") {
            auto list = ParseIntList(value);
            if (!list.ok()) return list.status();
            attrs->starts = std::move(list).value();
        } else if (key == "sizes" || key == "dims") {
            auto list = ParseIntList(value);
            if (!list.ok()) return list.status();
            attrs->sizes = std::move(list).value();
        } else if (key == "low") {
            auto list = ParseIntList(value);
            if (!list.ok()) return list.status();
            attrs->pad_low = std::move(list).value();
        } else if (key == "high") {
            auto list = ParseIntList(value);
            if (!list.ok()) return list.status();
            attrs->pad_high = std::move(list).value();
        } else if (key == "perm") {
            auto list = ParseIntList(value);
            if (!list.ok()) return list.status();
            attrs->permutation = std::move(list).value();
        } else if (key == "groups") {
            auto groups = ParseGroupList(value);
            if (!groups.ok()) return groups.status();
            attrs->groups = std::move(groups).value();
        } else if (key == "pairs") {
            auto groups = ParseGroupList(value);
            if (!groups.ok()) return groups.status();
            SourceTargetPairs::List pairs(attrs->source_target_pairs.begin(),
                                          attrs->source_target_pairs.end());
            for (const auto& pair : groups.value()) {
                if (pair.size() != 2) {
                    return InvalidArgument("bad source-target pair");
                }
                pairs.emplace_back(pair[0], pair[1]);
            }
            attrs->source_target_pairs = std::move(pairs);
        } else if (key == "value") {
            if (opcode == HloOpcode::kPad) {
                attrs->pad_value =
                    std::strtof(value.c_str(), nullptr);
            } else {
                // Constant literal.
                std::string body = value;
                if (!body.empty() && body.front() == '{') {
                    body = body.substr(1, body.size() - 2);
                }
                std::vector<float> values;
                if (!Strip(body).empty()) {
                    for (const std::string& item : StrSplit(body, ',')) {
                        values.push_back(
                            std::strtof(item.c_str(), nullptr));
                    }
                }
                if (static_cast<int64_t>(values.size()) !=
                    shape.num_elements()) {
                    return InvalidArgument(
                        "constant literal size mismatch");
                }
                attrs->literal = Tensor(shape, std::move(values));
            }
        } else if (key == "sharding") {
            // Shardings are informational in the text form; ignored.
        } else {
            return InvalidArgument("unknown attribute '" + key + "'");
        }
        return Status::Ok();
    }

    std::string NextLine()
    {
        while (line_ < lines_.size()) {
            std::string line = Strip(lines_[line_++]);
            if (!line.empty()) return line;
        }
        return "";
    }

    std::vector<std::string> lines_;
    size_t line_ = 0;
    std::unordered_map<std::string, HloInstruction*> by_name_;
};

}  // namespace

StatusOr<std::unique_ptr<HloModule>>
ParseHloModule(const std::string& text)
{
    Parser parser(text);
    return parser.Run();
}

}  // namespace overlap
