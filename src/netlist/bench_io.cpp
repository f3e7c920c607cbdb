#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "netlist/file_bytes.hpp"

namespace ril::netlist {

namespace {

// The reader is a single-pass streaming tokenizer: the whole file is read
// into one buffer and every signal name below is a string_view into it, so
// million-line files do not allocate per-line temporaries. Gate creation
// uses waiter-list dependency resolution (O(edges log nodes)) instead of
// repeated full passes.

std::string_view trim_view(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Case-insensitive equality against an uppercase literal.
bool ieq(std::string_view s, std::string_view upper_ref) {
  if (s.size() != upper_ref.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(s[i])) != upper_ref[i]) {
      return false;
    }
  }
  return true;
}

/// Case-insensitive prefix test against an uppercase literal.
bool istarts_with(std::string_view s, std::string_view upper_prefix) {
  return s.size() >= upper_prefix.size() &&
         ieq(s.substr(0, upper_prefix.size()), upper_prefix);
}

struct PendingGate {
  std::string_view name;
  GateType type = GateType::kConst0;
  bool is_lut = false;
  std::uint64_t lut_mask = 0;
  std::uint32_t fanin_begin = 0;  // slice of the shared fanin-name pool
  std::uint32_t fanin_count = 0;
  std::uint32_t line = 0;
};

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error(".bench line " + std::to_string(line) + ": " +
                           message);
}

GateType op_to_type(std::string_view op, std::size_t line) {
  static const std::unordered_map<std::string_view, GateType> kOps = {
      {"AND", GateType::kAnd},   {"NAND", GateType::kNand},
      {"OR", GateType::kOr},     {"NOR", GateType::kNor},
      {"XOR", GateType::kXor},   {"XNOR", GateType::kXnor},
      {"NOT", GateType::kNot},   {"INV", GateType::kNot},
      {"BUF", GateType::kBuf},   {"BUFF", GateType::kBuf},
      {"DFF", GateType::kDff},   {"MUX", GateType::kMux},
      {"VCC", GateType::kConst1},{"GND", GateType::kConst0},
      {"CONST1", GateType::kConst1}, {"CONST0", GateType::kConst0},
  };
  char upper[8];
  if (op.size() >= sizeof(upper)) fail(line, "unknown op '" + std::string(op) + "'");
  for (std::size_t i = 0; i < op.size(); ++i) {
    upper[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(op[i])));
  }
  auto it = kOps.find(std::string_view(upper, op.size()));
  if (it == kOps.end()) fail(line, "unknown op '" + std::string(op) + "'");
  return it->second;
}

/// Splits a comma-separated argument list into the shared name pool.
/// Mirrors the historical splitter: a trailing empty segment is dropped,
/// an interior empty segment is an error.
void split_args(std::string_view args, std::size_t line,
                std::vector<std::string_view>& pool) {
  const std::size_t first = pool.size();
  std::size_t start = 0;
  for (std::size_t i = 0; i <= args.size(); ++i) {
    if (i == args.size() || args[i] == ',') {
      std::string_view piece = trim_view(args.substr(start, i - start));
      if (i == args.size() && piece.empty() && pool.size() > first) {
        break;  // trailing comma
      }
      if (i == args.size() && piece.empty()) break;  // "()" -> no args
      pool.push_back(piece);
      start = i + 1;
    }
  }
  for (std::size_t i = first; i < pool.size(); ++i) {
    if (pool[i].empty()) fail(line, "empty argument");
  }
}

Netlist parse_bench(std::string_view text, std::string name) {
  std::vector<std::string_view> input_names;
  std::vector<std::string_view> output_names;
  std::vector<PendingGate> gates;
  std::vector<std::string_view> fanin_names;

  // Rough up-front reserves from one cheap scan: most lines are gates with
  // a couple of fanins.
  const std::size_t approx_lines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  gates.reserve(approx_lines);
  fanin_names.reserve(approx_lines * 2 +
                      static_cast<std::size_t>(
                          std::count(text.begin(), text.end(), ',')));

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim_view(line);
    if (line.empty()) {
      if (eol == text.size()) break;
      continue;
    }

    if (istarts_with(line, "INPUT") || istarts_with(line, "OUTPUT")) {
      const bool is_input = istarts_with(line, "INPUT");
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        fail(line_no, "malformed INPUT/OUTPUT");
      }
      const std::string_view sig =
          trim_view(line.substr(open + 1, close - open - 1));
      if (sig.empty()) fail(line_no, "empty signal name");
      (is_input ? input_names : output_names).push_back(sig);
      if (eol == text.size()) break;
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) fail(line_no, "expected '='");
    PendingGate gate;
    gate.name = trim_view(line.substr(0, eq));
    gate.line = static_cast<std::uint32_t>(line_no);
    std::string_view rhs = trim_view(line.substr(eq + 1));
    if (gate.name.empty() || rhs.empty()) fail(line_no, "malformed assignment");

    if (ieq(rhs, "VCC") || ieq(rhs, "GND") || ieq(rhs, "CONST0") ||
        ieq(rhs, "CONST1")) {
      gate.type = (ieq(rhs, "VCC") || ieq(rhs, "CONST1")) ? GateType::kConst1
                                                          : GateType::kConst0;
      gates.push_back(gate);
      if (eol == text.size()) break;
      continue;
    }

    if (istarts_with(rhs, "LUT")) {
      // name = LUT 0xMASK (a, b, ...)
      std::string_view rest = trim_view(rhs.substr(3));
      const auto open = rest.find('(');
      const auto close = rest.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        fail(line_no,
             "malformed LUT (expected 'LUT <mask> (a, b, ...)'; check "
             "parentheses)");
      }
      const std::string mask_text{trim_view(rest.substr(0, open))};
      gate.is_lut = true;
      gate.type = GateType::kLut;
      // stoull silently accepts a sign prefix: "-1" wraps to the all-ones
      // mask and "+1" parses as 1, both hiding writer bugs. A truth-table
      // mask is a plain non-negative bit pattern, so reject signs outright.
      if (mask_text.empty() || mask_text[0] == '-' || mask_text[0] == '+') {
        fail(line_no, "bad LUT mask '" + mask_text +
                          "' (mask must be an unsigned number)");
      }
      std::size_t mask_len = 0;
      try {
        gate.lut_mask = std::stoull(mask_text, &mask_len, 0);
      } catch (const std::exception&) {
        fail(line_no, "bad LUT mask '" + mask_text + "'");
      }
      if (mask_len != mask_text.size()) {
        fail(line_no, "bad LUT mask '" + mask_text +
                          "' (trailing junk after the number)");
      }
      gate.fanin_begin = static_cast<std::uint32_t>(fanin_names.size());
      split_args(rest.substr(open + 1, close - open - 1), line_no,
                 fanin_names);
      gate.fanin_count =
          static_cast<std::uint32_t>(fanin_names.size()) - gate.fanin_begin;
      const std::size_t arity = gate.fanin_count;
      if (arity == 0 || arity > 6) {
        fail(line_no, "LUT arity must be 1..6, got " + std::to_string(arity));
      }
      if (arity < 6) {
        const std::uint64_t rows = std::uint64_t{1} << arity;
        if ((gate.lut_mask >> rows) != 0) {
          fail(line_no, "LUT mask '" + mask_text + "' needs more than 2^" +
                            std::to_string(arity) + " = " +
                            std::to_string(rows) + " truth-table rows for " +
                            std::to_string(arity) + " fanins");
        }
      }
      gates.push_back(gate);
      if (eol == text.size()) break;
      continue;
    }

    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      fail(line_no, "malformed gate expression");
    }
    gate.type = op_to_type(trim_view(rhs.substr(0, open)), line_no);
    gate.fanin_begin = static_cast<std::uint32_t>(fanin_names.size());
    split_args(rhs.substr(open + 1, close - open - 1), line_no, fanin_names);
    gate.fanin_count =
        static_cast<std::uint32_t>(fanin_names.size()) - gate.fanin_begin;
    gates.push_back(gate);
    if (eol == text.size()) break;
  }

  Netlist netlist(std::move(name));
  netlist.reserve(input_names.size() + gates.size() + 1,
                  fanin_names.size() + gates.size());
  for (std::string_view in_name : input_names) {
    if (in_name.substr(0, 8) == "keyinput") {
      netlist.add_key_input(std::string(in_name));
    } else {
      netlist.add_input(std::string(in_name));
    }
  }

  std::unordered_map<std::string_view, std::size_t> gate_by_name;
  gate_by_name.reserve(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (!gate_by_name.emplace(gates[i].name, i).second) {
      fail(gates[i].line, "redefinition of '" + std::string(gates[i].name) +
                              "'");
    }
  }

  std::vector<NodeId> created(gates.size(), kNoNode);
  // DFFs first (as state sources) so cycles through DFFs resolve. They
  // share one temporary const fanin (reserved name that cannot clash with
  // any signal in this file), patched below.
  std::vector<std::size_t> dffs;
  NodeId placeholder = kNoNode;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (gates[i].type == GateType::kDff && !gates[i].is_lut) {
      if (placeholder == kNoNode) {
        placeholder = netlist.add_const(false);
        std::string ph_name = "__bench_dff_ph";
        int suffix = 0;
        while (gate_by_name.contains(std::string_view(ph_name)) ||
               netlist.find(ph_name)) {
          ph_name = "__bench_dff_ph" + std::to_string(suffix++);
        }
        netlist.rename(placeholder, ph_name);
      }
      created[i] =
          netlist.add_gate(GateType::kDff, {placeholder}, gates[i].name);
      dffs.push_back(i);
    }
  }

  // Waiter-list resolution: each gate counts its not-yet-created fanins;
  // creating a signal wakes the gates waiting on it. The ready heap pops
  // the smallest file index first, which reproduces the historical
  // forward-sweep creation order on any file whose definitions precede
  // uses (in particular everything write_bench emits).
  auto lookup = [&](std::string_view signal) -> NodeId {
    if (auto id = netlist.find(signal)) return *id;
    return kNoNode;
  };
  std::unordered_map<std::string_view, std::vector<std::uint32_t>> waiters;
  std::vector<std::uint32_t> missing(gates.size(), 0);
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (created[i] != kNoNode) continue;
    for (std::uint32_t k = 0; k < gates[i].fanin_count; ++k) {
      const std::string_view f = fanin_names[gates[i].fanin_begin + k];
      if (lookup(f) != kNoNode) continue;  // input or pre-created DFF
      waiters[f].push_back(static_cast<std::uint32_t>(i));
      ++missing[i];
    }
    if (missing[i] == 0) ready.push(static_cast<std::uint32_t>(i));
  }
  std::vector<NodeId> fanins;
  while (!ready.empty()) {
    const std::uint32_t i = ready.top();
    ready.pop();
    const PendingGate& gate = gates[i];
    fanins.clear();
    for (std::uint32_t k = 0; k < gate.fanin_count; ++k) {
      const NodeId id = lookup(fanin_names[gate.fanin_begin + k]);
      fanins.push_back(id);
    }
    if (gate.is_lut) {
      created[i] = netlist.add_lut(std::span<const NodeId>(fanins),
                                   gate.lut_mask, gate.name);
    } else if (gate.type == GateType::kConst0 ||
               gate.type == GateType::kConst1) {
      created[i] = netlist.add_const(gate.type == GateType::kConst1);
      netlist.rename(created[i], std::string(gate.name));
    } else {
      created[i] = netlist.add_gate(gate.type, std::span<const NodeId>(fanins),
                                    gate.name);
    }
    if (auto it = waiters.find(gate.name); it != waiters.end()) {
      for (std::uint32_t waiter : it->second) {
        if (--missing[waiter] == 0) ready.push(waiter);
      }
      waiters.erase(it);
    }
  }
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (created[i] == kNoNode) {
      fail(gates[i].line,
           "unresolved fanin (undefined signal or combinational cycle)");
    }
  }

  // Patch DFF fanins.
  for (std::size_t i : dffs) {
    if (gates[i].fanin_count != 1) fail(gates[i].line, "DFF needs one fanin");
    const NodeId src = lookup(fanin_names[gates[i].fanin_begin]);
    if (src == kNoNode) fail(gates[i].line, "DFF fanin undefined");
    netlist.set_fanin(created[i], 0, src);
  }

  for (std::string_view out_name : output_names) {
    const NodeId id = lookup(out_name);
    if (id == kNoNode) {
      throw std::runtime_error(".bench: OUTPUT(" + std::string(out_name) +
                               ") undefined");
    }
    netlist.mark_output(id);
  }

  if (std::string err = netlist.validate(); !err.empty()) {
    throw std::runtime_error(".bench: invalid netlist: " + err);
  }
  return netlist;
}

}  // namespace

Netlist read_bench(std::istream& in, std::string name) {
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  return parse_bench(text, std::move(name));
}

Netlist read_bench_string(const std::string& text, std::string name) {
  return parse_bench(text, std::move(name));
}

Netlist read_bench_file(const std::string& path) {
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  const FileBytes bytes(path);
  return parse_bench(bytes.view(), std::move(name));
}

void write_bench(std::ostream& out, const Netlist& netlist) {
  out << "# " << netlist.name() << "\n";
  out << "# gates=" << netlist.gate_count()
      << " inputs=" << netlist.inputs().size()
      << " outputs=" << netlist.outputs().size()
      << " keys=" << netlist.key_inputs().size() << "\n";
  for (NodeId id : netlist.inputs()) {
    out << "INPUT(" << netlist.name_of(id) << ")\n";
  }
  for (NodeId id : netlist.outputs()) {
    out << "OUTPUT(" << netlist.name_of(id) << ")\n";
  }
  for (NodeId id : netlist.topological_order()) {
    const GateType type = netlist.type(id);
    const auto fanins = netlist.fanins(id);
    switch (type) {
      case GateType::kInput:
        break;
      case GateType::kConst0:
        out << netlist.name_of(id) << " = gnd\n";
        break;
      case GateType::kConst1:
        out << netlist.name_of(id) << " = vcc\n";
        break;
      case GateType::kLut: {
        out << netlist.name_of(id) << " = LUT 0x" << std::hex
            << netlist.lut_mask(id) << std::dec << " (";
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          if (i) out << ", ";
          out << netlist.name_of(fanins[i]);
        }
        out << ")\n";
        break;
      }
      default: {
        out << netlist.name_of(id) << " = " << to_string(type) << "(";
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          if (i) out << ", ";
          out << netlist.name_of(fanins[i]);
        }
        out << ")\n";
      }
    }
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream out;
  write_bench(out, netlist);
  return out.str();
}

void write_bench_file(const std::string& path, const Netlist& netlist) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_bench(out, netlist);
  // A full disk or I/O error surfaces only on the stream's error state;
  // without this check a truncated netlist would be left on disk and the
  // call would report success.
  out.flush();
  if (out.fail()) {
    throw std::runtime_error("write failed (disk full or I/O error): " +
                             path);
  }
}

}  // namespace ril::netlist
