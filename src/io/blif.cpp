#include "io/blif.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/fault.hpp"

namespace itpseq::io {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error("blif: line " + std::to_string(line) + ": " + msg);
}

/// One .names directive: a single-output SOP cover.
struct Cover {
  std::vector<std::string> inputs;  // signal names
  std::string output;
  std::vector<std::string> cubes;   // input-plane rows, '0'/'1'/'-'
  bool on_set = true;               // output-plane value of the rows
  std::size_t line = 0;
};

struct LatchDecl {
  std::string next;
  std::string out;
  aig::LatchInit init = aig::LatchInit::kUndef;
  std::size_t line = 0;
};

/// Raw token stream with BLIF line-continuation ('\') handling.
std::vector<std::pair<std::vector<std::string>, std::size_t>> tokenize(
    std::istream& in) {
  std::vector<std::pair<std::vector<std::string>, std::size_t>> lines;
  std::string raw;
  std::size_t lineno = 0, start = 0;
  std::string pending;
  while (std::getline(in, raw)) {
    ++lineno;
    if (std::size_t hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    bool cont = false;
    if (!raw.empty() && raw.back() == '\\') {
      raw.pop_back();
      cont = true;
    }
    if (pending.empty()) start = lineno;
    pending += raw;
    pending += ' ';
    if (cont) continue;
    std::istringstream ss(pending);
    std::vector<std::string> toks;
    for (std::string t; ss >> t;) toks.push_back(t);
    if (!toks.empty()) lines.push_back({std::move(toks), start});
    pending.clear();
  }
  return lines;
}

class BlifParser {
 public:
  aig::Aig parse(std::istream& in) {
    auto lines = tokenize(in);
    std::size_t i = 0;
    bool have_model = false, ended = false;
    while (i < lines.size()) {
      auto& [toks, line] = lines[i];
      const std::string& kw = toks[0];
      if (kw == ".model") {
        if (have_model) fail(line, "multiple .model sections not supported");
        have_model = true;
        ++i;
      } else if (kw == ".inputs") {
        for (std::size_t t = 1; t < toks.size(); ++t) inputs_.push_back(toks[t]);
        ++i;
      } else if (kw == ".outputs") {
        for (std::size_t t = 1; t < toks.size(); ++t)
          outputs_.push_back(toks[t]);
        ++i;
      } else if (kw == ".latch") {
        parse_latch(toks, line);
        ++i;
      } else if (kw == ".names") {
        i = parse_names(lines, i);
      } else if (kw == ".end") {
        ended = true;
        ++i;
        break;
      } else if (kw == ".subckt" || kw == ".search" || kw == ".gate" ||
                 kw == ".mlatch") {
        fail(line, "hierarchical construct '" + kw + "' not supported");
      } else if (kw[0] == '.') {
        ++i;  // ignore unknown dot-directives (.default_input_arrival etc.)
      } else {
        fail(line, "unexpected token '" + kw + "'");
      }
    }
    (void)ended;  // .end is optional in practice
    return elaborate();
  }

 private:
  void parse_latch(const std::vector<std::string>& toks, std::size_t line) {
    if (toks.size() < 3) fail(line, ".latch needs input and output");
    LatchDecl l;
    l.next = toks[1];
    l.out = toks[2];
    l.line = line;
    // Optional [type control] then optional init value.
    std::size_t t = 3;
    if (toks.size() >= 5 &&
        (toks[3] == "fe" || toks[3] == "re" || toks[3] == "ah" ||
         toks[3] == "al" || toks[3] == "as"))
      t = 5;  // skip type + control
    if (t < toks.size()) {
      const std::string& v = toks[t];
      if (v == "0") l.init = aig::LatchInit::kZero;
      else if (v == "1") l.init = aig::LatchInit::kOne;
      else if (v == "2" || v == "3") l.init = aig::LatchInit::kUndef;
      else fail(line, "bad latch init value '" + v + "'");
    }
    latches_.push_back(std::move(l));
  }

  std::size_t parse_names(
      const std::vector<std::pair<std::vector<std::string>, std::size_t>>&
          lines,
      std::size_t i) {
    auto& [toks, line] = lines[i];
    if (toks.size() < 2) fail(line, ".names needs an output");
    Cover c;
    c.line = line;
    c.output = toks.back();
    c.inputs.assign(toks.begin() + 1, toks.end() - 1);
    ++i;
    bool first_row = true;
    while (i < lines.size() && lines[i].first[0][0] != '.') {
      const auto& row = lines[i].first;
      const std::size_t rline = lines[i].second;
      std::string plane;
      char out_val;
      if (c.inputs.empty()) {
        // Constant: a single output-plane token per row.
        if (row.size() != 1 || row[0].size() != 1)
          fail(rline, "bad constant cover row");
        plane.clear();
        out_val = row[0][0];
      } else {
        if (row.size() != 2) fail(rline, "cover row needs plane and output");
        plane = row[0];
        if (plane.size() != c.inputs.size())
          fail(rline, "cover row width mismatch");
        if (row[1].size() != 1) fail(rline, "bad output plane");
        out_val = row[1][0];
      }
      if (out_val != '0' && out_val != '1') fail(rline, "bad output value");
      bool on = out_val == '1';
      if (first_row) {
        c.on_set = on;
        first_row = false;
      } else if (on != c.on_set) {
        fail(rline, "mixed on-set and off-set rows in one cover");
      }
      for (char ch : plane)
        if (ch != '0' && ch != '1' && ch != '-')
          fail(rline, "bad input plane character");
      c.cubes.push_back(plane);
      ++i;
    }
    if (!covers_.emplace(c.output, std::move(c)).second)
      fail(line, "signal '" + toks.back() + "' defined twice");
    return i;
  }

  aig::Aig elaborate() {
    aig::Aig g;
    for (const std::string& name : inputs_) {
      if (lits_.count(name)) fail(0, "input '" + name + "' defined twice");
      lits_[name] = g.add_input(name);
    }
    for (const LatchDecl& l : latches_) {
      if (lits_.count(l.out))
        fail(l.line, "latch output '" + l.out + "' defined twice");
      lits_[l.out] = g.add_latch(l.init, l.out);
    }
    for (const std::string& name : outputs_)
      g.add_output(resolve(g, name, 0), name);
    for (const LatchDecl& l : latches_)
      g.set_latch_next(lits_.at(l.out), resolve(g, l.next, 0));
    return g;
  }

  /// Literal of a named signal, elaborating its cover on demand.
  aig::Lit resolve(aig::Aig& g, const std::string& name, unsigned depth) {
    if (auto it = lits_.find(name); it != lits_.end()) return it->second;
    auto cit = covers_.find(name);
    if (cit == covers_.end())
      throw std::runtime_error("blif: undefined signal '" + name + "'");
    if (depth > covers_.size())
      fail(cit->second.line, "combinational cycle through '" + name + "'");
    const Cover& c = cit->second;
    std::vector<aig::Lit> ins;
    ins.reserve(c.inputs.size());
    for (const std::string& in : c.inputs)
      ins.push_back(resolve(g, in, depth + 1));
    std::vector<aig::Lit> cubes;
    cubes.reserve(c.cubes.size());
    for (const std::string& plane : c.cubes) {
      std::vector<aig::Lit> factors;
      for (std::size_t b = 0; b < plane.size(); ++b) {
        if (plane[b] == '-') continue;
        factors.push_back(aig::lit_xor(ins[b], plane[b] == '0'));
      }
      cubes.push_back(g.make_and_many(factors));
    }
    aig::Lit f = g.make_or_many(cubes);
    if (!c.on_set) f = aig::lit_not(f);
    if (f > aig::kTrue && g.name(aig::lit_var(f)).empty())
      g.set_name(aig::lit_var(f), name);
    lits_[name] = f;
    return f;
  }

  std::vector<std::string> inputs_, outputs_;
  std::vector<LatchDecl> latches_;
  std::unordered_map<std::string, Cover> covers_;
  std::unordered_map<std::string, aig::Lit> lits_;
};

/// Stable printable name for an AIG variable.
std::string var_name(const aig::Aig& g, aig::Var v) {
  const std::string& n = g.name(v);
  if (!n.empty()) return n;
  std::string s = "n";  // appended, not `"n" + ...`: GCC 12 -Wrestrict at -O3
  s += std::to_string(v);
  return s;
}

std::string lit_expr(const aig::Aig& g, aig::Lit l,
                     std::unordered_map<aig::Lit, std::string>& inv_names,
                     std::ostream& out) {
  if (l == aig::kFalse) return "blif_const0";
  if (l == aig::kTrue) return "blif_const1";
  if (!aig::lit_sign(l)) return var_name(g, aig::lit_var(l));
  // Complemented literal: emit (once) an inverter pseudo-signal.
  auto it = inv_names.find(l);
  if (it != inv_names.end()) return it->second;
  std::string base = var_name(g, aig::lit_var(l));
  std::string inv = base + "_bar";
  out << ".names " << base << " " << inv << "\n0 1\n";
  inv_names.emplace(l, inv);
  return inv;
}

}  // namespace

aig::Aig read_blif(std::istream& in) {
  ITPSEQ_FAULT_POINT("blif.load");
  return BlifParser().parse(in);
}

aig::Aig read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("blif: cannot open " + path);
  return read_blif(in);
}

void write_blif(const aig::Aig& g, std::ostream& out,
                const std::string& model_name) {
  out << ".model " << model_name << "\n";
  out << ".inputs";
  for (std::size_t i = 0; i < g.num_inputs(); ++i)
    out << " " << var_name(g, aig::lit_var(g.input(i)));
  out << "\n.outputs";
  for (std::size_t i = 0; i < g.num_outputs(); ++i)
    out << " o" << i;
  out << "\n";

  std::unordered_map<aig::Lit, std::string> inv;
  // Constants, emitted unconditionally for simplicity.
  out << ".names blif_const0\n";   // empty cover = constant 0
  out << ".names blif_const1\n1\n";

  // AND gates in topological (index) order.
  for (aig::Var v = 1; v < g.num_vars(); ++v) {
    if (!g.is_and(v)) continue;
    const aig::Node& n = g.node(v);
    std::string a = lit_expr(g, n.fanin0, inv, out);
    std::string b = lit_expr(g, n.fanin1, inv, out);
    out << ".names " << a << " " << b << " " << var_name(g, v) << "\n11 1\n";
  }
  // Latches (after gates so inverter pseudo-signals exist before use in
  // text order; BLIF is declaration-order independent, but readable output
  // helps humans).
  for (std::size_t i = 0; i < g.num_latches(); ++i) {
    aig::Lit next = g.latch_next(i);
    std::string nx = lit_expr(g, next, inv, out);
    int init;
    switch (g.latch_init(i)) {
      case aig::LatchInit::kZero: init = 0; break;
      case aig::LatchInit::kOne: init = 1; break;
      default: init = 2; break;
    }
    out << ".latch " << nx << " " << var_name(g, aig::lit_var(g.latch(i)))
        << " " << init << "\n";
  }
  // Output bindings.
  for (std::size_t i = 0; i < g.num_outputs(); ++i) {
    std::string src = lit_expr(g, g.output(i), inv, out);
    out << ".names " << src << " o" << i << "\n1 1\n";
  }
  out << ".end\n";
}

void write_blif_file(const aig::Aig& g, const std::string& path,
                     const std::string& model_name) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("blif: cannot open " + path);
  write_blif(g, out, model_name);
}

}  // namespace itpseq::io
