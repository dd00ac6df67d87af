#include "src/ground/ground_program.h"

#include "src/base/strings.h"

namespace inflog {

uint32_t AtomTable::GetOrAdd(uint32_t predicate, TupleView args) {
  Key key{predicate, Tuple(args.begin(), args.end())};
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(atoms_.size());
  atoms_.push_back(GroundAtom{predicate, key.args});
  ids_.emplace(std::move(key), id);
  return id;
}

int64_t AtomTable::Find(uint32_t predicate, TupleView args) const {
  Key key{predicate, Tuple(args.begin(), args.end())};
  auto it = ids_.find(key);
  if (it == ids_.end()) return -1;
  return static_cast<int64_t>(it->second);
}

uint32_t BodyTable::GetOrAdd(GroundBody body) {
  // Flat key: [pos size, pos atoms..., neg atoms...].
  std::vector<uint32_t> key;
  key.reserve(body.pos.size() + body.neg.size() + 1);
  key.push_back(static_cast<uint32_t>(body.pos.size()));
  key.insert(key.end(), body.pos.begin(), body.pos.end());
  key.insert(key.end(), body.neg.begin(), body.neg.end());
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(bodies_.size());
  bodies_.push_back(std::move(body));
  ids_.emplace(std::move(key), id);
  return id;
}

void GroundProgram::IndexHeads() {
  rules_by_head.assign(atoms.size(), {});
  for (uint32_t r = 0; r < rules.size(); ++r) {
    rules_by_head[rules[r].head].push_back(r);
  }
}

IdbState GroundProgram::DecodeState(const Program& program,
                                    const std::vector<bool>& true_atoms) const {
  INFLOG_CHECK(true_atoms.size() == atoms.size());
  IdbState state = MakeEmptyIdbState(program);
  for (uint32_t id = 0; id < atoms.size(); ++id) {
    if (!true_atoms[id] || IsAuxiliary(id)) continue;
    const GroundAtom& atom = atoms.atom(id);
    const int idb = program.predicate(atom.predicate).idb_index;
    INFLOG_CHECK(idb >= 0);
    state.relations[idb].Insert(atom.args);
  }
  return state;
}

std::string GroundProgram::ToString(const Program& program) const {
  std::string out;
  auto format_atom = [&](uint32_t id) {
    const GroundAtom& a = atoms.atom(id);
    if (IsAuxiliary(id)) return StrCat("#exists(", a.args[0], ",", a.args[1], ")");
    return StrCat(program.predicate(a.predicate).name,
                  FormatTuple(program.symbols(), a.args));
  };
  for (const GroundRule& rule : rules) {
    out += format_atom(rule.head);
    const GroundBody& body = RuleBody(rule);
    if (!body.empty()) {
      out += " :- ";
      bool first = true;
      for (uint32_t a : body.pos) {
        if (!first) out += ", ";
        first = false;
        out += format_atom(a);
      }
      for (uint32_t a : body.neg) {
        if (!first) out += ", ";
        first = false;
        out += StrCat("!", format_atom(a));
      }
    }
    out += ".\n";
  }
  return out;
}

}  // namespace inflog
