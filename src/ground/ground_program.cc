#include "src/ground/ground_program.h"

#include "src/base/strings.h"

namespace inflog {

namespace {

size_t HashAtom(uint32_t predicate, TupleView args) {
  return HashTuple(args) * 1000003u + predicate;
}

}  // namespace

int64_t AtomTable::Lookup(size_t hash, uint32_t predicate,
                          TupleView args) const {
  for (auto [it, end] = ids_.equal_range(hash); it != end; ++it) {
    const GroundAtom& atom = atoms_[it->second];
    if (atom.predicate == predicate && TupleEq()(atom.args, args)) {
      return it->second;
    }
  }
  return -1;
}

uint32_t AtomTable::GetOrAdd(uint32_t predicate, TupleView args) {
  const size_t hash = HashAtom(predicate, args);
  const int64_t found = Lookup(hash, predicate, args);
  if (found >= 0) return static_cast<uint32_t>(found);
  const uint32_t id = static_cast<uint32_t>(atoms_.size());
  atoms_.push_back(GroundAtom{predicate, Tuple(args.begin(), args.end())});
  ids_.emplace(hash, id);
  return id;
}

int64_t AtomTable::Find(uint32_t predicate, TupleView args) const {
  return Lookup(HashAtom(predicate, args), predicate, args);
}

uint32_t BodyTable::GetOrAdd(const GroundBody& body) {
  const size_t hash = HashTuple(body.pos) * 1000003u + HashTuple(body.neg);
  for (auto [it, end] = ids_.equal_range(hash); it != end; ++it) {
    const GroundBody& known = bodies_[it->second];
    if (known.pos == body.pos && known.neg == body.neg) return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(bodies_.size());
  bodies_.push_back(body);
  ids_.emplace(hash, id);
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
