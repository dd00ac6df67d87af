#include "src/sat/preprocess.h"

#include <algorithm>
#include <unordered_set>

namespace inflog {
namespace sat {

namespace {

// Canonical-form hash of a sorted clause, for duplicate detection.
struct ClauseHash {
  size_t operator()(const Clause& c) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Lit& l : c) {
      h ^= static_cast<size_t>(l.code) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

// Simplification rounds (each runs BCP, pure, BVE once); the loop also
// stops as soon as a round changes nothing.
constexpr uint32_t kMaxRounds = 12;
// BVE skips variables with more occurrences than this on either polarity,
// so quadratic resolvent generation stays bounded.
constexpr uint32_t kBveOccurrenceCap = 24;

}  // namespace

Preprocessor::Preprocessor(int32_t num_vars)
    : num_vars_(num_vars),
      frozen_(num_vars, 0),
      eliminated_(num_vars, 0),
      forced_(num_vars, -1),
      occur_(2 * static_cast<size_t>(num_vars)),
      occur_count_(2 * static_cast<size_t>(num_vars), 0) {}

void Preprocessor::FreezeVar(Var v) {
  INFLOG_CHECK(v >= 0 && v < num_vars_);
  frozen_[v] = 1;
}

void Preprocessor::RemoveClause(uint32_t idx) {
  INFLOG_DCHECK(alive_[idx]);
  alive_[idx] = 0;
  for (const Lit& l : db_[idx]) --occur_count_[l.code];
}

bool Preprocessor::AddDerivedClause(Clause clause, bool* unsat) {
  // Clause is sorted and tautology-free by construction (callers
  // normalize). Root-simplify against forced values.
  Clause simplified;
  for (const Lit& l : clause) {
    const int8_t v = LitValueAtRoot(l);
    if (v == 1) return false;  // satisfied: not added
    if (v == 0) continue;
    simplified.push_back(l);
  }
  if (simplified.empty()) {
    *unsat = true;
    return false;
  }
  if (simplified.size() == 1) {
    const Lit u = simplified[0];
    if (LitValueAtRoot(u) == 0) {
      *unsat = true;
      return false;
    }
    if (forced_[u.var()] < 0) {
      forced_[u.var()] = u.negated() ? 0 : 1;
      unit_queue_.push_back(u.var());
      ++stats_.units_propagated;
    }
    return false;
  }
  const uint32_t idx = static_cast<uint32_t>(db_.size());
  for (const Lit& l : simplified) {
    occur_[l.code].push_back(idx);
    ++occur_count_[l.code];
  }
  db_.push_back(std::move(simplified));
  alive_.push_back(1);
  return true;
}

bool Preprocessor::PropagateUnits() {
  while (!unit_queue_.empty()) {
    const Var v = unit_queue_.back();
    unit_queue_.pop_back();
    for (const bool neg : {false, true}) {
      const Lit l(v, neg);
      const bool lit_true = LitValueAtRoot(l) == 1;
      // Copy: RemoveClause / unit enqueue mutate the lists we walk.
      const std::vector<uint32_t> occ = occur_[l.code];
      for (const uint32_t idx : occ) {
        if (!alive_[idx]) continue;
        if (lit_true) {
          RemoveClause(idx);
          continue;
        }
        // l is false: shrink the clause.
        Clause& c = db_[idx];
        c.erase(std::remove(c.begin(), c.end(), l), c.end());
        --occur_count_[l.code];
        if (c.empty()) return false;
        if (c.size() == 1) {
          const Lit u = c[0];
          if (LitValueAtRoot(u) == 0) return false;
          if (forced_[u.var()] < 0) {
            forced_[u.var()] = u.negated() ? 0 : 1;
            unit_queue_.push_back(u.var());
            ++stats_.units_propagated;
          }
          RemoveClause(idx);
        }
      }
    }
  }
  return true;
}

bool Preprocessor::EliminatePure() {
  bool changed = false;
  for (Var v = 0; v < num_vars_; ++v) {
    if (frozen_[v] || eliminated_[v] || forced_[v] >= 0) continue;
    const uint32_t pos = occur_count_[Pos(v).code];
    const uint32_t neg = occur_count_[Neg(v).code];
    if (pos == 0 && neg == 0) continue;  // unconstrained: leave to search
    if (pos != 0 && neg != 0) continue;
    const Lit pure = pos != 0 ? Pos(v) : Neg(v);
    eliminated_[v] = 1;
    eliminations_.push_back(Elimination{pure, /*pure=*/true, {}});
    ++stats_.pure_eliminated;
    const std::vector<uint32_t> occ = occur_[pure.code];
    for (const uint32_t idx : occ) {
      if (alive_[idx]) RemoveClause(idx);
    }
    changed = true;
  }
  return changed;
}

void Preprocessor::DetachVar(Var v, std::vector<Clause>* saved) {
  for (const bool neg : {false, true}) {
    const Lit l(v, neg);
    for (const uint32_t idx : occur_[l.code]) {
      if (!alive_[idx]) continue;
      saved->push_back(db_[idx]);
      RemoveClause(idx);
    }
  }
}

bool Preprocessor::EliminateByResolution(bool* unsat) {
  bool changed = false;
  for (Var v = 0; v < num_vars_; ++v) {
    if (frozen_[v] || eliminated_[v] || forced_[v] >= 0) continue;
    const uint32_t pos_count = occur_count_[Pos(v).code];
    const uint32_t neg_count = occur_count_[Neg(v).code];
    if (pos_count == 0 || neg_count == 0) continue;  // pure pass's job
    if (pos_count > kBveOccurrenceCap || neg_count > kBveOccurrenceCap) {
      continue;
    }
    // Collect the live clauses of each polarity.
    std::vector<uint32_t> pos_idx, neg_idx;
    size_t original_literals = 0;
    for (const uint32_t idx : occur_[Pos(v).code]) {
      if (!alive_[idx]) continue;
      pos_idx.push_back(idx);
      original_literals += db_[idx].size();
    }
    for (const uint32_t idx : occur_[Neg(v).code]) {
      if (!alive_[idx]) continue;
      neg_idx.push_back(idx);
      original_literals += db_[idx].size();
    }
    // Build all non-tautological resolvents; bail out (NiVER criterion)
    // as soon as they carry more literals than the clauses they replace.
    std::vector<Clause> resolvents;
    size_t resolvent_literals = 0;
    bool within_budget = true;
    for (const uint32_t pi : pos_idx) {
      for (const uint32_t ni : neg_idx) {
        Clause r;
        for (const Lit& l : db_[pi]) {
          if (l.var() != v) r.push_back(l);
        }
        for (const Lit& l : db_[ni]) {
          if (l.var() != v) r.push_back(l);
        }
        std::sort(r.begin(), r.end());
        bool tautology = false;
        Clause dedup;
        for (const Lit& l : r) {
          if (!dedup.empty() && l == dedup.back()) continue;
          if (!dedup.empty() && l == ~dedup.back()) {
            tautology = true;
            break;
          }
          dedup.push_back(l);
        }
        if (tautology) continue;
        resolvent_literals += dedup.size();
        if (resolvent_literals > original_literals) {
          within_budget = false;
          break;
        }
        resolvents.push_back(std::move(dedup));
      }
      if (!within_budget) break;
    }
    if (!within_budget) continue;

    // Commit: remove the originals (saving them for reconstruction), add
    // the resolvents.
    Elimination elim;
    elim.lit = Pos(v);
    DetachVar(v, &elim.saved);
    eliminated_[v] = 1;
    ++stats_.bve_eliminated;
    eliminations_.push_back(std::move(elim));
    for (Clause& r : resolvents) {
      AddDerivedClause(std::move(r), unsat);
      if (*unsat) return changed;
    }
    changed = true;
  }
  return changed;
}

bool Preprocessor::Run(std::vector<Clause> clauses) {
  INFLOG_CHECK(!ran_) << "Preprocessor::Run is one-shot";
  ran_ = true;

  // Normalize: sort, drop duplicate literals and tautologies, drop
  // duplicate clauses, seed units.
  std::unordered_set<Clause, ClauseHash> seen;
  bool unsat = false;
  size_t input_clauses = 0;
  for (Clause& c : clauses) {
    std::sort(c.begin(), c.end());
    Clause dedup;
    bool tautology = false;
    for (const Lit& l : c) {
      INFLOG_CHECK(l.var() >= 0 && l.var() < num_vars_);
      if (!dedup.empty() && l == dedup.back()) {
        ++stats_.duplicates_removed;
        continue;
      }
      if (!dedup.empty() && l == ~dedup.back()) {
        tautology = true;
        break;
      }
      dedup.push_back(l);
    }
    if (tautology) {
      ++stats_.tautologies_removed;
      continue;
    }
    if (!dedup.empty() && !seen.insert(dedup).second) {
      ++stats_.duplicates_removed;
      continue;
    }
    ++input_clauses;
    AddDerivedClause(std::move(dedup), &unsat);
    if (unsat) return false;
  }

  // Simplification rounds to fixpoint.
  for (uint32_t round = 0; round < kMaxRounds; ++round) {
    ++stats_.rounds;
    if (!PropagateUnits()) return false;
    bool changed = EliminatePure();
    changed |= EliminateByResolution(&unsat);
    if (unsat) return false;
    // Resolvent units pending: the next round propagates them.
    if (!unit_queue_.empty()) continue;
    if (!changed) break;
  }
  if (!PropagateUnits()) return false;

  // Export the surviving clauses (re-simplified against late units).
  for (uint32_t idx = 0; idx < db_.size(); ++idx) {
    if (!alive_[idx]) continue;
    Clause c;
    bool satisfied = false;
    for (const Lit& l : db_[idx]) {
      const int8_t v = LitValueAtRoot(l);
      if (v == 1) {
        satisfied = true;
        break;
      }
      if (v == 0) continue;
      c.push_back(l);
    }
    if (satisfied) continue;
    INFLOG_CHECK(!c.empty());
    out_clauses_.push_back(std::move(c));
  }
  if (input_clauses > out_clauses_.size()) {
    stats_.clauses_removed = input_clauses - out_clauses_.size();
  }
  return true;
}

void Preprocessor::Extend(std::vector<int8_t>* model) const {
  INFLOG_CHECK(model->size() >= static_cast<size_t>(num_vars_));
  for (Var v = 0; v < num_vars_; ++v) {
    if (forced_[v] >= 0) (*model)[v] = forced_[v];
  }
  // Reverse elimination order: clauses saved when variable x was removed
  // mention only variables still alive at that time — later-eliminated
  // variables are reconstructed first, so every other literal already has
  // a value when x is processed.
  for (auto it = eliminations_.rbegin(); it != eliminations_.rend(); ++it) {
    const Var v = it->lit.var();
    // Default to the polarity that satisfies removed clauses outright
    // (the pure polarity; for BVE an arbitrary start, fixed up below).
    (*model)[v] = it->lit.negated() ? 0 : 1;
    if (it->pure) continue;
    for (const Clause& c : it->saved) {
      bool sat = false;
      Lit own;
      for (const Lit& l : c) {
        if (l.var() == v) {
          own = l;
          if (((*model)[v] == 1) != l.negated()) sat = true;
          continue;
        }
        const int8_t a = (*model)[l.var()];
        if (a >= 0 && (a == 1) != l.negated()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        // Only the eliminated variable can rescue this clause.
        (*model)[v] = own.negated() ? 0 : 1;
      }
    }
  }
}

}  // namespace sat
}  // namespace inflog
