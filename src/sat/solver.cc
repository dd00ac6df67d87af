#include "src/sat/solver.h"

#include <algorithm>

namespace inflog {
namespace sat {

namespace {

// Luby restart unit, in conflicts.
constexpr uint64_t kRestartBase = 100;
// Conflicts before the first learnt-DB reduction when reduce_base is 0,
// and the extra conflicts added to the gap after each reduction.
constexpr uint64_t kDefaultReduceBase = 2000;
constexpr uint64_t kReduceInc = 300;

}  // namespace

Solver::Solver(SolverOptions options) : options_(options) {}

Var Solver::NewVar() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(kUndef);
  levels_.push_back(0);
  reasons_.push_back(kNullClauseRef);
  activity_.push_back(0.0);
  phase_.push_back(0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  lbd_seen_.resize(assigns_.size() + 1, 0);  // indexed by decision level
  HeapInsert(v);
  return v;
}

bool Solver::AddClause(Clause clause) {
  if (!ok_) return false;
  CancelUntil(0);
  // Root-level simplification: drop satisfied clauses and false literals,
  // detect tautologies and duplicates.
  std::sort(clause.begin(), clause.end());
  Clause simplified;
  Lit prev;
  for (const Lit& lit : clause) {
    INFLOG_CHECK(lit.var() >= 0 && lit.var() < num_vars())
        << "clause uses unallocated variable";
    if (LitValue(lit) == 1) return true;            // already satisfied
    if (LitValue(lit) == 0) continue;               // false at root: drop
    if (!simplified.empty() && lit == prev) continue;  // duplicate
    if (!simplified.empty() && lit == ~prev) return true;  // tautology
    simplified.push_back(lit);
    prev = lit;
  }
  if (simplified.empty()) {
    ok_ = false;
    return false;
  }
  if (simplified.size() == 1) {
    Enqueue(simplified[0], kNullClauseRef);
    if (Propagate() != kNullClauseRef) ok_ = false;
    return ok_;
  }
  const ClauseRef cref = arena_.Alloc(
      simplified.data(), static_cast<uint32_t>(simplified.size()),
      /*learned=*/false, /*lbd=*/0);
  clauses_.push_back(cref);
  AttachClause(cref);
  return true;
}

bool Solver::AddCnf(const Cnf& cnf) {
  while (num_vars() < cnf.num_vars) NewVar();
  for (const Clause& clause : cnf.clauses) {
    if (!AddClause(clause)) return false;
  }
  return true;
}

void Solver::AttachClause(ClauseRef cref) {
  const Lit* lits = arena_.lits(cref);
  INFLOG_DCHECK(arena_.size(cref) >= 2);
  watches_[lits[0].code].push_back(Watch{cref, lits[1]});
  watches_[lits[1].code].push_back(Watch{cref, lits[0]});
}

void Solver::DetachClause(ClauseRef cref) {
  const Lit* lits = arena_.lits(cref);
  for (int i = 0; i < 2; ++i) {
    std::vector<Watch>& ws = watches_[lits[i].code];
    for (size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].clause == cref) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::Enqueue(Lit l, ClauseRef reason) {
  INFLOG_DCHECK(LitValue(l) == kUndef);
  const Var v = l.var();
  assigns_[v] = l.negated() ? 0 : 1;
  levels_[v] = DecisionLevel();
  reasons_[v] = reason;
  trail_.push_back(l);
}

ClauseRef Solver::Propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    // p became true; visit clauses watching ~p.
    const Lit false_lit = ~p;
    std::vector<Watch>& ws = watches_[false_lit.code];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watch w = ws[i];
      if (LitValue(w.blocker) == 1) {
        ws[keep++] = w;
        continue;
      }
      Lit* lits = arena_.lits(w.clause);
      const uint32_t size = arena_.size(w.clause);
      // Normalize: the false literal sits at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      INFLOG_DCHECK(lits[1] == false_lit);
      const Lit first = lits[0];
      if (LitValue(first) == 1) {
        ws[keep++] = Watch{w.clause, first};
        continue;
      }
      // Find a replacement watch.
      bool found = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (LitValue(lits[k]) != 0) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1].code].push_back(Watch{w.clause, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // watch moved to another list
      // Unit or conflicting.
      ws[keep++] = Watch{w.clause, first};
      if (LitValue(first) == 0) {
        // Conflict: restore the remaining watches and report.
        for (size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        ws.resize(keep);
        qhead_ = trail_.size();
        return w.clause;
      }
      Enqueue(first, w.clause);
    }
    ws.resize(keep);
  }
  return kNullClauseRef;
}

uint32_t Solver::ComputeLbd(const Lit* lits, uint32_t size) {
  uint32_t count = 0;
  for (uint32_t i = 0; i < size; ++i) {
    const int level = levels_[lits[i].var()];
    if (level == 0) continue;  // root literals carry no glue
    if (lbd_seen_[level] == 0) {
      lbd_seen_[level] = 1;
      ++count;
    }
  }
  for (uint32_t i = 0; i < size; ++i) lbd_seen_[levels_[lits[i].var()]] = 0;
  return count;
}

void Solver::Analyze(ClauseRef conflict, Clause* learnt, int* backtrack_level,
                     uint32_t* lbd) {
  learnt->clear();
  learnt->push_back(Lit());  // slot for the asserting literal
  int counter = 0;
  Lit p;
  bool have_p = false;
  size_t index = trail_.size();
  ClauseRef reason = conflict;
  do {
    INFLOG_DCHECK(reason != kNullClauseRef) << "analysis reached a decision";
    if (arena_.learned(reason)) {
      BumpClause(reason);
      // LBD update on use: a reason clause participating in a conflict
      // gets its glue refreshed (only ever lowered).
      const uint32_t cur = ComputeLbd(arena_.lits(reason), arena_.size(reason));
      if (cur < arena_.lbd(reason)) arena_.set_lbd(reason, cur);
    }
    const Lit* lits = arena_.lits(reason);
    const uint32_t size = arena_.size(reason);
    for (uint32_t i = 0; i < size; ++i) {
      const Lit q = lits[i];
      if (have_p && q == p) continue;
      const Var v = q.var();
      if (seen_[v] || levels_[v] == 0) continue;
      seen_[v] = 1;
      BumpVar(v);
      if (levels_[v] >= DecisionLevel()) {
        ++counter;
      } else {
        learnt->push_back(q);
      }
    }
    // Walk the trail back to the next marked literal.
    while (!seen_[trail_[index - 1].var()]) --index;
    --index;
    p = trail_[index];
    have_p = true;
    reason = reasons_[p.var()];
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  (*learnt)[0] = ~p;

  // Backtrack level: the highest level among the non-asserting literals.
  *backtrack_level = 0;
  size_t max_pos = 1;
  for (size_t i = 1; i < learnt->size(); ++i) {
    if (levels_[(*learnt)[i].var()] > *backtrack_level) {
      *backtrack_level = levels_[(*learnt)[i].var()];
      max_pos = i;
    }
  }
  if (learnt->size() > 1) {
    std::swap((*learnt)[1], (*learnt)[max_pos]);
  }
  *lbd = ComputeLbd(learnt->data(), static_cast<uint32_t>(learnt->size()));
  for (size_t i = 0; i < learnt->size(); ++i) {
    seen_[(*learnt)[i].var()] = 0;
  }
}

void Solver::CancelUntil(int level) {
  if (DecisionLevel() <= level) return;
  const size_t bound = trail_lim_[level];
  for (size_t i = trail_.size(); i > bound; --i) {
    const Var v = trail_[i - 1].var();
    phase_[v] = assigns_[v];  // phase saving
    assigns_[v] = kUndef;
    reasons_[v] = kNullClauseRef;
    if (!HeapContains(v)) HeapInsert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

void Solver::BumpVar(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (HeapContains(v)) HeapSiftUp(heap_pos_[v]);
}

void Solver::BumpClause(ClauseRef cref) {
  const float a = arena_.activity(cref) + cla_inc_;
  arena_.set_activity(cref, a);
  if (a > 1e20f) {
    for (const ClauseRef lr : learnts_) {
      arena_.set_activity(lr, arena_.activity(lr) * 1e-20f);
    }
    cla_inc_ *= 1e-20f;
  }
}

Lit Solver::PickBranchLit() {
  while (!heap_.empty()) {
    const Var v = HeapPopMax();
    if (assigns_[v] == kUndef) return Lit(v, phase_[v] != 1);
  }
  return Lit();  // no unassigned variable remains
}

void Solver::HeapInsert(Var v) {
  heap_pos_[v] = static_cast<int32_t>(heap_.size());
  heap_.push_back(v);
  HeapSiftUp(heap_.size() - 1);
}

void Solver::HeapSiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!HeapLess(heap_[parent], heap_[i])) break;
    std::swap(heap_[parent], heap_[i]);
    heap_pos_[heap_[parent]] = static_cast<int32_t>(parent);
    heap_pos_[heap_[i]] = static_cast<int32_t>(i);
    i = parent;
  }
}

void Solver::HeapSiftDown(size_t i) {
  while (true) {
    const size_t left = 2 * i + 1;
    const size_t right = 2 * i + 2;
    size_t largest = i;
    if (left < heap_.size() && HeapLess(heap_[largest], heap_[left])) {
      largest = left;
    }
    if (right < heap_.size() && HeapLess(heap_[largest], heap_[right])) {
      largest = right;
    }
    if (largest == i) break;
    std::swap(heap_[i], heap_[largest]);
    heap_pos_[heap_[i]] = static_cast<int32_t>(i);
    heap_pos_[heap_[largest]] = static_cast<int32_t>(largest);
    i = largest;
  }
}

Var Solver::HeapPopMax() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    HeapSiftDown(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

uint64_t Solver::Luby(uint64_t i) {
  // Finds the i-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,...
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

void Solver::ReduceDB() {
  INFLOG_DCHECK(DecisionLevel() == 0);
  ++stats_.db_reductions;
  // Keep every glue-2-or-better clause plus the better half of the rest,
  // ranked by (LBD ascending, activity descending).
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const uint32_t la = arena_.lbd(a);
              const uint32_t lb = arena_.lbd(b);
              if (la != lb) return la < lb;
              return arena_.activity(a) > arena_.activity(b);
            });
  const size_t keep_rank = learnts_.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(learnts_.size());
  for (size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef cref = learnts_[i];
    if (arena_.lbd(cref) <= 2 || i < keep_rank) {
      kept.push_back(cref);
      continue;
    }
    ++stats_.deleted_clauses;
  }
  learnts_.swap(kept);
  GarbageCollect();
}

void Solver::RemoveRootSatisfied(std::vector<ClauseRef>* list) {
  size_t keep = 0;
  for (const ClauseRef cref : *list) {
    const Lit* lits = arena_.lits(cref);
    const uint32_t size = arena_.size(cref);
    bool satisfied = false;
    for (uint32_t i = 0; i < size; ++i) {
      if (LitValue(lits[i]) == 1) {
        satisfied = true;
        break;
      }
    }
    if (satisfied) {
      if (arena_.learned(cref)) ++stats_.deleted_clauses;
    } else {
      (*list)[keep++] = cref;
    }
  }
  list->resize(keep);
}

void Solver::GarbageCollect() {
  INFLOG_DCHECK(DecisionLevel() == 0);
  // Analysis never reads the reason of a level-0 literal, so clearing root
  // reasons here frees every clause to move or die.
  for (const Lit& l : trail_) reasons_[l.var()] = kNullClauseRef;
  RemoveRootSatisfied(&clauses_);
  RemoveRootSatisfied(&learnts_);
  ClauseArena fresh;
  for (std::vector<ClauseRef>* list : {&clauses_, &learnts_}) {
    for (ClauseRef& cref : *list) {
      // Watches are rebuilt below, so positions 0 and 1 must be non-false
      // literals; at a root BCP fixpoint every clause not satisfied at the
      // root has at least two.
      Lit* lits = arena_.lits(cref);
      const uint32_t size = arena_.size(cref);
      uint32_t w = 0;
      for (uint32_t i = 0; i < size && w < 2; ++i) {
        if (LitValue(lits[i]) != 0) std::swap(lits[w++], lits[i]);
      }
      INFLOG_DCHECK(w == 2);
      cref = arena_.CopyClause(cref, &fresh);
    }
  }
  arena_.Swap(&fresh);
  for (std::vector<Watch>& ws : watches_) ws.clear();
  // No clause watches a root-assigned literal again, so their lists hand
  // their memory back; each retired activation literal's would keep it.
  for (const Lit& l : trail_) {
    std::vector<Watch>().swap(watches_[l.code]);
    std::vector<Watch>().swap(watches_[(~l).code]);
  }
  for (const ClauseRef cref : clauses_) AttachClause(cref);
  for (const ClauseRef cref : learnts_) AttachClause(cref);
}

bool Solver::Simplify() {
  if (!ok_) return false;
  CancelUntil(0);
  if (Propagate() != kNullClauseRef) {
    ok_ = false;
    return false;
  }
  GarbageCollect();
  return true;
}

SolveResult Solver::Solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  CancelUntil(0);
  if (Propagate() != kNullClauseRef) {
    ok_ = false;
    return SolveResult::kUnsat;
  }
  for (const Lit& a : assumptions) {
    INFLOG_CHECK(a.var() >= 0 && a.var() < num_vars());
  }

  uint64_t restart_count = 0;
  uint64_t conflicts_until_restart = kRestartBase * Luby(restart_count);
  uint64_t conflicts_this_restart = 0;
  const uint64_t reduce_base =
      options_.reduce_base == 0 ? kDefaultReduceBase : options_.reduce_base;

  while (true) {
    const ClauseRef conflict = Propagate();
    if (conflict != kNullClauseRef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (DecisionLevel() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      Clause learnt;
      int backtrack_level = 0;
      uint32_t lbd = 0;
      Analyze(conflict, &learnt, &backtrack_level, &lbd);
      CancelUntil(backtrack_level);
      if (learnt.size() == 1) {
        CancelUntil(0);
        if (LitValue(learnt[0]) == 0) {
          ok_ = false;
          return SolveResult::kUnsat;
        }
        if (LitValue(learnt[0]) == kUndef) Enqueue(learnt[0], kNullClauseRef);
      } else {
        const ClauseRef cref = arena_.Alloc(
            learnt.data(), static_cast<uint32_t>(learnt.size()),
            /*learned=*/true, lbd);
        learnts_.push_back(cref);
        AttachClause(cref);
        BumpClause(cref);
        Enqueue(learnt[0], cref);
        ++stats_.learned_clauses;
      }
      DecayActivities();
      if (options_.max_conflicts != 0 &&
          stats_.conflicts >= options_.max_conflicts) {
        CancelUntil(0);
        return SolveResult::kUnknown;
      }
      if (StopRequested()) {
        CancelUntil(0);
        return SolveResult::kUnknown;
      }
      continue;
    }

    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      ++restart_count;
      conflicts_this_restart = 0;
      conflicts_until_restart = kRestartBase * Luby(restart_count);
      CancelUntil(0);
      // Learnt-database reduction piggybacks on restarts: the trail is at
      // the root, so no learnt clause is locked as a reason.
      if (stats_.conflicts >= reduce_conflicts_ + reduce_base +
                                  stats_.db_reductions * kReduceInc) {
        ReduceDB();
        reduce_conflicts_ = stats_.conflicts;
      }
      continue;
    }

    // Apply assumptions as pseudo-decisions, one level each.
    if (DecisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[DecisionLevel()];
      if (LitValue(a) == 0) {
        // Assumption conflicts with the current (root-implied) state.
        CancelUntil(0);
        return SolveResult::kUnsat;
      }
      NewDecisionLevel();
      if (LitValue(a) == kUndef) Enqueue(a, kNullClauseRef);
      continue;
    }

    if (StopRequested()) {
      CancelUntil(0);
      return SolveResult::kUnknown;
    }
    ++stats_.decisions;
    const Lit next = PickBranchLit();
    if (next.code == -1) {
      // Every variable is assigned: a model.
      model_.assign(assigns_.begin(), assigns_.end());
      CancelUntil(0);
      return SolveResult::kSat;
    }
    NewDecisionLevel();
    Enqueue(next, kNullClauseRef);
  }
}

}  // namespace sat
}  // namespace inflog
