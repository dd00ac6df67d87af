#include "src/eval/incremental.h"

#include <algorithm>
#include <array>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/ast/ast.h"
#include "src/ast/lexer.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/eval/plan.h"
#include "src/eval/seminaive.h"
#include "src/opt/passes.h"
#include "src/relation/relation.h"

namespace inflog {
namespace {

using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;

/// Iterates the live rows of `rel` in shard / physical-row order — the
/// deterministic walk every maintenance membership decision uses (never
/// an unordered map), so ApplyUpdate commits tuples in the same order on
/// every thread/shard/scheduler configuration.
template <typename Fn>
void ForEachRow(const Relation& rel, Fn&& fn) {
  for (size_t s = 0; s < rel.num_shards(); ++s) {
    const Relation::ShardView view = rel.shard(s);
    for (size_t r = 0; r < view.size(); ++r) {
      if (view.IsLive(r)) fn(view.Row(r));
    }
  }
}

/// Ascending body indices of the rule's positive atoms. Synthesized seed
/// rules place their small trigger literal (a delta or the pruned tuples)
/// at body index 0, so this order scans it first. The greedy
/// planner must not be trusted here: among atoms with no bound columns it
/// prefers the one with the fewest unbound variables, which can demote a
/// wide delta literal behind a full-relation scan and turn an O(delta)
/// pass into an O(database) one.
std::vector<size_t> AscendingAtomOrder(const Rule& rule) {
  std::vector<size_t> order;
  for (size_t j = 0; j < rule.body.size(); ++j) {
    if (rule.body[j].IsPositiveAtom()) order.push_back(j);
  }
  return order;
}

/// A per-phase synthesized program: companion predicates live here (the
/// real program is never touched), real predicates keep their names so
/// EDB atoms bind to the same database relations, and `overrides` routes
/// any predicate — companion or real IDB — to a caller-owned relation
/// through EvalContext::CreateWithOverrides.
class SynthBuilder {
 public:
  explicit SynthBuilder(const Program& real)
      : real_(real),
        prog_(real.shared_symbols()),
        real2synth_(real.num_predicates(), kNoPredicate) {}

  Program& prog() { return prog_; }
  const Program& prog() const { return prog_; }

  /// Synth id of real predicate `pred` (same name and arity).
  Result<uint32_t> Map(uint32_t pred) {
    if (real2synth_[pred] != kNoPredicate) return real2synth_[pred];
    const PredicateInfo& info = real_.predicate(pred);
    INFLOG_ASSIGN_OR_RETURN(
        const uint32_t id, prog_.GetOrAddPredicate(info.name, info.arity));
    real2synth_[pred] = id;
    return id;
  }

  /// Synth id of companion `<name><suffix>` of real predicate `pred`,
  /// same arity. Suffixes contain '~', which the surface parser rejects
  /// in identifiers, so companions can never collide with user
  /// predicates.
  Result<uint32_t> Companion(uint32_t pred, std::string_view suffix) {
    const PredicateInfo& info = real_.predicate(pred);
    return prog_.GetOrAddPredicate(StrCat(info.name, suffix), info.arity);
  }

  /// Routes synth predicate `synth_pred` to `rel` (must outlive the
  /// contexts created from this builder).
  void Bind(uint32_t synth_pred, const Relation* rel) {
    if (overrides_.size() <= synth_pred) {
      overrides_.resize(synth_pred + 1, nullptr);
    }
    overrides_[synth_pred] = rel;
  }

  /// `lit` with its predicate remapped into this program's id space.
  Result<Literal> MapLiteral(const Literal& lit) {
    Literal out = lit;
    if (lit.IsPositiveAtom() || lit.IsNegatedAtom()) {
      INFLOG_ASSIGN_OR_RETURN(out.predicate, Map(lit.predicate));
    }
    return out;
  }

  /// Binds every real IDB predicate this builder mapped — except those in
  /// `skip` (the phase's dynamic heads) — to the maintained state, so
  /// lower-unit predicates read their final values.
  void BindMappedIdb(IdbState* state,
                     const std::unordered_set<uint32_t>& skip) {
    for (uint32_t p = 0; p < real2synth_.size(); ++p) {
      if (real2synth_[p] == kNoPredicate || skip.count(p) != 0) continue;
      const PredicateInfo& info = real_.predicate(p);
      if (info.is_idb) {
        Bind(real2synth_[p], &state->relations[info.idb_index]);
      }
    }
  }

  const std::vector<const Relation*>& overrides() const { return overrides_; }

 private:
  const Program& real_;
  Program prog_;
  std::vector<uint32_t> real2synth_;
  std::vector<const Relation*> overrides_;
};

/// Appends to `sb` one rule per combination of per-literal choices
/// (`choices[j]` are the alternatives for body literal j; cartesian
/// product, odometer order — deterministic), head unchanged across
/// variants. Rule indices are collected into `out_rules`.
Status AddVariants(SynthBuilder* sb, const HeadAtom& head, uint32_t num_vars,
                   const std::vector<std::vector<Literal>>& choices,
                   std::vector<size_t>* out_rules) {
  std::vector<size_t> pick(choices.size(), 0);
  while (true) {
    Rule rule;
    rule.head = head;
    rule.num_vars = num_vars;
    for (size_t j = 0; j < choices.size(); ++j) {
      rule.body.push_back(choices[j][pick[j]]);
    }
    out_rules->push_back(sb->prog().rules().size());
    INFLOG_RETURN_IF_ERROR(sb->prog().AddRule(std::move(rule)));
    size_t j = 0;
    for (; j < choices.size(); ++j) {
      if (++pick[j] < choices[j].size()) break;
      pick[j] = 0;
    }
    if (j == choices.size()) break;
  }
  return Status::OK();
}

/// One seeded phase of DRed: executes the `seeds` rules against `state`
/// into per-IDB buffers, merges those into `state`, and closes them under
/// the `closure` rules by a semi-naive run resumed from the merged rows.
/// A seeded run fires only rules with a positive IDB body literal (the
/// only ones RelationalConsequence builds delta plans for), so only those
/// join it, and a unit without recursion runs no semi-naive loop.
void RunSeededPhase(const EvalContext& ctx, const std::vector<size_t>& seeds,
                    const std::vector<size_t>& closure,
                    std::unique_ptr<ThreadPool>* pool, IdbState* state,
                    EvalStats* st) {
  const Program& prog = ctx.program();
  // Every IDB predicate of a phase program is dynamic.
  const std::vector<bool> dynamic(prog.idb_predicates().size(), true);
  std::vector<Relation> buffers;
  buffers.reserve(state->relations.size());
  for (const Relation& rel : state->relations) {
    buffers.emplace_back(rel.arity(), rel.num_shards());
  }
  for (const size_t r : seeds) {
    const Rule& rule = prog.rules()[r];
    const RulePlan plan =
        PlanRuleWithOrder(prog, r, dynamic, -1, AscendingAtomOrder(rule));
    ExecutePlan(ctx, plan, *state, nullptr,
                &buffers[prog.predicate(rule.head.predicate).idb_index], st);
  }
  // Merge shard by shard, recording the appended physical ranges: the
  // deltas the closure run resumes from.
  DeltaRanges ranges;
  bool any = false;
  for (size_t i = 0; i < buffers.size(); ++i) {
    Relation& target = state->relations[i];
    ranges.emplace_back(target.num_shards());
    for (size_t s = 0; s < target.num_shards(); ++s) {
      const size_t before = target.ShardSize(s);
      target.MergeShardFrom(buffers[i], s);
      ranges[i][s] = {before, target.ShardSize(s)};
      any |= target.ShardSize(s) != before;
    }
  }
  SemiNaiveOptions sn;
  for (const size_t r : closure) {
    if (!DeltaCandidates(prog, prog.rules()[r], dynamic).empty()) {
      sn.rule_subset.push_back(r);
    }
  }
  // An empty subset would mean every rule.
  if (!any || sn.rule_subset.empty()) return;
  sn.pool_cache = pool;
  sn.initial_deltas = &ranges;
  st->Add(RunSemiNaive(ctx, sn, state).stats);
}

/// Compacts tombstone-heavy relations between updates (valid only while
/// no delta ranges are outstanding). The threshold keeps compaction
/// amortized: a relation is rebuilt only when at least half its physical
/// rows are dead.
void MaybeCompact(Relation* rel) {
  const size_t dead = rel->dead_rows();
  if (dead >= 1024 && dead >= rel->size()) rel->CompactDead();
}

}  // namespace

Result<UpdateBatch> ParseUpdateLine(std::string_view line,
                                    SymbolTable* symbols) {
  UpdateBatch batch;
  TokenStream in(line);
  while (in.Peek().kind != TokenKind::kEof) {
    const Token sign = in.Take();
    if (sign.kind != TokenKind::kPlus && sign.kind != TokenKind::kMinus) {
      return TokenStream::Err(sign, "expected '+' or '-'");
    }
    auto& side = sign.kind == TokenKind::kPlus ? batch.inserts : batch.deletes;
    auto& [name, tuple] = side.emplace_back();
    std::string_view read;
    INFLOG_RETURN_IF_ERROR(ReadGroundAtom(&in, symbols, &read, &tuple));
    name = read;
  }
  return batch;
}

IncrementalSession::IncrementalSession(const Program& program,
                                       Database* database,
                                       const IncrementalOptions& options)
    : program_(&program),
      database_(database),
      options_(options),
      analysis_(AnalyzeProgram(program)) {
  // Output predicates would let dead-rule elimination drop rules the
  // maintainer needs intact.
  options_.context.output_predicates.clear();
}

Result<std::unique_ptr<IncrementalSession>> IncrementalSession::Create(
    const Program& program, Database* database,
    const IncrementalOptions& options) {
  std::unique_ptr<IncrementalSession> session(
      new IncrementalSession(program, database, options));
  INFLOG_RETURN_IF_ERROR(session->Init());
  return session;
}

Status IncrementalSession::Init() {
  all_safe_ = analysis_.AllSafe();
  switch (options_.semantics) {
    case SemanticsKind::kStratified:
      capable_ = analysis_.stratifiable;
      break;
    case SemanticsKind::kInflationary:
      // The inflationary fixpoint of a positive program is the least
      // fixpoint, which DRed maintains exactly. Non-positive
      // inflationary results are stage-sensitive: a deletion can change
      // which stage a negated literal was consulted at, with non-local
      // effects no delta algorithm bounds — recompute instead.
      capable_ = program_->IsPositive();
      break;
    case SemanticsKind::kWellFounded:
    case SemanticsKind::kStable:
      capable_ = false;
      break;
  }
  EvalStats scratch;
  INFLOG_ASSIGN_OR_RETURN(state_, ComputeFullState(&scratch));
  num_shards_ = state_.relations.empty()
                    ? ResolvedNumShards(options_.context)
                    : state_.relations[0].num_shards();
  // The units are the analysis's IDB components, in its dependency-first
  // order. Negative edges count: they never close a cycle under the
  // semantics maintained here, but a deletion under negation propagates
  // too, so they order the units.
  std::vector<size_t> unit_of(program_->num_predicates());
  for (const std::vector<uint32_t>& component : analysis_.components) {
    if (!program_->predicate(component.front()).is_idb) continue;
    for (const uint32_t p : component) unit_of[p] = units_.size();
    units_.push_back(Unit{component, {}});
  }
  for (size_t r = 0; r < program_->rules().size(); ++r) {
    units_[unit_of[program_->rules()[r].head.predicate]].rules.push_back(r);
  }
  return Status::OK();
}

Result<IdbState> IncrementalSession::ComputeFullState(EvalStats* stats) {
  INFLOG_ASSIGN_OR_RETURN(EvalOutcome outcome,
                          EvalSemantics(*program_, *database_, options_));
  // Whatever the run counted joins the session's counters: executor work,
  // or the stable pipeline's SAT search.
  if (const EvalStats* run = outcome.stats()) stats->Add(*run);
  return std::move(outcome.state());
}

Status IncrementalSession::FullRecompute(EvalStats* stats) {
  INFLOG_ASSIGN_OR_RETURN(state_, ComputeFullState(stats));
  if (!state_.relations.empty()) {
    num_shards_ = state_.relations[0].num_shards();
  }
  return Status::OK();
}

EvalContextOptions IncrementalSession::PhaseOptions() const {
  EvalContextOptions opts = options_.context;
  opts.allow_missing_edb = true;  // absent companions read as empty
  opts.reject_unsafe_negation = false;
  // Maintenance plans are ordered explicitly (delta literal first) or by
  // the greedy planner after a delta binding; the cost-model passes would
  // reorder against stale statistics and sharing would complicate the
  // seeded delta bookkeeping.
  opts.optimizer_passes = OptimizerPasses::None();
  opts.num_shards = num_shards_;
  return opts;
}

Result<UpdateResult> IncrementalSession::ApplyUpdate(
    const UpdateBatch& batch) {
  UpdateResult result;
  EvalStats& st = result.stats;
  const SymbolTable& symbols = *program_->shared_symbols();

  // --- Validate the batch and net the EDB changes; no mutation yet, so a
  // rejected batch leaves the session consistent. ---
  struct EdbChange {
    size_t arity = 0;
    const Relation* old_rel = nullptr;  // pre-update relation, if loaded
    std::vector<Tuple> del, ins;        // net lists, batch order
    TupleSet raw_ins, del_seen, ins_seen;
  };
  std::map<std::string, EdbChange, std::less<>> edb;
  const auto resolve = [&](const std::string& name,
                           const Tuple& tuple) -> Result<EdbChange*> {
    auto it = edb.find(name);
    if (it == edb.end()) {
      EdbChange change;
      const Result<uint32_t> pred = program_->FindPredicate(name);
      if (pred.ok()) {
        const PredicateInfo& info = program_->predicate(pred.value());
        if (info.is_idb) {
          return Status::InvalidArgument(
              StrCat("cannot update derived relation ", name));
        }
        change.arity = info.arity;
      }
      const Result<const Relation*> rel = database_->GetRelation(name);
      if (rel.ok()) {
        change.old_rel = rel.value();
        if (!pred.ok()) change.arity = rel.value()->arity();
      } else if (!pred.ok()) {
        return Status::NotFound(
            StrCat("unknown relation in update: ", name));
      }
      it = edb.emplace(name, std::move(change)).first;
    }
    if (tuple.size() != it->second.arity) {
      return Status::InvalidArgument(
          StrCat("update tuple for ", name, " has ", tuple.size(),
                 " values, expected ", it->second.arity));
    }
    for (const Value v : tuple) {
      if (v >= symbols.size()) {
        return Status::InvalidArgument(
            StrCat("update tuple for ", name, " holds uninterned value id ",
                   v));
      }
    }
    return &it->second;
  };
  for (const auto& [name, tuple] : batch.inserts) {
    INFLOG_ASSIGN_OR_RETURN(EdbChange * change, resolve(name, tuple));
    change->raw_ins.insert(tuple);
  }
  // net_del = {t in deletes : t not re-inserted, t in the old relation};
  // net_ins = {t in inserts : t not in the old relation}. A tuple both
  // deleted and inserted lands where the old state had it: deletes apply
  // first, inserts win.
  for (const auto& [name, tuple] : batch.deletes) {
    INFLOG_ASSIGN_OR_RETURN(EdbChange * change, resolve(name, tuple));
    if (change->raw_ins.count(tuple) != 0) continue;
    if (change->old_rel == nullptr || !change->old_rel->Contains(tuple)) {
      continue;
    }
    if (change->del_seen.insert(tuple).second) change->del.push_back(tuple);
  }
  for (const auto& [name, tuple] : batch.inserts) {
    EdbChange& change = edb.find(name)->second;
    if (change.old_rel != nullptr && change.old_rel->Contains(tuple)) {
      continue;
    }
    if (change.ins_seen.insert(tuple).second) change.ins.push_back(tuple);
  }

  // --- Apply the net changes to the database. ---
  bool universe_grew = false;
  for (auto& [name, change] : edb) {
    if (!change.del.empty()) {
      INFLOG_ASSIGN_OR_RETURN(Relation * rel,
                              database_->MutableRelation(name));
      for (const Tuple& t : change.del) rel->Erase(t);
    }
    for (const Tuple& t : change.ins) {
      for (const Value v : t) universe_grew |= !database_->InUniverse(v);
      INFLOG_RETURN_IF_ERROR(database_->AddFact(name, t));
    }
    st.incremental_edb_deleted += change.del.size();
    st.incremental_edb_inserted += change.ins.size();
  }

  // --- Route: incremental maintenance or the recompute oracle. ---
  // Universe growth matters only to enumerating (unsafe) rules, whose
  // candidate space is the universe itself — no delta bounds that.
  if (!capable_ || (universe_grew && !all_safe_)) {
    INFLOG_RETURN_IF_ERROR(FullRecompute(&st));
    st.incremental_oracle_runs++;
    result.used_oracle = true;
    // A full recompute may move any IDB relation: report every one plus
    // the EDB relations the batch actually changed.
    for (const auto& [name, change] : edb) {
      if (!change.del.empty() || !change.ins.empty()) {
        result.changed_relations.push_back(name);
      }
    }
    for (const uint32_t pred : program_->idb_predicates()) {
      result.changed_relations.push_back(program_->predicate(pred).name);
    }
    std::sort(result.changed_relations.begin(),
              result.changed_relations.end());
    cumulative_.Add(st);
    return result;
  }
  st.incremental_updates++;

  // --- Maintain affected units in dependency order, threading net
  // deltas downstream through `changed`. ---
  std::map<uint32_t, PredDelta> changed;
  for (const auto& [name, change] : edb) {
    if (change.del.empty() && change.ins.empty()) continue;
    const Result<uint32_t> pred = program_->FindPredicate(name);
    if (!pred.ok()) continue;  // no rule can read it
    PredDelta delta(change.arity);
    for (const Tuple& t : change.del) delta.del.Insert(t);
    for (const Tuple& t : change.ins) delta.ins.Insert(t);
    changed.emplace(pred.value(), std::move(delta));
  }

  if (!changed.empty()) {
    for (const Unit& unit : units_) {
      bool affected = false;
      for (const size_t r : unit.rules) {
        for (const Literal& lit : program_->rules()[r].body) {
          if ((lit.IsPositiveAtom() || lit.IsNegatedAtom()) &&
              changed.count(lit.predicate) != 0) {
            affected = true;
            break;
          }
        }
        if (affected) break;
      }
      if (!affected) continue;
      st.incremental_dred_units++;
      INFLOG_RETURN_IF_ERROR(MaintainDRed(unit, &changed, &st));
    }
  }

  // Report exactly what moved: EDB relations with a non-empty net delta
  // and the predicates whose maintained delta is non-empty (`changed`
  // holds the EDB seeds too, so dedupe after merging).
  for (const auto& [name, change] : edb) {
    if (!change.del.empty() || !change.ins.empty()) {
      result.changed_relations.push_back(name);
    }
  }
  for (const auto& [pred, delta] : changed) {
    if (delta.any()) {
      result.changed_relations.push_back(program_->predicate(pred).name);
    }
  }
  std::sort(result.changed_relations.begin(), result.changed_relations.end());
  result.changed_relations.erase(std::unique(result.changed_relations.begin(),
                                             result.changed_relations.end()),
                                 result.changed_relations.end());

  // Reclaim tombstone-heavy relations now that no delta ranges are live.
  for (auto& [name, change] : edb) {
    if (change.del.empty()) continue;
    INFLOG_ASSIGN_OR_RETURN(Relation * rel, database_->MutableRelation(name));
    MaybeCompact(rel);
  }
  for (Relation& rel : state_.relations) MaybeCompact(&rel);

  if (options_.verify) {
    EvalStats verify_stats;
    INFLOG_ASSIGN_OR_RETURN(const IdbState fresh,
                            ComputeFullState(&verify_stats));
    st.incremental_oracle_runs++;
    if (!(state_ == fresh)) {
      return Status::Internal(
          "incremental maintenance diverged from the from-scratch "
          "evaluation (verify_incremental)");
    }
  }
  cumulative_.Add(st);
  return result;
}

size_t IncrementalSession::CompactDeadRelations(double threshold,
                                                size_t min_rows) {
  size_t compacted = 0;
  const auto consider = [&](Relation* rel) {
    const size_t dead = rel->dead_rows();
    const size_t total = dead + rel->size();
    if (total < min_rows || dead == 0) return;
    if (static_cast<double>(dead) < threshold * static_cast<double>(total)) {
      return;
    }
    rel->CompactDead();
    ++compacted;
  };
  for (const std::string& name : database_->RelationNames()) {
    const Result<Relation*> rel = database_->MutableRelation(name);
    if (rel.ok()) consider(*rel);
  }
  for (Relation& rel : state_.relations) consider(&rel);
  return compacted;
}

Status IncrementalSession::MaintainDRed(const Unit& unit,
                                        std::map<uint32_t, PredDelta>* changed,
                                        EvalStats* st) {
  const std::unordered_set<uint32_t> in_unit(unit.preds.begin(),
                                             unit.preds.end());
  const std::vector<Rule>& rules = program_->rules();
  const auto input_delta = [&](const Literal& lit) -> PredDelta* {
    if (!lit.IsPositiveAtom() && !lit.IsNegatedAtom()) return nullptr;
    if (in_unit.count(lit.predicate) != 0) return nullptr;
    const auto it = changed->find(lit.predicate);
    return it != changed->end() && it->second.any() ? &it->second : nullptr;
  };

  // ---- Phase 1: overdelete — close the deleted set over the unit's rules
  // against the frozen old unit state. Input literals are rewritten to
  // over-approximate their old value from the new one: old B ⊆ B ∪ B~dn
  // for positive literals, old ¬B ⊆ ¬B ∪ B~in for negated ones. The
  // over-approximation is sound because phase 3 rederives anything
  // deleted too eagerly. ----
  SynthBuilder del_sb(*program_);
  std::vector<size_t> del_seed_rules, del_prop_rules;
  std::map<uint32_t, uint32_t> del_head;  // real pred → P~del synth id
  const auto old_view = [&](const Literal& lk) -> Result<std::vector<Literal>> {
    INFLOG_ASSIGN_OR_RETURN(const Literal cur, del_sb.MapLiteral(lk));
    const PredDelta* delta = input_delta(lk);
    if (delta != nullptr && lk.IsPositiveAtom()) {
      INFLOG_ASSIGN_OR_RETURN(const uint32_t dn,
                              del_sb.Companion(lk.predicate, "~dn"));
      del_sb.Bind(dn, &delta->del);
      return std::vector<Literal>{cur, Literal::Pos(dn, lk.args)};
    }
    if (delta != nullptr && lk.IsNegatedAtom()) {
      INFLOG_ASSIGN_OR_RETURN(const uint32_t in,
                              del_sb.Companion(lk.predicate, "~in"));
      del_sb.Bind(in, &delta->ins);
      return std::vector<Literal>{cur, Literal::Pos(in, lk.args)};
    }
    // In-unit literals read the frozen old unit state (the session
    // relations, pruned only in phase 2); unchanged inputs and
    // (in)equalities are identical in both states.
    return std::vector<Literal>{cur};
  };
  for (const size_t r : unit.rules) {
    const Rule& orig = rules[r];
    INFLOG_ASSIGN_OR_RETURN(const uint32_t dhead,
                            del_sb.Companion(orig.head.predicate, "~del"));
    del_head[orig.head.predicate] = dhead;
    for (size_t j = 0; j < orig.body.size(); ++j) {
      const Literal& lj = orig.body[j];
      std::optional<Literal> trigger;
      std::vector<size_t>* sink = nullptr;
      if (lj.IsPositiveAtom() && in_unit.count(lj.predicate) != 0) {
        // Propagation: a deleted in-unit tuple may kill this match.
        INFLOG_ASSIGN_OR_RETURN(const uint32_t qdel,
                                del_sb.Companion(lj.predicate, "~del"));
        trigger = Literal::Pos(qdel, lj.args);
        sink = &del_prop_rules;
      } else if (const PredDelta* delta = input_delta(lj)) {
        // Seed: a net-deleted input tuple (or net-inserted one under a
        // negated literal) kills matches directly.
        const bool positive = lj.IsPositiveAtom();
        INFLOG_ASSIGN_OR_RETURN(
            const uint32_t trig,
            del_sb.Companion(lj.predicate, positive ? "~dn" : "~in"));
        del_sb.Bind(trig, positive ? &delta->del : &delta->ins);
        trigger = Literal::Pos(trig, lj.args);
        sink = &del_seed_rules;
      } else {
        continue;
      }
      std::vector<std::vector<Literal>> alts = {{*trigger}};
      for (size_t k = 0; k < orig.body.size(); ++k) {
        if (k == j) continue;
        INFLOG_ASSIGN_OR_RETURN(std::vector<Literal> alt,
                                old_view(orig.body[k]));
        alts.push_back(std::move(alt));
      }
      INFLOG_RETURN_IF_ERROR(AddVariants(&del_sb,
                                         HeadAtom{dhead, orig.head.args},
                                         orig.num_vars, alts, sink));
    }
  }

  std::map<uint32_t, Relation> removed;  // real pred → pruned tuples
  for (const uint32_t p : unit.preds) {
    removed.emplace(p, Relation(program_->predicate(p).arity, 1));
  }

  if (!del_seed_rules.empty()) {
    // Unit predicates read the frozen pre-update state; lower IDB
    // predicates read their (already final) maintained values.
    del_sb.BindMappedIdb(&state_, {});
    INFLOG_ASSIGN_OR_RETURN(
        const EvalContext del_ctx,
        EvalContext::CreateWithOverrides(del_sb.prog(), *database_,
                                         del_sb.overrides(), PhaseOptions()));
    IdbState del_state = MakeEmptyIdbState(del_sb.prog(), num_shards_);
    RunSeededPhase(del_ctx, del_seed_rules, del_prop_rules, &pool_,
                   &del_state, st);
    // ---- Phase 2: prune the candidates that are actually present. ----
    for (const auto& [real, dhead] : del_head) {
      Relation& target = state_.relations[program_->predicate(real).idb_index];
      Relation& rm = removed.at(real);
      const size_t del_idb = del_sb.prog().predicate(dhead).idb_index;
      ForEachRow(del_state.relations[del_idb], [&](TupleView row) {
        st->incremental_del_candidates++;
        if (target.Erase(row)) rm.Insert(row);
      });
    }
  }

  // ---- Phases 3 + 4 share one synthesized program: the unit predicates
  // are its dynamic IDB (the session relations are moved in and out, not
  // copied), rederivation rules re-prove pruned tuples (P~rm first), and
  // insertion seeds trigger the original rules on net-inserted inputs. ----
  SynthBuilder ins_sb(*program_);
  std::vector<size_t> reder_rules, ins_seed_rules, closure_rules;
  std::map<uint32_t, uint32_t> rm_id;  // real pred → P~rm synth id
  for (const size_t r : unit.rules) {
    const Rule& orig = rules[r];
    INFLOG_ASSIGN_OR_RETURN(const uint32_t h2, ins_sb.Map(orig.head.predicate));
    INFLOG_ASSIGN_OR_RETURN(const uint32_t rm,
                            ins_sb.Companion(orig.head.predicate, "~rm"));
    rm_id[orig.head.predicate] = rm;
    // (a) Rederive: H :- H~rm(head args), <body over the current state>.
    // Doubles as its own seed (explicit rm-first plan) and as a closure
    // rule (delta plans pin the in-unit body literals).
    Rule reder;
    reder.head = HeadAtom{h2, orig.head.args};
    reder.num_vars = orig.num_vars;
    reder.body.push_back(Literal::Pos(rm, orig.head.args));
    for (const Literal& lk : orig.body) {
      INFLOG_ASSIGN_OR_RETURN(Literal mapped, ins_sb.MapLiteral(lk));
      reder.body.push_back(std::move(mapped));
    }
    reder_rules.push_back(ins_sb.prog().rules().size());
    INFLOG_RETURN_IF_ERROR(ins_sb.prog().AddRule(std::move(reder)));
    // (b) Insertion seeds: one per changed-input literal, trigger first,
    // the rest of the body over the current state — for pure insertions
    // the other literals' new values already include their deltas, so no
    // old/new splitting is needed.
    for (size_t j = 0; j < orig.body.size(); ++j) {
      const Literal& lj = orig.body[j];
      const PredDelta* delta = input_delta(lj);
      if (delta == nullptr) continue;
      const bool positive = lj.IsPositiveAtom();
      // A positive literal gains matches from net-inserted tuples; a
      // negated one from net-deleted tuples (¬B newly true).
      INFLOG_ASSIGN_OR_RETURN(
          const uint32_t trig,
          ins_sb.Companion(lj.predicate, positive ? "~in" : "~dn"));
      ins_sb.Bind(trig, positive ? &delta->ins : &delta->del);
      Rule seed;
      seed.head = HeadAtom{h2, orig.head.args};
      seed.num_vars = orig.num_vars;
      seed.body.push_back(Literal::Pos(trig, lj.args));
      for (size_t k = 0; k < orig.body.size(); ++k) {
        if (k == j) continue;
        INFLOG_ASSIGN_OR_RETURN(Literal mapped,
                                ins_sb.MapLiteral(orig.body[k]));
        seed.body.push_back(std::move(mapped));
      }
      ins_seed_rules.push_back(ins_sb.prog().rules().size());
      INFLOG_RETURN_IF_ERROR(ins_sb.prog().AddRule(std::move(seed)));
    }
    // (c) Closure: the original rule verbatim, driven by seeded deltas.
    Rule closure;
    closure.head = HeadAtom{h2, orig.head.args};
    closure.num_vars = orig.num_vars;
    for (const Literal& lk : orig.body) {
      INFLOG_ASSIGN_OR_RETURN(Literal mapped, ins_sb.MapLiteral(lk));
      closure.body.push_back(std::move(mapped));
    }
    closure_rules.push_back(ins_sb.prog().rules().size());
    INFLOG_RETURN_IF_ERROR(ins_sb.prog().AddRule(std::move(closure)));
  }
  for (const auto& [real, rm] : rm_id) ins_sb.Bind(rm, &removed.at(real));
  ins_sb.BindMappedIdb(&state_, in_unit);

  INFLOG_ASSIGN_OR_RETURN(
      const EvalContext ins_ctx,
      EvalContext::CreateWithOverrides(ins_sb.prog(), *database_,
                                       ins_sb.overrides(), PhaseOptions()));
  // Move the unit relations into the phase state, recording their
  // physical shard sizes: every row appended past these during phases
  // 3–4 is a net addition candidate (Erase tombstones in place, so the
  // pruning above did not move anything).
  const size_t num_unit_idb = ins_sb.prog().idb_predicates().size();
  std::vector<size_t> real_idb_of(num_unit_idb);
  std::vector<const Relation*> removed_of(num_unit_idb);
  std::vector<std::vector<size_t>> base(num_unit_idb);
  IdbState phase = MakeEmptyIdbState(ins_sb.prog(), num_shards_);
  for (size_t si = 0; si < num_unit_idb; ++si) {
    const uint32_t sp = ins_sb.prog().idb_predicates()[si];
    INFLOG_ASSIGN_OR_RETURN(
        const uint32_t real,
        program_->FindPredicate(ins_sb.prog().predicate(sp).name));
    real_idb_of[si] = program_->predicate(real).idb_index;
    removed_of[si] = &removed.at(real);
    phase.relations[si] = std::move(state_.relations[real_idb_of[si]]);
    for (size_t s = 0; s < num_shards_; ++s) {
      base[si].push_back(phase.relations[si].ShardSize(s));
    }
  }

  // ---- Phase 3: rederive. ----
  bool any_removed = false;
  for (const auto& [p, rm] : removed) any_removed |= !rm.empty();
  if (any_removed) {
    RunSeededPhase(ins_ctx, reder_rules, reder_rules, &pool_, &phase, st);
    for (size_t si = 0; si < num_unit_idb; ++si) {
      ForEachRow(*removed_of[si], [&](TupleView row) {
        if (phase.relations[si].Contains(row)) st->incremental_rederived++;
      });
    }
  }

  // ---- Phase 4: insert. ----
  if (!ins_seed_rules.empty()) {
    RunSeededPhase(ins_ctx, ins_seed_rules, closure_rules, &pool_, &phase,
                   st);
  }

  // Move the unit relations home and net out the update's effect:
  // removed-and-not-back is a deletion, appended-and-not-removed is an
  // insertion (a tuple both removed and re-appended cancels).
  for (size_t si = 0; si < num_unit_idb; ++si) {
    Relation& target = state_.relations[real_idb_of[si]];
    target = std::move(phase.relations[si]);
    const Relation& rm = *removed_of[si];
    PredDelta out(target.arity());
    ForEachRow(rm, [&](TupleView row) {
      if (!target.Contains(row)) out.del.Insert(row);
    });
    for (size_t s = 0; s < num_shards_; ++s) {
      const Relation::ShardView view = target.shard(s);
      for (size_t row = base[si][s]; row < view.size(); ++row) {
        if (view.IsLive(row) && !rm.Contains(view.Row(row))) {
          out.ins.Insert(view.Row(row));
        }
      }
    }
    st->incremental_idb_inserted += out.ins.size();
    st->incremental_idb_deleted += out.del.size();
    if (out.any()) {
      changed->emplace(program_->idb_predicates()[real_idb_of[si]],
                       std::move(out));
    }
  }
  return Status::OK();
}

}  // namespace inflog
