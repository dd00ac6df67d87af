#include "src/eval/executor.h"

#include <algorithm>
#include <iterator>

#include "src/base/logging.h"

namespace inflog {
namespace {

/// Recursive interpreter. Bindings are a flat Value array indexed by the
/// rule's variable ids, with kNoValue marking unbound; each recursion level
/// undoes exactly the bindings it introduced.
class Interpreter {
 public:
  Interpreter(const EvalContext& ctx, const RulePlan& plan,
              const IdbState& state, const DeltaRanges* deltas,
              Relation* out, EvalStats* stats,
              const std::vector<Relation>* shared)
      : ctx_(ctx),
        plan_(plan),
        rule_(ctx.program().rules()[plan.rule_index]),
        head_(plan.has_projection ? plan.projection : rule_.head.args),
        state_(state),
        deltas_(deltas),
        shared_(shared),
        out_(out),
        stats_(stats) {
    bindings_.assign(rule_.num_vars, kNoValue);
    head_tuple_.resize(head_.size());
    // One scratch slot per op depth: a kMatch at depth d recurses only
    // into depths > d, so slot d is never reused while a row of d is
    // being expanded — the buffers live for the whole run instead of
    // being heap-allocated per row match.
    match_scratch_.resize(plan.ops.size());
  }

  void Run() {
    if (plan_.never_fires) return;
    Step(0);
  }

 private:
  Value TermValue(const Term& t) const {
    if (t.IsConstant()) return t.id;
    INFLOG_DCHECK(bindings_[t.id] != kNoValue) << "unbound term at runtime";
    return bindings_[t.id];
  }

  void Step(size_t op_index) {
    if (op_index == plan_.ops.size()) {
      Emit();
      return;
    }
    const PlanOp& op = plan_.ops[op_index];
    switch (op.kind) {
      case PlanOp::Kind::kMatch:
        StepMatch(op, op_index);
        return;
      case PlanOp::Kind::kBindEq: {
        const Value v = TermValue(op.source);
        INFLOG_DCHECK(bindings_[op.target_var] == kNoValue);
        bindings_[op.target_var] = v;
        Step(op_index + 1);
        bindings_[op.target_var] = kNoValue;
        return;
      }
      case PlanOp::Kind::kFilterEq:
        if (TermValue(op.lhs) == TermValue(op.rhs)) Step(op_index + 1);
        return;
      case PlanOp::Kind::kFilterNeq:
        if (TermValue(op.lhs) != TermValue(op.rhs)) Step(op_index + 1);
        return;
      case PlanOp::Kind::kFilterNegAtom: {
        scratch_.clear();
        for (const Term& t : op.args) scratch_.push_back(TermValue(t));
        const Relation& rel = ctx_.Resolve(op.predicate, state_);
        if (!rel.Contains(scratch_)) Step(op_index + 1);
        return;
      }
      case PlanOp::Kind::kEnumerate: {
        INFLOG_DCHECK(bindings_[op.enum_var] == kNoValue);
        for (Value v : ctx_.universe()) {
          ++stats_->enumerations;
          bindings_[op.enum_var] = v;
          Step(op_index + 1);
        }
        bindings_[op.enum_var] = kNoValue;
        return;
      }
    }
  }

  /// Matches `op.args` against `row`; binds previously unbound variables,
  /// recording them in `trail` for the caller to undo. Returns false (with
  /// a clean trail) on mismatch.
  bool MatchRow(const PlanOp& op, TupleView row,
                std::vector<uint32_t>* trail) {
    ++stats_->rows_matched;
    for (size_t i = 0; i < op.args.size(); ++i) {
      const Term& t = op.args[i];
      if (t.IsConstant()) {
        if (row[i] != t.id) return Undo(trail);
      } else if (bindings_[t.id] != kNoValue) {
        if (row[i] != bindings_[t.id]) return Undo(trail);
      } else {
        bindings_[t.id] = row[i];
        trail->push_back(t.id);
      }
    }
    return true;
  }

  bool Undo(std::vector<uint32_t>* trail) {
    for (uint32_t v : *trail) bindings_[v] = kNoValue;
    trail->clear();
    return false;
  }

  void StepMatch(const PlanOp& op, size_t op_index) {
    INFLOG_DCHECK(op.shared_source < 0 ||
                  (shared_ != nullptr &&
                   static_cast<size_t>(op.shared_source) < shared_->size()))
        << "shared-scan op without its intermediate";
    const Relation& rel = op.shared_source >= 0
                              ? (*shared_)[op.shared_source]
                              : ctx_.Resolve(op.predicate, state_);
    const size_t num_shards = rel.num_shards();
    MatchScratch& scratch = match_scratch_[op_index];
    std::vector<uint32_t>& trail = scratch.trail;
    trail.clear();
    auto try_row = [&](TupleView row) {
      if (MatchRow(op, row, &trail)) {
        Step(op_index + 1);
        Undo(&trail);
      }
    };
    if (op.is_delta_scan) {
      INFLOG_DCHECK(deltas_ != nullptr) << "delta plan without delta ranges";
      const PredicateInfo& info = ctx_.program().predicate(op.predicate);
      const std::vector<ShardRange>& ranges = (*deltas_)[info.idb_index];
      INFLOG_DCHECK(ranges.size() == num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        const Relation::ShardView view = rel.shard(s);
        for (size_t r = ranges[s].first; r < ranges[s].second; ++r) {
          try_row(view.Row(r));
        }
      }
      return;
    }
    if (!op.key_cols.empty() && ctx_.use_join_indexes()) {
      // Probe the relation's built-in index on each bound column and keep
      // the two shortest posting lists. With a single bound column the
      // shortest list is iterated directly; with ≥2 the two shortest are
      // intersected first, so several low-cardinality columns no longer
      // degrade toward a scan of the shortest list. MatchRow re-checks any
      // remaining columns. The best/second choice and the skew cutoff use
      // counts summed over shards, so which columns drive the probe — and
      // every stat below — is independent of the shard count; only the
      // per-shard walk order reflects the sharding.
      ++stats_->index_lookups;
      scratch.spans.resize(op.key_cols.size() * num_shards);
      size_t best_total = 0, second_total = 0;
      size_t best_off = 0, second_off = 0;
      bool have_best = false, have_second = false;
      for (size_t ci = 0; ci < op.key_cols.size(); ++ci) {
        const size_t col = op.key_cols[ci];
        const size_t off = ci * num_shards;
        const size_t total = rel.EqualRowsPerShard(
            col, TermValue(op.args[col]), &scratch.spans[off]);
        if (!have_best || total < best_total) {
          second_total = best_total;
          second_off = best_off;
          have_second = have_best;
          best_total = total;
          best_off = off;
          have_best = true;
        } else if (!have_second || total < second_total) {
          second_total = total;
          second_off = off;
          have_second = true;
        }
        if (best_total == 0) break;
      }
      // The merge walk costs O(|best| + |second|); only pay it when the
      // lists are comparable — against a much longer second list, probing
      // the short list row by row is cheaper than walking both.
      constexpr size_t kMaxIntersectionSkew = 16;
      if (have_second && best_total > 0 &&
          second_total <= best_total * kMaxIntersectionSkew) {
        ++stats_->intersections;
        std::vector<uint32_t>& rows = scratch.rows;
        for (size_t s = 0; s < num_shards; ++s) {
          // Both lists are in ascending local-row order within the shard;
          // the shard partitions agree, so the per-shard intersections
          // union to exactly the global one.
          const std::span<const uint32_t> a = scratch.spans[best_off + s];
          const std::span<const uint32_t> b = scratch.spans[second_off + s];
          if (a.empty() || b.empty()) continue;
          rows.clear();
          std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(rows));
          const Relation::ShardView view = rel.shard(s);
          for (uint32_t r : rows) try_row(view.Row(r));
        }
      } else if (have_best && best_total > 0) {
        for (size_t s = 0; s < num_shards; ++s) {
          const Relation::ShardView view = rel.shard(s);
          for (uint32_t r : scratch.spans[best_off + s]) {
            try_row(view.Row(r));
          }
        }
      }
      return;
    }
    for (size_t s = 0; s < num_shards; ++s) {
      // Full scans walk physical rows and must skip tombstones; the delta
      // and indexed paths above never name a dead row (delta ranges only
      // cover freshly appended rows, postings drop erased ones).
      const Relation::ShardView view = rel.shard(s);
      for (size_t r = 0; r < view.size(); ++r) {
        if (view.IsLive(r)) try_row(view.Row(r));
      }
    }
  }

  void Emit() {
    ++stats_->derivations;
    for (size_t i = 0; i < head_.size(); ++i) {
      head_tuple_[i] = TermValue(head_[i]);
    }
    if (out_->Insert(head_tuple_)) ++stats_->new_tuples;
  }

  const EvalContext& ctx_;
  const RulePlan& plan_;
  const Rule& rule_;
  /// Terms emitted per derivation: the rule head, or the plan's
  /// projection when it stages a shared intermediate.
  const std::vector<Term>& head_;
  const IdbState& state_;
  const DeltaRanges* deltas_;
  const std::vector<Relation>* shared_;
  Relation* out_;
  EvalStats* stats_;
  std::vector<Value> bindings_;
  Tuple head_tuple_;
  Tuple scratch_;
  /// Per-op-depth reusable buffers for kMatch: the binding-undo trail,
  /// the posting-list intersection output, and the per-(key column,
  /// shard) posting spans of the current probe.
  struct MatchScratch {
    std::vector<uint32_t> trail;
    std::vector<uint32_t> rows;
    std::vector<std::span<const uint32_t>> spans;
  };
  std::vector<MatchScratch> match_scratch_;
};

}  // namespace

void ExecutePlan(const EvalContext& ctx, const RulePlan& plan,
                 const IdbState& state, const DeltaRanges* deltas,
                 Relation* out, EvalStats* stats,
                 const std::vector<Relation>* shared) {
  Interpreter(ctx, plan, state, deltas, out, stats, shared).Run();
}

DeltaWorkEstimate EstimateDeltaWork(
    const EvalContext& ctx, const RulePlan& plan, const IdbState& state,
    const std::vector<ShardRange>& delta_ranges, size_t max_samples) {
  DeltaWorkEstimate est;
  for (const auto& [begin, end] : delta_ranges) est.rows += end - begin;
  if (est.rows == 0 || plan.never_fires || max_samples == 0) return est;

  // Locate the delta scan (whose row values seed the key) and the first
  // subsequent index probe with at least one key column resolvable from
  // the delta row alone — the probe whose fan-out dominates the row's
  // cost. Variables bound between the two (kBindEq, deeper matches)
  // are ignored: the estimate only needs the dominant, cheap-to-read
  // signal, not the exact cost. Shared-intermediate scans (subplan
  // sharing) have no resolvable predicate and never probe, so they are
  // skipped. When no probe qualifies — the first match is a full scan or
  // indexes are disabled — every row costs the same, and that uniform
  // cost is the first joined relation's full cardinality (the rows each
  // scan walks), not 1: a scan-heavy plan's rows are few but expensive.
  const Rule& rule = ctx.program().rules()[plan.rule_index];
  std::vector<int> delta_col(rule.num_vars, -1);  // var id -> delta column
  const PlanOp* delta_op = nullptr;
  const PlanOp* probe_op = nullptr;
  const PlanOp* first_match = nullptr;
  for (const PlanOp& op : plan.ops) {
    if (op.kind != PlanOp::Kind::kMatch || op.shared_source >= 0) continue;
    if (op.is_delta_scan) {
      delta_op = &op;
      for (size_t i = 0; i < op.args.size(); ++i) {
        const Term& t = op.args[i];
        if (!t.IsConstant() && delta_col[t.id] < 0) {
          delta_col[t.id] = static_cast<int>(i);
        }
      }
      continue;
    }
    if (delta_op == nullptr) continue;
    if (first_match == nullptr) first_match = &op;
    if (op.key_cols.empty() || !ctx.use_join_indexes()) continue;
    for (size_t col : op.key_cols) {
      const Term& t = op.args[col];
      if (t.IsConstant() || delta_col[t.id] >= 0) {
        probe_op = &op;
        break;
      }
    }
    if (probe_op != nullptr) break;
  }
  if (delta_op == nullptr) return est;
  if (probe_op == nullptr) {
    if (first_match != nullptr &&
        (first_match->key_cols.empty() || !ctx.use_join_indexes())) {
      est.uniform_cost =
          1 + ctx.Resolve(first_match->predicate, state).size();
    }
    return est;
  }

  const Relation& delta_rel = ctx.Resolve(delta_op->predicate, state);
  const Relation& probe_rel = ctx.Resolve(probe_op->predicate, state);
  std::vector<std::span<const uint32_t>> spans(probe_rel.num_shards());
  // Ceiling divide: the documented budget is at most max_samples probes.
  est.stride = (est.rows + max_samples - 1) / max_samples;
  est.sample_cost.reserve(est.rows / est.stride + 1);
  size_t linear = 0;
  for (size_t s = 0; s < delta_ranges.size(); ++s) {
    const auto [begin, end] = delta_ranges[s];
    if (begin == end) continue;
    const Relation::ShardView view = delta_rel.shard(s);
    for (size_t r = begin; r < end; ++r, ++linear) {
      if (linear % est.stride != 0) continue;
      const TupleView row = view.Row(r);
      // The executor iterates the shortest posting list of the bound key
      // columns; mirror that with the resolvable ones.
      uint64_t best = ~uint64_t{0};
      for (size_t col : probe_op->key_cols) {
        const Term& t = probe_op->args[col];
        Value v;
        if (t.IsConstant()) {
          v = t.id;
        } else if (delta_col[t.id] >= 0) {
          v = row[delta_col[t.id]];
        } else {
          continue;
        }
        const size_t total =
            probe_rel.EqualRowsPerShard(col, v, spans.data());
        best = std::min<uint64_t>(best, total);
        if (best == 0) break;
      }
      est.sample_cost.push_back(1 + (best == ~uint64_t{0} ? 0 : best));
    }
  }
  return est;
}

}  // namespace inflog
