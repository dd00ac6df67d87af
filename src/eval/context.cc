#include "src/eval/context.h"

#include <algorithm>

#include "src/ast/analysis.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"

namespace inflog {

std::string_view StageSchedulerName(StageScheduler scheduler) {
  switch (scheduler) {
    case StageScheduler::kStatic:
      return "static";
    case StageScheduler::kStealing:
      return "stealing";
    case StageScheduler::kAuto:
      return "auto";
  }
  INFLOG_CHECK(false) << "bad StageScheduler";
  return "";
}

Result<StageScheduler> ParseStageScheduler(std::string_view name) {
  for (StageScheduler s : {StageScheduler::kAuto, StageScheduler::kStatic,
                           StageScheduler::kStealing}) {
    if (name == StageSchedulerName(s)) return s;
  }
  return Status::InvalidArgument(
      StrCat("unknown stage scheduler: ", std::string(name),
             " (expected auto|static|stealing)"));
}

Result<EvalContext> EvalContext::Create(const Program& program,
                                        const Database& database,
                                        const EvalContextOptions& options) {
  EvalContext ctx(program, database);
  ctx.dynamic_idb_.assign(program.idb_predicates().size(), true);
  INFLOG_RETURN_IF_ERROR(ctx.Bind(options));
  return ctx;
}

Result<EvalContext> EvalContext::CreateWithFixed(
    const Program& program, const Database& database,
    std::vector<bool> dynamic_idb, const IdbState* fixed_state,
    const EvalContextOptions& options) {
  INFLOG_CHECK(dynamic_idb.size() == program.idb_predicates().size());
  INFLOG_CHECK(fixed_state != nullptr);
  INFLOG_CHECK(fixed_state->relations.size() ==
               program.idb_predicates().size());
  EvalContext ctx(program, database);
  ctx.dynamic_idb_ = std::move(dynamic_idb);
  ctx.fixed_state_ = fixed_state;
  INFLOG_RETURN_IF_ERROR(ctx.Bind(options));
  return ctx;
}

Result<EvalContext> EvalContext::CreateWithOverrides(
    const Program& program, const Database& database,
    std::vector<const Relation*> overrides,
    const EvalContextOptions& options) {
  EvalContext ctx(program, database);
  ctx.dynamic_idb_.assign(program.idb_predicates().size(), true);
  ctx.overrides_ = std::move(overrides);
  // An overridden IDB predicate reads the supplied relation and does not
  // evolve (the maintainer overrides exactly the frozen ones).
  for (uint32_t pred = 0;
       pred < ctx.overrides_.size() && pred < program.num_predicates();
       ++pred) {
    if (ctx.overrides_[pred] == nullptr) continue;
    const PredicateInfo& info = program.predicate(pred);
    if (info.is_idb) ctx.dynamic_idb_[info.idb_index] = false;
  }
  INFLOG_RETURN_IF_ERROR(ctx.Bind(options));
  return ctx;
}

size_t ResolvedNumThreads(const EvalContextOptions& options) {
  return options.num_threads == 0 ? ThreadPool::HardwareConcurrency()
                                  : options.num_threads;
}

size_t ResolvedNumShards(const EvalContextOptions& options) {
  const size_t shards =
      options.num_shards == 0 ? ResolvedNumThreads(options)
                              : options.num_shards;
  // Same rounding the Relation constructor applies (ShardBitsFor), so
  // the resolved count always equals the relations' actual shard count.
  return size_t{1} << ShardBitsFor(
             std::min(shards, EvalContextOptions::kMaxShards));
}

size_t ResolvedMinSliceRows(const EvalContextOptions& options) {
  return options.min_slice_rows == 0
             ? EvalContextOptions::kDefaultMinSliceRows
             : options.min_slice_rows;
}

Status EvalContext::Bind(const EvalContextOptions& options) {
  if (options.reject_unsafe_negation) {
    INFLOG_RETURN_IF_ERROR(CheckNegationSafety(*program_));
  }
  use_join_indexes_ = options.use_join_indexes;
  num_threads_ = ResolvedNumThreads(options);
  num_shards_ = ResolvedNumShards(options);
  scheduler_ = options.scheduler;
  min_slice_rows_ = ResolvedMinSliceRows(options);
  optimizer_passes_ = options.optimizer_passes;
  for (const std::string& name : options.output_predicates) {
    Result<uint32_t> pred = program_->FindPredicate(name);
    if (!pred.ok()) {
      return Status::InvalidArgument(
          StrCat("output predicate ", name, " is not in the program"));
    }
    if (!program_->predicate(*pred).is_idb) {
      return Status::InvalidArgument(
          StrCat("output predicate ", name,
                 " is an EDB relation; only IDB predicates are outputs"));
    }
    output_preds_.push_back(*pred);
  }
  bindings_.resize(program_->num_predicates());
  for (uint32_t pred = 0; pred < program_->num_predicates(); ++pred) {
    const PredicateInfo& info = program_->predicate(pred);
    PredBinding& binding = bindings_[pred];
    if (pred < overrides_.size() && overrides_[pred] != nullptr) {
      // Caller-supplied binding (CreateWithOverrides): the predicate —
      // EDB-classified companion or otherwise — reads this relation,
      // whatever the database holds.
      if (overrides_[pred]->arity() != info.arity) {
        return Status::InvalidArgument(
            StrCat("override for ", info.name, " has arity ",
                   overrides_[pred]->arity(), " but the program declares ",
                   info.arity));
      }
      if (info.is_idb && dynamic_idb_[info.idb_index]) {
        return Status::InvalidArgument(
            StrCat("override for ", info.name,
                   " conflicts with its dynamic binding"));
      }
      binding.kind = info.is_idb ? PredBinding::Kind::kFixedIdb
                                 : PredBinding::Kind::kEdb;
      binding.fixed = overrides_[pred];
      continue;
    }
    if (info.is_idb) {
      if (dynamic_idb_[info.idb_index]) {
        binding.kind = PredBinding::Kind::kDynamicIdb;
        binding.dyn_index = info.idb_index;
      } else {
        binding.kind = PredBinding::Kind::kFixedIdb;
        INFLOG_CHECK(fixed_state_ != nullptr)
            << "fixed IDB predicate without a fixed state";
        binding.fixed = &fixed_state_->relations[info.idb_index];
      }
      continue;
    }
    binding.kind = PredBinding::Kind::kEdb;
    auto rel = database_->GetRelation(info.name);
    if (!rel.ok()) {
      if (!options.allow_missing_edb) {
        return Status::NotFound(
            StrCat("EDB relation ", info.name,
                   " is not present in the database"));
      }
      empties_.push_back(std::make_unique<Relation>(info.arity));
      binding.fixed = empties_.back().get();
      continue;
    }
    if ((*rel)->arity() != info.arity) {
      return Status::InvalidArgument(
          StrCat("EDB relation ", info.name, " has arity ", (*rel)->arity(),
                 " in the database but ", info.arity, " in the program"));
    }
    binding.fixed = *rel;
  }

  // Evaluation universe: active domain plus program constants.
  universe_ = database_->UniverseWith(program_->Constants());
  return Status::OK();
}

const Relation& EvalContext::Resolve(uint32_t pred,
                                     const IdbState& state) const {
  INFLOG_DCHECK(pred < bindings_.size());
  const PredBinding& binding = bindings_[pred];
  if (binding.kind == PredBinding::Kind::kDynamicIdb) {
    return state.relations[binding.dyn_index];
  }
  return *binding.fixed;
}

bool EvalContext::IsDynamic(uint32_t pred) const {
  INFLOG_DCHECK(pred < bindings_.size());
  return bindings_[pred].kind == PredBinding::Kind::kDynamicIdb;
}

}  // namespace inflog
