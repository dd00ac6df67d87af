// Tests for the CDCL solver: crafted instances, DIMACS round-trips, random
// 3-SAT cross-checked against brute force, assumptions, incrementality,
// and model enumeration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "src/base/rng.h"
#include "src/sat/dimacs.h"
#include "src/sat/solver.h"

namespace inflog {
namespace sat {
namespace {

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SingleUnit) {
  Solver s;
  const Var x = s.NewVar();
  ASSERT_TRUE(s.AddClause({Pos(x)}));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(x));
}

TEST(SolverTest, ContradictoryUnits) {
  Solver s;
  const Var x = s.NewVar();
  s.AddClause({Pos(x)});
  EXPECT_FALSE(s.AddClause({Neg(x)}));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, TautologyIsDropped) {
  Solver s;
  const Var x = s.NewVar();
  ASSERT_TRUE(s.AddClause({Pos(x), Neg(x)}));
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SimpleImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 20; ++i) v.push_back(s.NewVar());
  for (int i = 0; i + 1 < 20; ++i) {
    s.AddClause({Neg(v[i]), Pos(v[i + 1])});  // vᵢ → vᵢ₊₁
  }
  s.AddClause({Pos(v[0])});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(s.ModelValue(v[i]));
}

TEST(SolverTest, XorChainUnsat) {
  // x₁ ⊕ x₂, x₂ ⊕ x₃, x₁ ⊕ x₃ with odd parity: unsatisfiable.
  Solver s;
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar();
  auto add_xor_true = [&](Var x, Var y) {
    s.AddClause({Pos(x), Pos(y)});
    s.AddClause({Neg(x), Neg(y)});
  };
  add_xor_true(a, b);
  add_xor_true(b, c);
  add_xor_true(a, c);
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

/// Pigeonhole principle: n+1 pigeons, n holes — classically UNSAT and a
/// real workout for clause learning.
Cnf Pigeonhole(int n) {
  Cnf cnf;
  std::vector<std::vector<Var>> p(n + 1, std::vector<Var>(n));
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j < n; ++j) p[i][j] = cnf.NewVar();
  }
  for (int i = 0; i <= n; ++i) {
    Clause c;
    for (int j = 0; j < n; ++j) c.push_back(Pos(p[i][j]));
    cnf.AddClause(c);
  }
  for (int j = 0; j < n; ++j) {
    for (int i1 = 0; i1 <= n; ++i1) {
      for (int i2 = i1 + 1; i2 <= n; ++i2) {
        cnf.AddClause({Neg(p[i1][j]), Neg(p[i2][j])});
      }
    }
  }
  return cnf;
}

class PigeonholeTest : public ::testing::TestWithParam<int> {};

TEST_P(PigeonholeTest, Unsat) {
  Solver s;
  s.AddCnf(Pigeonhole(GetParam()));
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PigeonholeTest, ::testing::Values(2, 3, 4, 5));

TEST(SolverTest, PigeonholeSatWhenEnoughHoles) {
  // n pigeons in n holes is satisfiable: drop one pigeon's clauses.
  Cnf cnf = Pigeonhole(4);
  cnf.clauses.erase(cnf.clauses.begin());  // remove pigeon 0's "somewhere"
  Solver s;
  s.AddCnf(cnf);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(s.Model()));
}

// --- Random 3-SAT vs. brute force. ---

Cnf Random3Sat(int num_vars, int num_clauses, Rng* rng) {
  Cnf cnf;
  for (int i = 0; i < num_vars; ++i) cnf.NewVar();
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    while (clause.size() < 3) {
      const Var v = static_cast<Var>(rng->Uniform(num_vars));
      const Lit lit(v, rng->Bernoulli(0.5));
      bool dup = false;
      for (const Lit& l : clause) dup |= l.var() == v;
      if (!dup) clause.push_back(lit);
    }
    cnf.AddClause(clause);
  }
  return cnf;
}

bool BruteForceSat(const Cnf& cnf) {
  INFLOG_CHECK(cnf.num_vars <= 20);
  const uint32_t total = 1u << cnf.num_vars;
  std::vector<bool> assignment(cnf.num_vars);
  for (uint32_t mask = 0; mask < total; ++mask) {
    for (int v = 0; v < cnf.num_vars; ++v) {
      assignment[v] = (mask >> v) & 1;
    }
    if (cnf.IsSatisfiedBy(assignment)) return true;
  }
  return false;
}

/// One random instance: Rng(seed * mul + add) draws min_vars +
/// Uniform(var_span) variables, and the seed picks 2 + seed % ratios
/// clauses per variable, sweeping the ratio through the phase transition
/// (~4.26).
struct Draw {
  int mul, add, min_vars, var_span, ratios;
  int seed = 0;
};

// Test names carry the seed alone.
void PrintTo(const Draw& draw, std::ostream* os) { *os << draw.seed; }

/// `recipe` at seeds 0..count-1.
std::vector<Draw> SeedRange(Draw recipe, int count) {
  std::vector<Draw> draws;
  for (recipe.seed = 0; recipe.seed < count; ++recipe.seed) {
    draws.push_back(recipe);
  }
  return draws;
}

class Random3SatTest : public ::testing::TestWithParam<Draw> {};

TEST_P(Random3SatTest, MatchesBruteForce) {
  const Draw& draw = GetParam();
  const int seed = draw.seed;
  Rng rng(seed * draw.mul + draw.add);
  const int n = draw.min_vars + static_cast<int>(rng.Uniform(draw.var_span));
  const int m = static_cast<int>(n * (2.0 + (seed % draw.ratios)));
  Cnf cnf = Random3Sat(n, m, &rng);
  Solver s;
  s.AddCnf(cnf);
  const SolveResult result = s.Solve();
  ASSERT_NE(result, SolveResult::kUnknown);
  EXPECT_EQ(result == SolveResult::kSat, BruteForceSat(cnf))
      << "n=" << n << " m=" << m;
  if (result == SolveResult::kSat) {
    EXPECT_TRUE(cnf.IsSatisfiedBy(s.Model()));
  }
}

// 8–12 variables, ratios 2–7.
INSTANTIATE_TEST_SUITE_P(
    Seeds, Random3SatTest,
    ::testing::ValuesIn(SeedRange({7919, 13, 8, 5, 6}, 30)));
// 6–14 variables, ratios 2–6.
INSTANTIATE_TEST_SUITE_P(
    Wide, Random3SatTest,
    ::testing::ValuesIn(SeedRange({104729, 7, 6, 9, 5}, 500)));

// --- Assumptions and incrementality. ---

TEST(SolverTest, AssumptionsRestrictModels) {
  Solver s;
  const Var x = s.NewVar(), y = s.NewVar();
  s.AddClause({Pos(x), Pos(y)});
  ASSERT_EQ(s.Solve({Neg(x)}), SolveResult::kSat);
  EXPECT_FALSE(s.ModelValue(x));
  EXPECT_TRUE(s.ModelValue(y));
  // Solver state is reusable with different assumptions.
  ASSERT_EQ(s.Solve({Neg(y)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(x));
  ASSERT_EQ(s.Solve({Neg(x), Neg(y)}), SolveResult::kUnsat);
  // And without assumptions it is still satisfiable.
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, AssumptionAgainstRootUnit) {
  Solver s;
  const Var x = s.NewVar();
  s.AddClause({Pos(x)});
  EXPECT_EQ(s.Solve({Neg(x)}), SolveResult::kUnsat);
  EXPECT_TRUE(s.ok());  // UNSAT under assumptions, not globally
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
}

TEST(SolverTest, IncrementalClauseAddition) {
  Solver s;
  const Var x = s.NewVar(), y = s.NewVar();
  s.AddClause({Pos(x), Pos(y)});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  s.AddClause({Neg(x)});
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(y));
  s.AddClause({Neg(y)});
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, ActivationLiteralPattern) {
  // The temporary-clause pattern used by the least-fixpoint algorithm.
  Solver s;
  const Var x = s.NewVar();
  const Var act = s.NewVar();
  s.AddClause({Neg(act), Neg(x)});  // act → ¬x
  s.AddClause({Pos(x)});
  EXPECT_EQ(s.Solve({Pos(act)}), SolveResult::kUnsat);
  s.AddClause({Neg(act)});  // retire the query clause
  EXPECT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(x));
}

TEST(SolverTest, SimplifyCollectsRetiredClauses) {
  Cnf cnf;
  const Var x = cnf.NewVar(), y = cnf.NewVar(), z = cnf.NewVar();
  cnf.AddClause({Pos(x), Pos(y)});
  cnf.AddClause({Neg(x), Pos(z)});
  Solver s;
  s.AddCnf(cnf);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  const size_t words = s.arena_words();
  // Two clauses c ∨ ¬a, then the unit ¬a that retires them.
  const Var a = s.NewVar();
  s.AddClause({Pos(z), Neg(a)});
  s.AddClause({Neg(x), Neg(y), Neg(a)});
  ASSERT_EQ(s.Solve({Pos(a)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(z));
  EXPECT_NE(s.ModelValue(x), s.ModelValue(y));
  s.AddClause({Neg(a)});
  ASSERT_EQ(s.num_learnts(), 0u);
  EXPECT_GT(s.arena_words(), words);
  ASSERT_TRUE(s.Simplify());
  EXPECT_EQ(s.arena_words(), words);
  // The solver answers as it did before the clauses came.
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(s.Model()));
  ASSERT_EQ(s.Solve({Pos(x), Pos(y), Neg(z)}), SolveResult::kUnsat);
  ASSERT_EQ(s.Solve({Pos(x), Pos(y)}), SolveResult::kSat);
  EXPECT_TRUE(s.ModelValue(z));
  EXPECT_EQ(s.Solve({Neg(x), Neg(y)}), SolveResult::kUnsat);
  EXPECT_TRUE(s.ok());
}

TEST(SolverTest, ModelEnumerationCountsAllAssignments) {
  // x ∨ y over 3 variables: 6 models on (x,y,z) — block and recount.
  Solver s;
  const Var x = s.NewVar(), y = s.NewVar(), z = s.NewVar();
  s.AddClause({Pos(x), Pos(y)});
  int models = 0;
  while (s.Solve() == SolveResult::kSat && models < 100) {
    ++models;
    Clause block;
    for (Var v : {x, y, z}) {
      block.push_back(s.ModelValue(v) ? Neg(v) : Pos(v));
    }
    if (!s.AddClause(block)) break;
  }
  EXPECT_EQ(models, 6);
}

TEST(SolverTest, ConflictBudgetReturnsUnknown) {
  SolverOptions opts;
  opts.max_conflicts = 1;
  Solver s(opts);
  s.AddCnf(Pigeonhole(4));
  EXPECT_EQ(s.Solve(), SolveResult::kUnknown);
}

TEST(SolverTest, RaisedStopFlagReturnsUnknown) {
  std::atomic<bool> stop{true};
  SolverOptions opts;
  opts.stop = &stop;
  Solver s(opts);
  s.AddCnf(Pigeonhole(4));
  EXPECT_EQ(s.Solve(), SolveResult::kUnknown);
  EXPECT_EQ(s.stats().decisions, 0u);
  // The flag is read, not latched: lowered, the same solver answers.
  stop = false;
  EXPECT_EQ(s.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, StatsAccumulate) {
  Solver s;
  s.AddCnf(Pigeonhole(4));
  s.Solve();
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().decisions, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

// --- Learnt-clause deletion and arena garbage collection. ---

// A reduction interval no solve here reaches: the baseline that keeps
// every learnt clause.
SolverOptions KeepEveryLearnt() {
  SolverOptions keep;
  keep.reduce_base = std::numeric_limits<uint64_t>::max();
  return keep;
}

SolverOptions ReduceEvery100() {
  SolverOptions del;
  del.reduce_base = 100;
  return del;
}

TEST(ReduceDbTest, DeletesLearntsAndKeepsVerdict) {
  Solver baseline(KeepEveryLearnt());
  baseline.AddCnf(Pigeonhole(6));

  Solver reducing(ReduceEvery100());
  reducing.AddCnf(Pigeonhole(6));

  ASSERT_EQ(baseline.Solve(), SolveResult::kUnsat);
  ASSERT_EQ(reducing.Solve(), SolveResult::kUnsat);
  EXPECT_EQ(baseline.stats().db_reductions, 0u);
  EXPECT_GT(reducing.stats().db_reductions, 0u);
  EXPECT_GT(reducing.stats().deleted_clauses, 0u);
  // Live learnts never exceed learned minus deleted (root-satisfied
  // removal can only shrink the list further).
  EXPECT_LE(reducing.num_learnts(),
            reducing.stats().learned_clauses -
                reducing.stats().deleted_clauses);
}

TEST(ReduceDbTest, GarbageCollectionCompactsArena) {
  // Same instance, reducing vs keeping every learnt: the reducing
  // solver's arena must end strictly smaller — each reduction copies only
  // live clauses into a fresh arena. Both runs are deterministic, so this
  // is stable.
  Solver baseline(KeepEveryLearnt());
  baseline.AddCnf(Pigeonhole(6));
  ASSERT_EQ(baseline.Solve(), SolveResult::kUnsat);

  Solver reducing(ReduceEvery100());
  reducing.AddCnf(Pigeonhole(6));
  ASSERT_EQ(reducing.Solve(), SolveResult::kUnsat);

  ASSERT_EQ(baseline.stats().db_reductions, 0u);
  ASSERT_GT(reducing.stats().db_reductions, 0u);
  EXPECT_LT(reducing.arena_words(), baseline.arena_words());
}

TEST(ReduceDbTest, SolverStaysUsableAfterReduction) {
  Solver s(ReduceEvery100());
  Cnf cnf = Pigeonhole(4);
  cnf.clauses.erase(cnf.clauses.begin());  // satisfiable variant
  s.AddCnf(cnf);
  // Drive conflicts with repeated blocking to cross the reduce threshold,
  // checking every model against the (incrementally growing) clause set.
  int models = 0;
  while (s.Solve() == SolveResult::kSat && models < 2000) {
    ++models;
    EXPECT_TRUE(cnf.IsSatisfiedBy(s.Model()));
    Clause block;
    for (Var v = 0; v < s.num_vars(); ++v) {
      block.push_back(s.ModelValue(v) ? Neg(v) : Pos(v));
    }
    if (!s.AddClause(block)) break;
  }
  EXPECT_GT(models, 0);
  EXPECT_LT(models, 2000);  // enumeration terminated
}

// --- DIMACS. ---

TEST(DimacsTest, ParsesSimpleFile) {
  auto cnf = ParseDimacs(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n");
  ASSERT_TRUE(cnf.ok());
  EXPECT_EQ(cnf->num_vars, 3);
  ASSERT_EQ(cnf->clauses.size(), 2u);
  EXPECT_EQ(cnf->clauses[0][0], Pos(0));
  EXPECT_EQ(cnf->clauses[0][1], Neg(1));
}

TEST(DimacsTest, MultiplClausesPerLine) {
  auto cnf = ParseDimacs("p cnf 2 2\n1 0 -1 2 0\n");
  ASSERT_TRUE(cnf.ok());
  EXPECT_EQ(cnf->clauses.size(), 2u);
}

TEST(DimacsTest, RejectsMissingHeader) {
  EXPECT_FALSE(ParseDimacs("1 2 0\n").ok());
}

TEST(DimacsTest, RejectsOutOfRangeLiteral) {
  EXPECT_FALSE(ParseDimacs("p cnf 2 1\n3 0\n").ok());
}

TEST(DimacsTest, RejectsUnterminatedClause) {
  EXPECT_FALSE(ParseDimacs("p cnf 2 1\n1 2\n").ok());
}

TEST(DimacsTest, RoundTrip) {
  Rng rng(99);
  Cnf original = Random3Sat(6, 15, &rng);
  auto parsed = ParseDimacs(ToDimacs(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vars, original.num_vars);
  ASSERT_EQ(parsed->clauses.size(), original.clauses.size());
  for (size_t i = 0; i < original.clauses.size(); ++i) {
    EXPECT_EQ(parsed->clauses[i], original.clauses[i]);
  }
}

}  // namespace
}  // namespace sat
}  // namespace inflog
