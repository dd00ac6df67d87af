// Existential body components, projected by the grounder into auxiliary
// atoms, checked against oracles that share none of its code.
//
//   * Random, mostly non-stratifiable programs whose rules carry
//     existential components, over universes of at most four elements:
//     the analyzer's fixpoints equal brute force (Θ(S) = S over every
//     state), and the well-founded model equals Van Gelder's alternation
//     run here over a naive reference grounding (every variable over the
//     universe, no components).
//   * Random ∃SO sentences through the Theorem 1 compiler, whose toggle
//     T(z) ← ¬Q(ū), ¬T(w) is the shape the projection exists for:
//     HasFixpoint equals the sentence's truth by brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/ast/analysis.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/core/engine.h"
#include "src/eval/reduct.h"
#include "src/fixpoint/brute_force.h"
#include "src/ground/grounder.h"
#include "src/logic/eval.h"
#include "src/logic/thm1.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::CanonState;
using testing::CanonStates;
using testing::MustProgram;

std::vector<std::vector<size_t>> ComponentsOf(std::string_view rule_text) {
  auto symbols = std::make_shared<SymbolTable>();
  const Program p = MustProgram(rule_text, symbols);
  return ExistentialComponents(p.rules()[0]);
}

TEST(ExistentialComponentsTest, SplitsBodiesBySharedVariables) {
  using Components = std::vector<std::vector<size_t>>;
  EXPECT_EQ(ComponentsOf("T(Z) :- P(X), !T(W)."), (Components{{0}, {1}}));
  // Joined through Y; the head variable keeps {S(Z)} in the rule.
  EXPECT_EQ(ComponentsOf("T(Z) :- S(Z), E(X,Y), !T(Y), X != 1."),
            (Components{{1, 2, 3}}));
  // Variable-free literals and head-connected ones are never projected.
  EXPECT_EQ(ComponentsOf("T(X) :- E(X,Y), !T(Y), P(1)."), Components{});
  EXPECT_EQ(ComponentsOf("Q :- P(X), E(X,Y)."), (Components{{0, 1}}));
  EXPECT_EQ(ComponentsOf("T(Z) :- E(Z,X), P(Y), X = Y."), Components{});
}

TEST(GrounderProjectionTest, ToggleGroundsThroughAuxiliaryAtoms) {
  auto symbols = std::make_shared<SymbolTable>();
  const Program p =
      MustProgram("P(X) :- E(X,Y).\nT(Z) :- P(X), !T(W).", symbols);
  const Database db = testing::DbFromGraph(PathGraph(4), symbols);
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // 3 P rules; 4 + 4 auxiliary rules; 4 toggle rules (not 4³ = 64).
  EXPECT_EQ(g->rules.size(), 3u + 8u + 4u);
  std::vector<bool> all(g->atoms.size(), true);
  size_t aux = 0;
  for (uint32_t a = 0; a < g->atoms.size(); ++a) aux += g->IsAuxiliary(a);
  EXPECT_EQ(aux, 2u);
  // Decoding drops the auxiliary atoms: 4 P and 4 T tuples.
  EXPECT_EQ(g->DecodeState(p, all).TotalTuples(), 8u);
  const std::string text = g->ToString(p);
  EXPECT_NE(text.find("#exists(1,0) :- P(0)."), std::string::npos) << text;
  EXPECT_NE(text.find("#exists(1,1) :- !T(0)."), std::string::npos) << text;
  EXPECT_NE(text.find("T(3) :- #exists(1,0), #exists(1,1)."),
            std::string::npos)
      << text;
}

TEST(GrounderProjectionTest, EdbOnlyComponentsAreDecidedOnce) {
  auto symbols = std::make_shared<SymbolTable>();
  // No self-loop in a path: the rule has no witness and grounds to
  // nothing; some vertex has no successor, so the other keeps its rules.
  const Program p = MustProgram(
      "T(Z) :- E(Z,Y), E(X,X).\nS(Z) :- E(Z,Y), !E(W,V), W = V.", symbols);
  const Database db = testing::DbFromGraph(PathGraph(4), symbols);
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->rules.size(), 3u);
  for (const GroundRule& r : g->rules) {
    EXPECT_EQ(p.predicate(g->atoms.atom(r.head).predicate).name, "S");
    EXPECT_TRUE(g->RuleBody(r).empty());
  }
  EXPECT_EQ(g->atoms.size(), 3u);  // no auxiliary atom
}

TEST(GrounderProjectionTest, RulesWithoutAnInstanceLeaveNoAuxiliaryRules) {
  auto symbols = std::make_shared<SymbolTable>();
  // A path has no self-loop. T's IDB component {P(X)} has witnesses but
  // its EDB-only one {E(W,W)} has none; U's component has witnesses but
  // the rest of its body, E(Z,Z), has no instance. Neither rule keeps
  // anything, the auxiliary rules included: only the 3 P rules remain.
  const Program p = MustProgram(
      "P(X) :- E(X,Y).\n"
      "T(Z) :- E(Z,Y), P(X), E(W,W).\n"
      "U(Z) :- E(Z,Z), P(X).",
      symbols);
  const Database db = testing::DbFromGraph(PathGraph(4), symbols);
  auto g = GroundProgramFor(p, db);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_EQ(g->rules.size(), 3u) << g->ToString(p);
  for (const GroundRule& r : g->rules) EXPECT_FALSE(g->IsAuxiliary(r.head));
}

// --- The naive reference: Van Gelder's alternation over a grounding that
// instantiates every variable over the universe. ---

/// Every rule instantiated over every assignment of its variables; EDB
/// literals and (in)equalities evaluated, IDB literals kept. Unlike the
/// library's grounder it projects nothing.
GroundProgram NaiveGround(const Program& program, const Database& db) {
  std::vector<Value> universe = db.universe();
  for (Value v : program.Constants()) {
    if (std::find(universe.begin(), universe.end(), v) == universe.end()) {
      universe.push_back(v);
    }
  }
  GroundProgram out;
  for (const Rule& rule : program.rules()) {
    std::vector<size_t> digit(rule.num_vars, 0);
    if (universe.empty() && rule.num_vars > 0) continue;
    const auto value = [&](const Term& t) {
      return t.IsConstant() ? t.id : universe[digit[t.id]];
    };
    const auto args = [&](const std::vector<Term>& terms) {
      Tuple tuple;
      for (const Term& t : terms) tuple.push_back(value(t));
      return tuple;
    };
    while (true) {
      bool holds = true;
      GroundBody body;
      for (const Literal& lit : rule.body) {
        switch (lit.kind) {
          case Literal::Kind::kEq:
            holds = holds && value(lit.args[0]) == value(lit.args[1]);
            break;
          case Literal::Kind::kNeq:
            holds = holds && value(lit.args[0]) != value(lit.args[1]);
            break;
          case Literal::Kind::kAtom:
          case Literal::Kind::kNegAtom: {
            const PredicateInfo& info = program.predicate(lit.predicate);
            const Tuple tuple = args(lit.args);
            if (!info.is_idb) {
              auto rel = db.GetRelation(info.name);
              const bool present = rel.ok() && (*rel)->Contains(tuple);
              holds = holds && present == lit.IsPositiveAtom();
              break;
            }
            const uint32_t atom = out.atoms.GetOrAdd(lit.predicate, tuple);
            (lit.IsPositiveAtom() ? body.pos : body.neg).push_back(atom);
            break;
          }
        }
      }
      if (holds) {
        for (auto* v : {&body.pos, &body.neg}) {
          std::sort(v->begin(), v->end());
          v->erase(std::unique(v->begin(), v->end()), v->end());
        }
        const uint32_t head =
            out.atoms.GetOrAdd(rule.head.predicate, args(rule.head.args));
        out.rules.push_back(GroundRule{head, out.bodies.GetOrAdd(body)});
      }
      size_t v = 0;
      while (v < digit.size() && ++digit[v] == universe.size()) digit[v++] = 0;
      if (v == digit.size()) break;
    }
  }
  out.IndexHeads();
  return out;
}

/// The well-founded model by the alternating fixpoint: (true, undefined).
std::pair<IdbState, IdbState> ReferenceWellFounded(const Program& program,
                                                   const Database& db) {
  const GroundProgram ground = NaiveGround(program, db);
  std::vector<bool> under(ground.atoms.size(), false);
  std::vector<bool> over;
  while (true) {
    over = LeastModelOfReduct(ground, under);
    std::vector<bool> next = LeastModelOfReduct(ground, over);
    if (next == under) break;
    under = std::move(next);
  }
  std::vector<bool> undefined(over.size());
  for (size_t a = 0; a < over.size(); ++a) undefined[a] = over[a] && !under[a];
  return {ground.DecodeState(program, under),
          ground.DecodeState(program, undefined)};
}

/// A random program over E/2 with IDB predicates T/1, S/1 and Q/0 (nine
/// atoms over four elements, so brute force stays cheap). Rule bodies mix
/// head-connected literals with existential ones over the fresh variables
/// F1, F2, positive or negated, IDB or EDB. Up to three E atoms join the
/// shared variables, some through a vertex constant, so the grounder's
/// plans probe both columns of E and intersect their posting lists.
std::string RandomProjectableProgram(Rng* rng) {
  const char* vars[] = {"X", "Y", "Z"};
  const auto var = [&] { return vars[rng->Uniform(3)]; };
  const auto term = [&]() -> std::string {
    return rng->Bernoulli(0.2) ? StrCat(rng->Uniform(4)) : var();
  };
  std::string text;
  for (const char* head : {"T", "S", "Q", "T", "S"}) {
    if (rng->Bernoulli(0.3)) continue;
    std::vector<std::string> body;
    const int num_edges = static_cast<int>(rng->Uniform(4));
    for (int e = 0; e < num_edges; ++e) {
      body.push_back(StrCat("E(", term(), ",", term(), ")"));
    }
    const int num_lits = static_cast<int>(rng->Uniform(3));
    for (int l = 0; l < num_lits; ++l) {
      switch (rng->Uniform(6)) {
        case 0:
          body.push_back(StrCat("E(", var(), ",", var(), ")"));
          break;
        case 1:
        case 2: {
          const bool positive = rng->Bernoulli(0.5);
          const char* pred = rng->Bernoulli(0.5) ? "T" : "S";
          body.push_back(StrCat(positive ? "" : "!", pred, "(", var(), ")"));
          break;
        }
        case 3:
          body.push_back(rng->Bernoulli(0.5) ? "Q" : "!Q");
          break;
        default:
          body.push_back(StrCat(var(), rng->Bernoulli(0.5) ? " = " : " != ",
                                var()));
          break;
      }
    }
    // Existential components: literals over fresh variables only.
    const int num_exists = 1 + static_cast<int>(rng->Uniform(2));
    for (int e = 0; e < num_exists; ++e) {
      const std::string f = StrCat("F", e + 1);
      const char* neg = rng->Bernoulli(0.5) ? "!" : "";
      switch (rng->Uniform(3)) {
        case 0:
          body.push_back(StrCat(neg, "E(", f, ",",
                                rng->Bernoulli(0.7) ? f + "b" : f, ")"));
          break;
        default:
          body.push_back(
              StrCat(neg, rng->Bernoulli(0.5) ? "T(" : "S(", f, ")"));
          break;
      }
    }
    std::swap(body[rng->Uniform(body.size())], body.back());
    const std::string head_atom =
        std::string(head) == "Q" ? "Q" : StrCat(head, "(", var(), ")");
    text += StrCat(head_atom, " :- ", StrJoin(body, ", "), ".\n");
  }
  // Every IDB predicate heads some rule, so none is read as a missing EDB.
  text += "T(X) :- E(X,X), !S(X).\nS(X) :- E(X,Y), !T(Y).\nQ :- T(X), !S(X).\n";
  return text;
}

class ProjectionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionFuzz, FixpointsAndWellFoundedModelMatchOracles) {
  const int seed = GetParam();
  Rng rng(seed * 7919 + 17);
  const std::string text = RandomProjectableProgram(&rng);
  const Digraph g = RandomDigraph(2 + rng.Uniform(3), 0.4, &rng);
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(text).ok()) << text;
  GraphToDatabase(g, "E", engine.mutable_database());
  const Program& program = **engine.program();
  const std::string context =
      StrCat("program:\n", text, "graph: ", g.ToString());

  auto brute = BruteForceFixpoints(program, engine.database());
  ASSERT_TRUE(brute.ok()) << brute.status().ToString() << "\n" << context;
  auto analyzer = engine.MakeAnalyzer();
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString() << "\n"
                             << context;
  auto fixpoints = analyzer->EnumerateFixpoints();
  ASSERT_TRUE(fixpoints.ok()) << context;
  EXPECT_EQ(CanonStates(program, *fixpoints), CanonStates(program, *brute))
      << context;

  auto wf = engine.Evaluate(SemanticsKind::kWellFounded);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString() << "\n" << context;
  const auto& model = std::get<WellFoundedResult>(wf->detail);
  const auto [ref_true, ref_undefined] =
      ReferenceWellFounded(program, engine.database());
  EXPECT_EQ(CanonState(program, model.true_state),
            CanonState(program, ref_true))
      << context;
  EXPECT_EQ(CanonState(program, model.undefined_state),
            CanonState(program, ref_undefined))
      << context;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionFuzz, ::testing::Range(0, 120));

// --- Theorem 1 on random sentences. ---

using logic::FoTerm;
using logic::FormulaPtr;

/// A random quantifier-free formula over E/2, the second-order S/1 and
/// equality, on the given variables.
FormulaPtr RandomMatrix(Rng* rng, const std::vector<std::string>& vars,
                        int depth) {
  const auto v = [&] { return FoTerm::Var(vars[rng->Uniform(vars.size())]); };
  if (depth == 0 || rng->Bernoulli(0.3)) {
    FormulaPtr atom;
    switch (rng->Uniform(3)) {
      case 0:
        atom = logic::Atom("E", {v(), v()});
        break;
      case 1:
        atom = logic::Atom("S", {v()});
        break;
      default:
        atom = logic::Eq(v(), v());
        break;
    }
    return rng->Bernoulli(0.4) ? logic::Not(atom) : atom;
  }
  std::vector<FormulaPtr> children;
  const int n = 2 + static_cast<int>(rng->Uniform(2));
  for (int i = 0; i < n; ++i) {
    children.push_back(RandomMatrix(rng, vars, depth - 1));
  }
  FormulaPtr f = rng->Bernoulli(0.5) ? logic::And(std::move(children))
                                     : logic::Or(std::move(children));
  return rng->Bernoulli(0.2) ? logic::Not(f) : f;
}

/// ∃S Q₁x₁ … Qₖxₖ φ with a random quantifier prefix (k ≤ 3).
logic::EsoSentence RandomSentence(Rng* rng) {
  const std::vector<std::string> names = {"x", "y", "z"};
  const size_t k = 1 + rng->Uniform(3);
  std::vector<std::string> vars(names.begin(), names.begin() + k);
  logic::EsoSentence sentence;
  sentence.so_vars = {logic::RelVar{"S", 1}};
  FormulaPtr f = RandomMatrix(rng, vars, 2);
  for (size_t i = k; i-- > 0;) {
    f = rng->Bernoulli(0.5) ? logic::Forall({vars[i]}, f)
                            : logic::Exists({vars[i]}, f);
  }
  sentence.matrix = f;
  return sentence;
}

class Thm1Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Thm1Fuzz, FixpointExistenceMatchesRandomSentenceTruth) {
  const int seed = GetParam();
  Rng rng(seed * 104729 + 3);
  const logic::EsoSentence sentence = RandomSentence(&rng);
  auto symbols = std::make_shared<SymbolTable>();
  const Digraph g = RandomDigraph(2 + rng.Uniform(2), 0.5, &rng);
  Database db = testing::DbFromGraph(g, symbols);
  logic::FoModel model{&db, {}};
  auto truth = logic::EvalEsoBruteForce(model, sentence);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  auto compiled = logic::CompileEsoToDatalog(sentence, symbols);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString() << "\n"
                             << sentence.ToString();
  auto analyzer = FixpointAnalyzer::Create(&compiled->program, &db);
  ASSERT_TRUE(analyzer.ok()) << analyzer.status().ToString();
  auto has = analyzer->HasFixpoint();
  ASSERT_TRUE(has.ok()) << has.status().ToString();
  EXPECT_EQ(*has, *truth) << sentence.ToString() << "\nprogram:\n"
                          << compiled->program_text
                          << "graph: " << g.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Thm1Fuzz, ::testing::Range(0, 60));

}  // namespace
}  // namespace inflog
