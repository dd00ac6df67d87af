// Round-trip property of the one constant spelling: for constant names of
// three kinds (bare identifiers, digit strings and names only quotes can
// carry), the text AppendConstant writes reads back as the same constant
// in every front end: as a fact, in a `?` query, in an update line applied
// through a ServingSession, as Relation::ToString output read back as
// facts, and in a rule that prints and parses back to the same program.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/ast/parser.h"
#include "src/base/rng.h"
#include "src/core/engine.h"
#include "src/eval/incremental.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::MustProgram;
using testing::TuplesOf;

std::string Spell(std::string_view name) {
  std::string out;
  AppendConstant(name, &out);
  return out;
}

// The fixed names of each kind, then `extra` names drawn from an alphabet
// of identifier characters, digits and the tokens' own characters.
std::vector<std::string> Names(uint64_t seed, size_t extra) {
  std::vector<std::string> names = {
      // Bare identifiers, keywords included.
      "a", "c42", "not", "universe", "x_Y9",
      // Digit strings.
      "0", "7", "007", "123456789",
      // Names that need quotes.
      "a b", "a,b", "(", ")", "Foo", "X", "_", "_x", "$0", "#", "%", "//",
      "-1", "1.5", "", "1a", "a-b", "?", "+x", "a.b", ":-", "!", "<>",
      "na\xc3\xafve"};
  constexpr std::string_view kAlphabet = "abzAZ09_ ,()$#%/-.?!=:@+<>\t";
  Rng rng(seed);
  for (size_t i = 0; i < extra; ++i) {
    std::string name;
    for (uint64_t n = rng.Uniform(6); n > 0; --n) {
      name += kAlphabet[rng.Uniform(kAlphabet.size())];
    }
    names.push_back(std::move(name));
  }
  return names;
}

TEST(ConstantSpellingTest, EveryFrontEndReadsTheWrittenSpelling) {
  for (const std::string& name : Names(/*seed=*/25, /*extra=*/60)) {
    const std::string c = Spell(name);
    SCOPED_TRACE("name '" + name + "' spelled " + c);
    const bool bare = c == name;
    EXPECT_EQ(bare, c.front() != '\'');

    // As a fact.
    Engine engine;
    ASSERT_TRUE(engine.LoadProgramText("P(X) :- E(X).").ok());
    const auto loaded = engine.LoadDatabaseText("E(" + c + "). E(other).");
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    const SymbolTable& symbols = *engine.symbols();
    const Value v = symbols.Find(name);
    ASSERT_NE(v, kNoValue);

    // Relation::ToString output, read back as facts.
    Relation pair(2);
    pair.Insert(Tuple{v, v});
    const std::string rendered = pair.ToString(symbols);
    ASSERT_EQ(rendered, "{(" + c + "," + c + ")}");
    std::string fact = rendered;  // {(c,c)} -> R(c,c).
    fact.front() = 'R';
    fact.back() = '.';
    auto reread = ParseDatabase(fact);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    EXPECT_EQ(TuplesOf(reread->symbols(), **reread->GetRelation("R")),
              (std::vector<std::vector<std::string>>{{name, name}}));

    // A rule that uses the name prints and parses back to the same
    // program, with the constant in every term position.
    const std::string rule = "Q(X," + c + ") :- E(X), F(X," + c + "), !G(" +
                             c + ",X), " + c + " != X, Y = " + c + ", E(Y).";
    Program p1 = MustProgram(rule, engine.symbols());
    const std::string printed = p1.ToString();
    Program p2 = MustProgram(printed, engine.symbols());
    EXPECT_EQ(printed, p2.ToString());
    EXPECT_EQ(p2.rules()[0].head.args[1], Term::Const(v));
    EXPECT_EQ(p2.Constants(), std::vector<Value>{v});

    // In a `?` query, then deleted by an update line.
    ASSERT_TRUE(engine.BeginServing(SemanticsKind::kStratified).ok());
    const auto ask = [&](const std::string& line) {
      auto outcome = engine.Query(line);
      INFLOG_CHECK(outcome.ok()) << line << ": " << outcome.status().ToString();
      return outcome->answer.rendered;
    };
    EXPECT_EQ(ask("?E(" + c + ")"), "true");
    EXPECT_EQ(ask("?P(" + c + ")"), "true");
    auto batch = ParseUpdateLine("-E(" + c + ")", engine.symbols().get());
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const auto applied = engine.ApplyUpdate(*batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->stats.incremental_edb_deleted, 1u);
    EXPECT_EQ(ask("?E(" + c + ")"), "false");
    EXPECT_EQ(ask("?P(X)"), "{(other)}");
  }
}

}  // namespace
}  // namespace inflog
