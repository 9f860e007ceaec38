#include "regex/regex.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/path_fd.h"
#include "fuzz/generators.h"
#include "fuzz/rng.h"
#include "pattern/pattern_parser.h"

namespace rtp::regex {
namespace {

// Helper: interns the '/'-separated word and tests acceptance.
bool Match(const Regex& re, Alphabet* alphabet, const std::string& path) {
  std::vector<LabelId> word;
  size_t start = 0;
  if (!path.empty()) {
    while (true) {
      size_t slash = path.find('/', start);
      word.push_back(alphabet->Intern(path.substr(
          start, slash == std::string::npos ? std::string::npos : slash - start)));
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
  }
  return re.Matches(word);
}

Regex MustParse(Alphabet* alphabet, std::string_view text) {
  auto re = Regex::Parse(alphabet, text);
  RTP_CHECK_MSG(re.ok(), re.status().ToString().c_str());
  return std::move(re).value();
}

TEST(RegexParserTest, SingleLabel) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "session");
  EXPECT_TRUE(Match(re, &alphabet, "session"));
  EXPECT_FALSE(Match(re, &alphabet, "candidate"));
  EXPECT_FALSE(Match(re, &alphabet, "session/session"));
  EXPECT_FALSE(re.Matches({}));
  EXPECT_TRUE(re.IsProper());
}

TEST(RegexParserTest, PathConcatenation) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "session/candidate/exam");
  EXPECT_TRUE(Match(re, &alphabet, "session/candidate/exam"));
  EXPECT_FALSE(Match(re, &alphabet, "session/candidate"));
  EXPECT_FALSE(Match(re, &alphabet, "session/exam"));
}

TEST(RegexParserTest, UnionAndParens) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "candidate/(toBePassed|firstJob-Year)");
  EXPECT_TRUE(Match(re, &alphabet, "candidate/toBePassed"));
  EXPECT_TRUE(Match(re, &alphabet, "candidate/firstJob-Year"));
  EXPECT_FALSE(Match(re, &alphabet, "candidate/level"));
}

TEST(RegexParserTest, StarPlusOptional) {
  Alphabet alphabet;
  Regex star = MustParse(&alphabet, "a/b*");
  EXPECT_TRUE(Match(star, &alphabet, "a"));
  EXPECT_TRUE(Match(star, &alphabet, "a/b/b/b"));
  Regex plus = MustParse(&alphabet, "a/b+");
  EXPECT_FALSE(Match(plus, &alphabet, "a"));
  EXPECT_TRUE(Match(plus, &alphabet, "a/b"));
  Regex opt = MustParse(&alphabet, "a/b?");
  EXPECT_TRUE(Match(opt, &alphabet, "a"));
  EXPECT_TRUE(Match(opt, &alphabet, "a/b"));
  EXPECT_FALSE(Match(opt, &alphabet, "a/b/b"));
}

TEST(RegexParserTest, WildcardMatchesAnySingleLabel) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "_*/exam");
  EXPECT_TRUE(Match(re, &alphabet, "exam"));
  EXPECT_TRUE(Match(re, &alphabet, "session/candidate/exam"));
  EXPECT_TRUE(Match(re, &alphabet, "zzz/unseen-label/exam"));
  EXPECT_FALSE(Match(re, &alphabet, "session/candidate"));
}

TEST(RegexParserTest, AttributeAndTextLabels) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "mark/#text|@IDN");
  EXPECT_TRUE(Match(re, &alphabet, "mark/#text"));
  EXPECT_TRUE(Match(re, &alphabet, "@IDN"));
  EXPECT_FALSE(Match(re, &alphabet, "mark"));
}

TEST(RegexParserTest, SyntaxErrors) {
  Alphabet alphabet;
  EXPECT_FALSE(Regex::Parse(&alphabet, "").ok());
  EXPECT_FALSE(Regex::Parse(&alphabet, "a/").ok());
  EXPECT_FALSE(Regex::Parse(&alphabet, "(a").ok());
  EXPECT_FALSE(Regex::Parse(&alphabet, "a|").ok());
  EXPECT_FALSE(Regex::Parse(&alphabet, "*a").ok());
  EXPECT_FALSE(Regex::Parse(&alphabet, "a)b").ok());
}

TEST(RegexParserTest, PropernessDetection) {
  Alphabet alphabet;
  EXPECT_TRUE(MustParse(&alphabet, "a").IsProper());
  EXPECT_TRUE(MustParse(&alphabet, "a/b*").IsProper());
  EXPECT_FALSE(MustParse(&alphabet, "a*").IsProper());
  EXPECT_FALSE(MustParse(&alphabet, "a?").IsProper());
  EXPECT_FALSE(MustParse(&alphabet, "a*|b").IsProper());
  EXPECT_TRUE(MustParse(&alphabet, "a+").IsProper());
}

TEST(RegexAstTest, NullableMirrorsDfaEmptyWord) {
  Alphabet alphabet;
  for (const char* text : {"a", "a*", "a?", "a|b*", "a/b", "(a|b)*/c?",
                           "a+/b*", "(a?/b?)"}) {
    auto ast = ParseRegex(&alphabet, text);
    ASSERT_TRUE(ast.ok()) << text;
    Dfa dfa = Dfa::FromAst(**ast);
    EXPECT_EQ(IsNullable(**ast), dfa.AcceptsEmptyWord()) << text;
  }
}

TEST(RegexAstTest, ToStringRoundTrips) {
  Alphabet alphabet;
  for (const char* text :
       {"a", "a/b/c", "a|b|c", "(a|b)/c", "a/(b|c)*", "_*/x", "a+/b?"}) {
    Regex re1 = MustParse(&alphabet, text);
    std::string printed = re1.ToString(alphabet);
    Regex re2 = MustParse(&alphabet, printed);
    EXPECT_TRUE(re1.dfa().IsEquivalentTo(re2.dfa()))
        << text << " -> " << printed;
  }
}

TEST(DfaTest, MinimizeReducesStates) {
  Alphabet alphabet;
  // (a|b)/(a|b) has a 3-state minimal DFA (+ dead).
  auto ast = ParseRegex(&alphabet, "(a|b)/(a|b)");
  ASSERT_TRUE(ast.ok());
  Dfa dfa = Dfa::FromAst(**ast);
  Dfa min = dfa.Minimize();
  EXPECT_LE(min.NumStates(), dfa.NumStates());
  EXPECT_EQ(min.NumStates(), 3);
  EXPECT_TRUE(min.IsEquivalentTo(dfa));
}

TEST(DfaTest, IntersectionUnionDifference) {
  Alphabet alphabet;
  Regex ab_star = MustParse(&alphabet, "(a|b)+");
  Regex ends_a = MustParse(&alphabet, "(a|b)*/a");
  Dfa both = Dfa::Intersection(ab_star.dfa(), ends_a.dfa());
  LabelId a = alphabet.Intern("a");
  LabelId b = alphabet.Intern("b");
  std::vector<LabelId> ba = {b, a};
  std::vector<LabelId> ab = {a, b};
  EXPECT_TRUE(both.Accepts(ba));
  EXPECT_FALSE(both.Accepts(ab));

  Dfa diff = Dfa::Difference(ab_star.dfa(), ends_a.dfa());
  EXPECT_FALSE(diff.Accepts(ba));
  EXPECT_TRUE(diff.Accepts(ab));

  Dfa uni = Dfa::UnionOf(both, diff);
  EXPECT_TRUE(uni.IsEquivalentTo(ab_star.dfa()));
}

TEST(DfaTest, ComplementFlipsMembership) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "a/b");
  Dfa comp = re.dfa().Complement();
  LabelId a = alphabet.Intern("a");
  LabelId b = alphabet.Intern("b");
  std::vector<LabelId> word_ab = {a, b};
  std::vector<LabelId> word_a = {a};
  EXPECT_FALSE(comp.Accepts(word_ab));
  EXPECT_TRUE(comp.Accepts(word_a));
  EXPECT_TRUE(comp.Accepts({}));
  // Complement accepts words over labels never mentioned.
  std::vector<LabelId> fresh = {alphabet.Intern("zz")};
  EXPECT_TRUE(comp.Accepts(fresh));
}

TEST(DfaTest, InclusionAndEquivalence) {
  Alphabet alphabet;
  Regex small = MustParse(&alphabet, "a/b");
  Regex big = MustParse(&alphabet, "a/(b|c)");
  EXPECT_TRUE(small.dfa().IsSubsetOf(big.dfa()));
  EXPECT_FALSE(big.dfa().IsSubsetOf(small.dfa()));
  Regex big2 = MustParse(&alphabet, "(a/b)|(a/c)");
  EXPECT_TRUE(big.dfa().IsEquivalentTo(big2.dfa()));
}

TEST(DfaTest, EmptinessAndUniversal) {
  Alphabet alphabet;
  EXPECT_TRUE(Dfa::EmptyLanguage().IsEmpty());
  EXPECT_FALSE(Dfa::UniversalLanguage().IsEmpty());
  Regex re = MustParse(&alphabet, "a");
  Dfa never = Dfa::Intersection(re.dfa(), re.dfa().Complement());
  EXPECT_TRUE(never.IsEmpty());
  Dfa always = Dfa::UnionOf(re.dfa(), re.dfa().Complement());
  EXPECT_TRUE(always.IsEquivalentTo(Dfa::UniversalLanguage()));
}

TEST(DfaTest, ShortestWord) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "a/b/c|a/b");
  auto word = re.dfa().ShortestWord(&alphabet);
  ASSERT_TRUE(word.has_value());
  ASSERT_EQ(word->size(), 2u);
  EXPECT_EQ(alphabet.Name((*word)[0]), "a");
  EXPECT_EQ(alphabet.Name((*word)[1]), "b");

  EXPECT_FALSE(Dfa::EmptyLanguage().ShortestWord(&alphabet).has_value());

  auto empty_word = Dfa::UniversalLanguage().ShortestWord(&alphabet);
  ASSERT_TRUE(empty_word.has_value());
  EXPECT_TRUE(empty_word->empty());
}

TEST(DfaTest, ShortestWordThroughOtherwiseEdge) {
  Alphabet alphabet;
  Regex re = MustParse(&alphabet, "_/_");
  auto word = re.dfa().ShortestWord(&alphabet);
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(word->size(), 2u);
  EXPECT_TRUE(re.Matches(*word));
}

TEST(DfaTest, FromWordAcceptsExactlyThatWord) {
  Alphabet alphabet;
  std::vector<LabelId> w = {alphabet.Intern("x"), alphabet.Intern("y")};
  Dfa dfa = Dfa::FromWord(w);
  EXPECT_TRUE(dfa.Accepts(w));
  std::vector<LabelId> other = {alphabet.Intern("x")};
  EXPECT_FALSE(dfa.Accepts(other));
  EXPECT_FALSE(dfa.Accepts({}));
}

// Every constructor the pattern front ends use (Parse, FromAst) yields a
// minimal DFA, so a second minimization never shrinks an edge. This is
// the invariant the MatchTables::Build state loops rely on.
bool IsMinimal(const Regex& re) {
  return re.dfa().Minimize().NumStates() == re.dfa().NumStates();
}

void ExpectMinimalEdges(const pattern::TreePattern& pattern,
                        const std::string& text) {
  for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
    EXPECT_TRUE(IsMinimal(pattern.edge(w))) << "edge " << w << " of\n"
                                            << text;
  }
}

TEST(RegexMinimalityTest, FuzzRegexesAreMinimal) {
  fuzz::Rng rng(2010);
  fuzz::TextGenParams params;
  for (int i = 0; i < 500; ++i) {
    Alphabet alphabet;
    std::string text = fuzz::GenerateRegexText(&rng, params);
    auto re = Regex::Parse(&alphabet, text);
    ASSERT_TRUE(re.ok()) << text << ": " << re.status().ToString();
    EXPECT_TRUE(IsMinimal(*re)) << text;
  }
}

TEST(RegexMinimalityTest, ParsedPatternAndPathFdEdgesAreMinimal) {
  fuzz::Rng rng(2010);
  fuzz::TextGenParams params;
  for (int i = 0; i < 300; ++i) {
    Alphabet alphabet;
    std::string text = fuzz::GeneratePatternDslText(&rng, params);
    auto parsed = pattern::ParsePattern(&alphabet, text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    ExpectMinimalEdges(parsed->pattern, text);

    std::string path_fd = fuzz::GeneratePathFdText(&rng, params);
    auto fd = fd::ParseAndCompilePathFd(&alphabet, path_fd);
    ASSERT_TRUE(fd.ok()) << path_fd << ": " << fd.status().ToString();
    ExpectMinimalEdges(fd->pattern(), path_fd);
  }
}

}  // namespace
}  // namespace rtp::regex
