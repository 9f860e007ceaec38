#include "independence/criterion.h"

#include <gtest/gtest.h>

#include "fd/fd_checker.h"
#include "fd/path_fd.h"
#include "independence/impact_search.h"
#include "update/update_ops.h"
#include "workload/exam_generator.h"
#include "workload/exam_schema.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

namespace rtp::independence {
namespace {

using xml::Document;
using xml::NodeId;

fd::FunctionalDependency MustFd(pattern::ParsedPattern parsed) {
  auto fd = fd::FunctionalDependency::FromParsed(std::move(parsed));
  RTP_CHECK_MSG(fd.ok(), fd.status().ToString().c_str());
  return std::move(fd).value();
}

update::UpdateClass MustUpdate(pattern::ParsedPattern parsed) {
  auto u = update::UpdateClass::FromParsed(std::move(parsed));
  RTP_CHECK_MSG(u.ok(), u.status().ToString().c_str());
  return std::move(u).value();
}

class IndependenceTest : public ::testing::Test {
 protected:
  IndependenceTest()
      : schema_(workload::BuildExamSchema(&alphabet_)),
        permissive_schema_(workload::BuildPermissiveExamSchema(&alphabet_)) {}

  Alphabet alphabet_;
  schema::Schema schema_;
  schema::Schema permissive_schema_;
};

// --- Example 6: fd5 is independent of U under the XOR schema. ---

TEST_F(IndependenceTest, Example6Fd5IndependentUnderSchema) {
  fd::FunctionalDependency fd5 = MustFd(workload::PaperFd5(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));

  auto result = CheckIndependence(fd5, u, &schema_, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);
  EXPECT_GT(result->fd_automaton_size, 0);
  EXPECT_GT(result->product_size, 0);
}

TEST_F(IndependenceTest, Example6Fd5NotProvenWithoutSchema) {
  // Without the XOR constraint a candidate may carry both toBePassed and
  // firstJob-Year: the updated level can sit on an fd5 trace.
  fd::FunctionalDependency fd5 = MustFd(workload::PaperFd5(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));

  CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result = CheckIndependence(fd5, u, nullptr, &alphabet_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->independent);
  ASSERT_TRUE(result->conflict_candidate.has_value());
  // The synthesized conflict candidate really is in L (cross-validation of
  // the automaton against the direct evaluator-based definition).
  EXPECT_TRUE(
      IsInCriterionLanguage(*result->conflict_candidate, fd5, u, nullptr));
}

TEST_F(IndependenceTest, Example6Fd5NotProvenUnderPermissiveSchema) {
  fd::FunctionalDependency fd5 = MustFd(workload::PaperFd5(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));

  CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result =
      CheckIndependence(fd5, u, &permissive_schema_, &alphabet_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->independent);
  ASSERT_TRUE(result->conflict_candidate.has_value());
  EXPECT_TRUE(permissive_schema_.Validate(*result->conflict_candidate));
  EXPECT_TRUE(IsInCriterionLanguage(*result->conflict_candidate, fd5, u,
                                    &permissive_schema_));
}

// --- fd3 (Example 5): U touches levels on fd3 traces: not independent. ---

TEST_F(IndependenceTest, Fd3NotProvenIndependent) {
  fd::FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));
  auto result = CheckIndependence(fd3, u, &schema_, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->independent);
}

// fd1 concerns ranks; U updates levels only: independent under the schema
// (ranks are never inside a level subtree).
TEST_F(IndependenceTest, Fd1IndependentOfLevelUpdates) {
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));
  auto result = CheckIndependence(fd1, u, &schema_, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);
}

// Even without a schema fd1 is independent of level updates: both paths
// are anchored at the document root, so an updated node is always a
// root/session/candidate/level node, which can never lie on an fd1 trace
// nor inside a discipline/mark/rank subtree (those live under
// root/session/candidate/exam at other labels/depths).
TEST_F(IndependenceTest, Fd1IndependentOfLevelUpdatesEvenWithoutSchema) {
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));
  auto result = CheckIndependence(fd1, u, nullptr, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);
}

// An update class rewriting ranks is flagged against fd1.
TEST_F(IndependenceTest, RankUpdatesConflictWithFd1) {
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  ASSERT_TRUE(parsed.ok());
  update::UpdateClass u = MustUpdate(std::move(parsed).value());

  CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result = CheckIndependence(fd1, u, &schema_, &alphabet_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->independent);
  ASSERT_TRUE(result->conflict_candidate.has_value());
  EXPECT_TRUE(schema_.Validate(*result->conflict_candidate));
  EXPECT_TRUE(
      IsInCriterionLanguage(*result->conflict_candidate, fd1, u, &schema_));

  // The flag is justified: a real impact exists.
  ImpactSearchParams params;
  params.num_documents = 60;
  ImpactSearchResult search = SearchForImpact(fd1, u, schema_, params);
  EXPECT_TRUE(search.impact_found);
}

// Updates on toBePassed disciplines never touch fd1 traces.
TEST_F(IndependenceTest, ToBePassedUpdatesIndependentOfFd1) {
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root { s = session/candidate/toBePassed/discipline; }
    select s;
  )");
  ASSERT_TRUE(parsed.ok());
  update::UpdateClass u = MustUpdate(std::move(parsed).value());
  auto result = CheckIndependence(fd1, u, &schema_, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);
}

// Non-leaf selected nodes are rejected (the paper's restriction).
TEST_F(IndependenceTest, NonLeafSelectionRejected) {
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root { s = session/candidate { level; } }
    select s;
  )");
  ASSERT_TRUE(parsed.ok());
  update::UpdateClass u = MustUpdate(std::move(parsed).value());
  auto result = CheckIndependence(fd1, u, &schema_, &alphabet_);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Soundness (Proposition 2): when IC proves independence, no random
// impact search may succeed. ---

TEST_F(IndependenceTest, SoundnessOnProvenIndependentPairs) {
  struct Case {
    fd::FunctionalDependency fd;
    update::UpdateClass u;
  };
  std::vector<Case> cases;
  cases.push_back(Case{MustFd(workload::PaperFd5(&alphabet_)),
                       MustUpdate(workload::PaperUpdateU(&alphabet_))});
  cases.push_back(Case{MustFd(workload::PaperFd1(&alphabet_)),
                       MustUpdate(workload::PaperUpdateU(&alphabet_))});

  for (const Case& c : cases) {
    auto result = CheckIndependence(c.fd, c.u, &schema_, &alphabet_);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->independent);
    ImpactSearchParams params;
    params.num_documents = 40;
    ImpactSearchResult search = SearchForImpact(c.fd, c.u, schema_, params);
    EXPECT_FALSE(search.impact_found)
        << (search.witness ? search.witness->description : "");
  }
}

// The node-equality refinement: a key constraint (target candidate[N]) is
// independent of updates strictly below the keyed node that do not touch
// the key path — and impact search confirms no concrete update breaks it.
TEST_F(IndependenceTest, KeyIndependentOfUpdatesBelowKeyedNode) {
  auto key = fd::ParseAndCompilePathFd(
      &alphabet_, "(/session, (candidate/@IDN) -> candidate[N])");
  ASSERT_TRUE(key.ok()) << key.status().ToString();

  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root { s = session/candidate/exam/mark; }
    select s;
  )");
  ASSERT_TRUE(parsed.ok());
  update::UpdateClass marks = MustUpdate(std::move(parsed).value());

  auto result = CheckIndependence(*key, marks, &schema_, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);

  ImpactSearchParams params;
  params.num_documents = 40;
  ImpactSearchResult search = SearchForImpact(*key, marks, schema_, params);
  EXPECT_FALSE(search.impact_found);

  // Updates on the key path itself remain flagged.
  auto idn_parsed = pattern::ParsePattern(&alphabet_, R"(
    root { s = session/candidate/@IDN; }
    select s;
  )");
  ASSERT_TRUE(idn_parsed.ok());
  update::UpdateClass idns = MustUpdate(std::move(idn_parsed).value());
  auto flagged = CheckIndependence(*key, idns, &schema_, &alphabet_);
  ASSERT_TRUE(flagged.ok());
  EXPECT_FALSE(flagged->independent);
}

// The criterion language membership test agrees with schema validation
// plus trace analysis on generated documents.
TEST_F(IndependenceTest, CriterionLanguageMembershipOnGeneratedDocs) {
  fd::FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet_));
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet_));

  int in_language = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    workload::ExamWorkloadParams params;
    params.num_candidates = 6;
    params.exams_per_candidate = 2;
    params.seed = seed;
    Document doc = workload::GenerateExamDocument(&alphabet_, params);
    if (IsInCriterionLanguage(doc, fd3, u, &schema_)) ++in_language;
  }
  // fd3 traces exist in most documents and U touches their levels.
  EXPECT_GT(in_language, 0);
}

// --- Pins on the criterion's automata. ---
//
// The product construction and the root-witness search are shared by the
// FD and view checks; these pins hold the exact shape of L's automaton
// and the exact conflict candidate, so a refactor of either step that
// changes state numbering, transition order or the search order fails
// here even when every verdict survives. Each test builds its own
// alphabet: the witness's representative labels depend on what else the
// alphabet interned.

struct PaperFdPin {
  const char* name;
  pattern::ParsedPattern (*build)(Alphabet*);
  bool independent;
  int64_t product_size;
};

TEST(CriterionPinTest, PaperFdsUnderUpdateUKeepTheirProductSizes) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet));
  const PaperFdPin pins[] = {
      {"fd1", workload::PaperFd1, true, 22316},
      {"fd2", workload::PaperFd2, true, 20780},
      {"fd3", workload::PaperFd3, false, 24752},
      {"fd4", workload::PaperFd4, false, 28624},
      {"fd5", workload::PaperFd5, true, 17256},
  };
  for (const PaperFdPin& pin : pins) {
    fd::FunctionalDependency fd = MustFd(pin.build(&alphabet));
    auto result = CheckIndependence(fd, u, &schema, &alphabet);
    ASSERT_TRUE(result.ok()) << pin.name << ": " << result.status().ToString();
    EXPECT_EQ(result->independent, pin.independent) << pin.name;
    EXPECT_EQ(result->product_size, pin.product_size) << pin.name;
  }
}

TEST(CriterionPinTest, Fd3ConflictCandidateKeepsItsBytes) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  update::UpdateClass u = MustUpdate(workload::PaperUpdateU(&alphabet));
  fd::FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet));
  CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result = CheckIndependence(fd3, u, &schema, &alphabet, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->conflict_candidate.has_value());
  EXPECT_EQ(xml::WriteXml(*result->conflict_candidate, /*indent=*/false),
            "<session><candidate IDN=\"w\">"
            "<exam><discipline>w</discipline><date>w</date><mark>w</mark>"
            "<rank>w</rank></exam>"
            "<exam><discipline>w</discipline><date>w</date><mark>w</mark>"
            "<rank>w</rank></exam>"
            "<level>w</level>"
            "<toBePassed><discipline>w</discipline></toBePassed>"
            "</candidate></session>");
}

}  // namespace
}  // namespace rtp::independence
