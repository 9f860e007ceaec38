#include "view/view.h"

#include <gtest/gtest.h>

#include "guard/guard.h"
#include "update/update_ops.h"
#include "workload/exam_generator.h"
#include "workload/exam_schema.h"
#include "xml/value_equality.h"
#include "xml/xml_io.h"

namespace rtp::view {
namespace {

using xml::Document;
using xml::NodeId;

View MustView(Alphabet* alphabet, std::string_view text) {
  auto parsed = pattern::ParsePattern(alphabet, text);
  RTP_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
  auto v = View::FromParsed(std::move(parsed).value());
  RTP_CHECK_MSG(v.ok(), v.status().ToString().c_str());
  return std::move(v).value();
}

update::UpdateClass MustUpdate(Alphabet* alphabet, std::string_view text) {
  auto parsed = pattern::ParsePattern(alphabet, text);
  RTP_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
  auto u = update::UpdateClass::FromParsed(std::move(parsed).value());
  RTP_CHECK_MSG(u.ok(), u.status().ToString().c_str());
  return std::move(u).value();
}

TEST(ViewTest, CreateRequiresSelection) {
  Alphabet alphabet;
  auto parsed = pattern::ParsePattern(&alphabet, "root { a; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(View::FromParsed(std::move(parsed).value()).ok());
}

TEST(ViewTest, MaterializeCollectsSelectedSubtrees) {
  Alphabet alphabet;
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  View levels = MustView(&alphabet, R"(
    root { s = session/candidate/level; }
    select s;
  )");
  Document result = levels.Materialize(doc);
  NodeId holder = result.first_child(result.root());
  EXPECT_EQ(result.label_name(holder), "result");
  std::vector<NodeId> tuples = result.Children(holder);
  ASSERT_EQ(tuples.size(), 2u);
  for (NodeId tuple : tuples) {
    ASSERT_EQ(result.ChildCount(tuple), 1u);
    EXPECT_EQ(result.label_name(result.first_child(tuple)), "level");
  }
}

TEST(ViewTest, MaterializeBinaryView) {
  Alphabet alphabet;
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  View pairs = MustView(&alphabet, R"(
    root {
      session/candidate {
        a = exam/discipline;
        b = exam/mark;
      }
    }
    select a, b;
  )");
  Document result = pairs.Materialize(doc);
  NodeId holder = result.first_child(result.root());
  for (NodeId tuple : result.Children(holder)) {
    std::vector<NodeId> parts = result.Children(tuple);
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(result.label_name(parts[0]), "discipline");
    EXPECT_EQ(result.label_name(parts[1]), "mark");
  }
}

TEST(ViewTest, IndependenceProvenForDisjointUpdates) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  View ranks = MustView(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  update::UpdateClass levels = MustUpdate(&alphabet, R"(
    root { s = session/candidate/level; }
    select s;
  )");
  auto result =
      CheckViewIndependence(ranks, levels, &schema, &alphabet);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);
}

TEST(ViewTest, IndependenceNotProvenForOverlappingUpdates) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  View ranks = MustView(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  update::UpdateClass rank_updates = MustUpdate(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  independence::CriterionOptions options;
  options.want_conflict_candidate = true;
  auto result = CheckViewIndependence(ranks, rank_updates, &schema, &alphabet,
                                      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->independent);
  ASSERT_TRUE(result->conflict_candidate.has_value());
  EXPECT_TRUE(schema.Validate(*result->conflict_candidate));
}

TEST(ViewTest, ProvenIndependenceHoldsOnConcreteUpdates) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  View ranks = MustView(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  update::UpdateClass levels = MustUpdate(&alphabet, R"(
    root { session/candidate { s = level; toBePassed; } }
    select s;
  )");
  auto criterion = CheckViewIndependence(ranks, levels, &schema, &alphabet);
  ASSERT_TRUE(criterion.ok());
  ASSERT_TRUE(criterion->independent);

  // Apply several concrete updates of the class: the materialized view
  // never changes.
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  Document before = ranks.Materialize(doc);
  update::Update q1{&levels, update::TransformValues{[](std::string_view) {
                      return std::string("Z");
                    }}};
  ASSERT_TRUE(update::ApplyUpdate(&doc, q1).ok());
  auto comment = std::make_shared<Document>(&alphabet);
  NodeId c = comment->AddElement(comment->root(), "comment");
  comment->AddText(c, "x");
  update::Update q2{&levels, update::AppendChild{comment, c}};
  ASSERT_TRUE(update::ApplyUpdate(&doc, q2).ok());

  Document after = ranks.Materialize(doc);
  EXPECT_TRUE(xml::ValueEqual(before, before.root(), after, after.root()));
}

// The view check runs the same pipeline as CheckIndependence, so it
// honours the budget and the cancel token of the caller's guard.
TEST(ViewTest, IndependenceObeysStateBudget) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  View ranks = MustView(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  update::UpdateClass levels = MustUpdate(&alphabet, R"(
    root { s = session/candidate/level; }
    select s;
  )");
  guard::ExecutionBudget budget;
  budget.max_automaton_states = 10;
  guard::OptionalGuardScope scope(budget, /*cancel=*/nullptr);
  auto result = CheckViewIndependence(ranks, levels, &schema, &alphabet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

TEST(ViewTest, IndependenceObeysCancelToken) {
  Alphabet alphabet;
  schema::Schema schema = workload::BuildExamSchema(&alphabet);
  View ranks = MustView(&alphabet, R"(
    root { s = session/candidate/exam/rank; }
    select s;
  )");
  update::UpdateClass levels = MustUpdate(&alphabet, R"(
    root { s = session/candidate/level; }
    select s;
  )");
  guard::CancelToken cancel;
  cancel.Cancel();
  guard::OptionalGuardScope scope(guard::ExecutionBudget{}, &cancel);
  auto result = CheckViewIndependence(ranks, levels, &schema, &alphabet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();
}

TEST(ViewTest, NonLeafUpdateSelectionRejected) {
  Alphabet alphabet;
  View ranks = MustView(&alphabet, "root { s = a; } select s;");
  update::UpdateClass internal = MustUpdate(&alphabet, R"(
    root { s = a { b; } }
    select s;
  )");
  EXPECT_FALSE(CheckViewIndependence(ranks, internal, nullptr, &alphabet).ok());
}

}  // namespace
}  // namespace rtp::view
