#include "xpath/xpath.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "pattern/evaluator.h"
#include "regex/regex.h"

namespace rtp::xpath {

using pattern::PatternNodeId;
using pattern::TreePattern;

namespace {

enum class Axis { kChild, kDescendant };

struct NodeTest {
  enum class Kind { kName, kStar, kAttribute, kText };
  Kind kind = Kind::kName;
  std::string name;  // kName: element name; kAttribute: name without '@'
};

struct RelStep {
  Axis axis = Axis::kChild;
  NodeTest test;
};

struct Step {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<std::vector<RelStep>> predicates;
};

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':';
}

class XPathParser {
 public:
  explicit XPathParser(std::string_view input) : input_(input) {}

  StatusOr<std::vector<std::vector<Step>>> Parse() {
    std::vector<std::vector<Step>> branches;
    RTP_ASSIGN_OR_RETURN(std::vector<Step> first, ParsePath());
    branches.push_back(std::move(first));
    while (Eat('|')) {
      RTP_ASSIGN_OR_RETURN(std::vector<Step> next, ParsePath());
      branches.push_back(std::move(next));
    }
    SkipSpace();
    if (pos_ != input_.size()) return Error("trailing characters");
    return branches;
  }

 private:
  Status Error(std::string msg) const {
    return ParseError("xpath: " + msg + " at offset " + std::to_string(pos_) +
                      " in \"" + std::string(input_) + "\"");
  }
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool EatWord(std::string_view w) {
    SkipSpace();
    if (input_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  StatusOr<Axis> ParseAxis() {
    if (EatWord("//")) return Axis::kDescendant;
    if (Eat('/')) return Axis::kChild;
    return Error("expected '/' or '//'");
  }

  StatusOr<NodeTest> ParseNodeTest() {
    SkipSpace();
    NodeTest test;
    if (Eat('*')) {
      test.kind = NodeTest::Kind::kStar;
      return test;
    }
    if (Eat('@')) {
      RTP_ASSIGN_OR_RETURN(test.name, ParseName());
      test.kind = NodeTest::Kind::kAttribute;
      return test;
    }
    RTP_ASSIGN_OR_RETURN(std::string name, ParseName());
    if (name == "text" && EatWord("()")) {
      test.kind = NodeTest::Kind::kText;
      return test;
    }
    test.kind = NodeTest::Kind::kName;
    test.name = std::move(name);
    return test;
  }

  StatusOr<std::string> ParseName() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() && IsNameChar(input_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  StatusOr<std::vector<Step>> ParsePath() {
    std::vector<Step> steps;
    while (true) {
      SkipSpace();
      if (steps.empty()) {
        // A path must start with '/' or '//'.
        if (pos_ >= input_.size() || input_[pos_] != '/') {
          return Error("a path must be absolute ('/' or '//')");
        }
      } else if (pos_ >= input_.size() || input_[pos_] != '/') {
        break;
      }
      Step step;
      RTP_ASSIGN_OR_RETURN(step.axis, ParseAxis());
      RTP_ASSIGN_OR_RETURN(step.test, ParseNodeTest());
      while (Eat('[')) {
        RTP_ASSIGN_OR_RETURN(std::vector<RelStep> rel, ParseRelPath());
        step.predicates.push_back(std::move(rel));
        if (!Eat(']')) return Error("expected ']'");
      }
      steps.push_back(std::move(step));
    }
    return steps;
  }

  StatusOr<std::vector<RelStep>> ParseRelPath() {
    std::vector<RelStep> steps;
    RelStep first;
    if (EatWord(".//")) {
      first.axis = Axis::kDescendant;
    } else {
      EatWord("./");  // optional
      first.axis = Axis::kChild;
    }
    RTP_ASSIGN_OR_RETURN(first.test, ParseNodeTest());
    steps.push_back(std::move(first));
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size() || input_[pos_] != '/') break;
      RelStep next;
      RTP_ASSIGN_OR_RETURN(next.axis, ParseAxis());
      RTP_ASSIGN_OR_RETURN(next.test, ParseNodeTest());
      steps.push_back(std::move(next));
    }
    return steps;
  }

  std::string_view input_;
  size_t pos_ = 0;
};

regex::RegexAst TestAtom(Alphabet* alphabet, const NodeTest& test) {
  switch (test.kind) {
    case NodeTest::Kind::kStar:
      return regex::Any();
    case NodeTest::Kind::kAttribute:
      return regex::Sym(alphabet->Intern("@" + test.name));
    case NodeTest::Kind::kText:
      return regex::Sym(alphabet->Intern("#text"));
    case NodeTest::Kind::kName:
      return regex::Sym(alphabet->Intern(test.name));
  }
  RTP_CHECK(false);
  return nullptr;
}

void AppendStepParts(Alphabet* alphabet, Axis axis, const NodeTest& test,
                     std::vector<regex::RegexAst>* parts) {
  if (axis == Axis::kDescendant) {
    parts->push_back(regex::Star(regex::Any()));
  }
  parts->push_back(TestAtom(alphabet, test));
}

TreePattern CompileBranch(Alphabet* alphabet, const std::vector<Step>& steps) {
  TreePattern tree;
  PatternNodeId current = TreePattern::kRoot;
  std::vector<regex::RegexAst> pending;
  for (const Step& step : steps) {
    AppendStepParts(alphabet, step.axis, step.test, &pending);
    if (step.predicates.empty()) continue;
    // Materialize the step as a template node and hang the predicate
    // branches under it (in listed order — see the semantic caveat).
    current = tree.AddChild(
        current, regex::Regex::FromAst(regex::Cat(std::move(pending))));
    pending.clear();
    for (const std::vector<RelStep>& predicate : step.predicates) {
      std::vector<regex::RegexAst> parts;
      for (const RelStep& rel : predicate) {
        AppendStepParts(alphabet, rel.axis, rel.test, &parts);
      }
      tree.AddChild(current,
                    regex::Regex::FromAst(regex::Cat(std::move(parts))));
    }
  }
  PatternNodeId selected = current;
  if (!pending.empty()) {
    selected = tree.AddChild(
        current, regex::Regex::FromAst(regex::Cat(std::move(pending))));
  }
  tree.AddSelected(selected);
  return tree;
}

}  // namespace

StatusOr<CompiledXPath> CompileXPath(Alphabet* alphabet,
                                     std::string_view query) {
  RTP_ASSIGN_OR_RETURN(auto branches, XPathParser(query).Parse());
  CompiledXPath compiled;
  for (const std::vector<Step>& steps : branches) {
    if (steps.empty()) {
      return InvalidArgumentError("xpath: empty path branch");
    }
    TreePattern tree = CompileBranch(alphabet, steps);
    RTP_RETURN_IF_ERROR(tree.Validate());
    if (tree.selected().front().node == TreePattern::kRoot) {
      return InvalidArgumentError("xpath: a path must select below the root");
    }
    compiled.branches.push_back(std::move(tree));
  }
  return compiled;
}

std::vector<xml::NodeId> EvaluateXPath(const CompiledXPath& compiled,
                                       const xml::Document& doc) {
  // One document snapshot shared by every union branch.
  std::shared_ptr<const xml::DocIndex> index = doc.Snapshot();
  std::set<xml::NodeId> nodes;
  for (const TreePattern& branch : compiled.branches) {
    for (const auto& tuple : pattern::EvaluateSelected(branch, *index)) {
      nodes.insert(tuple[0]);
    }
  }
  std::vector<xml::NodeId> out(nodes.begin(), nodes.end());
  std::sort(out.begin(), out.end(), [&doc](xml::NodeId a, xml::NodeId b) {
    return doc.DocumentOrderLess(a, b);
  });
  return out;
}

}  // namespace rtp::xpath
