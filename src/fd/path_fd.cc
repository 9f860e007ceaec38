#include "fd/path_fd.h"

#include <cctype>
#include <map>
#include <memory>

#include "regex/regex.h"

namespace rtp::fd {

namespace {

bool IsPathLabelChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.' || c == ':' || c == '@' || c == '#';
}

class PathFdParser {
 public:
  explicit PathFdParser(std::string_view input) : input_(input) {}

  StatusOr<PathFd> Parse() {
    PathFd fd;
    if (!Eat('(')) return Error("expected '('");
    if (!Eat('/')) return Error("context path must start with '/'");
    if (PeekLabel()) {
      RTP_ASSIGN_OR_RETURN(fd.context, ParseSteps());
    }
    if (!Eat(',')) return Error("expected ',' after context path");
    if (!Eat('(')) return Error("expected '(' starting the condition list");
    if (!Eat(')')) {
      while (true) {
        RTP_ASSIGN_OR_RETURN(PathFd::Item item, ParseItem());
        fd.conditions.push_back(std::move(item));
        if (Eat(',')) continue;
        if (Eat(')')) break;
        return Error("expected ',' or ')' in condition list");
      }
    }
    if (!(Eat('-') && Eat('>'))) return Error("expected '->'");
    RTP_ASSIGN_OR_RETURN(fd.target, ParseItem());
    if (!Eat(')')) return Error("expected final ')'");
    SkipSpace();
    if (pos_ != input_.size()) return Error("trailing characters");
    return fd;
  }

 private:
  Status Error(std::string msg) const {
    return ParseError("path fd: " + msg + " at offset " +
                      std::to_string(pos_));
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

  bool PeekLabel() {
    SkipSpace();
    return pos_ < input_.size() && IsPathLabelChar(input_[pos_]);
  }

  StatusOr<std::string> ParseLabel() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() && IsPathLabelChar(input_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a label");
    return std::string(input_.substr(start, pos_ - start));
  }

  StatusOr<std::vector<std::string>> ParseSteps() {
    std::vector<std::string> steps;
    RTP_ASSIGN_OR_RETURN(std::string first, ParseLabel());
    steps.push_back(std::move(first));
    while (true) {
      size_t save = pos_;
      if (!Eat('/')) break;
      if (!PeekLabel()) {
        pos_ = save;
        break;
      }
      RTP_ASSIGN_OR_RETURN(std::string next, ParseLabel());
      steps.push_back(std::move(next));
    }
    return steps;
  }

  StatusOr<PathFd::Item> ParseItem() {
    PathFd::Item item;
    RTP_ASSIGN_OR_RETURN(item.steps, ParseSteps());
    if (Eat('[')) {
      RTP_ASSIGN_OR_RETURN(std::string eq, ParseLabel());
      if (eq == "N") {
        item.equality = pattern::EqualityType::kNode;
      } else if (eq == "V") {
        item.equality = pattern::EqualityType::kValue;
      } else {
        return Error("equality type must be N or V");
      }
      if (!Eat(']')) return Error("expected ']'");
    }
    return item;
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// Trie over label words; children kept in first-insertion order.
struct TrieNode {
  std::vector<std::pair<std::string, std::unique_ptr<TrieNode>>> children;
  // Indices into the item list (conditions then target) ending here.
  std::vector<size_t> endpoints;

  TrieNode* Child(const std::string& label) {
    for (auto& [l, child] : children) {
      if (l == label) return child.get();
    }
    children.emplace_back(label, std::make_unique<TrieNode>());
    return children.back().second.get();
  }
};

regex::Regex WordRegex(Alphabet* alphabet,
                       const std::vector<std::string>& word) {
  std::vector<regex::RegexAst> parts;
  parts.reserve(word.size());
  for (const std::string& label : word) {
    parts.push_back(regex::Sym(alphabet->Intern(label)));
  }
  return regex::Regex::FromAst(regex::Cat(std::move(parts)));
}

// Emits the (chain-compressed) trie below `node` under pattern node
// `parent`, recording endpoint item -> pattern node into `item_nodes`.
void EmitTrie(Alphabet* alphabet, const TrieNode& node,
              pattern::PatternNodeId parent, pattern::TreePattern* out,
              std::vector<pattern::PatternNodeId>* item_nodes) {
  for (const auto& [label, child] : node.children) {
    // Compress the chain while the node has a single child and is not an
    // endpoint of any item.
    std::vector<std::string> word = {label};
    const TrieNode* cur = child.get();
    while (cur->children.size() == 1 && cur->endpoints.empty()) {
      word.push_back(cur->children[0].first);
      cur = cur->children[0].second.get();
    }
    pattern::PatternNodeId pattern_node =
        out->AddChild(parent, WordRegex(alphabet, word));
    for (size_t item : cur->endpoints) (*item_nodes)[item] = pattern_node;
    EmitTrie(alphabet, *cur, pattern_node, out, item_nodes);
  }
}

}  // namespace

StatusOr<PathFd> ParsePathFd(std::string_view input) {
  return PathFdParser(input).Parse();
}

StatusOr<FunctionalDependency> CompilePathFd(Alphabet* alphabet,
                                             const PathFd& path_fd) {
  // All items, conditions first, target last.
  std::vector<const PathFd::Item*> items;
  for (const PathFd::Item& c : path_fd.conditions) items.push_back(&c);
  items.push_back(&path_fd.target);
  for (const PathFd::Item* item : items) {
    if (item->steps.empty()) {
      return InvalidArgumentError(
          "path fd items must be non-empty paths relative to the context");
    }
  }

  pattern::TreePattern tree;
  pattern::PatternNodeId context = pattern::TreePattern::kRoot;
  if (!path_fd.context.empty()) {
    context = tree.AddChild(pattern::TreePattern::kRoot,
                            WordRegex(alphabet, path_fd.context));
  }

  // Build the trie of the items below the context node.
  TrieNode trie_root;
  for (size_t i = 0; i < items.size(); ++i) {
    TrieNode* cur = &trie_root;
    for (const std::string& step : items[i]->steps) cur = cur->Child(step);
    cur->endpoints.push_back(i);
  }

  std::vector<pattern::PatternNodeId> item_nodes(
      items.size(), pattern::kInvalidPatternNode);
  EmitTrie(alphabet, trie_root, context, &tree, &item_nodes);

  std::vector<pattern::SelectedNode> selected;
  selected.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    RTP_CHECK(item_nodes[i] != pattern::kInvalidPatternNode);
    selected.push_back(pattern::SelectedNode{item_nodes[i], items[i]->equality});
  }
  tree.set_selected(std::move(selected));
  return FunctionalDependency::Create(std::move(tree), context);
}

StatusOr<FunctionalDependency> ParseAndCompilePathFd(Alphabet* alphabet,
                                                     std::string_view input) {
  RTP_ASSIGN_OR_RETURN(PathFd parsed, ParsePathFd(input));
  return CompilePathFd(alphabet, parsed);
}

}  // namespace rtp::fd
