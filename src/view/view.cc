#include "view/view.h"

#include "pattern/evaluator.h"

namespace rtp::view {

StatusOr<View> View::Create(pattern::TreePattern pattern) {
  RTP_RETURN_IF_ERROR(pattern.Validate());
  if (pattern.selected().empty()) {
    return InvalidArgumentError("a view must select at least one node");
  }
  return View(std::move(pattern));
}

StatusOr<View> View::FromParsed(pattern::ParsedPattern parsed) {
  return Create(std::move(parsed.pattern));
}

xml::Document View::Materialize(const xml::Document& doc) const {
  xml::Document out(doc.shared_alphabet());
  xml::NodeId result = out.AddElement(out.root(), "result");
  for (const std::vector<xml::NodeId>& tuple :
       pattern::EvaluateSelected(pattern_, doc)) {
    xml::NodeId holder = out.AddElement(result, "tuple");
    for (xml::NodeId n : tuple) {
      out.CopySubtree(doc, n, holder);
    }
  }
  return out;
}

StatusOr<independence::CriterionResult> CheckViewIndependence(
    const View& view, const update::UpdateClass& update,
    const schema::Schema* schema, Alphabet* alphabet,
    const independence::CriterionOptions& options) {
  return independence::CheckPatternIndependence(view.pattern(), update,
                                                schema, alphabet, options);
}

}  // namespace rtp::view
