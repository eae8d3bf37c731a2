// Output checks. Every reference value comes from a computation apart from
// the maintenance path: NavigationalViewEval walks the document tree with
// no store, no structural joins and no executor.

#include <sstream>
#include <string>

#include "baseline/recompute.h"
#include "perfbench.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xvm::perf {

namespace {

std::string Show(const Tuple& t) {
  std::ostringstream out;
  out << "(";
  for (size_t i = 0; i < t.size(); ++i) {
    std::string s = t[i].ToString();
    if (s.size() > 40) s = s.substr(0, 40) + "...";
    out << (i ? ", " : "") << s;
  }
  out << ")";
  return out.str();
}

}  // namespace

std::string DiffContent(const std::vector<CountedTuple>& got,
                        const std::vector<CountedTuple>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(got[i].tuple == want[i].tuple)) {
      return "tuple " + std::to_string(i) + " is " + Show(got[i].tuple) +
             ", expected " + Show(want[i].tuple);
    }
    if (got[i].count != want[i].count) {
      return "tuple " + std::to_string(i) + " " + Show(got[i].tuple) +
             " has count " + std::to_string(got[i].count) + ", expected " +
             std::to_string(want[i].count);
    }
  }
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " tuples, expected " +
           std::to_string(want.size());
  }
  return "";
}

std::string DiffDocument(const Document& got, const std::string& want) {
  const std::string a = SerializeDocument(got);
  if (a == want) return "";
  size_t i = 0;
  while (i < a.size() && i < want.size() && a[i] == want[i]) ++i;
  return "documents differ at byte " + std::to_string(i) + ": \"" +
         a.substr(i, 30) + "\" vs \"" + want.substr(i, 30) + "\"";
}

bool LookupHolds(const ViewSnapshot& snap, const std::string& id_key,
                 const CountedTuple* found) {
  return found != nullptr && snap.IdKeyOf(found->tuple) == id_key;
}

void CheckManagerAgainstOracle(const ViewManager& mgr, const Document& doc,
                               const std::string& where, Report* report) {
  for (size_t i = 0; i < mgr.size(); ++i) {
    const ViewDefinition& def = mgr.view(i).def();
    ViewSnapshotPtr snap = mgr.Snapshot(i);
    const std::string diff =
        snap == nullptr ? "no snapshot published"
                        : DiffContent(snap->tuples(),
                                      NavigationalViewEval(def, doc));
    if (!diff.empty()) {
      report->CheckFailed(where + ": view " + def.name() +
                          " differs from the navigational oracle: " + diff);
    }
  }
}

std::string SelfTest(const std::vector<CountedTuple>& content,
                     const ViewSnapshot& snap, const std::string& xml) {
  if (content.size() < 2) return "self-test needs a view with 2+ tuples";
  Report scratch(/*log=*/false);
  auto expect_failure = [&scratch](bool detected, const std::string& what) {
    scratch.Attempt();
    if (detected) scratch.CheckFailed("injected: " + what);
  };

  std::vector<CountedTuple> dropped = content;
  dropped.erase(dropped.begin() + static_cast<long>(dropped.size() / 2));
  expect_failure(!DiffContent(dropped, content).empty(), "dropped tuple");

  std::vector<CountedTuple> recounted = content;
  recounted[recounted.size() / 2].count += 1;
  expect_failure(!DiffContent(recounted, content).empty(), "changed count");

  Document original;
  Document altered;
  std::string altered_xml = xml;
  const size_t text = altered_xml.find("<name>");
  Status parsed = ParseDocument(xml, &original);
  if (text != std::string::npos && parsed.ok()) {
    char& c = altered_xml[text + 6];
    c = c == 'x' ? 'y' : 'x';
    parsed = ParseDocument(altered_xml, &altered);
  }
  expect_failure(parsed.ok() && text != std::string::npos &&
                     !DiffDocument(altered, SerializeDocument(original)).empty(),
                 "altered text node");

  const std::string key = snap.IdKeyOf(snap.tuples().front().tuple);
  expect_failure(snap.tuples().size() >= 2 &&
                     !LookupHolds(snap, key, &snap.tuples().back()),
                 "wrong lookup result");

  if (scratch.failed() != 4) {
    return "self-test: only " + std::to_string(scratch.failed()) +
           " of 4 injected faults were counted as failed operations";
  }
  return "";
}

}  // namespace xvm::perf
