#include "common/file_io.h"
#include "perfbench.h"
#include "xmark/generator.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xvm::perf {

std::vector<ViewDefinition> XMarkViewDefs() {
  std::vector<ViewDefinition> defs;
  for (const std::string& name : XMarkViewNames()) {
    StatusOr<ViewDefinition> def = XMarkView(name);
    XVM_CHECK(def.ok());
    defs.push_back(std::move(def).value());
  }
  return defs;
}

std::string MakeXMarkXml(size_t bytes, uint64_t seed) {
  Document doc;
  GenerateXMark(XMarkConfig{bytes, seed}, &doc);
  return SerializeDocument(doc);
}

namespace {

ManagerEngine EmptyEngine() {
  ManagerEngine e;
  e.doc = std::make_unique<Document>();
  e.store = std::make_unique<StoreIndex>(e.doc.get());
  e.mgr = std::make_unique<ViewManager>(e.doc.get(), e.store.get());
  e.mgr->set_workers(1);
  return e;
}

Status AddViews(const std::vector<ViewDefinition>& defs, ViewManager* mgr) {
  for (const ViewDefinition& def : defs) {
    XVM_ASSIGN_OR_RETURN(size_t index,
                         mgr->AddView(def, LatticeStrategy::kSnowcaps));
    (void)index;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ManagerEngine> SetupManager(const std::string& xml,
                                     const std::vector<ViewDefinition>& defs,
                                     const std::string& dur_dir,
                                     Tracer* tracer, int parent,
                                     SetupTimes* times) {
  ManagerEngine e = EmptyEngine();
  double t = NowMs();
  {
    ScopedSpan span(tracer, "xml.ParseDocument", parent);
    XVM_RETURN_IF_ERROR(ParseDocument(xml, e.doc.get()));
  }
  times->parse_ms = NowMs() - t;
  t = NowMs();
  {
    ScopedSpan span(tracer, "store.Build", parent);
    e.store->Build();
  }
  times->build_ms = NowMs() - t;
  t = NowMs();
  {
    ScopedSpan span(tracer, "manager.AddView", parent);
    XVM_RETURN_IF_ERROR(AddViews(defs, e.mgr.get()));
  }
  times->addview_ms = NowMs() - t;
  if (!dur_dir.empty()) {
    t = NowMs();
    ScopedSpan span(tracer, "manager.EnableDurability+Checkpoint", parent);
    XVM_RETURN_IF_ERROR(e.mgr->EnableDurability(dur_dir));
    XVM_RETURN_IF_ERROR(e.mgr->Checkpoint(dur_dir));
    times->durability_ms = NowMs() - t;
  }
  return e;
}

StatusOr<ManagerEngine> RecoverManager(const std::vector<ViewDefinition>& defs,
                                       const std::string& dir) {
  ManagerEngine e = EmptyEngine();
  XVM_RETURN_IF_ERROR(AddViews(defs, e.mgr.get()));
  XVM_RETURN_IF_ERROR(e.mgr->Recover(dir));
  return e;
}

}  // namespace xvm::perf
