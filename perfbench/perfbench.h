#ifndef XVM_PERFBENCH_PERFBENCH_H_
#define XVM_PERFBENCH_PERFBENCH_H_

// The maintenance-engine benchmark: three closed-loop, single-threaded
// workloads driven through the public API (see README.md). Everything the
// benchmark times, it times from these files; the library is unchanged.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operators.h"
#include "common/status.h"
#include "store/canonical.h"
#include "view/manager.h"
#include "view/view_def.h"
#include "xml/document.h"

namespace xvm::perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // tiny inputs, every check, a few seconds
  std::string work_dir;   // fresh per run: durability directories live here
  std::string span_file;  // spans are written here when trace is on
};

/// Milliseconds on the steady clock.
double NowMs();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();

/// Total size of the regular files in `dir`, in bytes.
uint64_t DirBytes(const std::string& dir);

/// The outcome of one run: operations attempted/failed, correctness of the
/// outputs of the operations that succeeded, and the metrics to print.
class Report {
 public:
  /// `log`: describe each failure on stderr.
  explicit Report(bool log = true) : log_(log) {}

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// An operation returned an error.
  void OpFailed(const std::string& what);
  /// An operation's output disagrees with the independent computation: the
  /// operation counts as failed and the run as incorrect.
  void CheckFailed(const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);

  bool correct() const { return check_failures_ == 0; }
  uint64_t failed() const { return failed_; }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string Json() const;

 private:
  bool log_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Spans are opened and closed around calls into
/// the library; outputs the library already reports per statement (phase
/// timings, maintenance counters, registry counters) hang under the
/// statement's span as completed children or attributes. Written out once,
/// when the run ends.
class Tracer {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);
  /// A completed child whose duration the library measured itself.
  void Child(int parent, const std::string& name, double dur_ms);
  void Attr(int id, const std::string& key, double value);
  /// One JSON object per line: id, parent, name, start_ms, dur_ms, attrs.
  Status Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_ms = 0;
    double dur_ms = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };
  std::vector<Span> spans_;
};

/// RAII span; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-layer sums over the traced part of a run, by metric name.
using LayerSums = std::map<std::string, double>;

// ----------------------------------------------------------------- checks

/// Empty when `got` equals `want` tuple for tuple and count for count;
/// otherwise a description of the first difference.
std::string DiffContent(const std::vector<CountedTuple>& got,
                        const std::vector<CountedTuple>& want);

/// Empty when `got` serializes to exactly `want`.
std::string DiffDocument(const Document& got, const std::string& want);

/// True when a point lookup of `id_key` returned a tuple carrying that key.
bool LookupHolds(const ViewSnapshot& snap, const std::string& id_key,
                 const CountedTuple* found);

/// Every maintained view of `mgr` against NavigationalViewEval on `doc`
/// (tree navigation: no store, no structural joins, no executor). Failures
/// go to `report`.
void CheckManagerAgainstOracle(const ViewManager& mgr, const Document& doc,
                              const std::string& where, Report* report);

/// Feeds the checks four injected faults (a dropped tuple, a changed
/// derivation count, a document with one text node altered, a lookup that
/// returns the wrong tuple) and records each in a scratch Report. Returns
/// an empty string when every fault was counted as a failed operation.
std::string SelfTest(const std::vector<CountedTuple>& content,
                     const ViewSnapshot& snap, const std::string& xml);

// ----------------------------------------------------------------- engine

/// The seven XMark views of paper §6 (Appendix A.6).
std::vector<ViewDefinition> XMarkViewDefs();

/// Serialized XMark document of about `bytes` bytes generated from `seed`.
std::string MakeXMarkXml(size_t bytes, uint64_t seed);

/// Document + store + ViewManager (one propagation worker, metrics off).
struct ManagerEngine {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<ViewManager> mgr;

  /// Destroys the parts in dependency order.
  void Reset() {
    mgr.reset();
    store.reset();
    doc.reset();
  }
};

/// Milliseconds of each set-up step.
struct SetupTimes {
  double parse_ms = 0;
  double build_ms = 0;
  double addview_ms = 0;
  double durability_ms = 0;  // EnableDurability + first Checkpoint
  double total_ms() const {
    return parse_ms + build_ms + addview_ms + durability_ms;
  }
};

/// ParseDocument(xml) + StoreIndex::Build + AddView of every definition;
/// with a non-empty `dur_dir`, also EnableDurability + a first Checkpoint.
StatusOr<ManagerEngine> SetupManager(const std::string& xml,
                                     const std::vector<ViewDefinition>& defs,
                                     const std::string& dur_dir,
                                     Tracer* tracer, int parent,
                                     SetupTimes* times);

/// A fresh, empty engine with `defs` registered, recovered from `dir`.
StatusOr<ManagerEngine> RecoverManager(const std::vector<ViewDefinition>& defs,
                                       const std::string& dir);

// -------------------------------------------------------------- workloads

void RunBulk(const Options& opts, Report* report);
void RunPoint(const Options& opts, Report* report);
void RunLazy(const Options& opts, Report* report);

}  // namespace xvm::perf

#endif  // XVM_PERFBENCH_PERFBENCH_H_
