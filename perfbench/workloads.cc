// The three workloads. Each generates its input from the seed before any
// timing, runs whole rounds of a fixed statement mix in a closed loop on
// one thread until --seconds of timed work are measured, checks every
// output against computations apart from the maintenance path, and ends
// with a restart from checkpoint + a fixed WAL tail.
//
// With --trace 1, odd rounds are traced and even rounds are not: the
// per-layer split comes from the traced rounds, and trace.overhead_ratio
// compares the two halves, which run the same statement mix.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "baseline/recompute.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "perfbench.h"
#include "update/update.h"
#include "view/deferred.h"
#include "view/persist.h"
#include "view/wal.h"
#include "xmark/generator.h"
#include "xmark/updates.h"
#include "xmark/views.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xvm::perf {

namespace {

constexpr int kReadsPerStmt = 4;     // point reads after each statement
constexpr size_t kMinStmts = 200;    // traced runs: half per traced half
constexpr size_t kWindowStmts = 40;  // untraced statements per window
constexpr size_t kMinWindows = 5;    // windows per untraced run
constexpr size_t kTailStmts = 5;     // WAL tail replayed by every recovery,
                                     // the same statements on every seed
constexpr int kSamples = 8;          // set-up and recovery samples per run
constexpr size_t kProbes = 64;       // seeded (view, tuple) read targets
constexpr size_t kLazyFlushEvery = 3;  // k: statements per deferred flush

/// Per-layer metrics printed by every traced run, in table order, with the
/// end-to-end metric each should move. `per_stmt` metrics are sums over the
/// traced statements, printed per statement. Layers a workload does not
/// exercise read 0.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
  bool per_stmt;
};
constexpr LayerDef kLayers[] = {
    {"xml.parse_ms", "ms", "setup_s", false},
    {"store.build_ms", "ms", "setup_s", false},
    {"view.addview_ms", "ms", "setup_s", false},
    {"update.delta_ms", "ms", "insert/delete_p50_ms", true},
    {"update.delta_rows", "count", "insert/delete_p50_ms", true},
    {"store.cache_lookups", "count", "insert/delete_p50_ms", true},
    {"store.cache_hit_ratio", "ratio", "insert/delete_p50_ms", false},
    {"store.cache_evictions", "count", "insert/delete_p50_ms", true},
    {"exec.plan_ms", "ms", "stmt_p50_ms", true},
    {"exec.rows_in", "count", "stmt_p50_ms", true},
    {"exec.rows_out", "count", "stmt_p50_ms", true},
    {"exec.sorts_elided", "count", "stmt_p50_ms", true},
    {"exec.sorts_performed", "count", "stmt_p50_ms", true},
    {"maintain.execute_ms", "ms", "stmt_p50_ms", true},
    {"maintain.terms_considered", "count", "stmt_p50_ms", true},
    {"maintain.terms_evaluated", "count", "stmt_p50_ms", true},
    {"maintain.terms_pruned", "count", "stmt_p50_ms", true},
    {"maintain.tuples_modified", "count", "stmt_p50_ms", true},
    {"maintain.recompute_fallbacks", "count", "stmt_p50_ms", true},
    {"maintain.lattice_ms", "ms", "stmt_p50_ms", true},
    {"xpath.find_targets_ms", "ms", "stmt_p50_ms", true},
    {"manager.propagate_wall_ms", "ms", "stmt_p50_ms", true},
    {"snapshot.publish_ms", "ms", "stmt_p50_ms", true},
    {"manager.residual_ms", "ms", "stmt_p50_ms", true},
    {"wal.append_ms", "ms", "stmt_p50_ms", true},
    {"snapshot.acquire_us", "us", "read_p50_us", false},
    {"snapshot.lookup_us", "us", "read_p50_us", false},
    {"wal.bytes_per_stmt", "bytes", "disk_mb", false},
    {"persist.checkpoint_ms", "ms", "disk_mb", false},
    {"persist.replay_stmts", "count", "recover_s", false},
    {"deferred.apply_ms", "ms", "stmt_p50_ms", true},
    {"deferred.flush_ms", "ms", "stmts_per_s", false},
    {"deferred.pending_at_flush", "count", "stmts_per_s", false},
    {"xml.arena_nodes", "count", "peak_rss_mb", false},
    {"xml.live_nodes", "count", "peak_rss_mb", false},
    {"trace.overhead_ratio", "ratio", "all", false},
};

/// Timed samples and traced sums of one run.
struct Run {
  explicit Run(const Options& o) : opts(o) {
    if (o.trace) tracer = &trace_buf;
  }

  const Options& opts;
  Tracer trace_buf;
  Tracer* tracer = nullptr;  // set only in traced runs
  bool traced = false;       // the current round is traced

  std::vector<SetupTimes> setups;
  std::vector<double> recover_ms;
  std::vector<double> stmt_ms, insert_ms, delete_ms, read_us;
  std::vector<double> traced_stmt_ms, acquire_us, lookup_us, flush_ms;
  double loop_ms = 0;          // timed statement loop, checks excluded
  size_t stmts = 0;            // statements completed in timed rounds
  size_t traced_stmts = 0;
  size_t flushes = 0;          // traced deferred flushes
  double peak_rss_mb = 0;      // after set-up, warm-up and the first round
  double disk_mb = 0;
  LayerSums layers;

  // Scratch WAL for wal.append_ms / wal.bytes_per_stmt (traced rounds).
  WriteAheadLog scratch_wal;
  uint64_t scratch_lsn = 0;

  /// Where a window of whole rounds ends: the statement-loop metrics are
  /// medians over windows, so a slow spell of the host that covers less
  /// than half of a run's windows does not move them.
  struct Cut {
    size_t stmt = 0, insert = 0, del = 0, stmts = 0;
    double loop_ms = 0;
  };
  std::vector<Cut> cuts{Cut{}};

  Cut Here() const {
    return Cut{stmt_ms.size(), insert_ms.size(), delete_ms.size(), stmts,
               loop_ms};
  }

  /// Median over windows of f(samples of the window).
  double WindowMedian(const std::vector<double>& v, size_t Cut::*end,
                      const std::function<double(std::vector<double>)>& f)
      const {
    std::vector<double> per;
    for (size_t i = 1; i < cuts.size(); ++i) {
      per.push_back(f(std::vector<double>(v.begin() + cuts[i - 1].*end,
                                          v.begin() + cuts[i].*end)));
    }
    return Median(per);
  }

  /// One set-up and one recovery sample, taken between rounds so that the
  /// samples spread over the run like the statement samples do.
  std::function<void()> sample;

  /// Records one completed statement's latency.
  void Statement(UpdateStmt::Kind kind, double ms) {
    loop_ms += ms;
    ++stmts;
    if (traced) {
      traced_stmt_ms.push_back(ms);
      ++traced_stmts;
      return;
    }
    stmt_ms.push_back(ms);
    if (kind == UpdateStmt::Kind::kInsert) insert_ms.push_back(ms);
    if (kind == UpdateStmt::Kind::kDelete) delete_ms.push_back(ms);
  }

  /// Traced rounds: the statement's target search, timed from outside on
  /// the pre-statement document, and a WAL append of the same statement on
  /// a scratch log.
  void OutsideLayers(const Document& doc, const UpdateStmt& stmt,
                     Report* report) {
    double t = NowMs();
    {
      ScopedSpan span(tracer, "xpath.ComputePul", -1);
      StatusOr<Pul> pul = ComputePul(doc, stmt);
      if (!pul.ok()) report->OpFailed("ComputePul: " + pul.status().ToString());
    }
    layers["xpath.find_targets_ms"] += NowMs() - t;
    if (!scratch_wal.is_open()) {
      Status st = scratch_wal.OpenLog(opts.work_dir + "/scratch.wal");
      if (!st.ok()) report->OpFailed("scratch WAL: " + st.ToString());
    }
    const uint64_t before = scratch_wal.durable_size();
    t = NowMs();
    {
      ScopedSpan span(tracer, "wal.Append", -1);
      Status st = scratch_wal.Append(++scratch_lsn, stmt);
      if (!st.ok()) report->OpFailed("WAL append: " + st.ToString());
    }
    layers["wal.append_ms"] += NowMs() - t;
    layers["wal.bytes"] += static_cast<double>(scratch_wal.durable_size() -
                                               before);
  }

  /// Runs whole rounds until the timed loop holds --seconds of work and,
  /// untraced, at least kMinWindows windows of kWindowStmts statements
  /// (traced, kMinStmts / 2 statements per half: the traced runs report no
  /// end-to-end metric). A window closes at the end of the first round
  /// that fills it; statements after the last full window join it.
  void Rounds(const std::function<void(int round)>& round) {
    const double budget_ms = opts.seconds * 1000.0;
    double next_sample_ms = 0;
    for (int r = 0;; ++r) {
      traced = tracer != nullptr && r % 2 == 1;
      round(r);
      traced = false;
      if (r == 0) peak_rss_mb = PeakRssMb();
      if (stmt_ms.size() - cuts.back().stmt >= kWindowStmts) {
        cuts.push_back(Here());
      }
      if (r > 0 && loop_ms >= next_sample_ms) {
        sample();
        next_sample_ms += budget_ms / kSamples;
      }
      const bool enough =
          loop_ms >= budget_ms &&
          (tracer == nullptr ? cuts.size() > kMinWindows
                             : traced_stmts >= kMinStmts / 2 &&
                                   stmts - traced_stmts >= kMinStmts / 2);
      if (enough && (tracer == nullptr || r % 2 == 1)) break;
    }
    if (cuts.size() > 1) cuts.back() = Here();
    if (recover_ms.empty()) sample();
  }

  void EmitEndToEnd(Report* report) const {
    std::vector<double> setup_ms;
    for (const SetupTimes& t : setups) setup_ms.push_back(t.total_ms());
    report->Metric("setup_s", Median(setup_ms) / 1000.0, "s");
    const auto p50 = [](std::vector<double> v) { return Median(v); };
    const auto p95 = [](std::vector<double> v) { return Quantile(v, 0.95); };
    report->Metric("stmt_p50_ms", WindowMedian(stmt_ms, &Cut::stmt, p50),
                   "ms");
    report->Metric("stmt_p95_ms", WindowMedian(stmt_ms, &Cut::stmt, p95),
                   "ms");
    report->Metric("insert_p50_ms",
                   WindowMedian(insert_ms, &Cut::insert, p50), "ms");
    report->Metric("delete_p50_ms", WindowMedian(delete_ms, &Cut::del, p50),
                   "ms");
    std::vector<double> rates;
    for (size_t i = 1; i < cuts.size(); ++i) {
      rates.push_back(static_cast<double>(cuts[i].stmts - cuts[i - 1].stmts) /
                      ((cuts[i].loop_ms - cuts[i - 1].loop_ms) / 1000.0));
    }
    report->Metric("stmts_per_s", Median(rates), "1/s");
    report->Metric("read_p50_us", Median(read_us), "us");
    report->Metric("recover_s", Median(recover_ms) / 1000.0, "s");
    report->Metric("disk_mb", disk_mb, "MB");
    report->Metric("peak_rss_mb", peak_rss_mb, "MB");
  }

  /// Val/cont cache activity between two readings of its totals.
  void CacheLayers(const ValContCache::Stats& now,
                   const ValContCache::Stats& before) {
    layers["store.cache_hits"] += static_cast<double>(now.hits - before.hits);
    layers["store.cache_lookups"] += static_cast<double>(
        now.hits - before.hits + now.misses - before.misses);
    layers["store.cache_evictions"] +=
        static_cast<double>(now.evictions - before.evictions);
  }

  /// Arena and live node counts of the document before the restart.
  void NoteDocument(const Document& doc) {
    layers["xml.arena_nodes"] = static_cast<double>(doc.arena_size());
    layers["xml.live_nodes"] = static_cast<double>(doc.num_alive());
  }

  void EmitLayers(Report* report) {
    LayerSums out = layers;
    std::vector<double> parse, build, add;
    for (const SetupTimes& t : setups) {
      parse.push_back(t.parse_ms);
      build.push_back(t.build_ms);
      add.push_back(t.addview_ms);
    }
    out["xml.parse_ms"] = Median(parse);
    out["store.build_ms"] = Median(build);
    out["view.addview_ms"] = Median(add);
    const double n = std::max<double>(1.0, static_cast<double>(traced_stmts));
    for (const LayerDef& l : kLayers) {
      if (l.per_stmt) out[l.name] /= n;
    }
    const double lookups = layers["store.cache_lookups"];
    out["store.cache_hit_ratio"] =
        lookups > 0 ? layers["store.cache_hits"] / lookups : 0.0;
    out["snapshot.acquire_us"] = Median(acquire_us);
    out["snapshot.lookup_us"] = Median(lookup_us);
    out["wal.bytes_per_stmt"] =
        scratch_lsn > 0 ? layers["wal.bytes"] / scratch_lsn : 0.0;
    out["deferred.flush_ms"] = Median(flush_ms);
    out["deferred.pending_at_flush"] =
        flushes > 0 ? layers["deferred.pending"] / flushes : 0.0;
    const double untraced = Median(stmt_ms);
    out["trace.overhead_ratio"] =
        untraced > 0 ? Median(traced_stmt_ms) / untraced : 0.0;

    std::printf("per-layer split (%zu traced statements; per statement "
                "unless noted)\n",
                traced_stmts);
    std::printf("  %-30s %14s %-6s  %s\n", "layer", "value", "unit",
                "moves");
    for (const LayerDef& l : kLayers) {
      std::printf("  %-30s %14.4f %-6s  %s\n", l.name, out[l.name], l.unit,
                  l.moves);
      report->Metric(l.name, out[l.name], l.unit);
    }
    std::printf("tracing overhead: traced/untraced stmt p50 = %.4f\n",
                out["trace.overhead_ratio"]);
    if (tracer != nullptr && !opts.span_file.empty()) {
      Status st = tracer->Write(opts.span_file);
      if (!st.ok()) report->OpFailed(st.ToString());
    }
  }

  void Emit(Report* report) {
    if (opts.trace) {
      EmitLayers(report);
    } else {
      EmitEndToEnd(report);
    }
  }
};

/// Seeded read targets: (view, stored-ID key) pairs drawn from the initial
/// content. The workloads never delete an original element, so every probe
/// stays present (its payload may change).
struct Probe {
  size_t view;
  std::string key;
};

std::vector<Probe> MakeProbes(
    const std::vector<std::shared_ptr<const ViewSnapshot>>& snaps,
    uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  std::vector<size_t> nonempty;
  for (size_t i = 0; i < snaps.size(); ++i) {
    // Q3 selects increases by value and point rewrites increases, so a
    // probed Q3 tuple may rightly leave the view.
    if (!snaps[i]->empty() && snaps[i]->view_name() != "Q3") {
      nonempty.push_back(i);
    }
  }
  std::vector<Probe> probes;
  for (size_t p = 0; p < kProbes && !nonempty.empty(); ++p) {
    const size_t v = nonempty[rng.Uniform(nonempty.size())];
    const auto& tuples = snaps[v]->tuples();
    probes.push_back(
        {v, snaps[v]->IdKeyOf(tuples[rng.Uniform(tuples.size())].tuple)});
  }
  return probes;
}

/// One timed point read: acquire a snapshot, look a probed tuple up.
void PointRead(Run* run, const Probe& probe,
               const std::function<ViewSnapshotPtr(size_t)>& acquire,
               Report* report) {
  report->Attempt();
  ScopedSpan span(run->traced ? run->tracer : nullptr,
                  "snapshot.read", -1);
  const double t0 = NowMs();
  ViewSnapshotPtr snap = acquire(probe.view);
  const double t1 = NowMs();
  const CountedTuple* found =
      snap != nullptr ? snap->FindByIdKey(probe.key) : nullptr;
  const double t2 = NowMs();
  run->loop_ms += t2 - t0;
  if (run->traced) {
    run->acquire_us.push_back((t1 - t0) * 1000.0);
    run->lookup_us.push_back((t2 - t1) * 1000.0);
  } else {
    run->read_us.push_back((t2 - t0) * 1000.0);
  }
  if (snap == nullptr || !LookupHolds(*snap, probe.key, found)) {
    report->CheckFailed("point read of view " + std::to_string(probe.view) +
                        " returned the wrong tuple");
  }
}

// ------------------------------------------------------------------ checks

/// The state a recovery must reproduce: the document's serialization, each
/// view's content and the last LSN.
struct Expected {
  std::string xml;
  std::vector<std::vector<CountedTuple>> views;
  uint64_t lsn = 0;
};

void CheckRecovered(const Document& doc,
                    const std::vector<std::vector<CountedTuple>>& views,
                    const Expected& want, const std::string& where,
                    Report* report) {
  const std::string doc_diff = DiffDocument(doc, want.xml);
  if (!doc_diff.empty()) {
    report->CheckFailed(where + ": recovered document differs: " + doc_diff);
  }
  for (size_t i = 0; i < want.views.size() && i < views.size(); ++i) {
    const std::string diff = DiffContent(views[i], want.views[i]);
    if (!diff.empty()) {
      report->CheckFailed(where + ": recovered view " + std::to_string(i) +
                          " differs from the pre-restart view: " + diff);
    }
  }
}

// ------------------------------------------------------------ manager path

std::map<std::string, double> FlattenRegistry(const MetricsRegistry& reg) {
  std::map<std::string, double> flat;
  for (const auto& [view, m] : reg.Snapshot()) {
    if (view.rfind("__", 0) != 0) continue;  // pseudo-views only
    for (const auto& [name, v] : m.counters()) {
      flat[view + "/" + name] = static_cast<double>(v);
    }
    for (const auto& [name, h] : m.phases()) {
      flat[view + "/" + name + ".ms"] = h.total_ms();
    }
  }
  return flat;
}

std::vector<std::vector<CountedTuple>> Contents(const ViewManager& mgr) {
  std::vector<std::vector<CountedTuple>> out;
  for (size_t i = 0; i < mgr.size(); ++i) {
    out.push_back(mgr.Snapshot(i)->tuples());
  }
  return out;
}

/// The live ViewManager engine of the bulk and point workloads, with the
/// set-up, statement, read and restart operations they share.
class ManagerBench {
 public:
  ManagerBench(Run* run, std::string xml, bool durable, Report* report)
      : run_(run),
        xml_(std::move(xml)),
        defs_(XMarkViewDefs()),
        durable_(durable),
        report_(report) {}

  ManagerEngine& engine() { return engine_; }

  /// Sets the live engine up (the first set-up sample), checks it against
  /// the oracle, self-tests the checks and draws the read probes.
  bool Setup() {
    StatusOr<ManagerEngine> e = SetupSample();
    if (!e.ok()) return false;
    engine_ = std::move(e).value();
    live_dir_ = last_dir_;
    CheckManagerAgainstOracle(*engine_.mgr, *engine_.doc, "initial state",
                              report_);
    std::vector<ViewSnapshotPtr> snaps;
    for (size_t i = 0; i < engine_.mgr->size(); ++i) {
      snaps.push_back(engine_.mgr->Snapshot(i));
    }
    probes_ = MakeProbes(snaps, run_->opts.seed);
    const std::string self = SelfTest(snaps[0]->tuples(), *snaps[0], xml_);
    if (!self.empty()) report_->CheckFailed(self);
    return true;
  }

  /// The restart image every recovery sample starts from: a checkpoint of
  /// the freshly set-up document and views plus a WAL of `tail`, made by a
  /// temporary engine before the live one exists.
  void BuildImage(const std::vector<UpdateStmt>& tail) {
    image_dir_ = run_->opts.work_dir + "/image";
    SetupTimes unused;
    report_->Attempt();
    StatusOr<ManagerEngine> e =
        SetupManager(xml_, defs_, image_dir_, nullptr, -1, &unused);
    if (!e.ok()) {
      report_->OpFailed("restart image: " + e.status().ToString());
      return;
    }
    for (const UpdateStmt& stmt : tail) {
      report_->Attempt();
      StatusOr<MultiUpdateOutcome> out = e->mgr->ApplyAndPropagateAll(stmt);
      if (!out.ok()) report_->OpFailed("tail: " + out.status().ToString());
    }
    CheckManagerAgainstOracle(*e->mgr, *e->doc, "restart image", report_);
    image_ = Expected{SerializeDocument(*e->doc), Contents(*e->mgr),
                      e->mgr->last_sequence()};
    e->Reset();
  }

  /// One more set-up (discarded) and one recovery from the image.
  void Sample() {
    StatusOr<ManagerEngine> e = SetupSample();
    if (e.ok()) e->Reset();
    if (durable_) std::filesystem::remove_all(last_dir_);
    report_->Attempt();
    ScopedSpan span(run_->tracer, "manager.Recover", -1);
    const double t0 = NowMs();
    StatusOr<ManagerEngine> rec = RecoverManager(defs_, image_dir_);
    const double ms = NowMs() - t0;
    if (!rec.ok()) {
      report_->OpFailed("recover: " + rec.status().ToString());
      return;
    }
    run_->recover_ms.push_back(ms);
    run_->layers["persist.replay_stmts"] =
        static_cast<double>(rec->mgr->last_sequence());
    CheckRecovered(*rec->doc, Contents(*rec->mgr), image_, "recovery sample",
                   report_);
    if (rec->mgr->last_sequence() != image_.lsn) {
      report_->CheckFailed("recovery ended at LSN " +
                           std::to_string(rec->mgr->last_sequence()) +
                           ", expected " + std::to_string(image_.lsn));
    }
    rec->Reset();
  }

  /// Registry on for traced rounds, off otherwise; executor statistics
  /// gathered while it was off are discarded.
  void BeginRound(bool traced) {
    if (!traced) {
      engine_.mgr->set_metrics(nullptr);
      return;
    }
    for (size_t i = 0; i < engine_.mgr->size(); ++i) {
      engine_.mgr->mutable_view(i).TakeExecStats();
    }
    engine_.mgr->set_metrics(&registry_);
    last_flat_ = FlattenRegistry(registry_);
  }

  /// Applies one statement; `timed` statements feed the samples.
  void Apply(const UpdateStmt& stmt, bool timed) {
    report_->Attempt();
    const bool traced = timed && run_->traced;
    if (traced) run_->OutsideLayers(*engine_.doc, stmt, report_);
    const ValContCache::Stats cache0 = engine_.store->cache().stats();
    const int span =
        traced ? run_->tracer->Begin("manager.ApplyAndPropagateAll", -1) : -1;
    const double t0 = NowMs();
    StatusOr<MultiUpdateOutcome> out = engine_.mgr->ApplyAndPropagateAll(stmt);
    const double ms = NowMs() - t0;
    if (traced) run_->tracer->End(span);
    if (!out.ok()) {
      if (timed) run_->loop_ms += ms;
      report_->OpFailed(stmt.target_path + ": " + out.status().ToString());
      return;
    }
    if (timed) run_->Statement(stmt.kind, ms);
    if (traced) RecordLayers(*out, ms, cache0, span);
  }

  void Reads(int n) {
    for (int i = 0; i < n && !probes_.empty(); ++i) {
      PointRead(run_, probes_[next_probe_++ % probes_.size()],
                [this](size_t v) { return engine_.mgr->Snapshot(v); },
                report_);
    }
  }

  void CheckOracle(const std::string& where) {
    CheckManagerAgainstOracle(*engine_.mgr, *engine_.doc, where, report_);
  }

  /// The restart the run ends with: checkpoint, `tail`, teardown and a
  /// recovery of a fresh engine, checked against the torn-down state and
  /// the oracle.
  void EndRestart(const std::vector<UpdateStmt>& tail) {
    const std::string dir =
        durable_ ? live_dir_ : run_->opts.work_dir + "/end";
    ViewManager& mgr = *engine_.mgr;
    BeginRound(false);
    report_->Attempt();
    Status st = durable_ ? Status::Ok() : mgr.EnableDurability(dir);
    const double t0 = NowMs();
    if (st.ok()) {
      ScopedSpan span(run_->tracer, "manager.Checkpoint", -1);
      st = mgr.Checkpoint(dir);
    }
    run_->layers["persist.checkpoint_ms"] = NowMs() - t0;
    if (!st.ok()) {
      report_->OpFailed("checkpoint: " + st.ToString());
      return;
    }
    for (const UpdateStmt& stmt : tail) Apply(stmt, false);
    CheckOracle("before restart");
    const Expected before{SerializeDocument(*engine_.doc), Contents(mgr),
                          mgr.last_sequence()};
    run_->disk_mb = static_cast<double>(DirBytes(dir)) / (1024.0 * 1024.0);
    run_->NoteDocument(*engine_.doc);
    engine_.Reset();

    report_->Attempt();
    StatusOr<ManagerEngine> rec = RecoverManager(defs_, dir);
    if (!rec.ok()) {
      report_->OpFailed("recover: " + rec.status().ToString());
      return;
    }
    CheckRecovered(*rec->doc, Contents(*rec->mgr), before, "restart",
                   report_);
    if (rec->mgr->last_sequence() != before.lsn) {
      report_->CheckFailed("restart recovered to LSN " +
                           std::to_string(rec->mgr->last_sequence()) +
                           ", expected " + std::to_string(before.lsn));
    }
    CheckManagerAgainstOracle(*rec->mgr, *rec->doc, "after restart", report_);
  }

 private:
  /// One timed set-up, recorded as a sample; durable set-ups get a fresh
  /// directory (left in last_dir_).
  StatusOr<ManagerEngine> SetupSample() {
    last_dir_ = durable_ ? run_->opts.work_dir + "/setup-" +
                               std::to_string(run_->setups.size())
                         : "";
    ScopedSpan span(run_->tracer, "setup", -1);
    SetupTimes t;
    report_->Attempt();
    StatusOr<ManagerEngine> e =
        SetupManager(xml_, defs_, last_dir_, run_->tracer, span.id(), &t);
    if (!e.ok()) {
      report_->OpFailed("setup: " + e.status().ToString());
      return e;
    }
    run_->setups.push_back(t);
    return e;
  }

  void RecordLayers(const MultiUpdateOutcome& out, double ms,
                    const ValContCache::Stats& cache0, int span) {
    Tracer* tr = run_->tracer;
    LayerSums& l = run_->layers;
    for (const auto& [phase, pms] : out.shared_timing.phases()) {
      tr->Child(span, phase, pms);
    }
    const double find = out.shared_timing.Get(phase::kFindTargets);
    const double delta = out.shared_timing.Get(phase::kComputeDeltas);
    l["update.delta_ms"] += delta;
    l["update.delta_rows"] +=
        static_cast<double>(out.nodes_inserted + out.nodes_deleted);
    tr->Child(span, "manager.propagate", out.propagate_wall_ms);
    for (size_t i = 0; i < out.per_view.size(); ++i) {
      const UpdateOutcome& o = out.per_view[i];
      const std::string& name = engine_.mgr->view(i).def().name();
      tr->Child(span, "view." + name, o.timing.TotalMs());
      l["maintain.execute_ms"] += o.timing.Get(phase::kExecuteUpdate);
      l["maintain.lattice_ms"] += o.timing.Get(phase::kUpdateLattice);
      l["maintain.terms_considered"] +=
          static_cast<double>(o.stats.terms_considered);
      l["maintain.terms_evaluated"] +=
          static_cast<double>(o.stats.terms_evaluated);
      l["maintain.terms_pruned"] +=
          static_cast<double>(o.stats.terms_pruned_data);
      l["maintain.tuples_modified"] +=
          static_cast<double>(o.stats.tuples_modified);
      l["maintain.recompute_fallbacks"] += o.stats.recompute_fallback ? 1 : 0;
    }
    l["manager.propagate_wall_ms"] += out.propagate_wall_ms;

    // Registry counters of the pseudo-views, as this statement's deltas.
    const std::map<std::string, double> flat = FlattenRegistry(registry_);
    std::map<std::string, double> diff;
    for (const auto& [key, value] : flat) {
      auto prev = last_flat_.find(key);
      const double d = value - (prev == last_flat_.end() ? 0.0 : prev->second);
      if (d == 0) continue;
      diff[key] = d;
      tr->Attr(span, key, d);
    }
    last_flat_ = flat;
    auto ends_with = [](const std::string& s, const std::string& suffix) {
      return s.size() >= suffix.size() &&
             s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    for (const auto& [key, d] : diff) {
      if (key.rfind("__exec__/", 0) != 0) continue;
      if (ends_with(key, ".rows_in")) l["exec.rows_in"] += d;
      if (ends_with(key, ".rows_out")) l["exec.rows_out"] += d;
    }
    l["exec.plan_ms"] += diff["__exec__/execute_plan.ms"];
    l["exec.sorts_elided"] += diff["__exec__/sorts_elided_static"] +
                              diff["__exec__/sorts_elided_dynamic"];
    l["exec.sorts_performed"] += diff["__exec__/sorts_performed"];
    const double publish = diff["__serving__/publish_snapshot.ms"];
    l["snapshot.publish_ms"] += publish;
    l["manager.residual_ms"] +=
        ms - find - delta - out.propagate_wall_ms - publish;
    run_->CacheLayers(engine_.store->cache().stats(), cache0);
  }

  Run* run_;
  const std::string xml_;
  const std::vector<ViewDefinition> defs_;
  const bool durable_;
  Report* report_;
  ManagerEngine engine_;
  std::string live_dir_;   // durability directory of the live engine
  std::string last_dir_;   // directory of the latest set-up sample
  std::string image_dir_;
  Expected image_;
  MetricsRegistry registry_;
  std::map<std::string, double> last_flat_;
  std::vector<Probe> probes_;
  size_t next_probe_ = 0;
};

// -------------------------------------------------------------- statements

/// Every Appendix-A update as an insert, and a delete of exactly the
/// forests it inserted. The undo path names the forest root with a
/// predicate only when the target already has a child of that label.
std::vector<UpdateStmt> BulkStatements() {
  std::vector<UpdateStmt> out;
  for (const XMarkUpdate& u : XMarkUpdates()) {
    const std::string root = u.forest.substr(1, u.forest.find('>') - 1);
    const std::string undo =
        root == "item" ? "item" : root + "[" + root + "]";
    out.push_back(MakeInsertStmt(u));
    out.push_back(UpdateStmt::Delete(u.target + "/" + undo, u.name + "_undo"));
  }
  return out;
}

/// The pair order of one round, shuffled by the seed.
std::vector<size_t> PairOrder(size_t pairs, Rng* rng) {
  std::vector<size_t> order(pairs);
  for (size_t i = 0; i < pairs; ++i) order[i] = i;
  for (size_t i = pairs; i > 1; --i) {
    std::swap(order[i - 1], order[rng->Uniform(i)]);
  }
  return order;
}

constexpr char kNameForest[] =
    "<name>Martin<name>and</name><name>some</name></name>";
constexpr char kBidderForest[] =
    "<bidder><date>inserted</date><time>0:00</time>"
    "<personref person=\"person12\"/><increase>4.50</increase></bidder>";
constexpr char kItemForest[] =
    "<item><location>Unknown</location><quantity>1</quantity>"
    "<name>inserted item</name></item>";
constexpr const char* kNames[] = {"Ada Byron",       "Alan Turing",
                                  "Grace Hopper",    "Edsger Dijkstra",
                                  "Barbara Liskov",  "John Backus",
                                  "Frances Allen",   "Tony Hoare"};

/// The @id values of the document's persons, auctions (all, and those with
/// bidders) and items.
struct DocIds {
  std::vector<std::string> persons, auctions, bid_auctions, items;
};

DocIds CollectIds(const Document& doc) {
  DocIds ids;
  const LabelDict& dict = doc.dict();
  for (NodeHandle h : doc.AllNodes()) {
    const Node& n = doc.node(h);
    if (n.kind != NodeKind::kAttribute || dict.Name(n.label) != "@id") continue;
    const std::string& parent = dict.Name(doc.node(n.parent).label);
    if (parent == "person") ids.persons.push_back(n.text);
    if (parent == "item") ids.items.push_back(n.text);
    if (parent != "open_auction") continue;
    ids.auctions.push_back(n.text);
    for (NodeHandle c : doc.Children(n.parent)) {
      if (dict.Name(doc.node(c).label) == "bidder") {
        ids.bid_auctions.push_back(n.text);
        break;
      }
    }
  }
  return ids;
}

std::string Pick(const std::vector<std::string>& v, Rng* rng) {
  return v[rng->Uniform(v.size())];
}

/// One point round: for persons, auctions and items in turn, a
/// single-target insert, the delete that undoes it, and a ReplaceContent of
/// a seeded target's text.
std::vector<UpdateStmt> PointRound(const DocIds& ids, Rng* rng) {
  std::vector<UpdateStmt> out;
  const std::string person =
      "/site/people/person[@id='" + Pick(ids.persons, rng) + "']";
  out.push_back(UpdateStmt::InsertForest(person, kNameForest, "person_ins"));
  out.push_back(UpdateStmt::Delete(person + "/name[name]", "person_undo"));
  out.push_back(UpdateStmt::ReplaceContent(
      "/site/people/person[@id='" + Pick(ids.persons, rng) + "']/name",
      kNames[rng->Uniform(std::size(kNames))], "person_replace"));

  const std::string auction =
      "/site/open_auctions/open_auction[@id='" + Pick(ids.auctions, rng) +
      "']";
  out.push_back(UpdateStmt::InsertForest(auction, kBidderForest, "bid_ins"));
  out.push_back(
      UpdateStmt::Delete(auction + "/bidder[date='inserted']", "bid_undo"));
  out.push_back(UpdateStmt::ReplaceContent(
      "/site/open_auctions/open_auction[@id='" + Pick(ids.bid_auctions, rng) +
          "']/bidder/increase",
      kIncreaseAmounts[rng->Uniform(7)], "bid_replace"));

  const std::string item =
      "/site/regions/*/item[@id='" + Pick(ids.items, rng) + "']";
  out.push_back(UpdateStmt::InsertForest(item, kItemForest, "item_ins"));
  out.push_back(UpdateStmt::Delete(item + "/item", "item_undo"));
  out.push_back(UpdateStmt::ReplaceContent(
      "/site/regions/*/item[@id='" + Pick(ids.items, rng) + "']/name",
      kNames[rng->Uniform(std::size(kNames))], "item_replace"));
  return out;
}

void PrintInput(const char* workload, const std::string& xml,
                const Document& doc, size_t stmts_per_round) {
  std::printf("input: workload=%s xml_bytes=%zu nodes=%zu "
              "statements_per_round=%zu\n",
              workload, xml.size(), doc.num_alive(), stmts_per_round);
}

}  // namespace

// -------------------------------------------------------------------- bulk

void RunBulk(const Options& opts, Report* report) {
  Run run(opts);
  ManagerBench bench(&run,
                     MakeXMarkXml(opts.smoke ? 48 * 1024 : 1024 * 1024,
                                  opts.seed),
                     /*durable=*/false, report);
  const std::vector<UpdateStmt> pairs = BulkStatements();
  const std::vector<UpdateStmt> tail(pairs.begin(),
                                     pairs.begin() + kTailStmts);
  bench.BuildImage(tail);
  if (!bench.Setup()) return;
  ManagerEngine& e = bench.engine();
  const size_t npairs = pairs.size() / 2;
  PrintInput("bulk", SerializeDocument(*e.doc), *e.doc, pairs.size());
  const auto initial = Contents(*e.mgr);
  Rng rng(opts.seed);

  auto restored = [&](const std::string& where) {
    for (size_t i = 0; i < initial.size(); ++i) {
      const std::string diff =
          DiffContent(e.mgr->Snapshot(i)->tuples(), initial[i]);
      if (!diff.empty()) {
        report->CheckFailed(where + ": view " + e.mgr->view(i).def().name() +
                            " not restored to its initial content: " + diff);
      }
    }
  };

  // Warm-up: one untimed pass fills the term-plan and val/cont caches.
  for (const UpdateStmt& stmt : pairs) bench.Apply(stmt, false);
  restored("after warm-up");

  run.sample = [&] { bench.Sample(); };
  run.Rounds([&](int r) {
    bench.BeginRound(run.traced);
    const std::vector<size_t> order = PairOrder(npairs, &rng);
    for (size_t k = 0; k < npairs; ++k) {
      const UpdateStmt& ins = pairs[2 * order[k]];
      const UpdateStmt& del = pairs[2 * order[k] + 1];
      bench.Apply(ins, true);
      bench.Reads(kReadsPerStmt);
      // The oracle sees one mid-pair state per round, rotating over pairs.
      if (opts.smoke || k == static_cast<size_t>(r) % npairs) {
        bench.CheckOracle("after " + ins.name);
      }
      bench.Apply(del, true);
      bench.Reads(kReadsPerStmt);
      restored("after " + del.name);
    }
  });
  bench.CheckOracle("end of run");
  bench.EndRestart(tail);
  run.Emit(report);
}

// ------------------------------------------------------------------- point

void RunPoint(const Options& opts, Report* report) {
  Run run(opts);
  const std::string xml =
      MakeXMarkXml(opts.smoke ? 96 * 1024 : 2 * 1024 * 1024, opts.seed);
  DocIds ids;
  {
    Document doc;
    Status st = ParseDocument(xml, &doc);
    XVM_CHECK(st.ok());
    ids = CollectIds(doc);
  }
  Rng tail_rng(0);  // the same tail positions on every seed's document
  const std::vector<UpdateStmt> round0 = PointRound(ids, &tail_rng);
  const std::vector<UpdateStmt> tail(round0.begin(),
                                     round0.begin() + kTailStmts);
  ManagerBench bench(&run, xml, /*durable=*/true, report);
  bench.BuildImage(tail);
  if (!bench.Setup()) return;
  ManagerEngine& e = bench.engine();
  PrintInput("point", xml, *e.doc, round0.size());
  Rng rng(opts.seed);
  const int check_every = opts.smoke ? 1 : 8;  // rounds between oracle checks

  for (const UpdateStmt& stmt : PointRound(ids, &rng)) {  // warm-up
    bench.Apply(stmt, false);
  }
  run.sample = [&] { bench.Sample(); };
  run.Rounds([&](int r) {
    bench.BeginRound(run.traced);
    const std::vector<UpdateStmt> stmts = PointRound(ids, &rng);
    // The oracle check rotates over the round's positions, so every
    // statement kind's resulting state meets it.
    const int at = r % check_every == 0
                       ? (r / check_every) % static_cast<int>(stmts.size())
                       : -1;
    for (size_t i = 0; i < stmts.size(); ++i) {
      bench.Apply(stmts[i], true);
      bench.Reads(kReadsPerStmt);
      if (static_cast<int>(i) == at) bench.CheckOracle("after " + stmts[i].name);
    }
  });
  bench.CheckOracle("end of run");
  bench.EndRestart(tail);
  run.Emit(report);
}

// -------------------------------------------------------------------- lazy

namespace {

constexpr char kLazyView[] = "Q6";

/// Document + store + one DeferredView.
struct LazyEngine {
  std::unique_ptr<Document> doc;
  std::unique_ptr<StoreIndex> store;
  std::unique_ptr<DeferredView> view;

  /// Destroys the parts in dependency order.
  void Reset() {
    view.reset();
    store.reset();
    doc.reset();
  }
};

/// ParseDocument + StoreIndex::Build + DeferredView::Initialize.
Status SetupLazy(const std::string& xml, const ViewDefinition& def,
                 Tracer* tracer, LazyEngine* e, SetupTimes* t) {
  ScopedSpan setup(tracer, "setup", -1);
  e->doc = std::make_unique<Document>();
  double t0 = NowMs();
  {
    ScopedSpan span(tracer, "xml.ParseDocument", setup.id());
    XVM_RETURN_IF_ERROR(ParseDocument(xml, e->doc.get()));
  }
  t->parse_ms = NowMs() - t0;
  t0 = NowMs();
  e->store = std::make_unique<StoreIndex>(e->doc.get());
  {
    ScopedSpan span(tracer, "store.Build", setup.id());
    e->store->Build();
  }
  t->build_ms = NowMs() - t0;
  t0 = NowMs();
  {
    ScopedSpan span(tracer, "deferred.Initialize", setup.id());
    e->view = std::make_unique<DeferredView>(def, e->doc.get(), e->store.get(),
                                             LatticeStrategy::kSnowcaps);
    e->view->Initialize();
  }
  t->addview_ms = NowMs() - t0;
  return Status::Ok();
}

/// The files of a deferred restart: DeferredView's durability contract
/// leaves the document snapshot to its owner.
struct LazyFiles {
  explicit LazyFiles(const std::string& dir)
      : dir(dir),
        doc(dir + "/doc.ckpt"),
        view(dir + "/view.ckpt"),
        wal(dir + "/deferred.wal") {}
  std::string dir, doc, view, wal;
};

/// Document snapshot + DeferredView::Checkpoint with a WAL attached.
Status CheckpointLazy(const LazyFiles& f, LazyEngine* e) {
  XVM_RETURN_IF_ERROR(EnsureDir(f.dir));
  XVM_RETURN_IF_ERROR(e->view->AttachWal(f.wal));
  XVM_RETURN_IF_ERROR(AtomicWriteFile(f.doc, SaveDocumentToBytes(*e->doc)));
  return e->view->Checkpoint(f.view);
}

/// Owner-driven recovery: restore the document, rebuild the store, load the
/// view checkpoint, re-apply the logged statements and read the view.
Status RecoverLazy(const LazyFiles& f, const ViewDefinition& def,
                   LazyEngine* e, size_t* replayed) {
  e->doc = std::make_unique<Document>();
  std::string bytes;
  XVM_RETURN_IF_ERROR(ReadFileToString(f.doc, &bytes));
  XVM_RETURN_IF_ERROR(LoadDocumentFromBytes(bytes, e->doc.get()));
  XVM_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                       WriteAheadLog::ReadLog(f.wal));
  e->store = std::make_unique<StoreIndex>(e->doc.get());
  e->store->Build();
  e->view = std::make_unique<DeferredView>(def, e->doc.get(), e->store.get(),
                                           LatticeStrategy::kSnowcaps);
  XVM_RETURN_IF_ERROR(e->view->LoadCheckpoint(f.view));
  for (const WalRecord& rec : records) {
    XVM_RETURN_IF_ERROR(e->view->Apply(rec.stmt));
  }
  *replayed = records.size();
  e->view->Read();
  return Status::Ok();
}

}  // namespace

void RunLazy(const Options& opts, Report* report) {
  Run run(opts);
  const std::string xml =
      MakeXMarkXml(opts.smoke ? 48 * 1024 : 1024 * 1024, opts.seed);
  StatusOr<ViewDefinition> def_or = XMarkView(kLazyView);
  XVM_CHECK(def_or.ok());
  const ViewDefinition def = *def_or;
  const std::vector<UpdateStmt> pairs = BulkStatements();
  const size_t npairs = pairs.size() / 2;

  auto check_oracle = [&](const ViewSnapshot& snap, const Document& doc,
                          const std::string& where) {
    const std::string diff =
        DiffContent(snap.tuples(), NavigationalViewEval(def, doc));
    if (!diff.empty()) {
      report->CheckFailed(where + ": view " + def.name() +
                          " differs from the navigational oracle: " + diff);
    }
  };

  // Restart image: a checkpoint of the fresh state plus a WAL tail.
  const LazyFiles image(opts.work_dir + "/image");
  Expected image_state;
  {
    LazyEngine e;
    SetupTimes unused;
    report->Attempt();
    Status st = SetupLazy(xml, def, nullptr, &e, &unused);
    if (st.ok()) st = CheckpointLazy(image, &e);
    for (size_t i = 0; st.ok() && i < kTailStmts; ++i) {
      report->Attempt();
      st = e.view->Apply(pairs[i]);
    }
    if (!st.ok()) {
      report->OpFailed("restart image: " + st.ToString());
      return;
    }
    ViewSnapshotPtr snap = e.view->Read();
    check_oracle(*snap, *e.doc, "restart image");
    image_state = Expected{SerializeDocument(*e.doc), {snap->tuples()}, 0};
    e.Reset();
  }

  auto setup_sample = [&](LazyEngine* e) {
    SetupTimes t;
    report->Attempt();
    Status st = SetupLazy(xml, def, run.tracer, e, &t);
    if (!st.ok()) {
      report->OpFailed("setup: " + st.ToString());
      return false;
    }
    run.setups.push_back(t);
    return true;
  };
  LazyEngine e;
  if (!setup_sample(&e)) return;
  PrintInput("lazy", xml, *e.doc, pairs.size());

  ViewSnapshotPtr first = e.view->Read();
  const std::vector<CountedTuple> initial = first->tuples();
  check_oracle(*first, *e.doc, "initial state");
  const std::vector<Probe> probes = MakeProbes({first}, opts.seed);
  const std::string self = SelfTest(initial, *first, xml);
  if (!self.empty()) report->CheckFailed(self);
  first.reset();

  Rng rng(opts.seed);
  size_t applied = 0;  // statements applied since set-up
  size_t next_probe = 0;

  // Apply() defers propagation; every k-th statement reads the view, which
  // flushes the k pending statements. Every flushed read is checked against
  // the oracle, and, when whole pairs have been applied, against the
  // initial content bit for bit.
  auto step = [&](const UpdateStmt& stmt, bool timed) {
    report->Attempt();
    LayerSums& l = run.layers;
    const bool traced = timed && run.traced;
    if (traced) run.OutsideLayers(*e.doc, stmt, report);
    const PhaseTimer before = e.view->timing();
    const ValContCache::Stats cache0 = e.store->cache().stats();
    const size_t arena0 = e.doc->arena_size();
    const size_t alive0 = e.doc->num_alive();
    Status st;
    double ms = 0;
    {
      ScopedSpan span(traced ? run.tracer : nullptr, "deferred.Apply", -1);
      const double t0 = NowMs();
      st = e.view->Apply(stmt);
      ms = NowMs() - t0;
    }
    if (!st.ok()) {
      report->OpFailed(stmt.target_path + ": " + st.ToString());
      return;
    }
    ++applied;
    if (timed) run.Statement(stmt.kind, ms);
    if (traced) {
      l["deferred.apply_ms"] += ms;
      l["update.delta_ms"] += e.view->timing().Get(phase::kComputeDeltas) -
                              before.Get(phase::kComputeDeltas);
      const size_t added = e.doc->arena_size() - arena0;
      l["update.delta_rows"] +=
          static_cast<double>(added + (alive0 + added - e.doc->num_alive()));
      run.CacheLayers(e.store->cache().stats(), cache0);
    }
    if (applied % kLazyFlushEvery != 0) return;

    report->Attempt();
    const PhaseTimer pre_flush = e.view->timing();
    const ValContCache::Stats flush_cache0 = e.store->cache().stats();
    const size_t pending = e.view->pending();
    ViewSnapshotPtr snap;
    double flush_ms = 0;
    {
      ScopedSpan span(traced ? run.tracer : nullptr, "deferred.Read(flush)",
                      -1);
      const double t0 = NowMs();
      snap = e.view->Read();
      flush_ms = NowMs() - t0;
    }
    if (timed) run.loop_ms += flush_ms;
    if (traced) {
      run.flush_ms.push_back(flush_ms);
      ++run.flushes;
      l["deferred.pending"] += static_cast<double>(pending);
      const PhaseTimer& now = e.view->timing();
      l["maintain.execute_ms"] += now.Get(phase::kExecuteUpdate) -
                                  pre_flush.Get(phase::kExecuteUpdate);
      l["maintain.lattice_ms"] += now.Get(phase::kUpdateLattice) -
                                  pre_flush.Get(phase::kUpdateLattice);
      run.CacheLayers(e.store->cache().stats(), flush_cache0);
    }
    check_oracle(*snap, *e.doc, "read after " + stmt.name);
    if (applied % 2 == 0) {
      const std::string diff = DiffContent(snap->tuples(), initial);
      if (!diff.empty()) {
        report->CheckFailed("after " + stmt.name +
                            ": view not restored to its initial content: " +
                            diff);
      }
    }
    if (!timed) return;
    for (size_t i = 0; i < kReadsPerStmt * kLazyFlushEvery; ++i) {
      PointRead(&run, probes[next_probe++ % probes.size()],
                [&](size_t) { return e.view->Read(); }, report);
    }
  };

  for (const UpdateStmt& stmt : pairs) step(stmt, false);  // warm-up

  run.sample = [&] {
    LazyEngine extra;
    if (setup_sample(&extra)) extra.Reset();
    report->Attempt();
    ScopedSpan span(run.tracer, "deferred.Recover", -1);
    LazyEngine rec;
    size_t replayed = 0;
    const double t0 = NowMs();
    Status st = RecoverLazy(image, def, &rec, &replayed);
    const double ms = NowMs() - t0;
    if (!st.ok()) {
      report->OpFailed("recover: " + st.ToString());
      return;
    }
    run.recover_ms.push_back(ms);
    run.layers["persist.replay_stmts"] = static_cast<double>(replayed);
    CheckRecovered(*rec.doc, {rec.view->Read()->tuples()}, image_state,
                   "recovery sample", report);
    rec.Reset();
  };
  run.Rounds([&](int) {
    const std::vector<size_t> order = PairOrder(npairs, &rng);
    for (size_t p : order) {
      step(pairs[2 * p], true);
      step(pairs[2 * p + 1], true);
    }
  });

  // The restart the run ends with: checkpoint, the tail, teardown and a
  // recovery checked against the torn-down state and the oracle.
  const LazyFiles end(opts.work_dir + "/end");
  report->Attempt();
  const double t0 = NowMs();
  Status st;
  {
    ScopedSpan span(run.tracer, "deferred.Checkpoint", -1);
    st = CheckpointLazy(end, &e);
  }
  run.layers["persist.checkpoint_ms"] = NowMs() - t0;
  for (size_t i = 0; st.ok() && i < kTailStmts; ++i) {
    report->Attempt();
    st = e.view->Apply(pairs[i]);
  }
  if (!st.ok()) {
    report->OpFailed("restart: " + st.ToString());
    return;
  }
  ViewSnapshotPtr last = e.view->Read();
  check_oracle(*last, *e.doc, "before restart");
  const Expected before{SerializeDocument(*e.doc), {last->tuples()}, 0};
  last.reset();
  run.disk_mb = static_cast<double>(DirBytes(end.dir)) / (1024.0 * 1024.0);
  run.NoteDocument(*e.doc);
  e.Reset();

  report->Attempt();
  size_t replayed = 0;
  st = RecoverLazy(end, def, &e, &replayed);
  if (!st.ok()) {
    report->OpFailed("recover: " + st.ToString());
    return;
  }
  ViewSnapshotPtr snap = e.view->Read();
  CheckRecovered(*e.doc, {snap->tuples()}, before, "restart", report);
  check_oracle(*snap, *e.doc, "after restart");
  run.Emit(report);
}

}  // namespace xvm::perf
