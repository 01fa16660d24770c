#include "replay.h"

#include <vector>

#include "common.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "query/parser.h"

namespace e2e {

namespace {

using tpset::QueryNode;
using tpset::Result;
using tpset::Status;
using tpset::TpRelation;

Result<TpRelation> ReplayNode(const tpset::QueryExecutor& exec,
                              const QueryNode& node, LayerTimes* t) {
  if (node.kind == QueryNode::Kind::kRelation) {
    Result<const tpset::StoredRelation*> stored =
        exec.FindStored(node.relation_name);
    if (!stored.ok()) return stored.status();
    t->tail_runs += (*stored)->run_count();
    t->debt += (*stored)->compaction_debt();
    auto t0 = Clock::now();
    const std::shared_ptr<const TpRelation> folded = (*stored)->FoldedView();
    t->fold_ms += MsSince(t0);
    t0 = Clock::now();
    TpRelation copy = *folded;
    t->leaf_copy_ms += MsSince(t0);
    return copy;
  }
  Result<TpRelation> left = ReplayNode(exec, *node.left, t);
  if (!left.ok()) return left;
  Result<TpRelation> right = ReplayNode(exec, *node.right, t);
  if (!right.ok()) return right;
  const TpRelation& r = *left;
  const TpRelation& s = *right;
  // LawaSetOp sweeps witnessed inputs in place with the columnar kernel
  // (kAuto above kColumnarAutoThreshold); the replay mirrors exactly that
  // path and refuses any other rather than time a different program.
  if (!r.known_sorted() || !s.known_sorted() ||
      tpset::ResolveSweepKernel(tpset::SweepKernel::kAuto,
                                r.size() + s.size()) !=
          tpset::SweepKernel::kColumnar) {
    return Status::NotSupported(
        "replay covers only witnessed inputs on the columnar kernel");
  }

  auto t0 = Clock::now();
  const tpset::ColumnSpan rc = r.columnar();
  const tpset::ColumnSpan sc = s.columnar();
  t->columnar_ms += MsSince(t0);

  t0 = Clock::now();
  std::vector<tpset::LineageAwareWindow> windows;
  windows.reserve(r.size() + s.size());
  tpset::ColumnarAdvancer adv(rc, sc);
  adv.Sweep(node.op, [&windows](const tpset::LineageAwareWindow& w) {
    windows.push_back(w);
  });
  t->sweep_ms += MsSince(t0);
  t->windows += adv.windows_produced();
  t->surviving += windows.size();

  tpset::LineageManager& mgr = r.context()->lineage();
  const std::size_t arena_before = mgr.size();
  t0 = Clock::now();
  std::vector<tpset::LineageId> lineage(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const tpset::LineageAwareWindow& w = windows[i];
    switch (node.op) {
      case tpset::SetOpKind::kIntersect:
        lineage[i] = mgr.ConcatAnd(w.lr, w.ls);
        break;
      case tpset::SetOpKind::kUnion:
        lineage[i] = mgr.ConcatOr(w.lr, w.ls);
        break;
      case tpset::SetOpKind::kExcept:
        lineage[i] = mgr.ConcatAndNot(w.lr, w.ls);
        break;
    }
  }
  t->concat_ms += MsSince(t0);
  t->nodes_added += mgr.size() - arena_before;

  t0 = Clock::now();
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + tpset::SetOpName(node.op) + " " +
                     s.name() + ")");
  for (std::size_t i = 0; i < windows.size(); ++i) {
    out.AddDerived(windows[i].fact, windows[i].t, lineage[i]);
  }
  t->materialize_ms += MsSince(t0);
  return out;
}

}  // namespace

Result<TpRelation> ReplayQuery(const tpset::QueryExecutor& exec,
                               const std::string& text, LayerTimes* t) {
  auto t0 = Clock::now();
  Result<tpset::QueryPtr> parsed = tpset::ParseQuery(text);
  t->parse_ms += MsSince(t0);
  if (!parsed.ok()) return parsed.status();
  Result<TpRelation> out = ReplayNode(exec, **parsed, t);
  if (!out.ok()) return out;
  t0 = Clock::now();
  ValuateAll(*out);
  t->valuation_ms += MsSince(t0);
  return out;
}

}  // namespace e2e
