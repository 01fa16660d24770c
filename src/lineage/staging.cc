#include "lineage/staging.h"

namespace tpset {

LineageId StagingArena::Intern(LineageKind kind, LineageId left,
                               LineageId right) {
  const LineageId fresh = static_cast<LineageId>(frozen_ + cells_.size());
  if (hash_consing_) {
    const LineageId id = index_.FindOrAdd(
        ConsIndex::Hash(kind, kInvalidVar, left, right), fresh,
        [&](LineageId cand) {
          const LineageNode& c = cells_[cand - frozen_];
          return c.kind == kind && c.left == left && c.right == right;
        });
    if (id != fresh) return id;
  }
  cells_.push_back({kind, kInvalidVar, left, right});
  return fresh;
}

LineageId StagingArena::MakeNot(LineageId a) {
  assert(a != kNullLineage && "MakeNot over null lineage");
  if (a == LineageManager::kFalseId) return LineageManager::kTrueId;
  if (a == LineageManager::kTrueId) return LineageManager::kFalseId;
  // ¬¬x = x, but only for cells this arena owns; base nodes are unreadable
  // here (see the header's safety note).
  if (a >= frozen_ && cells_[a - frozen_].kind == LineageKind::kNot) {
    return cells_[a - frozen_].left;
  }
  return Intern(LineageKind::kNot, a, kNullLineage);
}

LineageId StagingArena::MakeAnd(LineageId a, LineageId b) {
  assert(a != kNullLineage && b != kNullLineage && "MakeAnd over null lineage");
  if (a == LineageManager::kFalseId || b == LineageManager::kFalseId) {
    return LineageManager::kFalseId;
  }
  if (a == LineageManager::kTrueId) return b;
  if (b == LineageManager::kTrueId) return a;
  if (a == b) return a;
  return Intern(LineageKind::kAnd, a, b);
}

LineageId StagingArena::MakeOr(LineageId a, LineageId b) {
  assert(a != kNullLineage && b != kNullLineage && "MakeOr over null lineage");
  if (a == LineageManager::kTrueId || b == LineageManager::kTrueId) {
    return LineageManager::kTrueId;
  }
  if (a == LineageManager::kFalseId) return b;
  if (b == LineageManager::kFalseId) return a;
  if (a == b) return a;
  return Intern(LineageKind::kOr, a, b);
}

void LineageManager::SpliceStaged(const StagingArena& staged,
                                  std::vector<LineageId>* remap) {
  const LineageId frozen = staged.frozen_size();
  const std::vector<LineageNode>& cells = staged.cells();
  assert(frozen <= nodes_.size() &&
         "staging arena was frozen against a longer prefix than this arena");
  remap->assign(cells.size(), kNullLineage);

  // Cells are appended verbatim in creation order, so the remap is a pure
  // affine shift: staged id frozen + i lands at base + i. Child references
  // to earlier cells shift by the same delta; frozen base ids and the null
  // sentinel of kNot cells pass through untouched. Deliberately NO consing
  // here — hashing every cell into the shared map would cost exactly the
  // serialized per-node intern work staging exists to avoid. Deduplication
  // is local per staging arena; a cell structurally equal to a node of
  // another partition (or a pre-existing one) becomes a duplicate arena
  // node — semantically neutral (valuation and canonical keys see through
  // it), bounded by the cross-partition sharing rate, and accepted as the
  // memory cost of an O(cells) mostly-memcpy merge.
  const LineageId base = static_cast<LineageId>(nodes_.size());
  // No reserve here: an exact-size reserve per splice would defeat the
  // vector's geometric growth — with many small morsel splices that turns
  // into a full arena copy per splice, O(nodes · splices).
  auto resolve = [&](LineageId id) -> LineageId {
    if (id == kNullLineage || id < frozen) return id;
    return id - frozen + base;
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LineageNode& c = cells[i];
    (*remap)[i] = static_cast<LineageId>(nodes_.size());
    nodes_.push_back({c.kind, c.var, resolve(c.left), resolve(c.right)});
  }
}

}  // namespace tpset
