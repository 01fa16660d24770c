#include "incremental/incremental_set_op.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "lawa/columnar_advancer.h"
#include "parallel/partition.h"
#include "parallel/scheduler.h"

namespace tpset {

namespace {

// True iff `d` (possibly null) appends to `side` in time order: inserted
// tuples start at or after the side's last stored end (duplicate-freeness-
// preserving append). The inserted list itself is start-ordered and
// non-overlapping by construction (AppendLog / resumed child windows).
bool InOrderAppend(const std::vector<TpTuple>& side, const FactDelta* d) {
  if (d == nullptr || d->inserted.empty()) return true;
  if (side.empty()) return true;
  return d->inserted.front().t.start >= side.back().t.end;
}

// Earliest inserted start across both sides; only meaningful when at least
// one side inserts.
TimePoint MinInsertStart(const FactDelta* l, const FactDelta* r) {
  TimePoint ts = std::numeric_limits<TimePoint>::max();
  if (l != nullptr && !l->inserted.empty()) {
    ts = std::min(ts, l->inserted.front().t.start);
  }
  if (r != nullptr && !r->inserted.empty()) {
    ts = std::min(ts, r->inserted.front().t.start);
  }
  return ts;
}

// Patches one side input with a (possibly null) delta: removes retracted
// tuples (exact matches) and merges inserted ones in (start, end) order.
void ApplySideDelta(std::vector<TpTuple>* side, const FactDelta* d) {
  if (d == nullptr) return;
  if (!d->retracted.empty()) {
    std::vector<TpTuple> kept;
    kept.reserve(side->size() - d->retracted.size());
    std::size_t k = 0;
    for (const TpTuple& t : *side) {
      if (k < d->retracted.size() && t == d->retracted[k]) {
        ++k;
        continue;
      }
      kept.push_back(t);
    }
    assert(k == d->retracted.size() &&
           "retracted tuple missing from the side input");
    *side = std::move(kept);
  }
  if (!d->inserted.empty()) {
    const std::size_t old_size = side->size();
    side->insert(side->end(), d->inserted.begin(), d->inserted.end());
    std::inplace_merge(side->begin(),
                       side->begin() + static_cast<std::ptrdiff_t>(old_size),
                       side->end(), FactTimeOrder());
  }
}

}  // namespace

IncrementalSetOp::FactApplyResult IncrementalSetOp::ApplyFact(
    FactId fact, FactState& st, const FactDelta* l, const FactDelta* r) {
  FactApplyResult res;

  // Resume admissibility: pure appends, in time order on each side, landing
  // at or after the fact's sweep frontier. A fact with no emitted window yet
  // has no frontier — restoring its (default or early-stopped) checkpoint is
  // always exact then, because nothing was emitted that a new tuple could
  // invalidate... except via the frontier itself, which the check covers.
  bool resumable = (l == nullptr || l->retracted.empty()) &&
                   (r == nullptr || r->retracted.empty()) &&
                   InOrderAppend(st.r, l) && InOrderAppend(st.s, r);
  if (resumable && st.ckpt.windows_produced > 0) {
    resumable = MinInsertStart(l, r) >= st.ckpt.prev_win_te;
  }

  if (resumable) {
    if (l != nullptr) {
      st.r.insert(st.r.end(), l->inserted.begin(), l->inserted.end());
    }
    if (r != nullptr) {
      st.s.insert(st.s.end(), r->inserted.begin(), r->inserted.end());
    }
    const std::size_t windows_before = st.ckpt.windows_produced;
    auto emit = [&](const LineageAwareWindow& w) {
      res.new_out.push_back(st.out.size());
      st.out.push_back({w.t, w.lr, w.ls, kNullLineage});
      res.delta.inserted.push_back({fact, w.t, kNullLineage});
    };
    // The kernel restores the checkpoint on the full grown arrays and reads
    // only the suffix past its cursors, so O(delta) resumes stay O(delta).
    ColumnarAdvancer adv({st.r.data(), st.r.size()},
                         {st.s.data(), st.s.size()});
    adv.Restore(st.ckpt);
    adv.Sweep(op_, emit);
    st.ckpt = adv.Checkpoint();
    res.windows_produced = st.ckpt.windows_produced - windows_before;
    res.resumed = true;
    return res;
  }

  // Resweep: patch the inputs, sweep the whole fact afresh, diff the window
  // stream against the stored one. Both streams are strictly increasing in
  // start (windows of one fact never overlap), so a merge walk on the key
  // (start, end, λr, λs) yields the minimal retract/insert sets; matching
  // windows keep their old lineage verbatim, new ones are recorded.
  ApplySideDelta(&st.r, l);
  ApplySideDelta(&st.s, r);
  struct FreshWindow {
    Interval t;
    LineageId lr, ls;
  };
  std::vector<FreshWindow> fresh;
  auto fresh_emit = [&](const LineageAwareWindow& w) {
    fresh.push_back({w.t, w.lr, w.ls});
  };
  ColumnarAdvancer adv({st.r.data(), st.r.size()}, {st.s.data(), st.s.size()});
  adv.Sweep(op_, fresh_emit);
  res.windows_produced = adv.windows_produced();

  auto key_old = [](const OutTuple& o) {
    return std::make_tuple(o.t.start, o.t.end, o.lr, o.ls);
  };
  auto key_new = [](const FreshWindow& w) {
    return std::make_tuple(w.t.start, w.t.end, w.lr, w.ls);
  };
  std::vector<OutTuple> next_out;
  next_out.reserve(fresh.size());
  std::size_t i = 0, j = 0;
  while (i < st.out.size() || j < fresh.size()) {
    if (i < st.out.size() && j < fresh.size() &&
        key_old(st.out[i]) == key_new(fresh[j])) {
      next_out.push_back(st.out[i]);
      ++i;
      ++j;
    } else if (j == fresh.size() ||
               (i < st.out.size() && key_old(st.out[i]) < key_new(fresh[j]))) {
      res.delta.retracted.push_back({fact, st.out[i].t, st.out[i].lineage});
      ++i;
    } else {
      res.new_out.push_back(next_out.size());
      next_out.push_back({fresh[j].t, fresh[j].lr, fresh[j].ls, kNullLineage});
      res.delta.inserted.push_back({fact, fresh[j].t, kNullLineage});
      ++j;
    }
  }
  st.out = std::move(next_out);
  st.ckpt = adv.Checkpoint();
  res.resumed = false;
  return res;
}

void IncrementalSetOp::Fold(const FactApplyResult& res) {
  stats_.windows_produced += res.windows_produced;
  if (res.resumed) {
    ++stats_.facts_resumed;
  } else {
    ++stats_.facts_reswept;
  }
  accumulated_ += res.delta.inserted.size();
  accumulated_ -= res.delta.retracted.size();
  stats_.output_tuples = accumulated_;
}

DeltaMap IncrementalSetOp::Apply(const DeltaMap& left, const DeltaMap& right,
                                 LineageManager& mgr, ThreadPool* pool) {
  DeltaMap out;
  if (left.empty() && right.empty()) return out;
  ++stats_.epochs_applied;

  // Touched facts in FactId order; create their states up front so the
  // parallel sweeps mutate only pre-existing map nodes.
  std::vector<FactId> touched;
  std::vector<FactState*> states;
  {
    auto li = left.begin();
    auto ri = right.begin();
    while (li != left.end() || ri != right.end()) {
      FactId f;
      if (ri == right.end() || (li != left.end() && li->first <= ri->first)) {
        f = li->first;
        if (ri != right.end() && ri->first == f) ++ri;
        ++li;
      } else {
        f = ri->first;
        ++ri;
      }
      touched.push_back(f);
      states.push_back(&facts_[f]);
    }
  }
  auto side_of = [](const DeltaMap& m, FactId f) -> const FactDelta* {
    auto it = m.find(f);
    return it == m.end() ? nullptr : &it->second;
  };

  // Fact ranges: one for a sequential apply; on a pool, up to two per
  // worker, balanced by per-fact sweep cost (the resweep worst case: stored
  // inputs + delta).
  std::vector<WeightRange> ranges{{0, touched.size()}};
  if (pool != nullptr && pool->size() > 1 && touched.size() > 1) {
    std::vector<std::size_t> weights;
    weights.reserve(touched.size());
    for (std::size_t i = 0; i < touched.size(); ++i) {
      std::size_t w = states[i]->r.size() + states[i]->s.size() + 1;
      if (const FactDelta* d = side_of(left, touched[i])) {
        w += d->inserted.size() + d->retracted.size();
      }
      if (const FactDelta* d = side_of(right, touched[i])) {
        w += d->inserted.size() + d->retracted.size();
      }
      weights.push_back(w);
    }
    ranges = PartitionByWeight(weights, 2 * pool->size());
  }
  std::vector<FactApplyResult> results(touched.size());
  auto sweep = [&](std::size_t ri) {
    for (std::size_t i = ranges[ri].begin; i < ranges[ri].end; ++i) {
      const FactId f = touched[i];
      results[i] = ApplyFact(f, *states[i], side_of(left, f), side_of(right, f));
    }
  };

  // Several ranges sweep as morsels on the work-stealing batch (an idle
  // worker steals the ranges a hot fact's worker has not reached). This
  // thread interns each range as soon as it is swept, overlapping the
  // remaining sweeps: the sweeps never read the arena, and each range's
  // windows belong to its own facts. Ranges and the windows within them go
  // in fact order, the order a sequential apply interns in.
  std::optional<MorselBatch> batch;
  if (ranges.size() > 1) batch.emplace(pool, ranges.size(), sweep);
  std::vector<LineagePair> block;
  std::vector<LineageId> ids;
  for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
    if (batch) {
      batch->WaitMorsel(ri);
    } else {
      sweep(ri);
    }
    block.clear();
    for (std::size_t i = ranges[ri].begin; i < ranges[ri].end; ++i) {
      for (std::size_t o : results[i].new_out) {
        block.push_back({states[i]->out[o].lr, states[i]->out[o].ls});
      }
    }
    ids.resize(block.size());
    mgr.ConcatBlock(op_, block, nullptr, ids);
    const LineageId* id = ids.data();
    for (std::size_t i = ranges[ri].begin; i < ranges[ri].end; ++i) {
      FactApplyResult& res = results[i];
      for (std::size_t k = 0; k < res.new_out.size(); ++k, ++id) {
        states[i]->out[res.new_out[k]].lineage = *id;
        res.delta.inserted[k].lineage = *id;
      }
      Fold(res);
      if (!res.delta.empty()) out.emplace(touched[i], std::move(res.delta));
    }
  }
  if (batch) {
    stats_.morsels_run += batch->morsels_run();
    stats_.morsels_stolen += batch->morsels_stolen();
  }
  return out;
}

std::size_t IncrementalSetOp::Rebase(TimePoint watermark) {
  std::size_t retired = 0;
  for (auto it = facts_.begin(); it != facts_.end();) {
    FactState& st = it->second;

    // Per-fact side inputs and output windows are start-ordered and
    // non-overlapping (base-relation chains by the append contract, child
    // window streams by construction), so their interval ends increase and
    // "ends at or below the watermark" is a contiguous prefix.
    auto trim_side = [watermark](std::vector<TpTuple>* side, std::size_t* cursor) {
      std::size_t k = 0;
      while (k < side->size() && (*side)[k].t.end <= watermark) ++k;
      if (k == 0) return;
      side->erase(side->begin(), side->begin() + static_cast<std::ptrdiff_t>(k));
      // The checkpoint cursor indexes this array; dropping k leading tuples
      // shifts it. A cursor inside the retired prefix clamps to 0: the
      // still-pending retired tuples could only have produced windows ending
      // at or below the watermark, which retention forgets anyway.
      *cursor = *cursor > k ? *cursor - k : 0;
    };
    trim_side(&st.r, &st.ckpt.ri);
    trim_side(&st.s, &st.ckpt.si);

    std::size_t ko = 0;
    while (ko < st.out.size() && st.out[ko].t.end <= watermark) ++ko;
    if (ko > 0) {
      st.out.erase(st.out.begin(), st.out.begin() + static_cast<std::ptrdiff_t>(ko));
      retired += ko;
    }

    // A fact whose whole history fell below the watermark is forgotten;
    // its next delta starts from a fresh checkpoint (windows_produced = 0,
    // so resume admissibility imposes no stale frontier).
    if (st.r.empty() && st.s.empty() && st.out.empty()) {
      it = facts_.erase(it);
    } else {
      ++it;
    }
  }
  accumulated_ -= retired;
  stats_.output_tuples = accumulated_;
  stats_.tuples_retired += retired;
  return retired;
}

void IncrementalSetOp::AppendAccumulated(TpRelation* out) const {
  for (const auto& [fact, st] : facts_) {
    for (const OutTuple& t : st.out) {
      out->AddDerived(fact, t.t, t.lineage);
    }
  }
}

}  // namespace tpset
