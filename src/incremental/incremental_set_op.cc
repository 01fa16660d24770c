#include "incremental/incremental_set_op.h"

#include <algorithm>
#include <cassert>
#include <limits>
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

template <typename Sink>
IncrementalSetOp::FactApplyResult IncrementalSetOp::ApplyFact(
    FactId fact, const FactDelta* l, const FactDelta* r, Sink& sink) {
  FactApplyResult res;
  FactState& st = facts_.at(fact);

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
    res.out_new_begin = st.out.size();
    const std::size_t windows_before = st.ckpt.windows_produced;
    auto emit = [&](const LineageAwareWindow& w) {
      LineageId lin = ConcatLineage(op_, sink, w.lr, w.ls);
      st.out.push_back({w.t, w.lr, w.ls, lin});
      res.delta.inserted.push_back({fact, w.t, lin});
    };
    // Kernel choice on the *unswept suffix* — the work a resume actually
    // does. Either kernel restores the checkpoint on the full grown arrays
    // and reads only the suffix past its cursors, so O(delta) resumes stay
    // O(delta).
    const SweepKernel resolved = ResolveSweepKernel(
        SweepKernel::kAuto,
        (st.r.size() - st.ckpt.ri) + (st.s.size() - st.ckpt.si));
    if (resolved == SweepKernel::kColumnar) {
      ColumnarAdvancer adv({st.r.data(), st.r.size()},
                           {st.s.data(), st.s.size()});
      adv.Restore(st.ckpt);
      adv.Sweep(op_, emit);
      st.ckpt = adv.Checkpoint();
      res.columnar = true;
    } else {
      LineageAwareWindowAdvancer adv(st.r.data(), st.r.size(), st.s.data(),
                                     st.s.size());
      adv.Restore(st.ckpt);
      ForEachSurvivingWindow(op_, adv, emit);
      st.ckpt = adv.Checkpoint();
    }
    res.windows_produced = st.ckpt.windows_produced - windows_before;
    res.resumed = true;
    return res;
  }

  // Resweep: patch the inputs, sweep the whole fact afresh, diff the window
  // stream against the stored one. Both streams are strictly increasing in
  // start (windows of one fact never overlap), so a merge walk on the key
  // (start, end, λr, λs) yields the minimal retract/insert sets; matching
  // windows keep their old lineage verbatim.
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
  AdvancerCheckpoint swept_ckpt;
  const SweepKernel resolved =
      ResolveSweepKernel(SweepKernel::kAuto, st.r.size() + st.s.size());
  if (resolved == SweepKernel::kColumnar) {
    ColumnarAdvancer adv({st.r.data(), st.r.size()}, {st.s.data(), st.s.size()});
    adv.Sweep(op_, fresh_emit);
    res.windows_produced = adv.windows_produced();
    swept_ckpt = adv.Checkpoint();
    res.columnar = true;
  } else {
    LineageAwareWindowAdvancer adv(st.r.data(), st.r.size(), st.s.data(),
                                   st.s.size());
    ForEachSurvivingWindow(op_, adv, fresh_emit);
    res.windows_produced = adv.windows_produced();
    swept_ckpt = adv.Checkpoint();
  }

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
      LineageId lin = ConcatLineage(op_, sink, fresh[j].lr, fresh[j].ls);
      next_out.push_back({fresh[j].t, fresh[j].lr, fresh[j].ls, lin});
      res.delta.inserted.push_back({fact, fresh[j].t, lin});
      ++j;
    }
  }
  st.out = std::move(next_out);
  st.ckpt = swept_ckpt;
  res.out_new_begin = 0;
  res.resumed = false;
  return res;
}

void IncrementalSetOp::RemapFact(FactId fact, std::size_t out_new_begin,
                                 LineageId frozen,
                                 const std::vector<LineageId>& remap,
                                 FactDelta* delta) {
  FactState& st = facts_.at(fact);
  for (std::size_t i = out_new_begin; i < st.out.size(); ++i) {
    LineageId& lin = st.out[i].lineage;
    if (lin != kNullLineage && lin >= frozen) lin = remap[lin - frozen];
  }
  for (TpTuple& t : delta->inserted) {
    if (t.lineage != kNullLineage && t.lineage >= frozen) {
      t.lineage = remap[t.lineage - frozen];
    }
  }
}

void IncrementalSetOp::Fold(const FactApplyResult& res) {
  stats_.windows_produced += res.windows_produced;
  if (res.resumed) {
    ++stats_.facts_resumed;
  } else {
    ++stats_.facts_reswept;
  }
  NoteSweepKernels(
      res.columnar ? SweepKernel::kColumnar : SweepKernel::kScalar, 1,
      &stats_);
  accumulated_ += res.delta.inserted.size();
  accumulated_ -= res.delta.retracted.size();
  stats_.output_tuples = accumulated_;
}

DeltaMap IncrementalSetOp::Apply(const DeltaMap& left, const DeltaMap& right,
                                 LineageManager& mgr, ThreadPool* pool,
                                 std::size_t max_groups) {
  DeltaMap out;
  if (left.empty() && right.empty()) return out;
  ++stats_.epochs_applied;

  // Touched facts in FactId order; create their states up front so the
  // parallel path mutates only pre-existing map nodes.
  std::vector<FactId> touched;
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
      facts_.try_emplace(f);
    }
  }
  auto side_of = [](const DeltaMap& m, FactId f) -> const FactDelta* {
    auto it = m.find(f);
    return it == m.end() ? nullptr : &it->second;
  };

  const bool parallel = pool != nullptr && max_groups > 1 && touched.size() > 1;
  if (!parallel) {
    for (FactId f : touched) {
      FactApplyResult res = ApplyFact(f, side_of(left, f), side_of(right, f), mgr);
      Fold(res);
      if (!res.delta.empty()) out.emplace(f, std::move(res.delta));
    }
    return out;
  }

  // Parallel staged apply: fact ranges balanced by per-fact sweep cost (the
  // resweep worst case: stored inputs + delta), one StagingArena per range,
  // spliced in fact order. The ranges run as morsels on the work-stealing
  // batch (a hot fact's range no longer pins one worker while the others
  // idle — an idle worker steals the remaining ranges), and each range is
  // spliced as soon as it and its predecessors finish, overlapping the
  // remaining sweeps. Every lineage id a staged cell can reference was
  // interned before this epoch's apply began, so the frozen snapshot is
  // simply the arena size — and splicing range i while range i+1 is still
  // staging is safe, because staging arenas never read the base arena.
  std::vector<std::size_t> weights;
  weights.reserve(touched.size());
  for (FactId f : touched) {
    const FactState& st = facts_.at(f);
    std::size_t w = st.r.size() + st.s.size() + 1;
    if (const FactDelta* d = side_of(left, f)) {
      w += d->inserted.size() + d->retracted.size();
    }
    if (const FactDelta* d = side_of(right, f)) {
      w += d->inserted.size() + d->retracted.size();
    }
    weights.push_back(w);
  }
  const std::vector<WeightRange> groups = PartitionByWeight(weights, max_groups);
  const LineageId frozen = static_cast<LineageId>(mgr.size());
  const bool hash_consing = mgr.hash_consing();

  struct GroupResult {
    StagingArena arena{2, false};
    std::vector<std::pair<FactId, FactApplyResult>> facts;
  };
  std::vector<GroupResult> group_results(groups.size());
  MorselBatch batch(
      pool, groups.size(),
      [this, &groups, &group_results, &touched, &left, &right, frozen,
       hash_consing, &side_of](std::size_t gi) {
        const WeightRange& g = groups[gi];
        GroupResult gr{StagingArena(frozen, hash_consing), {}};
        gr.facts.reserve(g.end - g.begin);
        for (std::size_t i = g.begin; i < g.end; ++i) {
          FactId f = touched[i];
          gr.facts.emplace_back(
              f, ApplyFact(f, side_of(left, f), side_of(right, f), gr.arena));
        }
        group_results[gi] = std::move(gr);
      });
  std::vector<LineageId> remap;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    batch.WaitMorsel(gi);
    GroupResult& gr = group_results[gi];
    mgr.SpliceStaged(gr.arena, &remap);
    for (auto& [fact, res] : gr.facts) {
      RemapFact(fact, res.out_new_begin, frozen, remap, &res.delta);
      Fold(res);
      if (!res.delta.empty()) out.emplace(fact, std::move(res.delta));
    }
  }
  stats_.morsels_run += batch.morsels_run();
  stats_.morsels_stolen += batch.morsels_stolen();
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

// The two sinks the continuous-query engine drives.
template IncrementalSetOp::FactApplyResult IncrementalSetOp::ApplyFact<LineageManager>(
    FactId, const FactDelta*, const FactDelta*, LineageManager&);
template IncrementalSetOp::FactApplyResult IncrementalSetOp::ApplyFact<StagingArena>(
    FactId, const FactDelta*, const FactDelta*, StagingArena&);

}  // namespace tpset
