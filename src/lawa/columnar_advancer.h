// Fused sweep kernel for LAWA — the drop-in fast path for
// LineageAwareWindowAdvancer + ForEachSurvivingWindow.
//
// The scalar advancer is an out-of-line call per window: every boundary
// computation re-tests fact equality, and its status is spilled to members
// between calls. This kernel sweeps the same sorted 24-byte tuple arrays in
// place (a TupleSpan over 24-byte {fact, lineage, start, end} records, see
// relation/tuple.h) with the whole drain loop fused into one function:
//
//  * per fact group, the group bounds are computed once, so the inner loop
//    does no fact comparisons at all — the boundary step is a branch-free
//    4-way min over two tuple loads and two registers (compiled to cmov;
//    see DESIGN.md "Columnar sweep kernel");
//  * the advancer status (cursors, valid endpoints, frontier) lives in
//    registers for the whole sweep and is written back to members only at
//    the drain point, keeping Checkpoint() exact;
//  * when one side of a fact group is exhausted (the tail of every except /
//    union group, and whole groups for facts present in only one input),
//    duplicate-freeness makes each remaining tuple exactly one window
//    [start, end) — emitted by a tight bulk loop with no status updates.
//
// Equivalence contract: for the same sorted duplicate-free inputs, Sweep(op)
// invokes emit with the identical window stream — same fact-group order,
// same boundaries, same (λr, λs) — that ForEachSurvivingWindow(op, scalar
// advancer) produces, and leaves the advancer status (Checkpoint()) equal to
// the scalar advancer's status at its drain point. tests/
// columnar_kernel_test.cc pins both, window-by-window and field-by-field.
// AdvancerCheckpoint round-trips between the kernels in either direction:
// cursors are indices into the same sorted arrays both kernels read.
#ifndef TPSET_LAWA_COLUMNAR_ADVANCER_H_
#define TPSET_LAWA_COLUMNAR_ADVANCER_H_

#include <cassert>
#include <cstddef>
#include <limits>

#include "common/setop.h"
#include "lawa/advancer.h"
#include "lawa/window.h"
#include "relation/tuple.h"

namespace tpset {

class ColumnarAdvancer {
 public:
  /// Both spans' arrays must outlive the advancer and hold duplicate-free
  /// (fact, start)-sorted tuples — the same contract as the scalar
  /// advancer's span constructor. A morsel passes sub-spans
  /// (TupleSpan::Slice of its fact partition).
  ColumnarAdvancer(TupleSpan r, TupleSpan s) : r_(r), s_(s) {}

  /// Runs the whole drain loop for `op` — the fused equivalent of
  /// ForEachSurvivingWindow(op, adv, emit) — invoking emit(w) for every
  /// window that survives the per-operation λ-filter. Resumable: sweeping
  /// after Restore() continues exactly where the checkpointed sweep
  /// stopped.
  template <typename Emit>
  void Sweep(SetOpKind op, Emit&& emit) {
    switch (op) {
      case SetOpKind::kIntersect:
        SweepImpl<SetOpKind::kIntersect>(emit);
        break;
      case SetOpKind::kUnion:
        SweepImpl<SetOpKind::kUnion>(emit);
        break;
      case SetOpKind::kExcept:
        SweepImpl<SetOpKind::kExcept>(emit);
        break;
    }
  }

  /// Windows produced so far, filtered or not (Proposition 1 bound).
  std::size_t windows_produced() const { return windows_produced_; }

  /// Snapshots the status — field-for-field what the scalar advancer's
  /// Checkpoint() returns at the same sweep point.
  AdvancerCheckpoint Checkpoint() const {
    AdvancerCheckpoint ckpt;
    ckpt.ri = ri_;
    ckpt.si = si_;
    ckpt.r_valid = r_valid_;
    ckpt.s_valid = s_valid_;
    ckpt.r_valid_tuple = r_valid_tuple_;
    ckpt.s_valid_tuple = s_valid_tuple_;
    ckpt.have_fact = have_fact_;
    ckpt.curr_fact = curr_fact_;
    ckpt.prev_win_te = prev_win_te_;
    ckpt.windows_produced = windows_produced_;
    return ckpt;
  }

  /// Restores a status saved from an advancer (either kernel) over a prefix
  /// of this advancer's inputs; see LineageAwareWindowAdvancer::Restore.
  void Restore(const AdvancerCheckpoint& ckpt) {
    assert(ckpt.ri <= r_.size && ckpt.si <= s_.size &&
           "checkpoint cursors must lie within the (grown) inputs");
    ri_ = ckpt.ri;
    si_ = ckpt.si;
    r_valid_ = ckpt.r_valid;
    s_valid_ = ckpt.s_valid;
    r_valid_tuple_ = ckpt.r_valid_tuple;
    s_valid_tuple_ = ckpt.s_valid_tuple;
    have_fact_ = ckpt.have_fact;
    curr_fact_ = ckpt.curr_fact;
    prev_win_te_ = ckpt.prev_win_te;
    windows_produced_ = ckpt.windows_produced;
  }

 private:
  template <SetOpKind kOp, typename Emit>
  void SweepImpl(Emit& emit) {
    constexpr TimePoint kInf = std::numeric_limits<TimePoint>::max();
    const TpTuple* const r = r_.data;
    const TpTuple* const s = s_.data;
    const std::size_t nr = r_.size;
    const std::size_t ns = s_.size;

    // Status in registers for the whole sweep; written back at the drain
    // point. The valid-tuple fields are loaded lazily (r_loaded/s_loaded)
    // so a sweep that never loads a tuple preserves the restored — possibly
    // stale, the scalar kernel never clears them on expiry — member values.
    std::size_t ri = ri_;
    std::size_t si = si_;
    bool rv = r_valid_;
    bool sv = s_valid_;
    TimePoint rv_start = r_valid_tuple_.t.start;
    TimePoint rv_end = r_valid_tuple_.t.end;
    LineageId rv_lin = r_valid_tuple_.lineage;
    FactId rv_fact = r_valid_tuple_.fact;
    TimePoint sv_start = s_valid_tuple_.t.start;
    TimePoint sv_end = s_valid_tuple_.t.end;
    LineageId sv_lin = s_valid_tuple_.lineage;
    FactId sv_fact = s_valid_tuple_.fact;
    bool r_loaded = false;
    bool s_loaded = false;
    bool have_fact = have_fact_;
    FactId f = curr_fact_;
    TimePoint prev_te = prev_win_te_;
    std::size_t windows = windows_produced_;

    // The per-operation drain condition of ForEachSurvivingWindow, on the
    // *global* cursors: sweeping continues while the operation can still
    // produce output.
    const auto drained = [&]() {
      if constexpr (kOp == SetOpKind::kIntersect) {
        return !((ri < nr || rv) && (si < ns || sv));
      } else if constexpr (kOp == SetOpKind::kUnion) {
        return !(ri < nr || si < ns || rv || sv);
      } else {
        return !(ri < nr || rv);
      }
    };

    LineageAwareWindow w;
    while (!drained()) {
      // ---- Fact-group selection (Alg. 1 lines 2-15). ----
      if (!rv && !sv) {
        const bool pr = ri < nr;
        const bool ps = si < ns;
        const bool r_match = pr && have_fact && r[ri].fact == f;
        const bool s_match = ps && have_fact && s[si].fact == f;
        if (r_match == s_match) {
          // Neither (or both) pending tuple continues the current fact:
          // advance to the lexicographically smallest pending (fact, start).
          // Within the selected group, the first window's left boundary is
          // the smallest in-group start — computed by the inner loop, which
          // makes the both-match and the new-fact case one code path.
          if (!ps) {
            f = r[ri].fact;
          } else if (!pr) {
            f = s[si].fact;
          } else {
            f = r[ri].fact < s[si].fact ? r[ri].fact : s[si].fact;
          }
          have_fact = true;
        }
        // Exactly one side matching keeps the current fact: its start is the
        // group's only in-group pending start, so the inner loop's min
        // reproduces the scalar kernel's single-match left boundary.
      }
      // Group bounds: all remaining tuples of fact f are consecutive from
      // the cursors (inputs are fact-major sorted). After this, the inner
      // loop never compares facts again.
      std::size_t rg = ri;
      while (rg < nr && r[rg].fact == f) ++rg;
      std::size_t sg = si;
      while (sg < ns && s[sg].fact == f) ++sg;

      // ---- Fused sweep of one fact group. ----
      while (!drained()) {
        const bool pr = ri < rg;
        const bool ps = si < sg;
        if (!(pr || ps || rv || sv)) break;  // group exhausted → next fact

        if (!ps && !sv) {
          // r-only tail: no s tuple can bound a window anymore, and
          // duplicate-freeness means each remaining r tuple is exactly one
          // window [start, end). Reaching here under ∩Tp implies si < ns
          // (else drained), and si/sv don't move below, so the global drain
          // condition cannot trip mid-bulk — the bulk is exact for every op.
          if (rv) {
            // The carried-over tuple's closing window. No same-fact r tuple
            // may start before rv_end (intervals per fact are disjoint), so
            // the boundary is rv_end itself.
            assert(!pr || r[ri].t.start >= rv_end);
            assert(rv_end > prev_te && "windows advance strictly");
            if constexpr (kOp != SetOpKind::kIntersect) {
              w.fact = f;
              w.t = Interval(prev_te, rv_end);
              w.lr = rv_lin;
              w.ls = kNullLineage;
              emit(w);  // λr ≠ null: survives ∪Tp and −Tp
            }
            prev_te = rv_end;
            ++windows;
            rv = false;
          }
          if (pr) {
            if constexpr (kOp != SetOpKind::kIntersect) {
              for (std::size_t i = ri; i < rg; ++i) {
                w.fact = f;
                w.t = r[i].t;
                w.lr = r[i].lineage;
                w.ls = kNullLineage;
                emit(w);
              }
            }
            windows += rg - ri;
            prev_te = r[rg - 1].t.end;
            // Mirror the scalar kernel's status: the last loaded tuple
            // stays in r_valid_tuple_ (stale after expiry) for checkpoint
            // equality.
            rv_start = r[rg - 1].t.start;
            rv_end = r[rg - 1].t.end;
            rv_lin = r[rg - 1].lineage;
            rv_fact = f;
            r_loaded = true;
            ri = rg;
          }
          break;
        }
        if (!pr && !rv) {
          // s-only tail, symmetric. Under ∩Tp and −Tp these windows carry
          // λr = null and are filtered — counted, not emitted (reaching
          // here implies ri < nr for both, else drained).
          if (sv) {
            assert(!ps || s[si].t.start >= sv_end);
            assert(sv_end > prev_te && "windows advance strictly");
            if constexpr (kOp == SetOpKind::kUnion) {
              w.fact = f;
              w.t = Interval(prev_te, sv_end);
              w.lr = kNullLineage;
              w.ls = sv_lin;
              emit(w);
            }
            prev_te = sv_end;
            ++windows;
            sv = false;
          }
          if (ps) {
            if constexpr (kOp == SetOpKind::kUnion) {
              for (std::size_t i = si; i < sg; ++i) {
                w.fact = f;
                w.t = s[i].t;
                w.lr = kNullLineage;
                w.ls = s[i].lineage;
                emit(w);
              }
            }
            windows += sg - si;
            prev_te = s[sg - 1].t.end;
            sv_start = s[sg - 1].t.start;
            sv_end = s[sg - 1].t.end;
            sv_lin = s[sg - 1].lineage;
            sv_fact = f;
            s_loaded = true;
            si = sg;
          }
          break;
        }

        // ---- General step: one window (Alg. 1 lines 16-27). ----
        // Left boundary: adjacent to the previous window while a tuple is
        // valid, else the smallest in-group pending start.
        TimePoint win_ts;
        if (rv || sv) {
          win_ts = prev_te;
        } else {
          const TimePoint a = pr ? r[ri].t.start : kInf;
          const TimePoint b = ps ? s[si].t.start : kInf;
          win_ts = a < b ? a : b;
        }
        // Load tuples starting exactly at the left boundary (at most one
        // per side: duplicate-freeness). pr/ps already encode the fact
        // match.
        if (pr && r[ri].t.start == win_ts) {
          rv_start = r[ri].t.start;
          rv_end = r[ri].t.end;
          rv_lin = r[ri].lineage;
          rv_fact = f;
          rv = true;
          r_loaded = true;
          ++ri;
        }
        if (ps && s[si].t.start == win_ts) {
          sv_start = s[si].t.start;
          sv_end = s[si].t.end;
          sv_lin = s[si].lineage;
          sv_fact = f;
          sv = true;
          s_loaded = true;
          ++si;
        }
        // Right boundary: branch-free 4-way min over the next in-group
        // starts and the valid ends (∞-padded ternaries → cmov, no
        // data-dependent branches).
        const TimePoint c0 = ri < rg ? r[ri].t.start : kInf;
        const TimePoint c1 = si < sg ? s[si].t.start : kInf;
        const TimePoint c2 = rv ? rv_end : kInf;
        const TimePoint c3 = sv ? sv_end : kInf;
        const TimePoint m0 = c0 < c1 ? c0 : c1;
        const TimePoint m1 = c2 < c3 ? c2 : c3;
        const TimePoint win_te = m0 < m1 ? m0 : m1;
        assert(win_te != kInf && "window must be bounded by a valid tuple");
        assert(win_te > win_ts && "windows advance strictly");

        // Emit through the per-operation λ-filter (Algorithms 2-4).
        if constexpr (kOp == SetOpKind::kIntersect) {
          if (rv && sv) {
            w.fact = f;
            w.t = Interval(win_ts, win_te);
            w.lr = rv_lin;
            w.ls = sv_lin;
            emit(w);
          }
        } else if constexpr (kOp == SetOpKind::kUnion) {
          w.fact = f;
          w.t = Interval(win_ts, win_te);
          w.lr = rv ? rv_lin : kNullLineage;
          w.ls = sv ? sv_lin : kNullLineage;
          emit(w);
        } else {
          if (rv) {
            w.fact = f;
            w.t = Interval(win_ts, win_te);
            w.lr = rv_lin;
            w.ls = sv ? sv_lin : kNullLineage;
            emit(w);
          }
        }

        // Expire tuples ending exactly at the right boundary.
        rv = rv && rv_end != win_te;
        sv = sv && sv_end != win_te;
        prev_te = win_te;
        ++windows;
      }
    }

    // ---- Drain point: write the status back for Checkpoint(). ----
    ri_ = ri;
    si_ = si;
    r_valid_ = rv;
    s_valid_ = sv;
    if (r_loaded) {
      r_valid_tuple_ = TpTuple{rv_fact, Interval(rv_start, rv_end), rv_lin};
    }
    if (s_loaded) {
      s_valid_tuple_ = TpTuple{sv_fact, Interval(sv_start, sv_end), sv_lin};
    }
    have_fact_ = have_fact;
    curr_fact_ = f;
    prev_win_te_ = prev_te;
    windows_produced_ = windows;
  }

  TupleSpan r_;
  TupleSpan s_;
  // Status members mirror LineageAwareWindowAdvancer field-for-field so
  // checkpoints are interchangeable between the kernels.
  std::size_t ri_ = 0;
  std::size_t si_ = 0;
  bool r_valid_ = false;
  bool s_valid_ = false;
  TpTuple r_valid_tuple_{};
  TpTuple s_valid_tuple_{};
  bool have_fact_ = false;
  FactId curr_fact_ = kInvalidFact;
  TimePoint prev_win_te_ = -1;
  std::size_t windows_produced_ = 0;
};

}  // namespace tpset

#endif  // TPSET_LAWA_COLUMNAR_ADVANCER_H_
