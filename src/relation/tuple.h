// The TP tuple: (F, λ, T) with the probability attribute factored out.
//
// Paper schema: RTp(F, λ, T, p). In this implementation the probability p of
// a *base* tuple is stored once in the VarTable (it is the marginal of the
// tuple's Boolean variable), and the probability of a *derived* tuple is a
// valuation of its lineage — so the in-memory tuple needs only the interned
// fact, the lineage id and the interval.
//
// Layout: the two 4-byte ids first, then the two 8-byte endpoints — 24
// bytes with no padding, trivially copyable (both asserted below). Every
// tuple array in the process (catalog generations, set-operation outputs,
// storage runs, snapshots) is a dense array of these records. Both LAWA
// sweep kernels read all four fields of every tuple they pass straight from
// the sorted array (a TupleSpan), so a dense 24-byte row touches exactly
// the bytes separate start/end/fact/lineage columns would, and no column
// projection is built. See DESIGN.md, "Columnar sweep kernel".
#ifndef TPSET_RELATION_TUPLE_H_
#define TPSET_RELATION_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "common/interval.h"
#include "common/types.h"

namespace tpset {

/// One tuple of a TP relation.
struct TpTuple {
  FactId fact = kInvalidFact;
  LineageId lineage = kNullLineage;
  Interval t;

  constexpr TpTuple() = default;
  /// (fact, interval, lineage) — the argument order every `{f, iv, λ}`
  /// brace-initialization in the code base uses, independent of the field
  /// order above.
  constexpr TpTuple(FactId f, Interval iv, LineageId lin)
      : fact(f), lineage(lin), t(iv) {}

  friend constexpr bool operator==(const TpTuple& a, const TpTuple& b) {
    return a.fact == b.fact && a.t == b.t && a.lineage == b.lineage;
  }
};

static_assert(sizeof(TpTuple) == 24, "TpTuple must stay a 24-byte record");
static_assert(std::is_trivially_copyable_v<TpTuple>,
              "TpTuple arrays are copied and merged as plain bytes");

/// A borrowed view of a (fact, start, end)-sorted tuple array: data[0..size).
/// A plain pointer — the array's owner must outlive every span over it.
struct TupleSpan {
  const TpTuple* data = nullptr;
  std::size_t size = 0;

  bool empty() const { return size == 0; }
  const TpTuple* begin() const { return data; }
  const TpTuple* end() const { return data + size; }

  /// The sub-span [from, to) — e.g. a fact-range morsel's share.
  TupleSpan Slice(std::size_t from, std::size_t to) const {
    return {data + from, to - from};
  }
};

/// The end of the fact run that starts at `i` of a fact-sorted span:
/// galloping, so a run of k tuples costs O(log k) reads, all near `i`.
inline std::size_t FactRunEnd(TupleSpan t, std::size_t i) {
  const FactId f = t.data[i].fact;
  std::size_t known = i;  // t.data[known].fact == f
  std::size_t step = 1;
  while (known + step < t.size && t.data[known + step].fact == f) {
    known += step;
    step *= 2;
  }
  const TpTuple* end = std::upper_bound(
      t.data + known + 1, t.data + std::min(known + step, t.size), f,
      [](FactId v, const TpTuple& x) { return v < x.fact; });
  return static_cast<std::size_t>(end - t.data);
}

/// The fused sweep kernel's input span under its former name, which the
/// end-to-end benchmark's replay still uses.
using ColumnSpan = TupleSpan;

/// The sort order required by LAWA: by fact, then by interval start.
/// (End point breaks ties deterministically.)
struct FactTimeOrder {
  constexpr bool operator()(const TpTuple& a, const TpTuple& b) const {
    if (a.fact != b.fact) return a.fact < b.fact;
    if (a.t.start != b.t.start) return a.t.start < b.t.start;
    return a.t.end < b.t.end;
  }
};

}  // namespace tpset

#endif  // TPSET_RELATION_TUPLE_H_
