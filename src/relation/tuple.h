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
