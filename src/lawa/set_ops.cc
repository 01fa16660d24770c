#include "lawa/set_ops.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <memory>

#include "lawa/columnar_advancer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "relation/validate.h"

namespace tpset {

namespace {

// Stable LSD radix sort by the (fact, start, end) key using 16-bit counting
// passes — the §VI-B "counting-based sorting" variant, linear in input size.
//
// Keys are rebased to (value − observed minimum): that maps negative time
// points into unsigned space *and* shrinks every key to the range the data
// actually spans, so each component runs only the passes its range needs
// (fact ids and time points rarely need more than one or two 16-bit digits;
// a constant component sorts in zero passes — stability keeps the order).
// The prefix-sum table is allocated once and reused across passes.
void RadixSortTuples(std::vector<TpTuple>* tuples) {
  const std::size_t n = tuples->size();
  if (n < 2) return;
  std::vector<TpTuple> scratch(n);

  constexpr int kDigitBits = 16;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::size_t kMask = kBuckets - 1;
  std::vector<std::size_t> count(kBuckets + 1);

  auto pass = [&](auto key_of, int shift) {
    std::fill(count.begin(), count.end(), std::size_t{0});
    for (const TpTuple& t : *tuples) {
      ++count[((key_of(t) >> shift) & kMask) + 1];
    }
    for (std::size_t b = 1; b <= kBuckets; ++b) count[b] += count[b - 1];
    for (const TpTuple& t : *tuples) {
      scratch[count[(key_of(t) >> shift) & kMask]++] = t;
    }
    tuples->swap(scratch);
  };

  // One scan for the observed extrema of every key component.
  TimePoint min_start = (*tuples)[0].t.start, max_start = min_start;
  TimePoint min_end = (*tuples)[0].t.end, max_end = min_end;
  FactId max_fact = (*tuples)[0].fact;
  for (const TpTuple& t : *tuples) {
    min_start = std::min(min_start, t.t.start);
    max_start = std::max(max_start, t.t.start);
    min_end = std::min(min_end, t.t.end);
    max_end = std::max(max_end, t.t.end);
    max_fact = std::max(max_fact, t.fact);
  }

  // Digits needed to cover [0, range]; 0 when the component is constant.
  auto digits_for = [](std::uint64_t range) {
    int d = 0;
    while (range != 0) {
      ++d;
      range >>= kDigitBits;
    }
    return d;
  };
  // Unsigned subtraction is exact here: value >= min, and the true range
  // always fits std::uint64_t.
  const std::uint64_t end_range = static_cast<std::uint64_t>(max_end) -
                                  static_cast<std::uint64_t>(min_end);
  const std::uint64_t start_range = static_cast<std::uint64_t>(max_start) -
                                    static_cast<std::uint64_t>(min_start);

  auto end_key = [min_end](const TpTuple& t) {
    return static_cast<std::uint64_t>(t.t.end) -
           static_cast<std::uint64_t>(min_end);
  };
  auto start_key = [min_start](const TpTuple& t) {
    return static_cast<std::uint64_t>(t.t.start) -
           static_cast<std::uint64_t>(min_start);
  };
  auto fact_key = [](const TpTuple& t) { return std::uint64_t{t.fact}; };

  // Least-significant component first; within each, least-significant digit
  // first (LSD). Stability makes the skipped high digits (and whole skipped
  // components) correct.
  const int end_digits = digits_for(end_range);
  for (int d = 0; d < end_digits; ++d) pass(end_key, d * kDigitBits);
  const int start_digits = digits_for(start_range);
  for (int d = 0; d < start_digits; ++d) pass(start_key, d * kDigitBits);
  const int fact_digits = digits_for(std::uint64_t{max_fact});
  for (int d = 0; d < fact_digits; ++d) pass(fact_key, d * kDigitBits);
}

using Clock = std::chrono::steady_clock;

// LawaSetOp's block body (see set_ops.h): Add takes each surviving window
// from the sweep, and every `capacity` of them — and the rest at Finish —
// are interned as one ConcatBlock and appended to the output. The three
// steps are timed at the block boundaries, three clock reads a block.
class BlockBody {
 public:
  /// `capacity` is kLawaBlockWindows, or less for an operation with fewer
  /// windows than that.
  BlockBody(SetOpKind op, LineageManager& mgr, std::vector<TpTuple>* out,
            std::size_t capacity)
      : op_(op),
        mgr_(mgr),
        out_(out),
        capacity_(capacity),
        tuples_(new TpTuple[capacity]),
        pairs_(new LineagePair[capacity]),
        ids_(new LineageId[capacity]),
        mark_(Clock::now()) {}

  void Add(const LineageAwareWindow& w) {
    tuples_[n_] = {w.fact, w.t, kNullLineage};
    pairs_[n_] = {w.lr, w.ls};
    if (++n_ == capacity_) Flush();
  }

  // Drains the last block, records the intern wall and fills `span`.
  void Finish(obs::Span* span) {
    Flush();
    NoteConcatUsec(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(intern_)
            .count()));
    if (span == nullptr) return;
    span->AddChild("sweep")->wall_ms = Ms(sweep_);
    span->AddChild("intern")->wall_ms = Ms(intern_);
    span->AddChild("materialize")->wall_ms = Ms(materialize_);
  }

 private:
  static double Ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  }

  void Flush() {
    const Clock::time_point swept = Clock::now();
    sweep_ += swept - mark_;
    mgr_.ConcatBlock(op_, {pairs_.get(), n_}, /*pool=*/nullptr,
                     {ids_.get(), n_});
    const Clock::time_point interned = Clock::now();
    intern_ += interned - swept;
    for (std::size_t i = 0; i < n_; ++i) {
      TpTuple t = tuples_[i];
      t.lineage = ids_[i];
      out_->push_back(t);
    }
    n_ = 0;
    mark_ = Clock::now();
    materialize_ += mark_ - interned;
  }

  const SetOpKind op_;
  LineageManager& mgr_;
  std::vector<TpTuple>* const out_;
  const std::size_t capacity_;
  std::unique_ptr<TpTuple[]> tuples_;
  std::unique_ptr<LineagePair[]> pairs_;
  std::unique_ptr<LineageId[]> ids_;
  std::size_t n_ = 0;
  Clock::time_point mark_;  // the end of the last step timed
  Clock::duration sweep_{}, intern_{}, materialize_{};
};

}  // namespace

std::size_t WindowBound(TupleSpan r, TupleSpan s, bool fact_sorted) {
  std::size_t distinct = 0;
  if (fact_sorted) {
    std::size_t i = 0, j = 0;
    while (i < r.size || j < s.size) {
      const FactId f = j == s.size   ? r.data[i].fact
                       : i == r.size ? s.data[j].fact
                                     : std::min(r.data[i].fact, s.data[j].fact);
      if (i < r.size && r.data[i].fact == f) i = FactRunEnd(r, i);
      if (j < s.size && s.data[j].fact == f) j = FactRunEnd(s, j);
      ++distinct;
    }
  } else {
    // Consecutive equal facts collapse while collecting.
    std::vector<FactId> facts;
    for (TupleSpan span : {r, s}) {
      for (const TpTuple& t : span) {
        if (facts.empty() || facts.back() != t.fact) facts.push_back(t.fact);
      }
    }
    std::sort(facts.begin(), facts.end());
    distinct = static_cast<std::size_t>(
        std::unique(facts.begin(), facts.end()) - facts.begin());
  }
  return 2 * r.size + 2 * s.size - distinct;
}

std::size_t WindowBound(const TpRelation& r, const TpRelation& s) {
  return WindowBound({r.tuples().data(), r.size()},
                     {s.tuples().data(), s.size()},
                     r.known_sorted() && s.known_sorted());
}

void SortTuples(std::vector<TpTuple>* tuples, SortMode mode) {
  switch (mode) {
    case SortMode::kComparison:
      std::sort(tuples->begin(), tuples->end(), FactTimeOrder());
      break;
    case SortMode::kCounting:
      RadixSortTuples(tuples);
      break;
  }
}

void NoteConcatUsec(std::uint64_t usec) {
  static obs::Histogram& concat = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_lineage_concat_usec",
      "wall microseconds one set operation spent interning its windows' "
      "lineage (sequential: its blocks summed; parallel: the apply turn's "
      "bulk intern)");
  concat.Observe(usec);
}

TpRelation LawaSetOp(SetOpKind op, const TpRelation& r, const TpRelation& s,
                     SortMode sort_mode, LawaStats* stats, obs::Span* span) {
  assert(ValidateSetOpInputs(r, s).ok());
  LineageManager& mgr = r.context()->lineage();
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + SetOpName(op) + " " + s.name() + ")");

  // Step 1 of Fig. 5: sort both inputs by (F, Ts). An input carrying the
  // sortedness witness (catalog relations, set-op outputs) is swept in
  // place — no copy, no sort.
  std::size_t sort_skipped = 0;
  std::vector<TpTuple> rs, ss;
  const std::vector<TpTuple>* rv = &r.tuples();
  const std::vector<TpTuple>* sv = &s.tuples();
  if (r.known_sorted()) {
    ++sort_skipped;
  } else {
    rs = r.tuples();
    SortTuples(&rs, sort_mode);
    rv = &rs;
  }
  if (s.known_sorted()) {
    ++sort_skipped;
  } else {
    ss = s.tuples();
    SortTuples(&ss, sort_mode);
    sv = &ss;
  }

  // Steps 2-4, a block at a time: advance windows and filter on (λr, λs)
  // into the block, concatenate its lineages, append its outputs. The drain
  // conditions and λ-filters live in ColumnarAdvancer::Sweep, the kernel
  // every engine sweeps with.
  const TupleSpan rspan{rv->data(), rv->size()};
  const TupleSpan sspan{sv->data(), sv->size()};
  const std::size_t bound = WindowBound(rspan, sspan, /*fact_sorted=*/true);
  std::vector<TpTuple>& tuples = out.mutable_tuples();
  tuples.reserve(bound);
  BlockBody body(op, mgr, &tuples,
                 std::clamp<std::size_t>(bound, 1, kLawaBlockWindows));
  ColumnarAdvancer adv(rspan, sspan);
  adv.Sweep(op, [&body](const LineageAwareWindow& w) { body.Add(w); });
  body.Finish(span);
  // Windows come out in fact order with increasing starts per fact.
  out.MarkSortedUnchecked();
  if (stats != nullptr) {
    stats->windows_produced = adv.windows_produced();
    stats->output_tuples = out.size();
    stats->sort_skipped = sort_skipped;
  }
  return out;
}

Result<TpRelation> LawaSetOpChecked(SetOpKind op, const TpRelation& r,
                                    const TpRelation& s, SortMode sort_mode) {
  TPSET_RETURN_NOT_OK(ValidateSetOpInputs(r, s));
  return LawaSetOp(op, r, s, sort_mode);
}

}  // namespace tpset
