// Bounded ring of fixed-width records: the one torn-read protocol under the
// flight recorder's metric history and slow-execution log and under the
// event log. DESIGN.md ("Flight recorder") has the full argument.
//
// Each of the `capacity` slots is a stamp plus `words` atomic words. The
// stamp is Lamport's version number ("Concurrent reading and writing", CACM
// 1977): 0 never written, odd being written, 2*seq record `seq` published.
//  * Publish claims the next seq with one fetch_add, takes the slot by a
//    bounded CAS of its stamp from an older even value to odd, stores the
//    words and releases the stamp as 2*seq. It drops the record (returns
//    false) only when a lapping writer holds the slot past the bounded
//    tries or already published a newer record there, so a single writer,
//    or writers serialized by a lock, never drop.
//  * Read walks the newest <= max seqs, oldest first, copies each slot into
//    caller scratch and keeps the record only if the stamp read 2*seq both
//    before and after the copy: a record being written or already lapped
//    is skipped, never returned torn and never retried.
// Words are stored with release and loaded with acquire order, the
// fence-free seqlock of Boehm's "Can seqlocks get along with programming
// language memory models?" (MSPC 2012): a copy that read any word of a
// later writer reads that writer's claim in its closing stamp load. On
// x86-64 these are the plain moves of relaxed order, and ThreadSanitizer
// models them (it does not model standalone fences). Nothing is allocated
// after construction and no lock is taken, so a crash handler can read.
#ifndef TPSET_OBS_RING_H_
#define TPSET_OBS_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>

namespace tpset::obs {

class StampedRing {
 public:
  /// `capacity` slots of `words` words each; both at least 1.
  StampedRing(std::size_t capacity, std::size_t words)
      : capacity_(capacity),
        words_(words),
        cells_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity *
                                                              (words + 1))) {}
  StampedRing(const StampedRing&) = delete;
  StampedRing& operator=(const StampedRing&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t words() const { return words_; }

  /// Seqs claimed so far: published, in-flight and dropped records.
  std::uint64_t claimed() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Publishes the words()*8 bytes at `record` as the next seq. False when
  /// the record was dropped (see the file comment).
  bool Publish(const void* record) {
    const std::uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::atomic<std::uint64_t>* slot = Slot(seq);
    std::uint64_t stamp = slot[0].load(std::memory_order_relaxed);
    bool owned = false;
    for (int tries = 0; !owned && stamp < 2 * seq && tries < kClaimTries;
         ++tries) {
      if (stamp % 2 == 1) {
        stamp = slot[0].load(std::memory_order_relaxed);  // writer mid-copy
      } else {  // acquire: the previous record's words precede ours
        owned = slot[0].compare_exchange_weak(stamp, 2 * seq - 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
      }
    }
    if (!owned) return false;
    const auto* bytes = static_cast<const unsigned char*>(record);
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t word;
      std::memcpy(&word, bytes + 8 * i, 8);
      slot[1 + i].store(word, std::memory_order_release);
    }
    slot[0].store(2 * seq, std::memory_order_release);
    return true;
  }

  /// Visits the newest <= `max` records, oldest first: copies each into
  /// `scratch` (words()*8 bytes) and calls visit(seq) while the copy is
  /// there.
  template <typename Visit>
  void Read(std::size_t max, void* scratch, Visit&& visit) const {
    const std::uint64_t newest = claimed();
    const std::uint64_t n =
        std::min<std::uint64_t>({newest, max, capacity_});
    auto* out = static_cast<unsigned char*>(scratch);
    for (std::uint64_t seq = newest - n + 1; seq <= newest; ++seq) {
      const std::atomic<std::uint64_t>* slot = Slot(seq);
      if (slot[0].load(std::memory_order_acquire) != 2 * seq) continue;
      for (std::size_t i = 0; i < words_; ++i) {
        const std::uint64_t word = slot[1 + i].load(std::memory_order_acquire);
        std::memcpy(out + 8 * i, &word, 8);
      }
      if (slot[0].load(std::memory_order_relaxed) == 2 * seq) visit(seq);
    }
  }

 private:
  static constexpr int kClaimTries = 64;

  /// The slot for `seq`: its stamp, then its words.
  std::atomic<std::uint64_t>* Slot(std::uint64_t seq) const {
    return cells_.get() + (seq - 1) % capacity_ * (words_ + 1);
  }

  const std::size_t capacity_;
  const std::size_t words_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::atomic<std::uint64_t> next_seq_{0};
};

}  // namespace tpset::obs

#endif  // TPSET_OBS_RING_H_
