#ifndef PROBE_ZORDER_ZVALUE_H_
#define PROBE_ZORDER_ZVALUE_H_

#include <cassert>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/bits.h"

/// \file
/// The `element` object class of Section 4 of the paper.
///
/// A z value is a variable-length bitstring naming a region of the grid
/// produced by recursive alternating binary splits (Section 3.1). The only
/// possible relationships between two z values are *containment* (one is a
/// prefix of the other) and *precedence* in z order (lexicographic order of
/// the bitstrings) — overlap other than containment cannot occur
/// (Section 3.2). Those two predicates, plus shuffle/unshuffle/decompose,
/// are the entire interface the paper requires of a DBMS.

namespace probe::zorder {

/// A z value: a bitstring of up to 64 significant bits.
///
/// Representation: the bits are stored *left-justified* in a 64-bit word
/// (bit 0 of the string is the most significant bit of the word) with all
/// unused low-order bits zero. Under that invariant, lexicographic order of
/// bitstrings is exactly (word, length) order: differing words compare as
/// integers, and when the words are equal the shorter string is a proper
/// prefix and precedes. This makes z-order comparison a single integer
/// compare, which is the paper's point about reusing existing sort
/// utilities and B-trees.
class ZValue {
 public:
  /// Maximum number of significant bits a ZValue can carry.
  static constexpr int kMaxBits = 64;

  /// The empty bitstring: the whole space.
  constexpr ZValue() : bits_(0), length_(0) {}

  /// Builds a z value from a left-justified word. Bits past `length` must
  /// be zero; they are masked off defensively.
  static ZValue FromRaw(uint64_t left_justified_bits, int length) {
    assert(length >= 0 && length <= kMaxBits);
    return ZValue(left_justified_bits & util::HighMask(length), length);
  }

  /// Builds a z value of `length` bits from a right-justified integer whose
  /// low `length` bits are the bitstring (e.g. FromInteger(0b001, 3)).
  static ZValue FromInteger(uint64_t value, int length);

  /// Parses a string of '0'/'1' characters; nullopt on any other character
  /// or on length > kMaxBits.
  static std::optional<ZValue> Parse(std::string_view text);

  /// Number of significant bits.
  int length() const { return length_; }

  /// True for the empty bitstring (the whole space).
  bool IsEmpty() const { return length_ == 0; }

  /// Left-justified bit word.
  uint64_t raw() const { return bits_; }

  /// The bitstring interpreted as a right-justified integer.
  uint64_t ToInteger() const {
    return length_ == 0 ? 0 : bits_ >> (kMaxBits - length_);
  }

  /// Bit at position `i` (0 = first/most significant). Requires
  /// 0 <= i < length().
  int BitAt(int i) const {
    assert(i >= 0 && i < length_);
    return static_cast<int>((bits_ >> (kMaxBits - 1 - i)) & 1);
  }

  /// This z value with `bit` (0 or 1) appended. Requires length() < kMaxBits.
  ZValue Child(int bit) const {
    assert(length_ < kMaxBits);
    assert(bit == 0 || bit == 1);
    uint64_t bits = bits_;
    if (bit) bits |= 1ULL << (kMaxBits - 1 - length_);
    return ZValue(bits, length_ + 1);
  }

  /// This z value with the last bit removed. Requires length() > 0.
  ZValue Parent() const;

  /// The first `new_length` bits. Requires 0 <= new_length <= length().
  ZValue Prefix(int new_length) const;

  /// Containment test of Section 4: e1 contains e2 iff z(e1) is a prefix of
  /// z(e2). Every z value contains itself.
  bool Contains(const ZValue& other) const;

  /// The smallest full-resolution z value inside this region: the bitstring
  /// padded with 0s to `total_bits`. This is `zlo` of the range-search
  /// algorithm (Section 3.3). Requires length() <= total_bits <= 64.
  uint64_t RangeLo(int total_bits) const {
    assert(total_bits >= length_ && total_bits <= kMaxBits);
    // length_ == 0 on a 64-bit grid would shift by 64; the root's range
    // starts at 0 regardless.
    if (length_ == 0) return 0;
    return ToInteger() << (total_bits - length_);
  }

  /// The largest full-resolution z value inside this region (padding
  /// with 1s): `zhi` of Section 3.3.
  uint64_t RangeHi(int total_bits) const {
    return RangeLo(total_bits) | util::LowMask(total_bits - length_);
  }

  /// Renders as a string of '0'/'1', e.g. "001".
  std::string ToString() const;

  /// Lexicographic (z-order) comparison; `precedes` of Section 4.
  friend std::strong_ordering operator<=>(const ZValue& a, const ZValue& b) {
    if (a.bits_ != b.bits_) return a.bits_ <=> b.bits_;
    return a.length_ <=> b.length_;
  }
  friend bool operator==(const ZValue& a, const ZValue& b) = default;

 private:
  constexpr ZValue(uint64_t bits, int length)
      : bits_(bits), length_(static_cast<uint8_t>(length)) {}

  uint64_t bits_;
  uint8_t length_;
};

}  // namespace probe::zorder

#endif  // PROBE_ZORDER_ZVALUE_H_
