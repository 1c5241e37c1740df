#include "zorder/zvalue.h"

#include <cassert>

#include "util/bits.h"

namespace probe::zorder {

ZValue ZValue::FromInteger(uint64_t value, int length) {
  assert(length >= 0 && length <= kMaxBits);
  const uint64_t raw = length == 0 ? 0 : value << (kMaxBits - length);
  return ZValue(raw & util::HighMask(length), length);
}

std::optional<ZValue> ZValue::Parse(std::string_view text) {
  if (text.size() > static_cast<size_t>(kMaxBits)) return std::nullopt;
  uint64_t bits = 0;
  int length = 0;
  for (char c : text) {
    if (c != '0' && c != '1') return std::nullopt;
    if (c == '1') bits |= 1ULL << (kMaxBits - 1 - length);
    ++length;
  }
  return ZValue(bits, length);
}

ZValue ZValue::Parent() const {
  assert(length_ > 0);
  const int new_length = length_ - 1;
  return ZValue(bits_ & util::HighMask(new_length), new_length);
}

ZValue ZValue::Prefix(int new_length) const {
  assert(new_length >= 0 && new_length <= length_);
  return ZValue(bits_ & util::HighMask(new_length), new_length);
}

bool ZValue::Contains(const ZValue& other) const {
  if (length_ > other.length_) return false;
  return (other.bits_ & util::HighMask(length_)) == bits_;
}

std::string ZValue::ToString() const {
  std::string out;
  out.reserve(length_);
  for (int i = 0; i < length_; ++i) out.push_back(BitAt(i) ? '1' : '0');
  return out;
}

}  // namespace probe::zorder
