#ifndef STREAMLAKE_CODEC_KEY_IDS_H_
#define STREAMLAKE_CODEC_KEY_IDS_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace streamlake::codec {

/// The bytes of a 1- to 8-byte string as one word, without a variable-size
/// copy: the first and last 4 bytes (overlapping) of a 4- to 8-byte string,
/// the first, middle and last byte of a shorter one. Two strings of one
/// length have the same word exactly when they are equal.
inline uint64_t ShortWord(const char* p, size_t n) {
  if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return (uint64_t{hi} << 32) | lo;
  }
  return uint64_t{static_cast<uint8_t>(p[0])} |
         uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
         uint64_t{static_cast<uint8_t>(p[n - 1])} << 16;
}

/// A hash of `key` for KeyIds: word-at-a-time over two 8-byte lanes, so a
/// 1 KiB string costs about 64 multiplies, not 1024 byte steps. Only the
/// layout of a KeyIds table depends on it; it is never persisted.
inline uint64_t HashKey(std::string_view key) {
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  const auto step = [](uint64_t h, uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  const char* p = key.data();
  size_t n = key.size();
  uint64_t a = 0x243F6A8885A308D3ULL ^ n;
  uint64_t b = 0x13198A2E03707344ULL;
  uint64_t word;
  for (; n > 16; p += 16, n -= 16) {
    std::memcpy(&word, p, 8);
    a = step(a, word);
    std::memcpy(&word, p + 8, 8);
    b = step(b, word);
  }
  if (n > 8) {
    std::memcpy(&word, p, 8);
    a = step(a, word);
    p += n - 8;  // the last 8 bytes, overlapping
    n = 8;
  }
  if (n > 0) b = step(b, ShortWord(p, n));
  return step(a, b + (b >> 29));
}

/// Byte equality with no call for keys of up to 8 bytes.
inline bool SameKey(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  if (a.size() > 8) return std::memcmp(a.data(), b.data(), a.size()) == 0;
  return a.empty() || ShortWord(a.data(), a.size()) ==
                          ShortWord(b.data(), b.size());
}
template <typename Key>
bool SameKey(Key a, Key b) {
  return a == b;
}

template <typename Int>
  requires std::is_integral_v<Int>
uint64_t HashKey(Int key) {
  uint64_t h = static_cast<uint64_t>(key);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;  // splitmix64 finalizer
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// Numbers the distinct keys of a stream in first-insertion order: a flat
/// open-addressing table (linear probing, power-of-two slots, at most half
/// full) over the keys in id order. Ids depend only on the insertion order,
/// never on the hash. `Key` is an integer or a std::string_view whose bytes
/// outlive the table.
template <typename Key>
class KeyIds {
 public:
  /// Room for `expected` keys before the first rehash.
  explicit KeyIds(size_t expected = 0) {
    size_t slots = 16;
    while (slots < expected * 2) slots *= 2;
    slots_.resize(slots);
    keys_.reserve(expected);
    hashes_.reserve(expected);
  }

  /// The id of `key`: a new one, size() before the call, when unseen.
  uint32_t Insert(Key key) {
    if ((keys_.size() + 1) * 2 > slots_.size()) Grow();
    const uint64_t hash = HashKey(key);
    const uint32_t tag = static_cast<uint32_t>(hash);
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>(hash >> 32) & mask;
    for (; slots_[s].id_plus_one != 0; s = (s + 1) & mask) {
      if (slots_[s].tag == tag &&
          SameKey(keys_[slots_[s].id_plus_one - 1], key)) {
        return slots_[s].id_plus_one - 1;
      }
    }
    const uint32_t id = static_cast<uint32_t>(keys_.size());
    slots_[s] = Slot{id + 1, tag};
    keys_.push_back(key);
    hashes_.push_back(hash);
    return id;
  }

  size_t size() const { return keys_.size(); }
  /// The keys in id order: first appearance.
  const std::vector<Key>& keys() const { return keys_; }

 private:
  struct Slot {
    uint32_t id_plus_one = 0;  // 0: empty
    uint32_t tag = 0;          // low hash bits, checked before the key
  };

  void Grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t s = static_cast<size_t>(hashes_[id] >> 32) & mask;
      while (slots_[s].id_plus_one != 0) s = (s + 1) & mask;
      slots_[s] = Slot{id + 1, static_cast<uint32_t>(hashes_[id])};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Key> keys_;
  std::vector<uint64_t> hashes_;  // by id, for Grow
};

}  // namespace streamlake::codec

#endif  // STREAMLAKE_CODEC_KEY_IDS_H_
