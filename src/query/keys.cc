#include "query/keys.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.h"

namespace streamlake::query {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kCanonicalNan = 0x7FF8000000000000ULL;

}  // namespace

Cell Cell::Of(const format::Value& v) {
  Cell c;
  c.type = format::TypeOf(v);
  switch (c.type) {
    case format::DataType::kBool:
      c.i = std::get<bool>(v) ? 1 : 0;
      break;
    case format::DataType::kInt64:
      c.i = std::get<int64_t>(v);
      break;
    case format::DataType::kDouble:
      c.d = std::get<double>(v);
      break;
    case format::DataType::kString:
      c.s = std::get<std::string>(v);
      break;
    case format::DataType::kNull:
      break;
  }
  return c;
}

double Cell::ToDouble() const {
  switch (type) {
    case format::DataType::kInt64:
      return static_cast<double>(i);
    case format::DataType::kDouble:
      return d;
    case format::DataType::kBool:
      return i != 0 ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

format::Value Cell::ToValue() const {
  switch (type) {
    case format::DataType::kBool:
      return format::Value(i != 0);
    case format::DataType::kInt64:
      return format::Value(i);
    case format::DataType::kDouble:
      return format::Value(d);
    case format::DataType::kString:
      return format::Value(std::string(s));
    case format::DataType::kNull:
      break;
  }
  return format::Value(std::monostate{});
}

int Cell::Compare(const format::Value& v) const {
  switch (type) {
    case format::DataType::kBool:
      if (const bool* y = std::get_if<bool>(&v)) {
        return static_cast<int>(i) - static_cast<int>(*y);
      }
      break;
    case format::DataType::kInt64:
      if (const int64_t* y = std::get_if<int64_t>(&v)) {
        return i < *y ? -1 : (i > *y ? 1 : 0);
      }
      break;
    case format::DataType::kDouble:
      if (const double* y = std::get_if<double>(&v)) {
        return format::CompareDoubleKeys(d, *y);
      }
      break;
    case format::DataType::kString:
      if (const std::string* y = std::get_if<std::string>(&v)) {
        return s.compare(*y);
      }
      break;
    case format::DataType::kNull:
      break;
  }
  return format::CompareKeys(ToValue(), v);
}

void KeyEncoder::AddWord(char tag, uint64_t bits) {
  char buf[9];
  buf[0] = tag;
  for (int i = 0; i < 8; ++i) {
    buf[1 + i] = static_cast<char>(bits >> (56 - 8 * i));
  }
  bytes_.append(buf, sizeof(buf));
}

void KeyEncoder::Add(const Cell& cell) {
  switch (cell.type) {
    case format::DataType::kBool:
      bytes_.push_back('\x01');
      bytes_.push_back(cell.i != 0 ? '\x01' : '\x00');
      return;
    case format::DataType::kInt64:
      AddWord('\x02', static_cast<uint64_t>(cell.i) ^ kSignBit);
      return;
    case format::DataType::kDouble: {
      // Every NaN is one positive quiet NaN, and -0.0 is the key 0.0.
      const uint64_t bits = std::isnan(cell.d)
                                ? kCanonicalNan
                                : std::bit_cast<uint64_t>(cell.d + 0.0);
      AddWord('\x03', (bits & kSignBit) != 0 ? ~bits : bits ^ kSignBit);
      return;
    }
    case format::DataType::kString: {
      bytes_.push_back('\x04');
      const std::string_view v = cell.s;
      size_t from = 0;
      for (size_t zero = v.find('\0'); zero != std::string_view::npos;
           zero = v.find('\0', from)) {
        bytes_.append(v.data() + from, zero - from);
        bytes_.append("\x00\xff", 2);
        from = zero + 1;
      }
      bytes_.append(v.data() + from, v.size() - from);
      bytes_.append("\x00\x00", 2);
      return;
    }
    case format::DataType::kNull:
      bytes_.push_back('\x00');
      return;
  }
}

uint64_t KeyTable::HashOf(std::string_view key) { return Hash64(key); }

size_t KeyTable::Probe(std::string_view key, uint64_t hash) const {
  const uint32_t tag = static_cast<uint32_t>(hash);
  size_t s = SlotOf(hash);
  for (; slots_[s].id_plus_one != 0; s = (s + 1) & (slots_.size() - 1)) {
    if (slots_[s].tag == tag && this->key(slots_[s].id_plus_one - 1) == key) {
      break;
    }
  }
  return s;
}

std::pair<uint32_t, bool> KeyTable::Insert(std::string_view key,
                                           uint64_t hash) {
  if ((size() + 1) * 2 > slots_.size()) Grow();
  Slot& slot = slots_[Probe(key, hash)];
  if (slot.id_plus_one != 0) return {slot.id_plus_one - 1, false};
  const uint32_t id = static_cast<uint32_t>(size());
  slot = Slot{id + 1, static_cast<uint32_t>(hash)};
  arena_.append(key);
  offsets_.push_back(static_cast<uint32_t>(arena_.size()));
  hashes_.push_back(hash);
  return {id, true};
}

uint32_t KeyTable::Find(std::string_view key) const {
  if (slots_.empty()) return kNotFound;
  return slots_[Probe(key, HashOf(key))].id_plus_one - 1;  // empty: kNotFound
}

void KeyTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
  for (const Slot& slot : old) {
    if (slot.id_plus_one == 0) continue;
    size_t s = SlotOf(hashes_[slot.id_plus_one - 1]);
    while (slots_[s].id_plus_one != 0) s = (s + 1) & (slots_.size() - 1);
    slots_[s] = slot;
  }
}

void KeyTable::Reserve(size_t n) {
  while (n * 2 > slots_.size()) Grow();
}

std::vector<uint32_t> KeyTable::SortedIds() const {
  // Sort by the first 16 key bytes, zero-padded, held in two big-endian
  // words: padding keeps a key before its extensions, so only equal words
  // need the whole keys.
  struct Entry {
    uint64_t hi = 0, lo = 0;
    uint32_t id = 0;
  };
  std::vector<Entry> entries(size());
  for (uint32_t id = 0; id < entries.size(); ++id) {
    const std::string_view k = key(id);
    uint64_t words[2] = {0, 0};
    for (size_t i = 0; i < 16 && i < k.size(); ++i) {
      words[i / 8] |= uint64_t{static_cast<uint8_t>(k[i])}
                      << (56 - 8 * (i % 8));
    }
    entries[id] = Entry{words[0], words[1], id};
  }
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.hi != b.hi) return a.hi < b.hi;
              if (a.lo != b.lo) return a.lo < b.lo;
              return key(a.id) < key(b.id);
            });
  std::vector<uint32_t> ids(entries.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = entries[i].id;
  return ids;
}

}  // namespace streamlake::query
