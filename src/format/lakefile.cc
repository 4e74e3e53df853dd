#include "format/lakefile.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <type_traits>

#include "common/hash.h"
#include "common/logging.h"

namespace streamlake::format {

namespace {

constexpr char kMagic[4] = {'L', 'K', 'F', '1'};

// Stats flag bits (persisted; append-only).
constexpr uint8_t kStatsMinMax = 1;
constexpr uint8_t kStatsExtended = 2;

}  // namespace

void EncodeColumnStats(Bytes* dst, const ColumnStats& stats) {
  uint8_t flag = 0;
  if (stats.min.has_value() && stats.max.has_value()) flag |= kStatsMinMax;
  if (stats.has_extended) flag |= kStatsExtended;
  dst->push_back(flag);
  if (flag & kStatsMinMax) {
    EncodeValue(dst, *stats.min);
    EncodeValue(dst, *stats.max);
  }
  if (flag & kStatsExtended) {
    PutVarint64(dst, stats.null_count);
    PutVarint64(dst, stats.ndv);
    uint64_t bits;
    std::memcpy(&bits, &stats.avg_width, 8);
    PutFixed64(dst, bits);
  }
}

Result<ColumnStats> DecodeColumnStats(Decoder* dec) {
  ColumnStats stats;
  if (dec->Remaining() < 1) return Status::Corruption("stats flag");
  uint8_t flag = *dec->position();
  dec->Skip(1);
  if (flag > (kStatsMinMax | kStatsExtended)) {
    return Status::Corruption("stats: bad flag");
  }
  if (flag & kStatsMinMax) {
    SL_ASSIGN_OR_RETURN(Value min, DecodeValue(dec));
    SL_ASSIGN_OR_RETURN(Value max, DecodeValue(dec));
    stats.min = std::move(min);
    stats.max = std::move(max);
  }
  if (flag & kStatsExtended) {
    stats.has_extended = true;
    uint64_t bits;
    if (!dec->GetVarint(&stats.null_count) || !dec->GetVarint(&stats.ndv) ||
        !dec->GetFixed64(&bits)) {
      return Status::Corruption("stats: extended");
    }
    std::memcpy(&stats.avg_width, &bits, 8);
  }
  return stats;
}

namespace {

/// How one column type is gathered and summarized. `Stored` is the element
/// of the typed vector the codec encodes (NULL rows carry its default);
/// `Key` is how a non-NULL value is compared and counted — for strings a
/// view into the caller's row, so a file's distinct set can span its row
/// groups without copying a value.
template <typename T>
struct ColumnType {
  using Stored = T;
  using Key = T;
};
template <>
struct ColumnType<bool> {
  using Stored = uint8_t;
  using Key = uint8_t;
};
template <>
struct ColumnType<std::string> {
  using Stored = std::string;
  using Key = std::string_view;
};

// Plain-encoded width of a non-NULL value (the avg_width stat).
uint64_t Width(bool) { return 1; }
uint64_t Width(int64_t) { return 8; }
uint64_t Width(double) { return 8; }
uint64_t Width(const std::string& s) { return s.size(); }
uint64_t Width(std::monostate) { return 0; }

Value ToValue(uint8_t key) { return Value(key != 0); }  // bool keys
Value ToValue(int64_t key) { return Value(key); }
Value ToValue(double key) { return Value(key); }
Value ToValue(std::string_view key) { return Value(std::string(key)); }
Value ToValue(std::monostate key) { return Value(key); }

codec::Encoding EncodeValues(const std::vector<uint8_t>& vals, uint64_t,
                             Bytes* raw) {
  codec::EncodeBools(vals, raw);
  return codec::Encoding::kBitPack;
}
codec::Encoding EncodeValues(const std::vector<int64_t>& vals, uint64_t ndv,
                             Bytes* raw) {
  const codec::Encoding encoding = codec::ChooseInt64Encoding(vals, ndv);
  codec::EncodeInt64s(vals, encoding, raw);
  return encoding;
}
codec::Encoding EncodeValues(const std::vector<double>& vals, uint64_t,
                             Bytes* raw) {
  codec::EncodeDoubles(vals, raw);
  return codec::Encoding::kPlain;
}
codec::Encoding EncodeValues(const std::vector<std::string>& vals,
                             uint64_t ndv, Bytes* raw) {
  const codec::Encoding encoding = codec::ChooseStringEncoding(vals, ndv);
  codec::EncodeStrings(vals, encoding, raw);
  return encoding;
}
codec::Encoding EncodeValues(const std::vector<std::monostate>&, uint64_t,
                             Bytes*) {
  return codec::Encoding::kPlain;  // a kNull field has no value stream
}

/// Stats of one column over consecutive rows: a chunk, then a whole file.
template <typename Key>
struct Summary {
  uint64_t rows = 0;
  uint64_t null_count = 0;
  uint64_t width = 0;  // summed plain-encoded width of the non-NULLs
  bool has_nan = false;
  // Over non-NULL, non-NaN values; of equal values the first wins, as in a
  // linear scan (so -0.0 and +0.0 keep their order of arrival).
  std::optional<Key> min;
  std::optional<Key> max;
  std::vector<Key> distinct;  // sorted, unique, NaN excluded

  uint64_t ndv() const { return distinct.size() + (has_nan ? 1 : 0); }

  /// Fold in the summary of the rows that follow these.
  void Merge(Summary&& next) {
    rows += next.rows;
    null_count += next.null_count;
    width += next.width;
    has_nan = has_nan || next.has_nan;
    if (next.min.has_value() && (!min.has_value() || *next.min < *min)) {
      min = next.min;
    }
    if (next.max.has_value() && (!max.has_value() || *max < *next.max)) {
      max = next.max;
    }
    if (distinct.empty()) {
      distinct = std::move(next.distinct);
    } else if (!next.distinct.empty()) {
      std::vector<Key> merged;
      merged.reserve(distinct.size() + next.distinct.size());
      std::set_union(distinct.begin(), distinct.end(), next.distinct.begin(),
                     next.distinct.end(), std::back_inserter(merged));
      distinct = std::move(merged);
    }
  }

  /// A NaN leaves min/max out: every comparison with it is false, so no
  /// range can bound it.
  ColumnStats ToStats(bool with_min_max) const {
    ColumnStats stats;
    if (with_min_max && !has_nan && min.has_value()) {
      stats.min = ToValue(*min);
      stats.max = ToValue(*max);
    }
    stats.has_extended = true;
    stats.null_count = null_count;
    stats.ndv = ndv();
    const uint64_t non_null = rows - null_count;
    stats.avg_width = non_null > 0 ? static_cast<double>(width) /
                                         static_cast<double>(non_null)
                                   : 0.0;
    return stats;
  }
};

/// One column chunk, encoded and compressed, waiting for its file offset.
struct EncodedChunk {
  codec::Encoding encoding = codec::Encoding::kPlain;
  codec::Compression compression = codec::Compression::kNone;
  uint64_t raw_size = 0;
  Bytes data;
  ColumnStats stats;
};

/// Encodes column `col` of each `per_group`-row group of `rows` into
/// `chunks`, one per group, and returns the column's file-level stats.
///
/// A chunk's raw payload is `[null_count][null bitmap iff null_count > 0]
/// [encoded values]`. One pass over the group gathers the typed vector and
/// the stats; the exact distinct count (sort + unique) also picks the
/// encoding.
template <typename T>
ColumnStats EncodeColumn(std::span<const Row* const> rows, size_t col,
                         size_t per_group, const LakeFileOptions& options,
                         std::vector<EncodedChunk>* chunks) {
  using Stored = typename ColumnType<T>::Stored;
  using Key = typename ColumnType<T>::Key;
  Summary<Key> file;
  for (size_t begin = 0; begin < rows.size(); begin += per_group) {
    const std::span<const Row* const> group =
        rows.subspan(begin, std::min(per_group, rows.size() - begin));
    Summary<Key> chunk;
    chunk.rows = group.size();
    chunk.distinct.reserve(group.size());
    std::vector<uint8_t> nulls(group.size(), 0);
    std::vector<Stored> vals;
    vals.reserve(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      const Value& cell = group[i]->fields[col];
      if (IsNull(cell)) {
        nulls[i] = 1;
        ++chunk.null_count;
        vals.emplace_back();
        continue;
      }
      const T& v = std::get<T>(cell);
      vals.push_back(static_cast<Stored>(v));
      chunk.width += Width(v);
      const Key key(v);
      if constexpr (std::is_same_v<T, double>) {
        if (std::isnan(key)) {
          chunk.has_nan = true;
          continue;
        }
      }
      if (!chunk.min.has_value() || key < *chunk.min) chunk.min = key;
      if (!chunk.max.has_value() || *chunk.max < key) chunk.max = key;
      chunk.distinct.push_back(key);
    }
    std::sort(chunk.distinct.begin(), chunk.distinct.end());
    chunk.distinct.erase(
        std::unique(chunk.distinct.begin(), chunk.distinct.end()),
        chunk.distinct.end());

    EncodedChunk out;
    Bytes raw;
    PutVarint64(&raw, chunk.null_count);
    if (chunk.null_count > 0) codec::EncodeBools(nulls, &raw);
    out.encoding = EncodeValues(vals, chunk.ndv(), &raw);
    out.raw_size = raw.size();
    out.compression = options.compression;
    out.data = codec::Compress(options.compression, ByteView(raw));
    if (out.data.size() >= raw.size()) {
      // Incompressible chunk: store raw to avoid negative savings.
      out.data = std::move(raw);
      out.compression = codec::Compression::kNone;
    }
    // Bool chunks carry no min/max in the footer.
    if (options.enable_stats) {
      out.stats = chunk.ToStats(/*with_min_max=*/!std::is_same_v<T, bool>);
    }
    chunks->push_back(std::move(out));
    file.Merge(std::move(chunk));
  }
  return file.ToStats(/*with_min_max=*/true);
}

}  // namespace

EncodedLakeFile EncodeLakeFile(const Schema& schema,
                               std::span<const Row* const> rows,
                               const LakeFileOptions& options) {
  // Column-major: each column's chunks of every group, then laid out
  // group-major as [magic][g0c0][g0c1]...[g1c0]...[footer].
  const size_t num_fields = schema.num_fields();
  const size_t per_group = std::max<size_t>(options.rows_per_group, 1);
  const size_t num_groups = (rows.size() + per_group - 1) / per_group;
  std::vector<std::vector<EncodedChunk>> chunks(num_fields);
  EncodedLakeFile out;
  out.column_stats.reserve(num_fields);
  for (size_t col = 0; col < num_fields; ++col) {
    ColumnStats stats;
    switch (schema.field(col).type) {
      case DataType::kBool:
        stats = EncodeColumn<bool>(rows, col, per_group, options,
                                   &chunks[col]);
        break;
      case DataType::kInt64:
        stats = EncodeColumn<int64_t>(rows, col, per_group, options,
                                      &chunks[col]);
        break;
      case DataType::kDouble:
        stats = EncodeColumn<double>(rows, col, per_group, options,
                                     &chunks[col]);
        break;
      case DataType::kString:
        stats = EncodeColumn<std::string>(rows, col, per_group, options,
                                          &chunks[col]);
        break;
      case DataType::kNull:  // only NULL cells validate against it
        stats = EncodeColumn<std::monostate>(rows, col, per_group, options,
                                             &chunks[col]);
        break;
    }
    out.column_stats.push_back(std::move(stats));
  }

  Bytes& file = out.bytes;
  file.insert(file.end(), kMagic, kMagic + 4);
  Bytes footer;
  schema.EncodeTo(&footer);
  PutVarint64(&footer, num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    PutVarint64(&footer, std::min(per_group, rows.size() - g * per_group));
    for (size_t col = 0; col < num_fields; ++col) {
      const EncodedChunk& chunk = chunks[col][g];
      const uint64_t offset = file.size();
      file.push_back(static_cast<uint8_t>(chunk.encoding));
      file.push_back(static_cast<uint8_t>(chunk.compression));
      PutVarint64(&file, chunk.raw_size);
      PutVarint64(&file, chunk.data.size());
      AppendBytes(&file, ByteView(chunk.data));
      PutFixed32(&file, Crc32c(ByteView(chunk.data)));
      PutVarint64(&footer, offset);
      PutVarint64(&footer, file.size() - offset);
      EncodeColumnStats(&footer, chunk.stats);
    }
  }
  AppendBytes(&file, ByteView(footer));
  PutFixed32(&file, static_cast<uint32_t>(footer.size()));
  file.insert(file.end(), kMagic, kMagic + 4);
  return out;
}

LakeFileWriter::LakeFileWriter(Schema schema, LakeFileOptions options)
    : schema_(std::move(schema)), options_(options) {}

Status LakeFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SL_RETURN_NOT_OK(schema_.ValidateRow(row));
  rows_.push_back(row);
  return Status::OK();
}

Status LakeFileWriter::AppendBatch(const std::vector<Row>& rows) {
  for (const Row& row : rows) SL_RETURN_NOT_OK(Append(row));
  return Status::OK();
}

Result<Bytes> LakeFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  std::vector<const Row*> rows;
  rows.reserve(rows_.size());
  for (const Row& row : rows_) rows.push_back(&row);
  Bytes file = EncodeLakeFile(schema_, rows, options_).bytes;
  rows_ = std::vector<Row>();
  return file;
}

Result<LakeFileReader> LakeFileReader::Open(Bytes file) {
  if (file.size() < 12 ||
      std::memcmp(file.data(), kMagic, 4) != 0 ||
      std::memcmp(file.data() + file.size() - 4, kMagic, 4) != 0) {
    return Status::Corruption("lakefile: bad magic");
  }
  uint32_t footer_size = DecodeFixed32(file.data() + file.size() - 8);
  if (footer_size + 12 > file.size()) {
    return Status::Corruption("lakefile: bad footer size");
  }
  ByteView footer(file.data() + file.size() - 8 - footer_size, footer_size);
  Decoder dec(footer);
  SL_ASSIGN_OR_RETURN(Schema schema, Schema::DecodeFrom(&dec));
  uint64_t num_groups;
  if (!dec.GetVarint(&num_groups)) {
    return Status::Corruption("lakefile: group count");
  }
  if (num_groups > footer.size()) {
    return Status::Corruption("lakefile: group count bogus");
  }
  std::vector<RowGroupMeta> groups;
  groups.reserve(num_groups);
  for (uint64_t g = 0; g < num_groups; ++g) {
    RowGroupMeta group;
    if (!dec.GetVarint(&group.num_rows)) {
      return Status::Corruption("lakefile: group rows");
    }
    // Bools pack 8 per byte; more rows than 8x the file size is corrupt.
    if (group.num_rows > file.size() * 8) {
      return Status::Corruption("lakefile: row count bogus");
    }
    for (size_t col = 0; col < schema.num_fields(); ++col) {
      ChunkMeta chunk;
      if (!dec.GetVarint(&chunk.offset) || !dec.GetVarint(&chunk.size)) {
        return Status::Corruption("lakefile: chunk meta");
      }
      if (chunk.offset + chunk.size > file.size()) {
        return Status::Corruption("lakefile: chunk out of bounds");
      }
      SL_ASSIGN_OR_RETURN(chunk.stats, DecodeColumnStats(&dec));
      group.columns.push_back(std::move(chunk));
    }
    groups.push_back(std::move(group));
  }

  LakeFileReader reader;
  reader.file_ = std::move(file);
  reader.schema_ = std::move(schema);
  reader.groups_ = std::move(groups);
  return reader;
}

uint64_t LakeFileReader::num_rows() const {
  uint64_t total = 0;
  for (const RowGroupMeta& g : groups_) total += g.num_rows;
  return total;
}

Value ColumnChunkData::ValueAt(size_t row) const {
  if (IsNullAt(row)) return Value(std::monostate{});
  const ColumnData& src = dict_view ? dict : values;
  const size_t idx = dict_view ? codes[row] : row;
  switch (type) {
    case DataType::kBool:
      return Value(std::get<std::vector<uint8_t>>(src)[idx] != 0);
    case DataType::kInt64:
      return Value(std::get<std::vector<int64_t>>(src)[idx]);
    case DataType::kDouble:
      return Value(std::get<std::vector<double>>(src)[idx]);
    case DataType::kString:
      return Value(std::get<std::vector<std::string>>(src)[idx]);
    case DataType::kNull:
      break;
  }
  return Value(std::monostate{});
}

Result<ColumnChunkData> LakeFileReader::ReadColumnChunk(size_t group,
                                                        size_t column) const {
  if (group >= groups_.size() || column >= schema_.num_fields()) {
    return Status::InvalidArgument("lakefile: group/column out of range");
  }
  const ChunkMeta& chunk = groups_[group].columns[column];
  const size_t num_rows = groups_[group].num_rows;
  Decoder dec(ByteView(file_.data() + chunk.offset, chunk.size));
  if (dec.Remaining() < 2) return Status::Corruption("chunk: header");
  auto encoding = static_cast<codec::Encoding>(*dec.position());
  dec.Skip(1);
  auto compression = static_cast<codec::Compression>(*dec.position());
  dec.Skip(1);
  uint64_t raw_len, data_len;
  if (!dec.GetVarint(&raw_len) || !dec.GetVarint(&data_len)) {
    return Status::Corruption("chunk: lengths");
  }
  if (dec.Remaining() < data_len + 4) return Status::Corruption("chunk: data");
  ByteView payload(dec.position(), data_len);
  dec.Skip(data_len);
  uint32_t expected_crc;
  if (!dec.GetFixed32(&expected_crc)) return Status::Corruption("chunk: crc");
  if (Crc32c(payload) != expected_crc) {
    return Status::Corruption("chunk: crc mismatch");
  }
  SL_ASSIGN_OR_RETURN(Bytes raw,
                      codec::Decompress(compression, payload, raw_len));

  ColumnChunkData out;
  out.type = schema_.field(column).type;
  out.num_rows = num_rows;
  out.raw_bytes = raw.size();

  Decoder body((ByteView(raw)));
  uint64_t null_count;
  if (!body.GetVarint(&null_count)) {
    return Status::Corruption("chunk: null count");
  }
  if (null_count > num_rows) {
    return Status::Corruption("chunk: null count bogus");
  }
  if (null_count > 0) {
    const size_t mask_bytes = (num_rows + 7) / 8;
    if (body.Remaining() < mask_bytes) {
      return Status::Corruption("chunk: null mask");
    }
    SL_ASSIGN_OR_RETURN(
        out.null_mask,
        codec::DecodeBools(ByteView(body.position(), mask_bytes), num_rows));
    body.Skip(mask_bytes);
  }
  ByteView vals(body.position(), body.Remaining());

  switch (out.type) {
    case DataType::kBool: {
      SL_ASSIGN_OR_RETURN(auto decoded, codec::DecodeBools(vals, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kInt64: {
      if (encoding == codec::Encoding::kDict) {
        SL_ASSIGN_OR_RETURN(auto parts,
                            codec::DecodeInt64DictParts(vals, num_rows));
        out.dict_view = true;
        out.dict = std::move(parts.dict);
        out.codes = std::move(parts.codes);
        return out;
      }
      SL_ASSIGN_OR_RETURN(auto decoded,
                          codec::DecodeInt64s(vals, encoding, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kDouble: {
      SL_ASSIGN_OR_RETURN(auto decoded, codec::DecodeDoubles(vals, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kString: {
      if (encoding == codec::Encoding::kDict) {
        SL_ASSIGN_OR_RETURN(auto parts,
                            codec::DecodeStringDictParts(vals, num_rows));
        out.dict_view = true;
        out.dict = std::move(parts.dict);
        out.codes = std::move(parts.codes);
        return out;
      }
      SL_ASSIGN_OR_RETURN(auto decoded,
                          codec::DecodeStrings(vals, encoding, num_rows));
      out.values = std::move(decoded);
      return out;
    }
    case DataType::kNull:
      break;
  }
  return Status::Corruption("chunk: unknown column type");
}

Result<ColumnData> LakeFileReader::ReadColumn(size_t group,
                                              size_t column) const {
  SL_ASSIGN_OR_RETURN(ColumnChunkData chunk, ReadColumnChunk(group, column));
  if (!chunk.dict_view) return std::move(chunk.values);
  // Expand dictionary codes into plain values (NULL rows already carry the
  // dictionary entry their default code points at).
  switch (chunk.type) {
    case DataType::kBool: {
      std::vector<uint8_t> vals;
      vals.reserve(chunk.codes.size());
      const auto& dict = std::get<std::vector<uint8_t>>(chunk.dict);
      for (uint32_t c : chunk.codes) vals.push_back(dict[c]);
      return ColumnData(std::move(vals));
    }
    case DataType::kInt64: {
      std::vector<int64_t> vals;
      vals.reserve(chunk.codes.size());
      const auto& dict = std::get<std::vector<int64_t>>(chunk.dict);
      for (uint32_t c : chunk.codes) vals.push_back(dict[c]);
      return ColumnData(std::move(vals));
    }
    case DataType::kDouble: {
      std::vector<double> vals;
      vals.reserve(chunk.codes.size());
      const auto& dict = std::get<std::vector<double>>(chunk.dict);
      for (uint32_t c : chunk.codes) vals.push_back(dict[c]);
      return ColumnData(std::move(vals));
    }
    case DataType::kString: {
      std::vector<std::string> vals;
      vals.reserve(chunk.codes.size());
      const auto& dict = std::get<std::vector<std::string>>(chunk.dict);
      for (uint32_t c : chunk.codes) vals.push_back(dict[c]);
      return ColumnData(std::move(vals));
    }
    case DataType::kNull:
      break;
  }
  return Status::Corruption("chunk: unknown column type");
}

Result<std::vector<Row>> LakeFileReader::ReadRowGroup(size_t group) const {
  if (group >= groups_.size()) {
    return Status::InvalidArgument("lakefile: group out of range");
  }
  const size_t num_rows = groups_[group].num_rows;
  std::vector<Row> rows(num_rows);
  for (Row& r : rows) r.fields.resize(schema_.num_fields());
  for (size_t col = 0; col < schema_.num_fields(); ++col) {
    SL_ASSIGN_OR_RETURN(ColumnChunkData data, ReadColumnChunk(group, col));
    for (size_t i = 0; i < num_rows; ++i) {
      rows[i].fields[col] = data.ValueAt(i);
    }
  }
  return rows;
}

Result<std::vector<Row>> LakeFileReader::ReadAll() const {
  std::vector<Row> all;
  all.reserve(num_rows());
  for (size_t g = 0; g < groups_.size(); ++g) {
    SL_ASSIGN_OR_RETURN(std::vector<Row> rows, ReadRowGroup(g));
    for (Row& r : rows) all.push_back(std::move(r));
  }
  return all;
}

}  // namespace streamlake::format
