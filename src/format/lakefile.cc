#include "format/lakefile.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "codec/key_ids.h"
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

/// How a column of Value alternative `T` is stored, numbered and compared.
/// `Stored` is the element of the typed vector the codec encodes (NULL rows
/// carry its default; a kNull column, of std::monostate, has none). `Key` is
/// what KeyIds numbers (KeyOf): the stored value, a view of a string (so a
/// file's keys span its row groups without a copy), or a double's bits with
/// -0.0 as 0.0 (the NDV's rule). `View` is what min/max compare.
uint8_t KeyOf(uint8_t v) { return v; }
int64_t KeyOf(int64_t v) { return v; }
uint64_t KeyOf(double v) {
  if (v == 0.0) return 0;  // -0.0 and 0.0 are one key
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  return bits;
}
std::string_view KeyOf(const std::string& v) { return v; }
uint8_t KeyOf(std::monostate) { return 0; }

template <typename T>
struct ColumnType {
  using Stored = std::conditional_t<std::is_same_v<T, bool>, uint8_t, T>;
  using Key = decltype(KeyOf(std::declval<const Stored&>()));
  using View = std::conditional_t<std::is_same_v<T, std::string>,
                                  std::string_view, Stored>;
};

// Plain-encoded width of a non-NULL value (the avg_width stat).
uint64_t Width(uint8_t) { return 1; }
uint64_t Width(int64_t) { return 8; }
uint64_t Width(double) { return 8; }
uint64_t Width(const std::string& s) { return s.size(); }

Value ToValue(uint8_t view) { return Value(view != 0); }  // bool views
Value ToValue(int64_t view) { return Value(view); }
Value ToValue(double view) { return Value(view); }
Value ToValue(std::string_view view) { return Value(std::string(view)); }
Value ToValue(std::monostate view) { return Value(view); }

/// Stats of one column over consecutive rows: a chunk, then a whole file.
template <typename View>
struct Summary {
  uint64_t rows = 0;
  uint64_t null_count = 0;
  uint64_t width = 0;  // summed plain-encoded width of the non-NULLs
  uint64_t ndv = 0;    // distinct non-NULL values, NaN excluded
  bool has_nan = false;
  // Over non-NULL, non-NaN values; of equal values the first wins, as in a
  // linear scan (so -0.0 and +0.0 keep their order of arrival).
  std::optional<View> min;
  std::optional<View> max;

  /// Fold in the summary of the rows that follow these (all but `ndv`,
  /// which only the keys themselves can merge).
  void Merge(const Summary& next) {
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
  }

  /// A NaN leaves min/max out: every comparison with it is false, so no
  /// range can bound it. It counts as one distinct value.
  ColumnStats ToStats(bool with_min_max) const {
    ColumnStats stats;
    if (with_min_max && !has_nan && min.has_value()) {
      stats.min = ToValue(*min);
      stats.max = ToValue(*max);
    }
    stats.has_extended = true;
    stats.null_count = null_count;
    stats.ndv = ndv + (has_nan ? 1 : 0);
    const uint64_t non_null = rows - null_count;
    stats.avg_width = non_null > 0 ? static_cast<double>(width) /
                                         static_cast<double>(non_null)
                                   : 0.0;
    return stats;
  }
};

/// The one pass over a chunk's typed vector: its stats, the ids of its
/// stored values in first-appearance order (NULL defaults included, so they
/// are the dictionary codes) and which ids some non-NULL row holds.
template <typename T>
struct ChunkPass {
  using Traits = ColumnType<T>;
  // Only int64 and string chunks may be dictionary-encoded.
  static constexpr bool kCodes =
      std::is_same_v<T, int64_t> || std::is_same_v<T, std::string>;

  Summary<typename Traits::View> summary;
  codec::KeyIds<typename Traits::Key> ids;
  std::vector<uint32_t> codes;
  std::vector<uint8_t> counted;  // by id; ids never outnumber rows

  ChunkPass(std::span<const typename Traits::Stored> vals,
            std::span<const uint8_t> nulls)
      : ids(std::min<size_t>(nulls.size(), 1024)),
        counted(nulls.size(), 0) {
    summary.rows = nulls.size();
    if constexpr (kCodes) codes.resize(nulls.size());
    for (size_t i = 0; i < nulls.size(); ++i) {
      if (nulls[i]) {
        ++summary.null_count;
        if constexpr (kCodes) codes[i] = ids.Insert(KeyOf(vals[i]));
        continue;
      }
      if constexpr (!std::is_same_v<T, std::monostate>) {
        const typename Traits::Stored& v = vals[i];
        summary.width += Width(v);
        if constexpr (std::is_same_v<T, double>) {
          if (std::isnan(v)) {
            summary.has_nan = true;
            continue;
          }
        }
        const uint32_t id = ids.Insert(KeyOf(v));
        if constexpr (kCodes) codes[i] = id;
        if (counted[id] != 0) continue;
        // A key's first non-NULL row is the only one min/max must see:
        // distinct keys never compare equal (-0.0 and 0.0 are one key).
        counted[id] = 1;
        ++summary.ndv;
        const typename Traits::View view(v);
        if (!summary.min.has_value() || view < *summary.min) {
          summary.min = view;
        }
        if (!summary.max.has_value() || *summary.max < view) {
          summary.max = view;
        }
      }
    }
  }
};

codec::Encoding EncodeValues(std::span<const uint8_t> vals,
                             const ChunkPass<bool>&, Bytes* raw) {
  codec::EncodeBools(vals, raw);
  return codec::Encoding::kBitPack;
}
codec::Encoding EncodeValues(std::span<const int64_t> vals,
                             const ChunkPass<int64_t>& pass, Bytes* raw) {
  const codec::Encoding encoding =
      codec::ChooseInt64Encoding(vals, pass.summary.ndv);
  if (encoding == codec::Encoding::kDict) {
    codec::EncodeInt64Dict(pass.ids.keys(), pass.codes, raw);
  } else {
    codec::EncodeInt64s(vals, encoding, raw);
  }
  return encoding;
}
codec::Encoding EncodeValues(std::span<const double> vals,
                             const ChunkPass<double>&, Bytes* raw) {
  codec::EncodeDoubles(vals, raw);
  return codec::Encoding::kPlain;
}
codec::Encoding EncodeValues(std::span<const std::string> vals,
                             const ChunkPass<std::string>& pass, Bytes* raw) {
  const codec::Encoding encoding =
      codec::ChooseStringEncoding(vals, pass.summary.ndv);
  if (encoding == codec::Encoding::kDict) {
    codec::EncodeStringDict(pass.ids.keys(), pass.codes, raw);
  } else {
    codec::EncodeStrings(vals, encoding, raw);
  }
  return encoding;
}
codec::Encoding EncodeValues(std::span<const std::monostate>,
                             const ChunkPass<std::monostate>&, Bytes*) {
  return codec::Encoding::kPlain;  // a kNull field has no value stream
}

/// One column chunk, encoded and compressed, waiting for its file offset.
struct EncodedChunk {
  codec::Encoding encoding = codec::Encoding::kPlain;
  codec::Compression compression = codec::Compression::kNone;
  uint64_t raw_size = 0;
  Bytes data;
  ColumnStats stats;
};

/// Encodes `column` of a `num_rows`-row batch into `chunks`, one per
/// `per_group`-row group, and returns the column's file-level stats.
///
/// A chunk's raw payload is `[null_count][null bitmap iff null_count > 0]
/// [encoded values]`. One ChunkPass per group yields the stats and the
/// dictionary codes; its exact distinct count also picks the encoding. With
/// several groups, the file's distinct count unions their keys.
template <typename T>
ColumnStats EncodeColumn(const ColumnBatch::Column& column, size_t num_rows,
                         size_t per_group, const LakeFileOptions& options,
                         std::vector<EncodedChunk>* chunks) {
  using Stored = typename ColumnType<T>::Stored;
  std::span<const Stored> all;
  if constexpr (!std::is_same_v<T, std::monostate>) {
    all = std::get<std::vector<Stored>>(column.values);
  }
  const std::span<const uint8_t> nulls(column.null_mask);
  Summary<typename ColumnType<T>::View> file;
  codec::KeyIds<typename ColumnType<T>::Key> file_keys;
  for (size_t begin = 0; begin < num_rows; begin += per_group) {
    const size_t n = std::min(per_group, num_rows - begin);
    const std::span<const Stored> vals =
        all.empty() ? all : all.subspan(begin, n);
    const ChunkPass<T> pass(vals, nulls.subspan(begin, n));

    EncodedChunk out;
    Bytes raw;
    raw.reserve(16 + n / 8 + 2 * n + pass.summary.width);
    PutVarint64(&raw, pass.summary.null_count);
    if (pass.summary.null_count > 0) {
      codec::EncodeBools(nulls.subspan(begin, n), &raw);
    }
    out.encoding = EncodeValues(vals, pass, &raw);
    out.raw_size = raw.size();
    out.compression = options.compression;
    out.data = codec::Compress(options.compression, ByteView(raw));
    if (out.data.size() >= raw.size()) {
      // Incompressible chunk: store raw to avoid negative savings.
      out.data = std::move(raw);
      out.compression = codec::Compression::kNone;
    }
    // Bool chunks carry no min/max in the footer.
    out.stats =
        pass.summary.ToStats(/*with_min_max=*/!std::is_same_v<T, bool>);
    chunks->push_back(std::move(out));
    file.Merge(pass.summary);
    if (n == num_rows) {
      file.ndv = pass.summary.ndv;
    } else {
      for (uint32_t id = 0; id < pass.ids.size(); ++id) {
        if (pass.counted[id] != 0) file_keys.Insert(pass.ids.keys()[id]);
      }
      file.ndv = file_keys.size();
    }
  }
  return file.ToStats(/*with_min_max=*/true);
}

template <typename T>
void AppendCells(std::span<const Row* const> rows, size_t col,
                 ColumnBatch::Column* column) {
  using Stored = typename ColumnType<T>::Stored;
  auto& vals = std::get<std::vector<Stored>>(column->values);
  const size_t base = vals.size();
  vals.resize(base + rows.size());
  column->null_mask.resize(base + rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    // A valid cell holds a T or is NULL, which keeps the default.
    if (const T* v = std::get_if<T>(&rows[i]->fields[col])) {
      vals[base + i] = static_cast<Stored>(*v);
    } else {
      column->null_mask[base + i] = 1;
    }
  }
}

template <typename Stored>
void GatherCells(const ColumnChunkData& chunk, std::span<const uint32_t> rows,
                 std::vector<Stored>* vals) {
  const auto& src =
      std::get<std::vector<Stored>>(chunk.dict_view ? chunk.dict : chunk.values);
  // push_back grows geometrically; an exact reserve here would reallocate
  // (and move every gathered value) on each appended group.
  for (uint32_t r : rows) {
    vals->push_back(src[chunk.dict_view ? chunk.codes[r] : r]);
  }
}

}  // namespace

ColumnBatch::ColumnBatch(const Schema& schema) {
  columns.resize(schema.num_fields());
  for (size_t c = 0; c < columns.size(); ++c) {
    Column& column = columns[c];
    column.type = schema.field(c).type;
    switch (column.type) {
      case DataType::kInt64:
        column.values = std::vector<int64_t>();
        break;
      case DataType::kDouble:
        column.values = std::vector<double>();
        break;
      case DataType::kString:
        column.values = std::vector<std::string>();
        break;
      case DataType::kBool:
      case DataType::kNull:  // a kNull column keeps its vector empty
        break;
    }
  }
}

void ColumnBatch::Reserve(size_t rows) {
  for (Column& column : columns) {
    column.null_mask.reserve(rows);
    if (column.type == DataType::kNull) continue;
    std::visit([rows](auto& vals) { vals.reserve(rows); }, column.values);
  }
}

void ColumnBatch::AppendRows(std::span<const Row* const> rows) {
  for (size_t c = 0; c < columns.size(); ++c) {
    Column* column = &columns[c];
    switch (column->type) {
      case DataType::kBool:
        AppendCells<bool>(rows, c, column);
        break;
      case DataType::kInt64:
        AppendCells<int64_t>(rows, c, column);
        break;
      case DataType::kDouble:
        AppendCells<double>(rows, c, column);
        break;
      case DataType::kString:
        AppendCells<std::string>(rows, c, column);
        break;
      case DataType::kNull:
        column->null_mask.insert(column->null_mask.end(), rows.size(), 1);
        break;
    }
  }
  num_rows += rows.size();
}

void ColumnBatch::AppendRows(std::span<const ColumnChunkPtr> chunks,
                             std::span<const uint32_t> rows) {
  for (size_t c = 0; c < columns.size(); ++c) {
    Column& column = columns[c];
    if (column.type == DataType::kNull) {
      column.null_mask.insert(column.null_mask.end(), rows.size(), 1);
      continue;
    }
    const ColumnChunkData& chunk = *chunks[c];
    for (uint32_t r : rows) column.null_mask.push_back(chunk.IsNullAt(r));
    std::visit([&](auto& vals) { GatherCells(chunk, rows, &vals); },
               column.values);
  }
  num_rows += rows.size();
}

void ColumnBatch::Set(size_t column, size_t row, const Value& value) {
  Column& col = columns[column];
  col.null_mask[row] = IsNull(value) ? 1 : 0;
  if (col.type == DataType::kNull) return;
  std::visit(
      [&](auto& vals) {
        using Stored = typename std::decay_t<decltype(vals)>::value_type;
        if (IsNull(value)) {
          vals[row] = Stored();
        } else if constexpr (std::is_same_v<Stored, uint8_t>) {
          vals[row] = std::get<bool>(value) ? 1 : 0;
        } else {
          vals[row] = std::get<Stored>(value);
        }
      },
      col.values);
}

EncodedLakeFile EncodeLakeFile(const Schema& schema, const ColumnBatch& batch,
                               const LakeFileOptions& options) {
  // Column-major: each column's chunks of every group, then laid out
  // group-major as [magic][g0c0][g0c1]...[g1c0]...[footer].
  const size_t num_fields = schema.num_fields();
  SL_CHECK(batch.columns.size() == num_fields);
  const size_t num_rows = batch.num_rows;
  const size_t per_group = std::max<size_t>(options.rows_per_group, 1);
  const size_t num_groups = (num_rows + per_group - 1) / per_group;
  std::vector<std::vector<EncodedChunk>> chunks(num_fields);
  EncodedLakeFile out;
  out.column_stats.reserve(num_fields);
  for (size_t col = 0; col < num_fields; ++col) {
    const ColumnBatch::Column& column = batch.columns[col];
    ColumnStats stats;
    switch (schema.field(col).type) {
      case DataType::kBool:
        stats = EncodeColumn<bool>(column, num_rows, per_group, options,
                                   &chunks[col]);
        break;
      case DataType::kInt64:
        stats = EncodeColumn<int64_t>(column, num_rows, per_group, options,
                                      &chunks[col]);
        break;
      case DataType::kDouble:
        stats = EncodeColumn<double>(column, num_rows, per_group, options,
                                     &chunks[col]);
        break;
      case DataType::kString:
        stats = EncodeColumn<std::string>(column, num_rows, per_group,
                                          options, &chunks[col]);
        break;
      case DataType::kNull:  // only NULL cells validate against it
        stats = EncodeColumn<std::monostate>(column, num_rows, per_group,
                                             options, &chunks[col]);
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
    PutVarint64(&footer, std::min(per_group, num_rows - g * per_group));
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
    : schema_(std::move(schema)), options_(options), batch_(schema_) {}

Status LakeFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SL_RETURN_NOT_OK(schema_.ValidateRow(row));
  const Row* pointer = &row;
  batch_.AppendRows({&pointer, 1});
  return Status::OK();
}

Status LakeFileWriter::AppendBatch(const std::vector<Row>& rows) {
  for (const Row& row : rows) SL_RETURN_NOT_OK(Append(row));
  return Status::OK();
}

Result<Bytes> LakeFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  Bytes file = EncodeLakeFile(schema_, batch_, options_).bytes;
  batch_ = ColumnBatch(schema_);
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
    case DataType::kNull:  // no value stream: every row is NULL
      if (null_count != num_rows) {
        return Status::Corruption("chunk: non-NULL row in a kNull column");
      }
      out.null_mask.assign(num_rows, 1);
      return out;
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
