// `analytics`: a bulk-loaded, month-partitioned TPC-H lineitem table (two
// commits) plus a small part dimension table, queried with SQL text through
// StreamLake::Query. Most queries are random range / IN filters with
// GROUP BY COUNT/SUM in the style of TpchQueryGenerator; one in five joins
// the dimension table on l_partkey. The decoded working set of the touched
// columns is sized to at least 4x the decoded-block cache budget, so the
// scan path decodes most of what it reads.
//
// Every epoch loads the same seed-derived rows into a fresh deployment and
// then queries it for a third of the run; the query stream continues
// across epochs. Results are checked against an oracle computed from the
// generated rows, outside the timed region.

#include <algorithm>
#include <cstdlib>
#include <map>

#include "bench.h"
#include "format/row_codec.h"
#include "query/sql_parser.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using namespace streamlake;

constexpr double kScaleFactor = 2;             // 120k lineitem rows
constexpr uint64_t kCacheBytes = 512ULL << 10;  // decoded-block cache budget
constexpr int kLoadCommits = 2;
constexpr size_t kDimRows = 20000;
constexpr int kNumBrands = 25;
constexpr int kJoinEvery = 5;  // one query in five is a join
constexpr int kWarmupQueries = 40;
constexpr int kEpochs = 3;
constexpr uint64_t kMaxPartKey = 200000;

const char* const kShipModes[] = {"AIR", "RAIL", "SHIP", "TRUCK",
                                  "MAIL", "FOB", "REG AIR"};
const char* const kReturnFlags[] = {"A", "N", "R"};

// The generated data in typed columns, for the oracle.
struct Columns {
  std::vector<int64_t> partkey, quantity, shipdate;
  std::vector<double> discount;
  std::vector<uint8_t> shipmode, returnflag;
  std::vector<int32_t> dim_of_partkey;  // index into dim rows, -1 if absent
  std::vector<int64_t> dim_size;
  std::vector<int> dim_brand;
};

int IndexOf(const char* const* names, size_t n, const std::string& s) {
  for (size_t i = 0; i < n; ++i) {
    if (s == names[i]) return static_cast<int>(i);
  }
  return -1;
}

// One generated query: the SQL text and the same predicate for the oracle.
struct Query {
  bool join = false;
  bool has_ship = false;
  int64_t ship_lo = 0, ship_hi = 0;  // [lo, hi)
  int qty_mode = 0;                  // 0 none, 1 <=, 2 >
  int64_t qty = 0;
  bool has_discount = false;
  double discount = 0;               // l_discount <= discount
  unsigned modes = 0;                // shipmode IN bitmask (0 = none)
  int64_t size_max = 0;              // join only: p_size <= size_max
  bool group_by_mode = false;        // filter queries: by shipmode, else flag
  std::string sql;
};

// A double literal that parses back to exactly `v` (and as a double: the
// SQL parser reads "0" as an integer).
std::string Double17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s = buf;
  if (s.find_first_of(".e") == std::string::npos) s += ".0";
  return s;
}

class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  Query Next() {
    Query q;
    q.join = (++n_ % kJoinEvery) == 0;
    std::vector<std::string> where;
    const std::string p = q.join ? "l." : "";
    auto ship_window = [&](int64_t min_days, int64_t max_days) {
      int64_t span = 86400 * (min_days + rng_.Uniform(max_days - min_days));
      int64_t lo = workload::TpchLineitemGenerator::kShipDateMin +
                   rng_.Uniform(workload::TpchLineitemGenerator::kShipDateMax -
                                workload::TpchLineitemGenerator::kShipDateMin -
                                span);
      q.has_ship = true;
      q.ship_lo = lo;
      q.ship_hi = lo + span;
    };
    if (q.join) {
      ship_window(30, 365);
      q.size_max = 1 + rng_.Uniform(50);
    } else {
      int num_predicates = 1 + static_cast<int>(rng_.Uniform(3));
      for (int i = 0; i < num_predicates; ++i) {
        switch (rng_.Uniform(4)) {
          case 0:
            ship_window(7, 365);
            break;
          case 1:
            q.qty_mode = rng_.OneIn(2) ? 1 : 2;
            q.qty = 1 + rng_.Uniform(50);
            break;
          case 2:
            q.has_discount = true;
            // Round-trips through the SQL text exactly (%.17g).
            q.discount = 0.01 * static_cast<double>(rng_.Uniform(11));
            break;
          case 3: {
            size_t count = 1 + rng_.Uniform(3);
            for (size_t m = 0; m < count; ++m) q.modes |= 1u << rng_.Uniform(7);
            break;
          }
        }
      }
      q.group_by_mode = rng_.OneIn(2);
    }
    if (q.has_ship) {
      where.push_back(p + "l_shipdate >= " + std::to_string(q.ship_lo));
      where.push_back(p + "l_shipdate < " + std::to_string(q.ship_hi));
    }
    if (q.qty_mode != 0) {
      where.push_back(p + "l_quantity " + (q.qty_mode == 1 ? "<= " : "> ") +
                      std::to_string(q.qty));
    }
    if (q.has_discount) {
      where.push_back(p + "l_discount <= " + Double17(q.discount));
    }
    if (q.modes != 0) {
      std::string in;
      for (int m = 0; m < 7; ++m) {
        if (q.modes & (1u << m)) {
          in += (in.empty() ? "'" : ", '") + std::string(kShipModes[m]) + "'";
        }
      }
      where.push_back(p + "l_shipmode IN (" + in + ")");
    }
    if (q.join) where.push_back("p.p_size <= " + std::to_string(q.size_max));
    std::string clause;
    for (const std::string& w : where) {
      clause += (clause.empty() ? " WHERE " : " AND ") + w;
    }
    if (q.join) {
      q.sql = "SELECT p.p_brand, COUNT(*) AS c, SUM(l.l_quantity) AS q "
              "FROM lineitem l JOIN part_dim p ON l.l_partkey = p.p_partkey" +
              clause + " GROUP BY p.p_brand ORDER BY p.p_brand";
    } else {
      std::string g = q.group_by_mode ? "l_shipmode" : "l_returnflag";
      q.sql = "SELECT " + g + ", COUNT(*) AS c, SUM(l_quantity) AS q FROM "
              "lineitem" + clause + " GROUP BY " + g + " ORDER BY " + g;
    }
    return q;
  }

 private:
  Random rng_;
  uint64_t n_ = 0;
};

std::string BrandName(int b) { return "Brand#" + std::to_string(10 + b); }

// Expected (group -> count, sum of quantity), ordered like ORDER BY.
std::map<std::string, std::pair<int64_t, int64_t>> Oracle(const Columns& c,
                                                          const Query& q) {
  std::vector<int64_t> count(kNumBrands > 7 ? kNumBrands : 7, 0);
  std::vector<int64_t> sum(count.size(), 0);
  const size_t n = c.shipdate.size();
  for (size_t i = 0; i < n; ++i) {
    if (q.has_ship && (c.shipdate[i] < q.ship_lo || c.shipdate[i] >= q.ship_hi))
      continue;
    if (q.qty_mode == 1 && !(c.quantity[i] <= q.qty)) continue;
    if (q.qty_mode == 2 && !(c.quantity[i] > q.qty)) continue;
    if (q.has_discount && !(c.discount[i] <= q.discount)) continue;
    if (q.modes != 0 && !(q.modes & (1u << c.shipmode[i]))) continue;
    int group;
    if (q.join) {
      int32_t d = c.dim_of_partkey[c.partkey[i]];
      if (d < 0 || c.dim_size[d] > q.size_max) continue;
      group = c.dim_brand[d];
    } else {
      group = q.group_by_mode ? c.shipmode[i] : c.returnflag[i];
    }
    ++count[group];
    sum[group] += c.quantity[i];
  }
  std::map<std::string, std::pair<int64_t, int64_t>> out;
  for (size_t g = 0; g < count.size(); ++g) {
    if (count[g] == 0) continue;
    std::string name = q.join ? BrandName(static_cast<int>(g))
                       : q.group_by_mode ? kShipModes[g]
                                         : kReturnFlags[g];
    out[name] = {count[g], sum[g]};
  }
  return out;
}

bool Matches(const query::QueryResult& result,
             const std::map<std::string, std::pair<int64_t, int64_t>>& want) {
  if (result.rows.size() != want.size()) return false;
  auto it = want.begin();
  for (const format::Row& row : result.rows) {
    if (row.fields.size() != 3) return false;
    const auto* group = std::get_if<std::string>(&row.fields[0]);
    const auto* count = std::get_if<int64_t>(&row.fields[1]);
    const auto* sum = std::get_if<double>(&row.fields[2]);
    if (group == nullptr || count == nullptr || sum == nullptr) return false;
    if (*group != it->first || *count != it->second.first ||
        *sum != static_cast<double>(it->second.second)) {
      return false;
    }
    ++it;
  }
  return true;
}

}  // namespace

Outcome RunAnalytics(const RunOptions& options, Tracer* tracer) {
  Outcome out;

  // ---- inputs, generated once from the seed ----
  workload::TpchOptions tpch;
  tpch.seed = DeriveSeed(options.seed, 1);
  tpch.scale_factor = kScaleFactor;
  std::vector<format::Row> lineitem =
      workload::TpchLineitemGenerator(tpch).GenerateAll();
  Columns cols;
  for (const format::Row& r : lineitem) {
    cols.partkey.push_back(std::get<int64_t>(r.fields[1]));
    cols.quantity.push_back(std::get<int64_t>(r.fields[2]));
    cols.discount.push_back(std::get<double>(r.fields[4]));
    cols.shipdate.push_back(std::get<int64_t>(r.fields[5]));
    cols.shipmode.push_back(static_cast<uint8_t>(
        IndexOf(kShipModes, 7, std::get<std::string>(r.fields[7]))));
    cols.returnflag.push_back(static_cast<uint8_t>(
        IndexOf(kReturnFlags, 3, std::get<std::string>(r.fields[8]))));
  }
  const format::Schema dim_schema{{"p_partkey", format::DataType::kInt64},
                                  {"p_brand", format::DataType::kString},
                                  {"p_size", format::DataType::kInt64}};
  std::vector<format::Row> dim;
  cols.dim_of_partkey.assign(kMaxPartKey + 1, -1);
  Random dim_rng(DeriveSeed(options.seed, 2));
  while (dim.size() < kDimRows) {
    int64_t key = 1 + static_cast<int64_t>(dim_rng.Uniform(kMaxPartKey));
    if (cols.dim_of_partkey[key] >= 0) continue;
    int brand = static_cast<int>(dim_rng.Uniform(kNumBrands));
    int64_t size = 1 + static_cast<int64_t>(dim_rng.Uniform(50));
    cols.dim_of_partkey[key] = static_cast<int32_t>(dim.size());
    cols.dim_brand.push_back(brand);
    cols.dim_size.push_back(size);
    format::Row row;
    row.fields = {format::Value(key), format::Value(BrandName(brand)),
                  format::Value(size)};
    dim.push_back(std::move(row));
  }
  uint64_t user_bytes = 0;
  {
    Bytes encoded;
    for (const format::Row& r : lineitem) {
      format::EncodeRow(workload::TpchLineitemGenerator::Schema(), r, &encoded);
    }
    for (const format::Row& r : dim) format::EncodeRow(dim_schema, r, &encoded);
    user_bytes = encoded.size();
  }

  QueryGenerator queries(DeriveSeed(options.seed, 3));
  Samples query_ms, query_sim_ms, join_ms, traced_op_ms, untraced_op_ms;
  Samples queries_per_s;  // one sample per epoch
  LayerWindow window;
  double busy_s = 0;
  uint64_t op_n = 0;
  uint64_t working_set_bytes = 0;
  double bytes_stored = 0, file_bytes = 0, file_rows = 0;
  uint64_t files_per_epoch = 0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // ---- set-up: deployment, bulk load, sizing query, warm-up pass ----
    const EpochStart start = EpochStart::Take();
    uint64_t setup_start = WallNanos();
    core::StreamLakeOptions lake_options;
    lake_options.block_cache_bytes = kCacheBytes;
    core::StreamLake lake(lake_options);
    auto lineitem_table = lake.lakehouse().CreateTable(
        "lineitem", workload::TpchLineitemGenerator::Schema(),
        table::PartitionSpec::Month("l_shipdate"));
    out.Op(lineitem_table.status(), "CreateTable lineitem");
    auto dim_table = lake.lakehouse().CreateTable("part_dim", dim_schema,
                                                  table::PartitionSpec::None());
    out.Op(dim_table.status(), "CreateTable part_dim");
    if (!lineitem_table.ok() || !dim_table.ok()) break;
    {
      tracer->SetActive(true);
      Tracer::Span load(tracer, "setup.load");
      const size_t part = (lineitem.size() + kLoadCommits - 1) / kLoadCommits;
      for (size_t from = 0; from < lineitem.size(); from += part) {
        std::vector<format::Row> chunk(
            lineitem.begin() + from,
            lineitem.begin() + std::min(lineitem.size(), from + part));
        Tracer::Span span(tracer, "table.insert");
        out.Op((*lineitem_table)->Insert(chunk), "Insert lineitem");
      }
      Tracer::Span span(tracer, "table.insert");
      out.Op((*dim_table)->Insert(dim), "Insert part_dim");
    }
    tracer->SetActive(false);
    const Fingerprint fp = TakeFingerprint(lake, start, 0, user_bytes);
    out.fingerprints.push_back(fp);
    bytes_stored = static_cast<double>(fp.live_physical_bytes) / user_bytes;

    // Sizing query on the cold cache: touches every column the workload
    // reads and keeps every row, so its decoded bytes are the working set.
    uint64_t decoded0 = CounterValue("table.select.bytes_decoded");
    auto all = lake.Query(
        "SELECT l_returnflag, COUNT(*) AS c, SUM(l_quantity) AS q FROM "
        "lineitem WHERE l_shipdate >= 0 AND l_partkey >= 0 AND "
        "l_discount <= 1.0 AND l_shipmode IN ('AIR', 'RAIL', 'SHIP', "
        "'TRUCK', 'MAIL', 'FOB', 'REG AIR') GROUP BY l_returnflag "
        "ORDER BY l_returnflag");
    out.Op(all.status(), "sizing query");
    working_set_bytes = CounterValue("table.select.bytes_decoded") - decoded0;
    if (all.ok()) {
      int64_t rows = 0;
      for (const format::Row& r : all->rows) rows += std::get<int64_t>(r.fields[1]);
      out.Check(rows == static_cast<int64_t>(lineitem.size()),
                "sizing query counted " + std::to_string(rows) + " rows");
    }

    QueryGenerator warmup(DeriveSeed(options.seed, 4 + epoch));
    for (int i = 0; i < kWarmupQueries; ++i) {
      Query q = warmup.Next();
      auto result = lake.Query(q.sql);
      out.Op(result.status(), "warm-up query");
      if (result.ok()) out.Check(Matches(*result, Oracle(cols, q)), q.sql);
    }
    out.setup_s.Add((WallNanos() - setup_start) / 1e9);

    auto files = (*lineitem_table)->LiveFiles();
    out.Op(files.status(), "LiveFiles");
    if (files.ok()) {
      files_per_epoch = files->size();
      for (const table::DataFileMeta& f : *files) {
        file_bytes += f.file_bytes;
        file_rows += f.record_count;
      }
    }

    // ---- timed window: a third of the run ----
    const double budget_s = options.seconds / kEpochs;
    window.Begin(lake);
    const double busy_before = busy_s;
    const size_t queries_before = query_ms.count();
    const uint64_t epoch_start = WallNanos();
    while ((WallNanos() - epoch_start) / 1e9 < budget_s) {
      Query q = queries.Next();
      tracer->BeginOp(++op_n);
      if (tracer->active()) {
        // Catalog replay probe, outside the query's own timing.
        Tracer::Span span(tracer, "table.catalog.live_files");
        out.Op((*lineitem_table)->LiveFiles().status(), "LiveFiles probe");
      }
      table::SelectMetrics metrics;
      uint64_t t0 = WallNanos();
      Result<query::QueryResult> result = [&]() -> Result<query::QueryResult> {
        Tracer::Span op(tracer, "client.query");
        if (!tracer->active()) return lake.Query(q.sql, &metrics);
        // Traced: the same call split into its parse and execute halves.
        auto parsed = [&] {
          Tracer::Span span(tracer, "query.parse");
          return query::ParseSql(q.sql);
        }();
        if (!parsed.ok()) return parsed.status();
        Tracer::Span span(tracer, "query.execute");
        return lake.lakehouse().Query(*parsed, {}, &metrics);
      }();
      uint64_t t1 = WallNanos();
      out.Op(result.status(), "Query");
      const double ms = (t1 - t0) / 1e6;
      busy_s += ms / 1e3;
      query_ms.Add(ms);
      query_sim_ms.Add(metrics.elapsed_ns / 1e6);
      if (q.join) join_ms.Add(ms);
      (tracer->active() ? traced_op_ms : untraced_op_ms).Add(ms);
      window.queries += 1;
      window.join_queries += q.join ? 1 : 0;
      if (result.ok()) {
        // Checked outside the timed call.
        out.Check(Matches(*result, Oracle(cols, q)), q.sql);
      }
    }
    window.End(lake);
    queries_per_s.Add((query_ms.count() - queries_before) /
                      (busy_s - busy_before));
    tracer->SetActive(false);
  }
  window.ops = window.queries;

  // Median over epochs, like the other workloads' throughput.
  const double qps = queries_per_s.Quantile(0.5);
  out.end_to_end = {
      {"op_p50_ms", {query_ms.Quantile(0.5), "ms"}},
      {"sim_ms_per_op", {query_sim_ms.Mean(), "ms"}},
      {"cpu_ms_per_op", {window.cpu_s * 1e3 / window.ops, "ms"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  out.named = {
      {"query_p50_ms", {query_ms.Quantile(0.5), "ms"}},
      {"query_p99_ms", P99(query_ms)},
      {"join_query_p50_ms", {join_ms.Quantile(0.5), "ms"}},
      {"queries_per_s", {qps, "1/s"}},
      {"query_sim_p50_ms", {query_sim_ms.Quantile(0.5), "ms"}},
      {"query_sim_mean_ms", {query_sim_ms.Mean(), "ms"}},
      {"bytes_stored_per_user_byte", {bytes_stored, "B/B"}},
  };
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio), "%.2f",
                static_cast<double>(working_set_bytes) / kCacheBytes);
  out.notes = {
      {"samples", "query=" + std::to_string(query_ms.count()) +
                      " join=" + std::to_string(join_ms.count())},
      {"lineitem", std::to_string(lineitem.size()) + " rows, " +
                       std::to_string(files_per_epoch) + " files, " +
                       std::to_string(kLoadCommits) + " commits"},
      {"part_dim", std::to_string(dim.size()) + " rows"},
      {"decoded_working_set_bytes", std::to_string(working_set_bytes)},
      {"block_cache_bytes", std::to_string(kCacheBytes)},
      {"working_set_per_cache", ratio},
  };
  out.Check(working_set_bytes >= 4 * kCacheBytes,
            "decoded working set " + std::to_string(working_set_bytes) +
                " is below 4x the cache budget");

  if (tracer->enabled()) {
    FillPerLayer(window, *tracer, &out);
    SetLayer(&out, "table.file_bytes_per_row", file_bytes / file_rows);
    SetLayer(&out, "trace.overhead_pct",
             100.0 * (traced_op_ms.Quantile(0.5) /
                          untraced_op_ms.Quantile(0.5) -
                      1.0));
  }
  return out;
}

}  // namespace perfbench
