// Lakehouse ACID features: snapshot isolation, time travel, job re-runs
// from historical snapshots, UPDATE/DELETE, drop-soft / restore, and
// drop-hard.
//
// Run: ./build/examples/time_travel

#include <cstdio>

#include "core/streamlake.h"

using namespace streamlake;

namespace {

format::Row Order(int64_t id, const std::string& status, int64_t ts) {
  format::Row row;
  row.fields = {format::Value(id), format::Value(status), format::Value(ts)};
  return row;
}

int64_t CountRows(table::Table* table, table::SelectOptions options = {}) {
  query::QuerySpec spec;
  spec.aggregates = {query::AggregateSpec::CountStar()};
  auto result = table->Select(spec, options);
  if (!result.ok()) return -1;
  return std::get<int64_t>(result->rows[0].fields[0]);
}

}  // namespace

int main() {
  core::StreamLake lake;
  format::Schema schema{{"order_id", format::DataType::kInt64},
                        {"status", format::DataType::kString},
                        {"ts", format::DataType::kInt64}};
  auto created = lake.lakehouse().CreateTable("orders", schema,
                                              table::PartitionSpec::None());
  if (!created.ok()) return 1;
  table::Table* orders = *created;

  // Day 1: first batch lands.
  SL_CHECK_OK(orders->Insert({Order(1, "created", 100), Order(2, "created", 101)}));
  int64_t day1 = static_cast<int64_t>(lake.clock().NowSeconds());
  std::printf("day 1: %lld orders\n", static_cast<long long>(CountRows(orders)));

  // Day 2: more orders; one is updated, one deleted.
  lake.clock().Advance(86400 * sim::kSecond);
  SL_CHECK_OK(orders->Insert({Order(3, "created", 200), Order(4, "created", 201)}));
  SL_CHECK_OK(orders->Update(
      query::Conjunction{query::Predicate::Eq("order_id",
                                              format::Value(int64_t{1}))},
      "status", format::Value(std::string("shipped"))));
  SL_CHECK_OK(orders->Delete(query::Conjunction{
      query::Predicate::Eq("order_id", format::Value(int64_t{2}))}));
  std::printf("day 2: %lld orders after update+delete\n",
              static_cast<long long>(CountRows(orders)));

  // Time travel: the table exactly as it looked on day 1 — this is how a
  // failed downstream job re-reads its input ("when a job needs to re-run,
  // it can use time travel to retrieve its input data").
  table::SelectOptions day1_view;
  day1_view.as_of_timestamp = day1;
  std::printf("time travel to day 1: %lld orders (order 2 still present)\n",
              static_cast<long long>(CountRows(orders, day1_view)));

  query::QuerySpec status_of_1;
  status_of_1.where.Add(query::Predicate::Eq("order_id",
                                             format::Value(int64_t{1})));
  status_of_1.projection = {"status"};
  auto then = orders->Select(status_of_1, day1_view);
  auto now = orders->Select(status_of_1);
  std::printf("order 1 status: day1='%s', now='%s'\n",
              std::get<std::string>(then->rows[0].fields[0]).c_str(),
              std::get<std::string>(now->rows[0].fields[0]).c_str());

  // Drop table soft: unregistered, but the data survives for restoration.
  SL_CHECK_OK(lake.lakehouse().DropTableSoft("orders"));
  std::printf("after drop soft: GetTable -> %s\n",
              lake.lakehouse().GetTable("orders").status().ToString().c_str());
  auto restored = lake.lakehouse().RestoreTable("orders");
  if (!restored.ok()) return 1;
  std::printf("after restore: %lld orders\n",
              static_cast<long long>(CountRows(*restored)));

  // Snapshot expiration bounds how far back time travel goes.
  SL_CHECK_OK((*restored)->ExpireSnapshots(day1 + 1));
  auto expired = (*restored)->Select(status_of_1, day1_view);
  std::printf("time travel after expiration: %s\n",
              expired.ok() ? "still available (unexpected)"
                           : expired.status().ToString().c_str());

  // Drop table hard: data and metadata are deleted; nothing to restore.
  SL_CHECK_OK(lake.lakehouse().DropTableHard("orders"));
  auto gone = lake.lakehouse().RestoreTable("orders");
  std::printf("after drop hard: restore -> %s\n",
              gone.status().ToString().c_str());
  return gone.ok() ? 1 : 0;
}
