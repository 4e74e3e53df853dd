#include "table/lakehouse.h"

#include "query/plan.h"
#include "table/block_cache.h"

namespace streamlake::table {

namespace {

/// The result of a DML statement: one row with the affected-row count.
Result<query::QueryResult> AffectedRows(Result<uint64_t> count) {
  SL_RETURN_NOT_OK(count.status());
  query::QueryResult result;
  result.column_names = {"affected"};
  format::Row row;
  row.fields = {format::Value(static_cast<int64_t>(*count))};
  result.rows.push_back(std::move(row));
  return result;
}

}  // namespace

LakehouseService::LakehouseService(MetadataStore* meta,
                                   storage::ObjectStore* objects,
                                   sim::SimClock* clock,
                                   sim::NetworkModel* compute_link,
                                   TableOptions default_options,
                                   ThreadPool* scan_pool,
                                   DecodedBlockCache* block_cache)
    : meta_(meta),
      objects_(objects),
      clock_(clock),
      compute_link_(compute_link),
      default_options_(default_options),
      scan_pool_(scan_pool),
      block_cache_(block_cache) {}

Result<Table*> LakehouseService::CreateTable(const std::string& name,
                                             const format::Schema& schema,
                                             const PartitionSpec& partition_spec,
                                             const TableOptions* options) {
  MutexLock lock(&mu_);
  auto existing = meta_->GetTableInfo(name);
  if (existing.ok() && !existing->soft_deleted) {
    return Status::AlreadyExists("table " + name);
  }
  if (schema.num_fields() == 0) {
    return Status::InvalidArgument("schema must have columns");
  }
  if (partition_spec.partitioned() &&
      schema.FieldIndex(partition_spec.column) < 0) {
    return Status::InvalidArgument("partition column not in schema");
  }

  TableInfo info;
  info.table_id = next_table_id_++;
  info.name = name;
  info.path = "/tables/" + name;
  info.schema = schema;
  info.partition_spec = partition_spec;
  info.created_at = static_cast<int64_t>(clock_->NowSeconds());
  info.modified_at = info.created_at;
  SL_RETURN_NOT_OK(meta_->PutTableInfo(info));
  // Materialize the /data and /metadata directories (directory markers in
  // the object namespace). If either marker fails, retract the catalog
  // entry so no table exists whose directories were never created.
  Status dirs = objects_->Write(info.path + "/data/.dir", ByteView());
  if (dirs.ok()) {
    dirs = objects_->Write(info.path + "/metadata/.dir", ByteView());
  }
  if (!dirs.ok()) {
    meta_->DeleteTableInfo(name).LogIgnored("create-table rollback");
    return dirs;
  }

  auto table = std::make_unique<Table>(
      name, meta_, objects_, clock_, compute_link_,
      options != nullptr ? *options : default_options_, scan_pool_,
      block_cache_);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Result<Table*> LakehouseService::GetTable(const std::string& name) {
  SL_ASSIGN_OR_RETURN(PinnedTable pinned, PinTable(name));
  return pinned.table;
}

Result<PinnedTable> LakehouseService::PinTable(const std::string& name) {
  MutexLock lock(&mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name));
  if (info.soft_deleted) return Status::NotFound("table " + name + " dropped");
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    auto table = std::make_unique<Table>(name, meta_, objects_, clock_,
                                         compute_link_, default_options_,
                                         scan_pool_, block_cache_);
    it = tables_.emplace(name, std::move(table)).first;
  }
  return PinnedTable{it->second.get(), std::move(info)};
}

Status LakehouseService::DropTableSoft(const std::string& name) {
  MutexLock lock(&mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name));
  if (info.soft_deleted) return Status::NotFound("table already dropped");
  info.soft_deleted = true;
  info.modified_at = static_cast<int64_t>(clock_->NowSeconds());
  SL_RETURN_NOT_OK(meta_->PutTableInfo(info));
  tables_.erase(name);
  return Status::OK();
}

Status LakehouseService::DropTableHard(const std::string& name) {
  MutexLock lock(&mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name));
  // Remove metadata entries (cache first, then disk — handled by the
  // metadata store) for every snapshot/commit.
  for (const auto& [snapshot_id, ts] : info.snapshot_log) {
    SL_RETURN_NOT_OK(meta_->DeleteSnapshot(info.path, snapshot_id));
  }
  for (uint64_t seq = 1; seq < info.next_commit_seq; ++seq) {
    SL_RETURN_NOT_OK(meta_->DeleteCommit(info.path, seq));
  }
  // Remove all data and metadata objects under the table path.
  for (const std::string& path : objects_->List(info.path + "/")) {
    SL_RETURN_NOT_OK(objects_->Delete(path));
    // Data files are gone for good; their decoded blocks go with them.
    if (block_cache_ != nullptr) block_cache_->InvalidateFile(path);
  }
  SL_RETURN_NOT_OK(meta_->DeleteTableInfo(name));
  tables_.erase(name);
  return Status::OK();
}

Result<query::QueryResult> LakehouseService::Query(
    const query::SqlStatement& statement, const SelectOptions& options,
    SelectMetrics* metrics) {
  using Kind = query::SqlStatement::Kind;
  if (statement.kind == Kind::kSelect) {
    return CaptureQuery(
        clock_, metrics, [&](SelectMetrics* m) -> Result<query::QueryResult> {
          if (options.snapshot_id != 0 && !statement.joins.empty()) {
            return Status::InvalidArgument(
                "snapshot_id cannot be combined with joins: snapshot ids "
                "are per-table");
          }
          // The pin pass: one catalog read per referenced table, all before
          // any scan starts. Per-table as_of_timestamp resolution against
          // these entries = one consistent point in time.
          std::vector<query::PlanTableRef> refs{
              {statement.table, statement.table_alias, nullptr}};
          for (const query::JoinSpec& join : statement.joins) {
            refs.push_back({join.table, join.alias, nullptr});
          }
          std::vector<PinnedTable> pinned;
          for (query::PlanTableRef& ref : refs) {
            if (ref.alias.empty()) ref.alias = ref.table;
            SL_ASSIGN_OR_RETURN(PinnedTable table, PinTable(ref.table));
            pinned.push_back(std::move(table));
          }
          for (size_t i = 0; i < refs.size(); ++i) {
            refs[i].schema = &pinned[i].info.schema;
          }
          SL_ASSIGN_OR_RETURN(query::Plan plan,
                              query::PlanSelect(statement, refs));
          return RunPlan(pinned, plan, options, m);
        });
  }

  // DML: check every literal against the pinned schema, then run the
  // statement's single commit.
  SL_ASSIGN_OR_RETURN(PinnedTable pinned, PinTable(statement.table));
  const format::Schema& schema = pinned.info.schema;
  SL_ASSIGN_OR_RETURN(query::Conjunction where,
                      query::CoerceConjunction(schema, statement.where));
  switch (statement.kind) {
    case Kind::kInsert: {
      std::vector<format::Row> rows;
      rows.reserve(statement.insert_rows.size());
      for (const std::vector<format::Value>& values : statement.insert_rows) {
        format::Row row;
        row.fields = values;
        // Arity mismatches are left to Table::Insert's row validation.
        for (size_t c = 0; c < row.fields.size() && c < schema.num_fields();
             ++c) {
          SL_ASSIGN_OR_RETURN(row.fields[c],
                              query::CoerceLiteral(schema,
                                                   schema.field(c).name,
                                                   std::move(row.fields[c])));
        }
        rows.push_back(std::move(row));
      }
      SL_RETURN_NOT_OK(pinned.table->Insert(rows));
      return AffectedRows(rows.size());
    }
    case Kind::kDelete:
      return AffectedRows(pinned.table->Delete(where));
    case Kind::kUpdate: {
      SL_ASSIGN_OR_RETURN(
          format::Value value,
          query::CoerceLiteral(schema, statement.set_column,
                               statement.set_value));
      return AffectedRows(
          pinned.table->Update(where, statement.set_column, value));
    }
    case Kind::kSelect:
      break;  // handled above
  }
  return Status::InvalidArgument("unknown statement kind");
}

Result<Table*> LakehouseService::RestoreTable(const std::string& name) {
  MutexLock lock(&mu_);
  SL_ASSIGN_OR_RETURN(TableInfo info, meta_->GetTableInfo(name));
  if (!info.soft_deleted) {
    return Status::InvalidArgument("table " + name + " is not dropped");
  }
  info.soft_deleted = false;
  info.modified_at = static_cast<int64_t>(clock_->NowSeconds());
  SL_RETURN_NOT_OK(meta_->PutTableInfo(info));
  auto table = std::make_unique<Table>(name, meta_, objects_, clock_,
                                       compute_link_, default_options_,
                                       scan_pool_, block_cache_);
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

}  // namespace streamlake::table
