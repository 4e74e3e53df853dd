#include "query/plan.h"

#include <optional>
#include <utility>

namespace streamlake::query {

namespace {

/// `alias.column` → {alias, column}; unqualified → {"", column}.
std::pair<std::string, std::string> SplitQualifier(const std::string& name) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}

bool RefMatches(const PlanTableRef& ref, const std::string& qualifier) {
  return qualifier == ref.alias || qualifier == ref.table;
}

/// Column-name resolution over the tables of one statement. `contributes`
/// marks refs whose columns appear in the join output (the FROM table and
/// inner joins; semi joins only filter).
class Resolver {
 public:
  Resolver(const std::vector<PlanTableRef>& refs,
           std::vector<bool> contributes)
      : refs_(refs), contributes_(std::move(contributes)) {}

  /// Resolve to any referenced table (used to route WHERE predicates to
  /// per-table scan filters; semi-joined tables are legal targets).
  Result<std::pair<size_t, std::string>> ResolveAnyRef(
      const std::string& name) const {
    auto [qualifier, field] = SplitQualifier(name);
    if (!qualifier.empty()) {
      for (size_t i = 0; i < refs_.size(); ++i) {
        if (!RefMatches(refs_[i], qualifier)) continue;
        if (refs_[i].schema->FieldIndex(field) < 0) {
          return Status::InvalidArgument("unknown column '" + name + "'");
        }
        return std::make_pair(i, field);
      }
      return Status::InvalidArgument("unknown table alias '" + qualifier +
                                     "' in column '" + name + "'");
    }
    std::optional<size_t> found;
    for (size_t i = 0; i < refs_.size(); ++i) {
      if (refs_[i].schema->FieldIndex(field) < 0) continue;
      if (found) {
        return Status::InvalidArgument("ambiguous column '" + name + "'");
      }
      found = i;
    }
    if (!found) {
      return Status::InvalidArgument("unknown column '" + name + "'");
    }
    return std::make_pair(*found, field);
  }

  /// Resolve an output column (projection / GROUP BY / aggregate / join
  /// probe key) to its qualified `alias.field` spelling. Only
  /// contributing tables qualify.
  Result<std::string> ResolveOutput(const std::string& name) const {
    SL_ASSIGN_OR_RETURN(auto resolved, ResolveAnyRef(name));
    auto [ref_idx, field] = resolved;
    if (!contributes_[ref_idx]) {
      return Status::InvalidArgument(
          "column '" + name + "' references semi-joined table '" +
          refs_[ref_idx].alias + "' which has no output columns");
    }
    return refs_[ref_idx].alias + "." + field;
  }

  const PlanTableRef& ref(size_t i) const { return refs_[i]; }
  size_t num_refs() const { return refs_.size(); }

 private:
  const std::vector<PlanTableRef>& refs_;
  std::vector<bool> contributes_;
};

format::DataType AggregateOutputType(const AggregateSpec& agg,
                                     const format::Schema& input) {
  switch (agg.func) {
    case AggregateSpec::Func::kCount:
      return format::DataType::kInt64;
    case AggregateSpec::Func::kSum:
    case AggregateSpec::Func::kAvg:
      return format::DataType::kDouble;
    case AggregateSpec::Func::kMin:
    case AggregateSpec::Func::kMax: {
      int idx = input.FieldIndex(agg.column);
      return idx < 0 ? format::DataType::kInt64 : input.field(idx).type;
    }
  }
  return format::DataType::kInt64;
}

format::Schema AggregateOutputSchema(
    const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates,
    const format::Schema& input) {
  std::vector<format::Field> fields;
  for (const std::string& g : group_by) {
    int idx = input.FieldIndex(g);
    fields.push_back(format::Field{
        g, idx < 0 ? format::DataType::kInt64 : input.field(idx).type});
  }
  for (const AggregateSpec& agg : aggregates) {
    fields.push_back(
        format::Field{agg.alias, AggregateOutputType(agg, input)});
  }
  return format::Schema(std::move(fields));
}

format::Schema ProjectOutputSchema(const std::vector<std::string>& columns,
                                   const format::Schema& input) {
  std::vector<format::Field> fields;
  for (const std::string& c : columns) {
    int idx = input.FieldIndex(c);
    fields.push_back(format::Field{
        c, idx < 0 ? format::DataType::kInt64 : input.field(idx).type});
  }
  return format::Schema(std::move(fields));
}

/// Wrap `child` in the aggregate/project + sort/limit chain of `spec`.
/// Column names in `spec` must already be resolved for the child's output
/// schema.
std::unique_ptr<PlanNode> AttachOutputOperators(
    std::unique_ptr<PlanNode> child, const QuerySpec& spec) {
  if (!spec.aggregates.empty()) {
    auto agg = std::make_unique<AggregateNode>();
    agg->group_by = spec.group_by;
    agg->aggregates = spec.aggregates;
    agg->output_schema = AggregateOutputSchema(
        spec.group_by, spec.aggregates, child->output_schema);
    agg->children.push_back(std::move(child));
    child = std::move(agg);
  } else if (!spec.projection.empty()) {
    auto project = std::make_unique<ProjectNode>();
    project->columns = spec.projection;
    project->output_schema =
        ProjectOutputSchema(spec.projection, child->output_schema);
    project->children.push_back(std::move(child));
    child = std::move(project);
  }
  if (!spec.order_by.empty() || spec.limit > 0) {
    auto sort = std::make_unique<SortLimitNode>();
    sort->order_by = spec.order_by;
    sort->order_descending = spec.order_descending;
    sort->limit = spec.limit;
    sort->output_schema = child->output_schema;
    sort->children.push_back(std::move(child));
    child = std::move(sort);
  }
  return child;
}

/// Single-table lowering: strip the table's own qualifier off every
/// column reference. WHERE literals are checked against the schema here;
/// the executor validates output names at run time (keeping its error
/// messages byte-exact).
Result<std::unique_ptr<PlanNode>> PlanSingleTable(
    const SqlStatement& statement, const PlanTableRef& ref) {
  auto strip = [&](const std::string& name) -> Result<std::string> {
    auto [qualifier, field] = SplitQualifier(name);
    if (qualifier.empty()) return name;
    if (!RefMatches(ref, qualifier)) {
      return Status::InvalidArgument("unknown table alias '" + qualifier +
                                     "' in column '" + name + "'");
    }
    return field;
  };

  auto scan = std::make_unique<ScanNode>();
  scan->table = ref.table;
  scan->alias = ref.alias;
  scan->table_index = 0;
  scan->output_schema = *ref.schema;
  Conjunction where;
  for (const Predicate& p : statement.select.where.predicates()) {
    Predicate stripped = p;
    SL_ASSIGN_OR_RETURN(stripped.column, strip(p.column));
    where.Add(std::move(stripped));
  }
  SL_ASSIGN_OR_RETURN(scan->filter, CoerceConjunction(*ref.schema, where));

  QuerySpec spec;
  for (const std::string& c : statement.select.projection) {
    SL_ASSIGN_OR_RETURN(std::string name, strip(c));
    spec.projection.push_back(std::move(name));
  }
  for (const std::string& g : statement.select.group_by) {
    SL_ASSIGN_OR_RETURN(std::string name, strip(g));
    spec.group_by.push_back(std::move(name));
  }
  for (const AggregateSpec& agg : statement.select.aggregates) {
    AggregateSpec resolved = agg;
    if (!agg.column.empty()) {
      SL_ASSIGN_OR_RETURN(resolved.column, strip(agg.column));
    }
    spec.aggregates.push_back(std::move(resolved));
  }
  // ORDER BY names an output column (aggregate aliases included), so an
  // unmatched qualifier is left for the executor to diagnose.
  spec.order_by = statement.select.order_by;
  auto [oq, ofield] = SplitQualifier(spec.order_by);
  if (!oq.empty() && RefMatches(ref, oq)) spec.order_by = ofield;
  spec.order_descending = statement.select.order_descending;
  spec.limit = statement.select.limit;

  return AttachOutputOperators(std::move(scan), spec);
}

format::Schema QualifiedSchema(const PlanTableRef& ref) {
  std::vector<format::Field> fields;
  for (const format::Field& f : ref.schema->fields()) {
    fields.push_back(format::Field{ref.alias + "." + f.name, f.type});
  }
  return format::Schema(std::move(fields));
}

Result<std::unique_ptr<PlanNode>> PlanMultiTable(
    const SqlStatement& statement, const std::vector<PlanTableRef>& refs) {
  std::vector<bool> contributes(refs.size(), false);
  contributes[0] = true;
  for (size_t j = 0; j < statement.joins.size(); ++j) {
    contributes[j + 1] = statement.joins[j].kind == JoinSpec::Kind::kInner;
  }
  Resolver resolver(refs, contributes);

  // Route every WHERE predicate to its owning table's scan filter
  // (full pushdown: the scan evaluates it with the unqualified name).
  std::vector<Conjunction> scan_filters(refs.size());
  for (const Predicate& p : statement.select.where.predicates()) {
    SL_ASSIGN_OR_RETURN(auto target, resolver.ResolveAnyRef(p.column));
    Predicate routed = p;
    routed.column = target.second;
    scan_filters[target.first].Add(std::move(routed));
  }
  // Subquery WHERE clauses are scoped to their own table.
  for (size_t j = 0; j < statement.joins.size(); ++j) {
    const JoinSpec& join = statement.joins[j];
    const PlanTableRef& ref = refs[j + 1];
    for (const Predicate& p : join.where.predicates()) {
      auto [qualifier, field] = SplitQualifier(p.column);
      if (!qualifier.empty() && !RefMatches(ref, qualifier)) {
        return Status::InvalidArgument(
            "subquery predicate column '" + p.column +
            "' must reference the subquery table '" + ref.alias + "'");
      }
      if (ref.schema->FieldIndex(field) < 0) {
        return Status::InvalidArgument("unknown column '" + p.column +
                                       "' in subquery on '" + ref.alias +
                                       "'");
      }
      Predicate routed = p;
      routed.column = field;
      scan_filters[j + 1].Add(std::move(routed));
    }
  }

  for (size_t i = 0; i < refs.size(); ++i) {
    SL_ASSIGN_OR_RETURN(scan_filters[i],
                        CoerceConjunction(*refs[i].schema, scan_filters[i]));
  }

  auto probe_scan = std::make_unique<ScanNode>();
  probe_scan->table = refs[0].table;
  probe_scan->alias = refs[0].alias;
  probe_scan->table_index = 0;
  probe_scan->filter = std::move(scan_filters[0]);
  probe_scan->output_schema = QualifiedSchema(refs[0]);

  std::unique_ptr<PlanNode> probe = std::move(probe_scan);
  for (size_t j = 0; j < statement.joins.size(); ++j) {
    const JoinSpec& join = statement.joins[j];
    const PlanTableRef& ref = refs[j + 1];

    // Classify the ON / correlation keys: exactly one side must belong to
    // the newly joined table, the other to the probe subtree built so far.
    auto build_side = [&](const std::string& key)
        -> std::optional<std::string> {  // unqualified build column
      auto [qualifier, field] = SplitQualifier(key);
      if (!qualifier.empty()) {
        if (!RefMatches(ref, qualifier)) return std::nullopt;
        if (ref.schema->FieldIndex(field) < 0) return std::nullopt;
        return field;
      }
      if (ref.schema->FieldIndex(field) < 0) return std::nullopt;
      return field;
    };
    auto probe_side = [&](const std::string& key)
        -> std::optional<std::string> {  // qualified probe column
      auto [qualifier, field] = SplitQualifier(key);
      for (size_t i = 0; i <= j; ++i) {
        if (!contributes[i]) continue;
        if (!qualifier.empty() && !RefMatches(refs[i], qualifier)) continue;
        if (refs[i].schema->FieldIndex(field) < 0) continue;
        return refs[i].alias + "." + field;
      }
      return std::nullopt;
    };

    std::string build_key;
    std::string probe_key;
    if (join.kind == JoinSpec::Kind::kSemi) {
      // IN / EXISTS desugaring is directional — the left key is the
      // outer column, the right key the subquery's — so there is no
      // symmetric ambiguity to resolve.
      std::optional<std::string> semi_build = build_side(join.right_key);
      std::optional<std::string> semi_probe = probe_side(join.left_key);
      if (!semi_build || !semi_probe) {
        return Status::InvalidArgument(
            "join keys '" + join.left_key + "' = '" + join.right_key +
            "' must reference the joined table '" + ref.alias +
            "' on one side and an earlier table on the other");
      }
      build_key = *semi_build;
      probe_key = *semi_probe;
    } else {
      std::optional<std::string> left_build = build_side(join.left_key);
      std::optional<std::string> right_build = build_side(join.right_key);
      std::optional<std::string> left_probe = probe_side(join.left_key);
      std::optional<std::string> right_probe = probe_side(join.right_key);

      if (right_build && left_probe && !(left_build && right_probe)) {
        build_key = *right_build;
        probe_key = *left_probe;
      } else if (left_build && right_probe && !(right_build && left_probe)) {
        build_key = *left_build;
        probe_key = *right_probe;
      } else if (left_build && right_probe && right_build && left_probe) {
        return Status::InvalidArgument(
            "ambiguous join keys '" + join.left_key + "' = '" +
            join.right_key + "'; qualify them with table aliases");
      } else {
        return Status::InvalidArgument(
            "join keys '" + join.left_key + "' = '" + join.right_key +
            "' must reference the joined table '" + ref.alias +
            "' on one side and an earlier table on the other");
      }
    }

    int probe_col = probe->output_schema.FieldIndex(probe_key);
    int build_col = ref.schema->FieldIndex(build_key);
    // Both resolved above; verify the key types agree, because the
    // value-compare path used by the hash map aborts on mixed types.
    if (probe->output_schema.field(probe_col).type !=
        ref.schema->field(build_col).type) {
      return Status::InvalidArgument(
          "join key type mismatch between '" + probe_key + "' and '" +
          ref.alias + "." + build_key + "'");
    }

    auto build_scan = std::make_unique<ScanNode>();
    build_scan->table = ref.table;
    build_scan->alias = ref.alias;
    build_scan->table_index = j + 1;
    build_scan->filter = std::move(scan_filters[j + 1]);
    build_scan->output_schema = *ref.schema;

    auto node = std::make_unique<HashJoinNode>();
    node->join_kind = join.kind == JoinSpec::Kind::kInner
                          ? HashJoinNode::JoinKind::kInner
                          : HashJoinNode::JoinKind::kSemi;
    node->probe_key = probe_key;
    node->build_key = build_key;
    node->probe_col = probe_col;
    node->build_col = build_col;
    std::vector<format::Field> out_fields = probe->output_schema.fields();
    if (join.kind == JoinSpec::Kind::kInner) {
      const format::Schema qualified = QualifiedSchema(ref);
      for (const format::Field& f : qualified.fields()) {
        out_fields.push_back(f);
      }
    }
    node->output_schema = format::Schema(std::move(out_fields));
    node->children.push_back(std::move(probe));
    node->children.push_back(std::move(build_scan));
    probe = std::move(node);
  }

  // Rewrite the output clauses to qualified names against the join output.
  QuerySpec spec;
  for (const std::string& c : statement.select.projection) {
    SL_ASSIGN_OR_RETURN(std::string name, resolver.ResolveOutput(c));
    spec.projection.push_back(std::move(name));
  }
  for (const std::string& g : statement.select.group_by) {
    SL_ASSIGN_OR_RETURN(std::string name, resolver.ResolveOutput(g));
    spec.group_by.push_back(std::move(name));
  }
  for (const AggregateSpec& agg : statement.select.aggregates) {
    AggregateSpec resolved = agg;
    if (!agg.column.empty()) {
      SL_ASSIGN_OR_RETURN(resolved.column,
                          resolver.ResolveOutput(agg.column));
    }
    spec.aggregates.push_back(std::move(resolved));
  }
  // ORDER BY may name an aggregate alias; otherwise qualify it if it
  // resolves, else leave it for the executor's diagnostic.
  spec.order_by = statement.select.order_by;
  if (!spec.order_by.empty()) {
    bool is_alias = false;
    for (const AggregateSpec& agg : spec.aggregates) {
      if (agg.alias == spec.order_by) is_alias = true;
    }
    if (!is_alias) {
      Result<std::string> resolved = resolver.ResolveOutput(spec.order_by);
      if (resolved.ok()) spec.order_by = *resolved;
    }
  }
  spec.order_descending = statement.select.order_descending;
  spec.limit = statement.select.limit;

  return AttachOutputOperators(std::move(probe), spec);
}

void AppendPlanString(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(node);
      *out += "Scan(" + scan.table;
      if (scan.alias != scan.table) *out += " AS " + scan.alias;
      if (!scan.filter.empty()) *out += ", filter: " + scan.filter.ToString();
      *out += ")";
      break;
    }
    case PlanNode::Kind::kFilter: {
      const auto& filter = static_cast<const FilterNode&>(node);
      *out += "Filter(" + filter.filter.ToString() + ")";
      break;
    }
    case PlanNode::Kind::kProject: {
      const auto& project = static_cast<const ProjectNode&>(node);
      *out += "Project(";
      for (size_t i = 0; i < project.columns.size(); ++i) {
        if (i) *out += ", ";
        *out += project.columns[i];
      }
      *out += ")";
      break;
    }
    case PlanNode::Kind::kHashJoin: {
      const auto& join = static_cast<const HashJoinNode&>(node);
      *out += join.join_kind == HashJoinNode::JoinKind::kInner
                  ? "HashJoin(inner, "
                  : "HashJoin(semi, ";
      *out += join.probe_key + " = " + join.build_key + ")";
      break;
    }
    case PlanNode::Kind::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(node);
      *out += "Aggregate(";
      for (size_t i = 0; i < agg.group_by.size(); ++i) {
        if (i) *out += ", ";
        *out += agg.group_by[i];
      }
      if (!agg.group_by.empty() && !agg.aggregates.empty()) *out += "; ";
      for (size_t i = 0; i < agg.aggregates.size(); ++i) {
        if (i) *out += ", ";
        *out += agg.aggregates[i].alias;
      }
      *out += ")";
      break;
    }
    case PlanNode::Kind::kSortLimit: {
      const auto& sort = static_cast<const SortLimitNode&>(node);
      *out += "SortLimit(";
      if (!sort.order_by.empty()) {
        *out += "order by " + sort.order_by +
                (sort.order_descending ? " desc" : " asc");
      }
      if (sort.limit > 0) {
        if (!sort.order_by.empty()) *out += ", ";
        *out += "limit " + std::to_string(sort.limit);
      }
      *out += ")";
      break;
    }
  }
  *out += "\n";
  for (const auto& child : node.children) {
    AppendPlanString(*child, depth + 1, out);
  }
}

}  // namespace

Result<std::unique_ptr<PlanNode>> PlanSelect(
    const SqlStatement& statement,
    const std::vector<PlanTableRef>& refs) {
  if (statement.kind != SqlStatement::Kind::kSelect) {
    return Status::InvalidArgument("PlanSelect needs a SELECT statement");
  }
  if (refs.size() != statement.joins.size() + 1) {
    return Status::InvalidArgument(
        "planner given " + std::to_string(refs.size()) + " tables for " +
        std::to_string(statement.joins.size() + 1) + " references");
  }
  if (refs.size() == 1) return PlanSingleTable(statement, refs[0]);
  return PlanMultiTable(statement, refs);
}

std::string PlanToString(const PlanNode& root) {
  std::string out;
  AppendPlanString(root, 0, &out);
  return out;
}

}  // namespace streamlake::query
