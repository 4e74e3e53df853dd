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
/// marks refs whose columns appear in the joined row (the FROM table and
/// inner joins; semi joins only filter).
class Resolver {
 public:
  Resolver(const std::vector<PlanTableRef>& refs,
           std::vector<bool> contributes)
      : refs_(refs), contributes_(std::move(contributes)) {}

  /// Resolve `name` among the first `count` refs to {ref index, column}: a
  /// qualified name against the first ref it names, an unqualified one
  /// against the only ref with that column. Semi-joined tables are legal
  /// targets (WHERE predicates route to their scans).
  Result<std::pair<size_t, std::string>> Resolve(const std::string& name,
                                                 size_t count) const {
    auto [qualifier, field] = SplitQualifier(name);
    if (!qualifier.empty()) {
      for (size_t i = 0; i < count; ++i) {
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
    for (size_t i = 0; i < count; ++i) {
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

  /// Resolve a column of the joined row (projection, GROUP BY, aggregate
  /// input, join probe key) among the first `count` refs.
  Result<std::pair<size_t, std::string>> ResolveRowColumn(
      const std::string& name, size_t count) const {
    SL_ASSIGN_OR_RETURN(auto resolved, Resolve(name, count));
    if (!contributes_[resolved.first]) {
      return Status::InvalidArgument(
          "column '" + name + "' references semi-joined table '" +
          refs_[resolved.first].alias + "' which has no output columns");
    }
    return resolved;
  }

  /// The output spelling of a joined-row column: `alias.column` when the
  /// statement references more than one table, else the bare column.
  Result<std::string> ResolveOutput(const std::string& name) const {
    SL_ASSIGN_OR_RETURN(auto resolved, ResolveRowColumn(name, refs_.size()));
    if (refs_.size() == 1) return resolved.second;
    return refs_[resolved.first].alias + "." + resolved.second;
  }

 private:
  const std::vector<PlanTableRef>& refs_;
  std::vector<bool> contributes_;
};

void AppendScanString(const Plan::Scan& scan, std::string* out) {
  *out += "Scan(" + scan.table;
  if (scan.alias != scan.table) *out += " AS " + scan.alias;
  if (!scan.filter.empty()) *out += ", filter: " + scan.filter.ToString();
  *out += ")\n";
}

void AppendNames(const std::vector<std::string>& names, std::string* out) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) *out += ", ";
    *out += names[i];
  }
}

}  // namespace

Result<Plan> PlanSelect(const SqlStatement& statement,
                        const std::vector<PlanTableRef>& refs) {
  if (statement.kind != SqlStatement::Kind::kSelect) {
    return Status::InvalidArgument("PlanSelect needs a SELECT statement");
  }
  if (refs.size() != statement.joins.size() + 1) {
    return Status::InvalidArgument(
        "planner given " + std::to_string(refs.size()) + " tables for " +
        std::to_string(statement.joins.size() + 1) + " references");
  }
  std::vector<bool> contributes(refs.size(), false);
  contributes[0] = true;
  for (size_t j = 0; j < statement.joins.size(); ++j) {
    contributes[j + 1] = statement.joins[j].kind == JoinSpec::Kind::kInner;
  }
  Resolver resolver(refs, contributes);

  Plan plan;
  for (const PlanTableRef& ref : refs) {
    plan.scans.push_back({ref.table, ref.alias, {}});
  }
  // Route every WHERE predicate to its owning table's scan filter (full
  // pushdown: the scan evaluates it with the unqualified name).
  for (const Predicate& p : statement.select.where.predicates()) {
    SL_ASSIGN_OR_RETURN(auto target, resolver.Resolve(p.column, refs.size()));
    Predicate routed = p;
    routed.column = target.second;
    plan.scans[target.first].filter.Add(std::move(routed));
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
      plan.scans[j + 1].filter.Add(std::move(routed));
    }
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    SL_ASSIGN_OR_RETURN(plan.scans[i].filter,
                        CoerceConjunction(*refs[i].schema,
                                          plan.scans[i].filter));
  }

  // The joined row: the probe table's columns, then each inner join's
  // build columns; ref i's columns start at offset[i].
  std::vector<format::Field> row_fields;
  std::vector<size_t> offset(refs.size(), 0);
  auto append_columns = [&](size_t i) {
    offset[i] = row_fields.size();
    for (const format::Field& f : refs[i].schema->fields()) {
      row_fields.push_back(format::Field{
          refs.size() == 1 ? f.name : refs[i].alias + "." + f.name, f.type});
    }
  };
  append_columns(0);
  for (size_t j = 0; j < statement.joins.size(); ++j) {
    const JoinSpec& join = statement.joins[j];
    const PlanTableRef& ref = refs[j + 1];

    // Classify the ON / correlation keys: exactly one side must belong to
    // the newly joined table, the other to a table joined before it.
    auto build_side = [&](const std::string& key)
        -> std::optional<std::string> {  // unqualified build column
      auto [qualifier, field] = SplitQualifier(key);
      if (!qualifier.empty() && !RefMatches(ref, qualifier)) {
        return std::nullopt;
      }
      if (ref.schema->FieldIndex(field) < 0) return std::nullopt;
      return field;
    };
    auto probe_side = [&](const std::string& key) {
      auto [qualifier, field] = SplitQualifier(key);
      for (size_t i = 0; i <= j; ++i) {
        if (!contributes[i]) continue;
        if (!qualifier.empty() && !RefMatches(refs[i], qualifier)) continue;
        if (refs[i].schema->FieldIndex(field) >= 0) return true;
      }
      return false;
    };

    std::optional<std::string> build_key;
    const std::string* probe_key = nullptr;  // as spelled in the statement
    if (join.kind == JoinSpec::Kind::kSemi) {
      // IN / EXISTS desugaring is directional — the left key is the
      // outer column, the right key the subquery's — so there is no
      // symmetric ambiguity to resolve.
      build_key = build_side(join.right_key);
      if (build_key && probe_side(join.left_key)) probe_key = &join.left_key;
    } else {
      std::optional<std::string> left_build = build_side(join.left_key);
      std::optional<std::string> right_build = build_side(join.right_key);
      bool left_probe = probe_side(join.left_key);
      bool right_probe = probe_side(join.right_key);
      if (left_build && right_probe && right_build && left_probe) {
        return Status::InvalidArgument(
            "ambiguous join keys '" + join.left_key + "' = '" +
            join.right_key + "'; qualify them with table aliases");
      }
      if (right_build && left_probe) {
        build_key = right_build;
        probe_key = &join.left_key;
      } else if (left_build && right_probe) {
        build_key = left_build;
        probe_key = &join.right_key;
      }
    }
    if (probe_key == nullptr) {
      return Status::InvalidArgument(
          "join keys '" + join.left_key + "' = '" + join.right_key +
          "' must reference the joined table '" + ref.alias +
          "' on one side and an earlier table on the other");
    }
    // The probe key binds like any other column of the rows joined so far.
    SL_ASSIGN_OR_RETURN(auto probe, resolver.ResolveRowColumn(*probe_key,
                                                              j + 1));
    const format::Schema& probe_schema = *refs[probe.first].schema;
    int probe_col = probe_schema.FieldIndex(probe.second);
    int build_col = ref.schema->FieldIndex(*build_key);
    // The value-compare path used by the hash map aborts on mixed types.
    if (probe_schema.field(probe_col).type !=
        ref.schema->field(build_col).type) {
      return Status::InvalidArgument(
          "join key type mismatch between '" + refs[probe.first].alias +
          "." + probe.second + "' and '" + ref.alias + "." + *build_key +
          "'");
    }
    plan.joins.push_back(
        {join.kind == JoinSpec::Kind::kSemi,
         static_cast<int>(offset[probe.first]) + probe_col, build_col});
    if (join.kind == JoinSpec::Kind::kInner) append_columns(j + 1);
  }
  plan.row_schema = format::Schema(std::move(row_fields));

  QuerySpec& output = plan.output;
  for (const std::string& c : statement.select.projection) {
    SL_ASSIGN_OR_RETURN(std::string name, resolver.ResolveOutput(c));
    output.projection.push_back(std::move(name));
  }
  for (const std::string& g : statement.select.group_by) {
    SL_ASSIGN_OR_RETURN(std::string name, resolver.ResolveOutput(g));
    output.group_by.push_back(std::move(name));
  }
  for (const AggregateSpec& agg : statement.select.aggregates) {
    AggregateSpec resolved = agg;
    if (!agg.column.empty()) {
      SL_ASSIGN_OR_RETURN(resolved.column, resolver.ResolveOutput(agg.column));
    }
    output.aggregates.push_back(std::move(resolved));
  }
  // ORDER BY may name an aggregate alias; otherwise resolve it when it
  // names a column, else leave it for the executor's diagnostic.
  output.order_by = statement.select.order_by;
  if (!output.order_by.empty()) {
    bool is_alias = false;
    for (const AggregateSpec& agg : output.aggregates) {
      if (agg.alias == output.order_by) is_alias = true;
    }
    if (!is_alias) {
      Result<std::string> resolved = resolver.ResolveOutput(output.order_by);
      if (resolved.ok()) output.order_by = *resolved;
    }
  }
  output.order_descending = statement.select.order_descending;
  output.limit = statement.select.limit;
  return plan;
}

std::string PlanToString(const Plan& plan,
                         const std::vector<PlanTableRef>& refs) {
  std::string out;
  AppendScanString(plan.scans[0], &out);
  for (size_t j = 0; j < plan.joins.size(); ++j) {
    const Plan::Join& join = plan.joins[j];
    const Plan::Scan& build = plan.scans[j + 1];
    out += join.semi ? "HashJoin(semi, " : "HashJoin(inner, ";
    out += plan.row_schema.field(join.probe_col).name + " = " + build.alias +
           "." + refs[j + 1].schema->field(join.build_col).name + ")\n  ";
    AppendScanString(build, &out);
  }
  const QuerySpec& output = plan.output;
  if (!output.aggregates.empty()) {
    out += "Aggregate(";
    AppendNames(output.group_by, &out);
    if (!output.group_by.empty()) out += "; ";
    for (size_t i = 0; i < output.aggregates.size(); ++i) {
      if (i) out += ", ";
      out += output.aggregates[i].alias;
    }
    out += ")\n";
  } else if (!output.projection.empty()) {
    out += "Project(";
    AppendNames(output.projection, &out);
    out += ")\n";
  }
  if (!output.order_by.empty() || output.limit > 0) {
    out += "SortLimit(";
    if (!output.order_by.empty()) {
      out += "order by " + output.order_by +
             (output.order_descending ? " desc" : " asc");
    }
    if (output.limit > 0) {
      if (!output.order_by.empty()) out += ", ";
      out += "limit " + std::to_string(output.limit);
    }
    out += ")\n";
  }
  return out;
}

}  // namespace streamlake::query
