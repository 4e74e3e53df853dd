#include "query/spec.h"

namespace streamlake::query {

namespace {

/// An aggregate of `column`, aliased `name(column)` unless `alias` is set.
AggregateSpec Of(AggregateSpec::Func func, const char* name,
                 std::string column, std::string alias) {
  AggregateSpec spec;
  spec.func = func;
  spec.alias = alias.empty() ? name + ("(" + column + ")") : std::move(alias);
  spec.column = std::move(column);
  return spec;
}

}  // namespace

AggregateSpec AggregateSpec::CountStar(std::string alias) {
  AggregateSpec spec;
  spec.func = Func::kCount;
  spec.alias = std::move(alias);
  return spec;
}

AggregateSpec AggregateSpec::Count(std::string column, std::string alias) {
  return Of(Func::kCount, "count", std::move(column), std::move(alias));
}

AggregateSpec AggregateSpec::Sum(std::string column, std::string alias) {
  return Of(Func::kSum, "sum", std::move(column), std::move(alias));
}

AggregateSpec AggregateSpec::Min(std::string column, std::string alias) {
  return Of(Func::kMin, "min", std::move(column), std::move(alias));
}

AggregateSpec AggregateSpec::Max(std::string column, std::string alias) {
  return Of(Func::kMax, "max", std::move(column), std::move(alias));
}

AggregateSpec AggregateSpec::Avg(std::string column, std::string alias) {
  return Of(Func::kAvg, "avg", std::move(column), std::move(alias));
}

}  // namespace streamlake::query
