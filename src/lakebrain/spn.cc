#include "lakebrain/spn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "common/random.h"

namespace streamlake::lakebrain {

namespace {

/// Numeric projection of a value for correlation / clustering. Strings
/// hash to a stable pseudo-rank (adequate for independence testing).
double Numeric(const format::Value& v) {
  switch (format::TypeOf(v)) {
    case format::DataType::kBool:
      return std::get<bool>(v) ? 1.0 : 0.0;
    case format::DataType::kInt64:
      return static_cast<double>(std::get<int64_t>(v));
    case format::DataType::kDouble:
      return std::get<double>(v);
    case format::DataType::kString: {
      const std::string& s = std::get<std::string>(v);
      double acc = 0;
      for (size_t i = 0; i < s.size() && i < 8; ++i) {
        acc = acc * 0.3 + s[i];
      }
      return acc;
    }
    case format::DataType::kNull:
      return 0;
  }
  return 0;
}

/// Prior selectivity of one predicate from observed column stats, for
/// smoothing a zero sample estimate. 0 = no usable prior (zero stands).
double PriorSelectivity(const query::Predicate& p, const ColumnPrior& prior) {
  switch (p.op) {
    case query::CompareOp::kEq:
      return prior.ndv > 0 ? 1.0 / static_cast<double>(prior.ndv) : 0.0;
    case query::CompareOp::kIn:
      return prior.ndv > 0
                 ? std::min(1.0, static_cast<double>(p.in_list.size()) /
                                     static_cast<double>(prior.ndv))
                 : 0.0;
    case query::CompareOp::kIsNull:
      return prior.null_fraction;
    case query::CompareOp::kIsNotNull:
      return 1.0 - prior.null_fraction;
    default:
      return 0.0;  // range predicates: footer stats carry no density shape
  }
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const size_t n = a.size();
  if (n < 2) return 0;
  double ma = 0, mb = 0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va == 0 || vb == 0) return 0;
  return cov / std::sqrt(va * vb);
}

}  // namespace

struct SumProductNetwork::Node {
  enum class Type { kSum, kProduct, kLeaf };
  Type type = Type::kLeaf;

  // Sum: weighted children over the same columns.
  std::vector<std::shared_ptr<Node>> children;
  std::vector<double> weights;

  // Product: children over disjoint column sets; Leaf: a single group.
  // Leaf payload: per-column retained samples.
  std::vector<int> columns;                        // leaf columns
  std::vector<std::vector<format::Value>> samples;  // parallel to columns

  double Evaluate(const format::Schema& schema, const query::Conjunction& where,
                  const std::vector<ColumnPrior>& priors) const {
    switch (type) {
      case Type::kSum: {
        double acc = 0;
        for (size_t c = 0; c < children.size(); ++c) {
          acc += weights[c] * children[c]->Evaluate(schema, where, priors);
        }
        return acc;
      }
      case Type::kProduct: {
        double acc = 1.0;
        for (const auto& child : children) {
          acc *= child->Evaluate(schema, where, priors);
        }
        return acc;
      }
      case Type::kLeaf: {
        // Joint evaluation over this leaf's columns: fraction of retained
        // samples satisfying every predicate on those columns.
        std::vector<const query::Predicate*> relevant;
        std::vector<int> pred_col;     // index into `columns`
        std::vector<int> pred_schema;  // schema column, for priors
        for (const query::Predicate& predicate : where.predicates()) {
          int schema_col = schema.FieldIndex(predicate.column);
          for (size_t c = 0; c < columns.size(); ++c) {
            if (columns[c] == schema_col) {
              relevant.push_back(&predicate);
              pred_col.push_back(static_cast<int>(c));
              pred_schema.push_back(schema_col);
            }
          }
        }
        if (relevant.empty()) return 1.0;
        size_t n = samples.empty() ? 0 : samples[0].size();
        if (n == 0) return 1.0;
        size_t matching = 0;
        for (size_t i = 0; i < n; ++i) {
          bool ok = true;
          for (size_t p = 0; p < relevant.size(); ++p) {
            if (!relevant[p]->Matches(samples[pred_col[p]][i])) {
              ok = false;
              break;
            }
          }
          if (ok) ++matching;
        }
        if (matching == 0 && !priors.empty()) {
          // The sample cannot distinguish "rare" from "absent". Smooth the
          // zero with footer-stat priors (product across predicates, under
          // the leaf's independence-within-group approximation), capped at
          // the resolution the sample can actually support.
          double floor = 1.0;
          for (size_t p = 0; p < relevant.size(); ++p) {
            size_t sc = static_cast<size_t>(pred_schema[p]);
            double sel = sc < priors.size()
                             ? PriorSelectivity(*relevant[p], priors[sc])
                             : 0.0;
            floor *= sel;
          }
          return std::min(floor, 1.0 / static_cast<double>(n + 1));
        }
        return static_cast<double>(matching) / n;
      }
    }
    return 1.0;
  }

  size_t CountNodes() const {
    size_t total = 1;
    for (const auto& child : children) total += child->CountNodes();
    return total;
  }
};

namespace {

using Node = SumProductNetwork::Node;

std::shared_ptr<Node> MakeLeaf(const std::vector<format::Row>& rows,
                               const std::vector<int>& columns,
                               const SpnOptions& options, Random* rng) {
  auto leaf = std::make_shared<Node>();
  leaf->type = Node::Type::kLeaf;
  leaf->columns = columns;
  leaf->samples.resize(columns.size());
  // Reservoir-sample row indices so joint structure is preserved.
  std::vector<size_t> picked;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (picked.size() < options.leaf_sample_cap) {
      picked.push_back(i);
    } else {
      size_t j = rng->Uniform(i + 1);
      if (j < picked.size()) picked[j] = i;
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    leaf->samples[c].reserve(picked.size());
    for (size_t i : picked) {
      leaf->samples[c].push_back(rows[i].fields[columns[c]]);
    }
  }
  return leaf;
}

std::shared_ptr<Node> Learn(const std::vector<format::Row>& rows,
                            const std::vector<int>& columns, int depth,
                            const SpnOptions& options, Random* rng);

/// 2-means over the rows' numeric projection of `columns`.
std::shared_ptr<Node> LearnSum(const std::vector<format::Row>& rows,
                               const std::vector<int>& columns, int depth,
                               const SpnOptions& options, Random* rng) {
  const size_t n = rows.size();
  // Normalize per-column to [0,1] for distance computations.
  std::vector<std::vector<double>> proj(n, std::vector<double>(columns.size()));
  for (size_t c = 0; c < columns.size(); ++c) {
    double lo = 1e300, hi = -1e300;
    for (size_t i = 0; i < n; ++i) {
      double v = Numeric(rows[i].fields[columns[c]]);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    double span = hi > lo ? hi - lo : 1.0;
    for (size_t i = 0; i < n; ++i) {
      proj[i][c] = (Numeric(rows[i].fields[columns[c]]) - lo) / span;
    }
  }
  std::vector<double> c0 = proj[rng->Uniform(n)];
  std::vector<double> c1 = proj[rng->Uniform(n)];
  std::vector<int> assign(n, 0);
  for (int iter = 0; iter < 8; ++iter) {
    for (size_t i = 0; i < n; ++i) {
      double d0 = 0, d1 = 0;
      for (size_t c = 0; c < columns.size(); ++c) {
        d0 += (proj[i][c] - c0[c]) * (proj[i][c] - c0[c]);
        d1 += (proj[i][c] - c1[c]) * (proj[i][c] - c1[c]);
      }
      assign[i] = d1 < d0 ? 1 : 0;
    }
    std::vector<double> s0(columns.size(), 0), s1(columns.size(), 0);
    size_t n0 = 0, n1 = 0;
    for (size_t i = 0; i < n; ++i) {
      auto& s = assign[i] ? s1 : s0;
      for (size_t c = 0; c < columns.size(); ++c) s[c] += proj[i][c];
      (assign[i] ? n1 : n0) += 1;
    }
    if (n0 == 0 || n1 == 0) break;
    for (size_t c = 0; c < columns.size(); ++c) {
      c0[c] = s0[c] / n0;
      c1[c] = s1[c] / n1;
    }
  }
  std::vector<format::Row> left, right;
  for (size_t i = 0; i < n; ++i) {
    (assign[i] ? right : left).push_back(rows[i]);
  }
  if (left.empty() || right.empty()) {
    return MakeLeaf(rows, columns, options, rng);  // degenerate cluster
  }
  auto node = std::make_shared<Node>();
  node->type = Node::Type::kSum;
  node->children.push_back(Learn(left, columns, depth + 1, options, rng));
  node->children.push_back(Learn(right, columns, depth + 1, options, rng));
  node->weights = {static_cast<double>(left.size()) / n,
                   static_cast<double>(right.size()) / n};
  return node;
}

std::shared_ptr<Node> Learn(const std::vector<format::Row>& rows,
                            const std::vector<int>& columns, int depth,
                            const SpnOptions& options, Random* rng) {
  if (rows.size() < options.min_instances || depth >= options.max_depth ||
      columns.size() == 1) {
    return MakeLeaf(rows, columns, options, rng);
  }

  // Independence test: group columns by |Pearson corr| > threshold.
  std::vector<std::vector<double>> proj(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    proj[c].reserve(rows.size());
    for (const format::Row& row : rows) {
      proj[c].push_back(Numeric(row.fields[columns[c]]));
    }
  }
  // Union-find over columns.
  std::vector<size_t> parent(columns.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<size_t(size_t)> find = [&](size_t x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (size_t a = 0; a < columns.size(); ++a) {
    for (size_t b = a + 1; b < columns.size(); ++b) {
      if (std::fabs(PearsonCorrelation(proj[a], proj[b])) >
          options.correlation_threshold) {
        parent[find(a)] = find(b);
      }
    }
  }
  std::map<size_t, std::vector<int>> groups;
  for (size_t c = 0; c < columns.size(); ++c) {
    groups[find(c)].push_back(columns[c]);
  }

  if (groups.size() > 1) {
    auto node = std::make_shared<Node>();
    node->type = Node::Type::kProduct;
    for (auto& [root, group_columns] : groups) {
      node->children.push_back(
          Learn(rows, group_columns, depth + 1, options, rng));
    }
    return node;
  }
  // All columns dependent: split rows instead.
  return LearnSum(rows, columns, depth, options, rng);
}

}  // namespace

Result<SumProductNetwork> SumProductNetwork::Train(
    const format::Schema& schema, const std::vector<format::Row>& sample,
    SpnOptions options) {
  if (sample.empty()) {
    return Status::InvalidArgument("SPN needs a non-empty training sample");
  }
  for (const format::Row& row : sample) {
    SL_RETURN_NOT_OK(schema.ValidateRow(row));
  }
  std::vector<int> columns;
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    columns.push_back(static_cast<int>(c));
  }
  Random rng(options.seed);
  SumProductNetwork spn;
  spn.schema_ = schema;
  spn.priors_ = options.priors;
  spn.root_ = Learn(sample, columns, 0, options, &rng);
  return spn;
}

double SumProductNetwork::EstimateSelectivity(
    const query::Conjunction& where) const {
  if (root_ == nullptr) return 1.0;
  double p = root_->Evaluate(schema_, where, priors_);
  return std::clamp(p, 0.0, 1.0);
}

uint64_t SumProductNetwork::EstimateCardinality(
    const query::Conjunction& where, uint64_t total_rows) const {
  return static_cast<uint64_t>(EstimateSelectivity(where) * total_rows + 0.5);
}

size_t SumProductNetwork::num_nodes() const {
  return root_ == nullptr ? 0 : root_->CountNodes();
}

}  // namespace streamlake::lakebrain
