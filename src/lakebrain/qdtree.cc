#include "lakebrain/qdtree.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace streamlake::lakebrain {

namespace {

using SignedPredicate = std::pair<query::Predicate, bool>;

/// Negate a range predicate when possible (the "does not satisfy the cut"
/// branch); Eq/In negations are not representable as a single predicate.
bool NegateRange(const query::Predicate& p, query::Predicate* out) {
  switch (p.op) {
    case query::CompareOp::kLe:
      *out = query::Predicate::Gt(p.column, p.literal);
      return true;
    case query::CompareOp::kGe:
      *out = query::Predicate::Lt(p.column, p.literal);
      return true;
    case query::CompareOp::kLt:
      *out = query::Predicate::Ge(p.column, p.literal);
      return true;
    case query::CompareOp::kGt:
      *out = query::Predicate::Le(p.column, p.literal);
      return true;
    case query::CompareOp::kNe:
      *out = query::Predicate::Eq(p.column, p.literal);
      return true;
    case query::CompareOp::kEq:
    case query::CompareOp::kIn:
    case query::CompareOp::kIsNull:
    case query::CompareOp::kIsNotNull:
      return false;
  }
  return false;
}

/// Positive conjunction usable by the SPN: positive constraints verbatim,
/// negated range constraints flipped, unrepresentable negations dropped
/// (conservative overestimate).
query::Conjunction ToEstimable(const std::vector<SignedPredicate>& constraints) {
  query::Conjunction out;
  for (const auto& [predicate, positive] : constraints) {
    if (positive) {
      out.Add(predicate);
    } else {
      query::Predicate negated;
      if (NegateRange(predicate, &negated)) out.Add(negated);
    }
  }
  return out;
}

/// Per-column interval bound built from predicates.
struct Bound {
  std::optional<format::Value> lo;
  bool lo_strict = false;
  std::optional<format::Value> hi;
  bool hi_strict = false;
  bool impossible = false;

  void TightenLo(const format::Value& v, bool strict) {
    if (!lo || format::CompareValues(v, *lo) > 0 ||
        (format::CompareValues(v, *lo) == 0 && strict)) {
      lo = v;
      lo_strict = strict;
    }
  }
  void TightenHi(const format::Value& v, bool strict) {
    if (!hi || format::CompareValues(v, *hi) < 0 ||
        (format::CompareValues(v, *hi) == 0 && strict)) {
      hi = v;
      hi_strict = strict;
    }
  }
  bool Empty() const {
    if (impossible) return true;
    if (!lo || !hi) return false;
    int c = format::CompareValues(*lo, *hi);
    if (c > 0) return true;
    return c == 0 && (lo_strict || hi_strict);
  }
};

void ApplyPredicate(const query::Predicate& p, bool positive,
                    std::map<std::string, Bound>* bounds) {
  Bound& bound = (*bounds)[p.column];
  if (positive) {
    switch (p.op) {
      case query::CompareOp::kLe:
        bound.TightenHi(p.literal, false);
        return;
      case query::CompareOp::kLt:
        bound.TightenHi(p.literal, true);
        return;
      case query::CompareOp::kGe:
        bound.TightenLo(p.literal, false);
        return;
      case query::CompareOp::kGt:
        bound.TightenLo(p.literal, true);
        return;
      case query::CompareOp::kEq:
        bound.TightenLo(p.literal, false);
        bound.TightenHi(p.literal, false);
        return;
      case query::CompareOp::kIn: {
        if (p.in_list.empty()) {
          bound.impossible = true;
          return;
        }
        // Conservative interval hull of the IN set.
        const format::Value* mn = &p.in_list[0];
        const format::Value* mx = &p.in_list[0];
        for (const format::Value& v : p.in_list) {
          if (format::CompareValues(v, *mn) < 0) mn = &v;
          if (format::CompareValues(v, *mx) > 0) mx = &v;
        }
        bound.TightenLo(*mn, false);
        bound.TightenHi(*mx, false);
        return;
      }
      case query::CompareOp::kNe:
        // Excludes a single point: no interval bound to tighten.
        return;
      case query::CompareOp::kIsNull:
      case query::CompareOp::kIsNotNull:
        // NULL tests bound no interval of values.
        return;
    }
    return;
  }
  // Negated constraint: only range negations produce bounds.
  query::Predicate negated;
  if (NegateRange(p, &negated)) {
    ApplyPredicate(negated, true, bounds);
  }
}

}  // namespace

bool ConstraintsContradict(const std::vector<SignedPredicate>& constraints,
                           const query::Conjunction& where) {
  std::map<std::string, Bound> bounds;
  for (const auto& [predicate, positive] : constraints) {
    ApplyPredicate(predicate, positive, &bounds);
  }
  for (const query::Predicate& predicate : where.predicates()) {
    ApplyPredicate(predicate, true, &bounds);
  }
  // Exact Eq-vs-(constraint Eq / negated Eq / In) refinements.
  for (const query::Predicate& qp : where.predicates()) {
    if (qp.op != query::CompareOp::kEq) continue;
    for (const auto& [cp, positive] : constraints) {
      if (cp.column != qp.column) continue;
      if (!positive && cp.op == query::CompareOp::kEq &&
          format::CompareValues(cp.literal, qp.literal) == 0) {
        return true;  // constraint says != v, query says == v
      }
      if (positive && cp.op == query::CompareOp::kIn) {
        bool in = false;
        for (const format::Value& v : cp.in_list) {
          if (format::CompareValues(v, qp.literal) == 0) in = true;
        }
        if (!in) return true;
      }
    }
  }
  for (const auto& [column, bound] : bounds) {
    if (bound.Empty()) return true;
  }
  return false;
}

Result<QdTree> QdTree::Build(const format::Schema& schema,
                             const std::vector<query::Conjunction>& workload,
                             const SumProductNetwork& estimator,
                             uint64_t total_rows, QdTreeOptions options) {
  // Candidate cuts: every distinct predicate in the workload.
  std::vector<query::Predicate> candidates;
  std::set<std::string> seen;
  for (const query::Conjunction& q : workload) {
    for (const query::Predicate& p : q.predicates()) {
      if (schema.FieldIndex(p.column) < 0) {
        return Status::InvalidArgument("workload column not in schema: " +
                                       p.column);
      }
      if (seen.insert(p.ToString()).second) candidates.push_back(p);
    }
  }

  QdTree tree;
  tree.schema_ = schema;
  tree.root_ = std::make_unique<Node>();
  tree.num_leaves_ = 1;

  struct Frame {
    Node* node;
    std::vector<SignedPredicate> constraints;
    uint64_t card;
  };
  std::vector<Frame> frontier;
  frontier.push_back(Frame{tree.root_.get(), {}, total_rows});

  // Greedy best-first: repeatedly split the frontier node whose best cut
  // yields the largest workload-wide skipping gain.
  while (tree.num_leaves_ < options.max_leaves) {
    double best_gain = 0;
    size_t best_frame = SIZE_MAX;
    const query::Predicate* best_cut = nullptr;
    uint64_t best_left_card = 0, best_right_card = 0;
    std::vector<SignedPredicate> best_left_c, best_right_c;

    for (size_t f = 0; f < frontier.size(); ++f) {
      const Frame& frame = frontier[f];
      if (frame.card < 2 * options.min_partition_rows) continue;
      // Queries that already skip this node gain nothing from any cut.
      std::vector<const query::Conjunction*> active;
      for (const query::Conjunction& q : workload) {
        if (!ConstraintsContradict(frame.constraints, q)) active.push_back(&q);
      }
      if (active.empty()) continue;
      for (const query::Predicate& cut : candidates) {
        std::vector<SignedPredicate> left_c = frame.constraints;
        left_c.emplace_back(cut, true);
        std::vector<SignedPredicate> right_c = frame.constraints;
        right_c.emplace_back(cut, false);
        uint64_t left_card =
            estimator.EstimateCardinality(ToEstimable(left_c), total_rows);
        uint64_t right_card = frame.card > left_card
                                  ? frame.card - left_card
                                  : 0;
        if (left_card < options.min_partition_rows ||
            right_card < options.min_partition_rows) {
          continue;
        }
        double gain = 0;
        for (const query::Conjunction* q : active) {
          if (ConstraintsContradict(left_c, *q)) gain += left_card;
          if (ConstraintsContradict(right_c, *q)) gain += right_card;
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_frame = f;
          best_cut = &cut;
          best_left_card = left_card;
          best_right_card = right_card;
          best_left_c = left_c;
          best_right_c = right_c;
        }
      }
    }
    if (best_frame == SIZE_MAX || best_gain <= 0) break;

    Frame frame = frontier[best_frame];
    frontier.erase(frontier.begin() + best_frame);
    frame.node->is_leaf = false;
    frame.node->cut = *best_cut;
    frame.node->left = std::make_unique<Node>();
    frame.node->right = std::make_unique<Node>();
    frontier.push_back(Frame{frame.node->left.get(), best_left_c,
                             best_left_card});
    frontier.push_back(Frame{frame.node->right.get(), best_right_c,
                             best_right_card});
    ++tree.num_leaves_;
  }

  // Assign dense leaf ids and record cardinalities (DFS order).
  tree.leaf_cards_.clear();
  std::function<void(Node*, std::vector<SignedPredicate>&)> number =
      [&](Node* node, std::vector<SignedPredicate>& constraints) {
        if (node->is_leaf) {
          node->leaf_id = static_cast<int>(tree.leaf_cards_.size());
          tree.leaf_cards_.push_back(estimator.EstimateCardinality(
              ToEstimable(constraints), total_rows));
          return;
        }
        constraints.emplace_back(node->cut, true);
        number(node->left.get(), constraints);
        constraints.back().second = false;
        number(node->right.get(), constraints);
        constraints.pop_back();
      };
  std::vector<SignedPredicate> constraints;
  number(tree.root_.get(), constraints);
  tree.num_leaves_ = tree.leaf_cards_.size();
  return tree;
}

int QdTree::AssignRow(const format::Row& row) const {
  const Node* node = root_.get();
  while (!node->is_leaf) {
    int col = schema_.FieldIndex(node->cut.column);
    bool satisfies = col >= 0 && node->cut.Matches(row.fields[col]);
    node = satisfies ? node->left.get() : node->right.get();
  }
  return node->leaf_id;
}

std::vector<int> QdTree::MatchingLeaves(const query::Conjunction& where) const {
  std::vector<int> leaves;
  std::vector<SignedPredicate> constraints;
  std::function<void(const Node*)> walk = [&](const Node* node) {
    if (ConstraintsContradict(constraints, where)) return;
    if (node->is_leaf) {
      leaves.push_back(node->leaf_id);
      return;
    }
    constraints.emplace_back(node->cut, true);
    walk(node->left.get());
    constraints.back().second = false;
    walk(node->right.get());
    constraints.pop_back();
  };
  walk(root_.get());
  return leaves;
}

}  // namespace streamlake::lakebrain
