#!/usr/bin/env python3
"""Self-test for tools/lint.py, run as the `lint_selftest` ctest.

Feeds synthetic C++ sources through lint_text()/strip_comments() and checks
each rule fires (and doesn't fire) where intended. Uses unittest from the
stdlib so it runs anywhere lint.py does.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint  # noqa: E402


def src(name="src/x/mod.h"):
    return os.path.join(*name.split("/"))


GUARD = "#ifndef STREAMLAKE_X_MOD_H_\n"


class StripCommentsTest(unittest.TestCase):
    def test_line_and_block_comments_removed(self):
        out = lint.strip_comments("a; // std::mutex\n/* std::mutex */ b;\n")
        self.assertNotIn("std::mutex", out)
        self.assertIn("a;", out)
        self.assertIn("b;", out)

    def test_string_literals_blanked(self):
        out = lint.strip_comments('Log("use std::mutex here");\n')
        self.assertNotIn("std::mutex", out)
        self.assertIn("Log", out)

    def test_escaped_quote_does_not_leak_string(self):
        # With naive regex stripping, the \" ends the literal early and the
        # rest of the line (std::mutex) leaks into "code".
        out = lint.strip_comments('Log("escaped \\" quote std::mutex");\n')
        self.assertNotIn("std::mutex", out)

    def test_raw_string_literal_blanked(self):
        text = 'auto s = R"(std::mutex // not a comment)"; int x;\n'
        out = lint.strip_comments(text)
        self.assertNotIn("std::mutex", out)
        self.assertIn("int x;", out)

    def test_raw_string_with_custom_delimiter(self):
        text = 'auto s = R"foo(contains )" inside std::mutex)foo"; y;\n'
        out = lint.strip_comments(text)
        self.assertNotIn("std::mutex", out)
        self.assertIn("y;", out)

    def test_comment_after_raw_string_still_stripped(self):
        out = lint.strip_comments('auto s = R"(x)";  // std::mutex\n')
        self.assertNotIn("std::mutex", out)

    def test_char_literal_quote_does_not_derail(self):
        out = lint.strip_comments("char c = '\"'; std::mutex m;\n")
        self.assertIn("std::mutex", out)  # real code survives stripping

    def test_newlines_preserved_for_line_numbers(self):
        text = "a;\n/* two\nline comment */\nstd::mutex m;\n"
        out = lint.strip_comments(text)
        self.assertEqual(text.count("\n"), out.count("\n"))
        line = out.split("\n").index("std::mutex m;") + 1
        self.assertEqual(line, 4)


class RuleTest(unittest.TestCase):
    def errors(self, text, path=None):
        return lint.lint_text(path or src(), GUARD + text)

    def assert_rule(self, rule, text, path=None):
        errs = self.errors(text, path)
        self.assertTrue(any(f": {rule}: " in e for e in errs),
                        f"{rule} did not fire; got {errs}")

    def assert_clean(self, text, path=None):
        self.assertEqual(self.errors(text, path), [])

    # R2 / R3a ------------------------------------------------------------
    def test_r2_naked_std_mutex(self):
        self.assert_rule("R2", "std::mutex m;\n")

    def test_r2_exempts_mutex_files(self):
        for path in lint.MUTEX_FILES:
            errs = lint.lint_text(
                path, "#ifndef STREAMLAKE_COMMON_MUTEX_H_\nstd::mutex m;\n")
            self.assertFalse(any(": R2: " in e for e in errs), errs)

    def test_r2_ignores_comments_and_strings(self):
        self.assert_clean("// std::mutex\nconst char* s = \"std::mutex\";\n")

    def test_r3a_reserved_include(self):
        self.assert_rule("R3a", "#include <mutex>\n")

    # R3c / R3d -----------------------------------------------------------
    def test_r3c_parent_relative_include(self):
        self.assert_rule("R3c", '#include "../common/mutex.h"\n')

    def test_r3d_missing_guard(self):
        errs = lint.lint_text(src(), "int x;\n")
        self.assertTrue(any(": R3d: " in e for e in errs), errs)

    # R4 ------------------------------------------------------------------
    def test_r4_member_without_rank(self):
        self.assert_rule("R4", "class C {\n  Mutex mu_;\n};\n")

    def test_r4_shared_mutex_without_rank(self):
        self.assert_rule("R4", "class C {\n  SharedMutex mu_;\n};\n")

    def test_r4_rank_on_declaration_is_clean(self):
        self.assert_clean(
            'class C {\n'
            '  Mutex mu_{LockRank::kKvStore, "kv.store"};\n};\n')

    def test_r4_multiline_initializer_is_clean(self):
        self.assert_clean(
            "class C {\n  mutable Mutex mu_{\n"
            '      LockRank::kKvStore, "kv.store"};\n};\n')

    def test_r4_skips_pointer_and_reference(self):
        self.assert_clean("void f(Mutex* mu, Mutex& other);\n")

    def test_r4_only_applies_under_src(self):
        errs = lint.lint_text(os.path.join("tests", "t.cc"),
                              "Mutex mu_;\n")
        self.assertFalse(any(": R4: " in e for e in errs), errs)

    # R5 (tests/bench/examples only; src/ is slint S2's job) --------------
    TEST_CC = os.path.join("tests", "t.cc")

    def test_r5_sleep_under_lock(self):
        self.assert_rule(
            "R5",
            "void F() {\n  MutexLock lock(&mu_);\n"
            "  std::this_thread::sleep_for(1ms);\n}\n",
            path=self.TEST_CC)

    def test_r5_join_under_reader_lock(self):
        self.assert_rule(
            "R5",
            "void F() {\n  ReaderMutexLock lock(&mu_);\n  t.join();\n}\n",
            path=self.TEST_CC)

    def test_r5_argless_wait_under_lock(self):
        self.assert_rule(
            "R5",
            "void F() {\n  WriterMutexLock lock(&mu_);\n  pool->Wait();\n}\n",
            path=self.TEST_CC)

    def test_r5_condvar_wait_with_mutex_arg_is_exempt(self):
        self.assert_clean(
            "void F() {\n  MutexLock lock(&mu_);\n"
            "  while (q_.empty()) cv_.Wait(&mu_);\n}\n",
            path=self.TEST_CC)

    def test_r5_sleep_after_scope_closes_is_clean(self):
        self.assert_clean(
            "void F() {\n  {\n    MutexLock lock(&mu_);\n    n_++;\n  }\n"
            "  std::this_thread::sleep_for(1ms);\n}\n",
            path=self.TEST_CC)

    def test_r5_retired_under_src_in_favour_of_slint_s2(self):
        # Under src/ the interprocedural analyzer (tools/slint, check S2)
        # owns this rule; lint must not double-report.
        errs = lint.lint_text(
            src("src/x/mod.cc"),
            "void F() {\n  MutexLock lock(&mu_);\n"
            "  std::this_thread::sleep_for(1ms);\n}\n")
        self.assertFalse(any(": R5: " in e for e in errs), errs)

    # R6 ------------------------------------------------------------------
    def test_r6_counter_member(self):
        self.assert_rule("R6", "class C {\n  uint64_t ops_counter_ = 0;\n};\n")

    def test_r6_pointer_plumbed_counters_struct(self):
        self.assert_rule("R6", "void F(Stats* counters) {\n"
                               "  counters->reads += 1;\n}\n")

    def test_r6_exempts_metrics_files(self):
        for path in lint.METRICS_FILES:
            errs = lint.lint_text(
                path, "#ifndef STREAMLAKE_COMMON_METRICS_H_\n"
                      "uint64_t shadow_counter_ = 0;\n")
            self.assertFalse(any(": R6: " in e for e in errs), errs)

    def test_r6_only_applies_under_src(self):
        errs = lint.lint_text(os.path.join("tests", "t.cc"),
                              "uint64_t ops_counter_ = 0;\n")
        self.assertFalse(any(": R6: " in e for e in errs), errs)

    def test_r6_ignores_comments_and_registry_idiom(self):
        self.assert_clean(
            "// the old ops_counter_ member is gone\n"
            "static Counter* ops =\n"
            '    MetricsRegistry::Global().GetCounter("kv.get.ops");\n')

    # R7 ------------------------------------------------------------------
    def test_r7_ignore_error_without_comment(self):
        self.assert_rule("R7", "void F(Status s) {\n  s.IgnoreError();\n}\n")

    def test_r7_same_line_comment_is_clean(self):
        self.assert_clean(
            "void F(Status s) {\n"
            "  s.IgnoreError();  // ignore-ok: shutdown path, store is gone\n"
            "}\n")

    def test_r7_comment_on_line_above_is_clean(self):
        self.assert_clean(
            "void F(Status s) {\n"
            "  // ignore-ok: best-effort cache warmup\n"
            "  s.IgnoreError();\n"
            "}\n")

    def test_r7_bare_ignore_ok_marker_is_not_enough(self):
        # The marker must carry a reason, not just the tag.
        self.assert_rule(
            "R7", "void F(Status s) {\n  s.IgnoreError();  // ignore-ok:\n}\n")

    def test_r7_log_ignored_is_clean(self):
        self.assert_clean(
            'void F(Status s) {\n  s.LogIgnored("gc release");\n}\n')

    def test_r7_declaration_and_prose_are_clean(self):
        self.assert_clean(
            "// callers that truly cannot act may call IgnoreError()\n"
            "void IgnoreError() const {}\n")

    def test_r7_only_applies_under_src(self):
        errs = lint.lint_text(os.path.join("tests", "t.cc"),
                              "void F(Status s) {\n  s.IgnoreError();\n}\n")
        self.assertFalse(any(": R7: " in e for e in errs), errs)

    # R8 ------------------------------------------------------------------
    def test_r8_allocate_extents_outside_storage(self):
        self.assert_rule(
            "R8",
            "void F(StoragePool* pool) {\n"
            "  auto e = pool->AllocateExtents(3, 4096, true);\n}\n",
            path=src("src/access/block_service.cc"))

    def test_r8_allowed_in_storage_and_tests(self):
        text = ("void F(StoragePool* pool) {\n"
                "  auto e = pool->AllocateExtents(1, 4096, false);\n}\n")
        self.assert_clean(text, path=src("src/storage/plog.cc"))
        self.assert_clean(text, path=os.path.join("tests", "t.cc"))

    def test_r8_allocate_spread_and_prose_are_clean(self):
        self.assert_clean(
            "// never call AllocateExtents( here\n"
            "void F(StoragePool* pool) {\n"
            "  auto e = pool->AllocateSpread(3, 4096);\n}\n",
            path=src("src/baselines/mini_hdfs.cc"))

    # R9 ------------------------------------------------------------------
    def test_r9_row_matches_outside_query(self):
        self.assert_rule(
            "R9",
            "bool F(const Conjunction& where, const Schema& schema,\n"
            "       const Row& row) {\n"
            "  return where.Matches(schema,\n"
            "                       row);\n}\n",
            path=src("src/table/table.cc"))

    def test_r9_allowed_only_in_tests(self):
        # The reference executor left src/query/ for tests/oracle.
        text = ("bool F(const QuerySpec* spec, const Row& row) {\n"
                "  return spec->where.Matches(schema_, row);\n}\n")
        self.assert_rule("R9", text, path=src("src/query/executor.cc"))
        self.assert_clean(text, path=os.path.join("tests", "t.cc"))
        self.assert_clean(text, path=os.path.join("tests", "oracle",
                                                  "oracle.cc"))

    def test_r9_one_argument_matches_and_prose_are_clean(self):
        self.assert_clean(
            "// where.Matches(schema, row) is the reference form\n"
            "bool F(const Predicate& p, const Row& row, int col) {\n"
            "  return p.Matches(row.fields[Index(col, 0)]);\n}\n",
            path=src("src/lakebrain/qdtree.cc"))

    # R10 -----------------------------------------------------------------
    def test_r10_compare_values_outside_where_code(self):
        self.assert_rule(
            "R10",
            "bool Less(const Row& a, const Row& b) {\n"
            "  return format::CompareValues(a.fields[0],\n"
            "                               b.fields[0]) < 0;\n}\n",
            path=src("src/query/operators.cc"))

    def test_r10_flags_table_layer(self):
        self.assert_rule(
            "R10",
            "int F(const Value& a, const Value& b) {\n"
            "  return CompareValues (a, b);\n}\n",
            path=src("src/table/plan_runner.cc"))

    def test_r10_allowed_in_where_stats_and_tests(self):
        text = ("bool F(const Value& v, const Value& lit) {\n"
                "  return format::CompareValues(v, lit) <= 0;\n}\n")
        for path in (src("src/format/types.cc"),
                     src("src/query/predicate.cc"),
                     src("src/lakebrain/qdtree.cc"),
                     os.path.join("tests", "t.cc")):
            self.assert_clean(text, path=path)

    def test_r10_predicate_header_and_prose_are_clean(self):
        # Only predicate.cc holds WHERE's comparisons, not every file of
        # src/query/; a comment naming the function is not a call.
        self.assert_rule(
            "R10",
            "inline int F(const Value& a, const Value& b) {\n"
            "  return format::CompareValues(a, b);\n}\n",
            path=src("src/query/predicate.h"))
        self.assert_clean(
            "// format::CompareValues(a, b) is WHERE's rule\n"
            "int F(const Value& a, const Value& b) {\n"
            "  return format::CompareKeys(a, b);\n}\n",
            path=src("src/query/operators.cc"))


    # R11 -----------------------------------------------------------------
    def test_r11_group_state_map_keyed_by_value_vector(self):
        # The shape of the group-state map the key table replaced.
        self.assert_rule(
            "R11",
            "class A {\n"
            "  std::map<std::vector<format::Value>, GroupState,\n"
            "           format::KeyLess> groups_;\n};\n",
            path=src("src/query/operators.h"))

    def test_r11_build_map_keyed_by_value(self):
        # The join build map the key table replaced, with its alias on the
        # line above.
        self.assert_rule(
            "R11",
            "using BuildMap =\n"
            "    std::map<format::Value, std::vector<format::Row>, "
            "format::KeyLess>;\n",
            path=src("src/table/plan_runner.cc"))

    def test_r11_sets_and_keyless_comparators(self):
        for text in ("std::set<Value> seen;\n",
                     "std::multiset<const format::Value> seen;\n",
                     "std::multimap<int, Row, format::KeyLess> m;\n",
                     "std::set < std::vector<Value> > keys;\n"):
            self.assert_rule("R11", text, path=src("src/table/table.cc"))

    def test_r11_allowed_elsewhere_and_for_other_keys(self):
        keyed = "std::map<format::Value, int, format::KeyLess> m;\n"
        for path in (src("src/lakebrain/spn.cc"),
                     os.path.join("tests", "join_test.cc")):
            self.assert_clean(keyed, path=path)
        # Under src/format/ R12 bans every ordered container; R11 stays out.
        self.assertFalse(any(": R11: " in e for e in self.errors(
            keyed, src("src/format/types.cc"))))
        self.assert_clean(
            "std::map<std::string, ValueRange> ranges;\n"
            "std::set<int> cols;\n"
            "// std::map<format::Value, Row, KeyLess> was the build map\n"
            "std::sort(keys.begin(), keys.end(), format::KeyLess());\n",
            path=src("src/query/plan.cc"))


    # R12 -----------------------------------------------------------------
    def test_r12_dictionary_maps_in_codec(self):
        # The shapes of the dictionary encoders' maps the key ids replaced.
        for text in ("std::map<std::string, uint64_t> dict;\n",
                     "std::map<int64_t, uint64_t> dict;\n",
                     "std::map<std::string_view, int> distinct;\n"):
            self.assert_rule("R12", text, path=src("src/codec/encoding.cc"))

    def test_r12_set_union_and_sets_in_format(self):
        for text in ("std::set_union(a.begin(), a.end(), b.begin(),\n"
                     "               b.end(), std::back_inserter(c));\n",
                     "std::set<std::string_view> seen;\n",
                     "std::multiset<int64_t> keys;\n",
                     "std::multimap<int, int> m;\n"):
            self.assert_rule("R12", text, path=src("src/format/lakefile.cc"))
        self.assert_rule("R12", GUARD + "std::set<int> s;\n",
                         path=src("src/format/types.h"))

    def test_r12_allowed_elsewhere_and_in_prose(self):
        text = "std::map<std::string, int> m;\nstd::set<int> s;\n"
        for path in (src("src/table/table.cc"), src("src/query/plan.cc"),
                     os.path.join("tests", "format_test.cc")):
            self.assert_clean(text, path=path)
        self.assert_clean(
            "// std::map<int64_t, uint64_t> numbered entries once\n"
            "#include <map>\n"
            "std::vector<int> set_union_of(int a);\n"
            "codec::KeyIds<int64_t> ids;\n",
            path=src("src/codec/encoding.cc"))

    # R13 -----------------------------------------------------------------
    def test_r13_row_entry_points_in_query_headers(self):
        # The row entry points the one batch entry point replaced.
        for text in ("Status Consume(const std::vector<format::Row>& rows);\n",
                     "Status ConsumeFiltered(std::vector<format::Row> rows,\n"
                     "                       uint64_t scanned);\n",
                     "format::Row Apply(const format::Row& row) const;\n",
                     "void Consume(const format::Row& row);\n",
                     "bool Matches(const format::Schema& schema,\n"
                     "             const format::Row* row) const;\n"):
            self.assert_rule("R13", text,
                             path=src("src/query/executor.h"))

    def test_r13_reports_the_parameter_line(self):
        errors = self.errors(
            "Result<QueryResult> Execute(const format::Schema& s,\n"
            "                            const std::vector<format::Row>& r,\n"
            "                            const QuerySpec& spec);\n",
            src("src/query/executor.h"))
        self.assertEqual([e.split(": R13")[0] for e in errors
                          if ": R13: " in e], ["src/query/executor.h:3"])

    def test_r13_allows_rows_as_output_and_elsewhere(self):
        # Returning rows, holding them and batch types are fine; so are
        # row parameters outside the query layer's headers.
        self.assert_clean(
            "std::vector<format::Row> Rows(std::span<const int> c) const;\n"
            "std::vector<format::Row> rows;\n"
            "void Consume(const ChunkRows& rows);\n"
            "void Open(RowSink* sink, format::RowGroupMeta g);\n"
            "// void Consume(const format::Row& row);\n",
            path=src("src/query/operators.h"))
        text = "Status Append(const format::Row& row);\n"
        for path in (src("src/query/executor.cc"),
                     src("src/format/lakefile.h"),
                     os.path.join("tests", "oracle", "oracle.h")):
            self.assert_clean(text, path=path)

    # R14 -----------------------------------------------------------------
    def test_r14_exact_growth_reserve_under_src(self):
        # The gather's old reserve, and its member and multi-line forms.
        for text in ("vals->reserve(vals->size() + rows.size());\n",
                     "out.reserve(out.size() + 1);\n",
                     "batch.col->reserve(batch.col->size() + n);\n",
                     "keys.reserve(\n    keys.size() +\n    more.size());\n"):
            self.assert_rule("R14", text, path=src("src/format/lakefile.cc"))

    def test_r14_reports_the_call_line(self):
        errors = self.errors("int a;\nv.reserve(v.size() + 2);\n",
                             src("src/table/table.cc"))
        self.assertEqual([e.split(": R14")[0] for e in errors
                          if ": R14: " in e], ["src/table/table.cc:3"])

    def test_r14_allows_fresh_vectors_prose_and_other_dirs(self):
        # The catalog's reserves size a fresh vector from other vectors.
        self.assert_clean(
            "out->commits.reserve(base.commits.size() + commits.size());\n"
            "out->files.reserve(base.files.size() + delta.size());\n"
            "out.reserve(std::min<size_t>(count, data.size() + 1));\n"
            "a.vals.reserve(vals.size() + n);\n"
            "v.reserve(v.size());\n"
            "// vals->reserve(vals->size() + rows.size()) was quadratic\n",
            path=src("src/table/catalog.cc"))
        text = "v.reserve(v.size() + n);\n"
        for path in (os.path.join("tests", "format_test.cc"),
                     os.path.join("bench", "bench_micro.cc")):
            self.assert_clean(text, path=path)


class RepoTest(unittest.TestCase):
    def test_whole_repo_is_clean(self):
        # The shipped tree must satisfy its own lint (same check as the
        # `lint` ctest, via the public entry point).
        self.assertEqual(lint.main(), 0)


if __name__ == "__main__":
    unittest.main()
