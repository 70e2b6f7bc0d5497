"""Self-tests of the benchmark's generator, exact reference and tracer.

    python3 bench/selftest.py

They are kept out of the package's test suite (the file name does not
match ``test_*.py``), because they test the benchmark, not the package.
"""

import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import spans  # noqa: E402

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_tables(self):
        self.assertEqual(inputs.generate(7, 200), inputs.generate(7, 200))

    def test_seeds_differ_and_tables_are_distinct(self):
        a, b = inputs.generate(7, 200), inputs.generate(8, 200)
        self.assertNotEqual(a, b)
        self.assertEqual(len({tuple(t["counts"]) for t in a}), len(a))

    def test_strata_are_present(self):
        tables = inputs.generate(1, 2000)
        zero = sum(any(c == 0 for c in t["counts"]) for t in tables) / 2000
        floats = sum(t["kind"] == "float" for t in tables) / 2000
        self.assertTrue(0.10 < zero < 0.25, zero)
        self.assertEqual(floats, inputs.FLOAT_SHARE)

    def test_csv_round_trips_through_the_parser(self):
        from loglin_effects import parse_table
        for t in inputs.generate(3, 50):
            for text, fmt in ((inputs.to_csv(t["counts"]), "csv"),
                              (inputs.to_json(t["counts"]), "json")):
                got = parse_table(text, fmt).counts
                self.assertEqual(got, tuple(float(c) for c in t["counts"]))


class ExactReferenceTest(unittest.TestCase):
    def test_matches_oracle_on_readme_table(self):
        from loglin_effects import (ContingencyTable, joint_probabilities,
                                    oracle_effects)
        ora = oracle_effects(joint_probabilities(ContingencyTable(README_COUNTS)))
        ref = inputs.exact_saturated_effects(README_COUNTS)
        got = {
            "te": ora.te, "lde0": ora.lde[0], "lde1": ora.lde[1],
            "cell0": ora.cell[0], "cell1": ora.cell[1], "ie": ora.ie,
            "ie_reverse": ora.ie_reverse, "nde": ora.nde,
            "multiplicative_interaction": ora.multiplicative_interaction,
            "additive_interaction": ora.additive_interaction,
        }
        for field in inputs.ALL_FIELDS:
            self.assertLessEqual(inputs.rel_err(got[field], ref[field]), 1e-12,
                                 field)

    def test_contrast_variance_matches_the_fit(self):
        from loglin_effects import (ContingencyTable, additive_zero_test,
                                    fit_poisson, two_way_spec)
        fit = fit_poisson(ContingencyTable(README_COUNTS), two_way_spec())
        var = float(inputs.contrast_variance(fit.fitted_counts))
        self.assertLessEqual(
            inputs.rel_err(additive_zero_test(fit).se ** 2, var), 1e-12)

    def test_margin_check_accepts_the_fit_and_rejects_the_table(self):
        from loglin_effects import ContingencyTable, fit_poisson, two_way_spec
        fit = fit_poisson(ContingencyTable(README_COUNTS), two_way_spec())
        self.assertLess(inputs.margin_error(fit.fitted_counts, README_COUNTS),
                        inputs.RTOL)
        moved = list(README_COUNTS)
        moved[0] += 1
        self.assertGreater(inputs.margin_error(fit.fitted_counts, moved),
                           inputs.RTOL)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        records = [
            [0, -1, 0, "bench.op", 0, 100, None],
            [1, 0, 0, "a", 10, 30, None],
            [2, 0, 0, "b", 25, 60, None],  # overlaps a: union is 10..60
            [3, 2, 0, "c", 40, 45, None],
        ]
        self.assertEqual(spans.self_times(records),
                         {0: 50, 1: 20, 2: 30, 3: 5})

    def test_self_times_add_up_to_traced_op_duration(self):
        import worker
        from types import SimpleNamespace
        import loglin_effects.cli  # noqa: F401  (so that cli.main is traced)
        from loglin_effects import (causal, effects, fitting, inference,
                                    oracle, tables)
        L = SimpleNamespace(tables=tables, causal=causal, effects=effects,
                            oracle=oracle, fitting=fitting, inference=inference)
        tracer = spans.Tracer()
        installed = tracer.install(spans.STAGES + ("causal.no_such_function",))
        self.assertNotIn("causal.no_such_function", installed)
        self.assertIn("fitting.fit_poisson", installed)
        # the wrappers stay installed for the rest of this process; they
        # only record spans, so later tests see the same results
        for i, wl in enumerate(("effects-twoway", "effects-saturated",
                                "inference-twoway")):
            tracer.run_op(i, worker.make_op(wl, L),
                          inputs.to_csv(README_COUNTS))
        selfs = spans.per_op_stage_self(tracer.spans)
        for op, duration in spans.op_durations(tracer.spans).items():
            total = sum(v for (o, _), v in selfs.items() if o == op)
            self.assertEqual(total, duration)
        names = {rec[spans.NAME] for rec in tracer.spans}
        self.assertTrue({"fitting.fit_poisson", "causal.conditional_probabilities",
                         "causal.ConditionalProbabilities.joint",
                         "fitting.saturated_closed_form"} <= names)
        fits = [r[spans.ATTRS] for r in tracer.spans
                if r[spans.NAME] == "fitting.fit_poisson"]
        self.assertTrue(all(a["iterations"] > 0 for a in fits))


class PassTest(unittest.TestCase):
    def test_results_are_by_item_in_a_shuffled_order(self):
        import worker
        seen = []

        def op(item):
            seen.append(item)
            if item == "bad":
                raise ValueError(item)
            return "ok", None, item.upper()

        items = [f"t{i}" for i in range(20)] + ["bad"]
        res = worker.run_pass(1, op, ["warm"], items, False, True, 0.5, 1000)
        self.assertEqual(seen[0], "warm")
        self.assertEqual(sorted(seen[1:]), sorted(items))
        self.assertNotEqual(seen[1:], items)
        self.assertEqual(res["outputs"][:20], [t.upper() for t in items[:20]])
        self.assertEqual(res["outcomes"], ["ok"] * 20 + ["crash_ValueError"])
        self.assertTrue(all(t > 0 for t in res["times_ns"]))
        self.assertGreaterEqual(res["maxrss_kb"], 1000)
        seen.clear()
        worker.run_pass(2, op, [], items, False, False, 0.5, 1000)
        self.assertNotEqual(seen, items)


class TailTest(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        import run
        values = list(range(1000))
        value, pct = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 99.0)


if __name__ == "__main__":
    unittest.main()
