"""The package's result types are plain immutable records.

Every record refuses assignment and deletion, compares and hashes by its
fields, reprs as ``Name(field=value, ...)``, and round-trips through
``pickle`` and ``copy.deepcopy``.
"""

import copy
import dataclasses
import json
import math
import pickle
import timeit
import unittest.mock

import pytest

from loglin_effects import (
    CELLS,
    CausalModelError,
    CausalParams,
    ConditionalProbabilities,
    ContingencyTable,
    EffectsReport,
    FitError,
    FitResult,
    JointProbabilityTable,
    LinearityReport,
    ModelSpec,
    NoCausalParams,
    TableError,
    additive_zero_test,
    conditional_probabilities,
    effects_report,
    fit_causal,
    fit_poisson,
    joint_probabilities,
    linearity_bonds,
    parse_table,
    saturated_spec,
    two_way_spec,
    validate,
)
from loglin_effects import causal, fitting, tables
from loglin_effects.inference import TestResult

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)


def _records():
    """Each record type's name, one record of it, and its fields in order."""
    table = ContingencyTable(README_COUNTS, labels=("X", "Z", "Y"))
    joint = joint_probabilities(table)
    fit = fit_poisson(table)
    cp = fit_causal(table)
    test = additive_zero_test(fit)
    return {
        "ContingencyTable": (table, ("counts", "labels")),
        "JointProbabilityTable": (joint, ("probs",)),
        "ModelSpec": (ModelSpec(True), ("with_three_way",)),
        "NoCausalParams": (fit.params, ("eta", "x", "z", "y", "xz", "xy",
                                        "zy", "xzy")),
        "FitResult": (fit, ("fitted_counts", "y_block", "counts",
                            "iterations", "spec")),
        "CausalParams": (cp, ("xc", "zc", "xzc", "y", "xy", "zy", "xzy",
                              "with_interaction")),
        "ConditionalProbabilities": (
            conditional_probabilities(cp),
            ("p_x1", "p_z1_given_x", "p_y1_given_xz", "p_x0",
             "p_z0_given_x", "p_y0_given_xz"),
        ),
        "EffectsReport": (effects_report(cp),
                          ("te", "lde", "cell", "ie", "ie_reverse", "nde",
                           "additive_interaction",
                           "multiplicative_interaction",
                           "decomposition_residual", "direction", "source")),
        "TestResult": (test, ("beta_hat", "se", "z", "p_two_sided",
                              "combination")),
        "LinearityReport": (linearity_bonds(cp),
                            ("bond1_residual", "bond2_residual")),
    }


NAMES = list(_records())

#: the records holding a dict in a compared field, which cannot be hashed
UNHASHABLE = {"ConditionalProbabilities"}


def test_every_record_is_covered():
    assert len(NAMES) == 10
    for name, (record, _) in _records().items():
        assert type(record).__name__ == name


@pytest.mark.parametrize("name", NAMES)
def test_only_a_record_with_to_dict_has_to_json(name):
    # ``to_json`` calls ``to_dict``: a record without one has neither
    record = _records()[name][0]
    assert hasattr(record, "to_json") == hasattr(record, "to_dict")
    if hasattr(record, "to_dict"):
        assert json.loads(record.to_json()) == json.loads(
            json.dumps(record.to_dict()))


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record, fields = _records()[name]
    before = repr(record)
    for field in fields:
        with pytest.raises(AttributeError,
                           match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError,
                           match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert not hasattr(record, "__dict__")
    assert repr(record) == before


@pytest.mark.parametrize("name", NAMES)
def test_records_compare_by_value(name):
    record, fields = _records()[name]
    twin = _records()[name][0]
    assert twin is not record
    assert twin == record and not twin != record
    assert record != tuple(getattr(record, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("name", NAMES)
def test_a_record_is_the_tuple_of_its_fields(name):
    record, fields = _records()[name]
    assert record._fields == fields
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    assert len(record) == len(fields)
    # unpacking gives the fields
    *values, = record
    assert values == [getattr(record, f) for f in fields]
    # a record equals no other tuple, from either side, even its own
    assert record != tuple(record) and tuple(record) != record
    assert not record == tuple(record) and not tuple(record) == record
    # against a non-tuple it defers to the other operand
    assert record == unittest.mock.ANY


@pytest.mark.parametrize("spec", [two_way_spec(), saturated_spec()],
                         ids=["two-way", "saturated"])
def test_a_fit_whose_covariance_was_read_is_a_fresh_fit(spec):
    table = ContingencyTable(README_COUNTS)
    fit, fresh = fit_poisson(table, spec), fit_poisson(table, spec)
    cov = fit.covariance
    assert fit == fresh and not fit != fresh
    assert hash(fit) == hash(fresh)
    assert repr(fit) == repr(fresh)
    assert pickle.dumps(fit) == pickle.dumps(fresh)
    for twin in _round_trips(fit):
        assert twin == fresh
        assert twin.covariance == cov


def test_a_differing_field_makes_records_unequal():
    table = ContingencyTable(README_COUNTS)
    assert table != ContingencyTable(README_COUNTS, labels=("A", "B", "C"))
    assert ModelSpec() != ModelSpec(True)
    cp = CausalParams(1.5, 0.8, 1.2, 0.7, 1.9, 1.3)
    assert cp != CausalParams(1.5, 0.8, 1.2, 0.7, 1.9, 1.25)
    assert cp != CausalParams(1.5, 0.8, 1.2, 0.7, 1.9, 1.3,
                              with_interaction=True)
    # records of different types never compare equal, even with equal fields
    probs = (0.125,) * 8
    assert JointProbabilityTable(probs) != ContingencyTable(probs)


@pytest.mark.parametrize("name", [n for n in NAMES if n not in UNHASHABLE])
def test_a_record_hashes_as_its_fields_and_equals_only_its_twin(name):
    record = _records()[name][0]
    twin = type(record)(*record)
    assert twin is not record
    assert hash(record) == hash(tuple(record)) == hash(twin)
    assert record == twin and not record != twin
    assert record != tuple(record) and not record == tuple(record)


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    record, fields = _records()[name]
    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{name}({inner})"


def test_repr_nests():
    assert repr(ModelSpec()) == "ModelSpec(with_three_way=False)"
    fit = fit_poisson(ContingencyTable(README_COUNTS), saturated_spec())
    assert repr(fit).startswith(
        "FitResult(fitted_counts=(42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, "
        "48.0), y_block=(0.42857142857142855, ")
    assert repr(fit).endswith(
        ", counts=(42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0), "
        "iterations=0, spec=ModelSpec(with_three_way=True))"
    )


def _round_trips(record):
    return [pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [
        copy.deepcopy(record), copy.copy(record)]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    record, fields = _records()[name]
    if name == "FitResult":
        record.covariance  # computed on this read, not stored in the record
    for other in _round_trips(record):
        assert type(other) is type(record)
        assert other == record
        assert repr(other) == repr(record)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(other, field, 1.0)


def test_fit_result_covariance_reads_equal_after_copies_and_is_read_only():
    fit = fit_poisson(ContingencyTable(README_COUNTS))
    cov = fit.covariance
    assert fit.covariance == cov
    for other in _round_trips(fit):
        assert other.covariance == cov
    with pytest.raises(AttributeError):
        fit.covariance = ()


def test_fit_result_params_read_equal_after_copies_and_are_read_only():
    fit = fit_poisson(ContingencyTable(README_COUNTS))
    params = fit.params
    assert fit.params == params
    assert params.y == fit.y_block[0] and params.xzy == fit.y_block[3]
    for other in _round_trips(fit):
        assert other.params == params
    with pytest.raises(AttributeError):
        fit.params = params


def test_fit_result_has_no_converged_field():
    # every fit that returns has converged; a failure raises FitError
    fit = fit_poisson(ContingencyTable(README_COUNTS))
    assert not hasattr(fit, "converged")
    assert fit.to_dict()["converged"] is True


def test_constructors_take_fields_by_keyword():
    fit = fit_poisson(ContingencyTable(README_COUNTS))
    again = FitResult(fitted_counts=fit.fitted_counts, y_block=fit.y_block,
                      counts=fit.counts, iterations=fit.iterations,
                      spec=fit.spec)
    assert again == fit
    params = NoCausalParams(eta=2.0, x=1.0, z=1.0, y=1.0, xz=1.0, xy=1.0,
                            zy=1.0)
    assert params.xzy == 1.0
    cond = ConditionalProbabilities(
        p_x1=0.5, p_z1_given_x=(0.5, 0.5), p_y1_given_xz={}, p_x0=0.5,
        p_z0_given_x=(0.5, 0.5), p_y0_given_xz={},
    )
    assert cond.p_x0 == 0.5
    report = EffectsReport(te=1.0, lde=(1.0, 1.0), cell=(1.0, 1.0), ie=1.0,
                           ie_reverse=1.0, nde=1.0, additive_interaction=0.0,
                           multiplicative_interaction=1.0,
                           decomposition_residual=0.0)
    assert report.direction == (0, 1) and report.source is None
    result = TestResult(beta_hat=0.0, se=1.0, z=0.0, p_two_sided=1.0,
                        combination="c")
    assert result.combination == "c"
    bonds = LinearityReport(bond1_residual=0.0, bond2_residual=1.0)
    assert bonds.bond2_residual == 1.0


class TestDirectBuilds:
    """The hot path, reading a canonical CSV, correcting its zero cell and
    fitting, calls no checking constructor, and each record's builder once
    per record; a table or parameter set that fails raises the message of
    its builder."""

    ZERO_CELL_CSV = ("x,z,y,count\n0,0,0,0\n0,0,1,18\n0,1,0,25\n0,1,1,31\n"
                     "1,0,0,17\n1,0,1,23\n1,1,0,12\n1,1,1,48\n")

    @pytest.fixture
    def built(self, monkeypatch):
        """The constructors called, by class name, and the builders called,
        each as its name and the message it raised, or None."""
        constructors, builders = [], []
        for cls in (ContingencyTable, CausalParams, NoCausalParams):
            real = cls.__new__

            def spy(cls_, *args, real=real, **kwargs):
                constructors.append(cls_.__name__)
                return real(cls_, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", spy)
        for module, name in ((tables, "_table"), (causal, "_causal"),
                             (fitting, "_nocausal")):
            real = getattr(module, name)

            def builder(*args, real=real, name=name):
                try:
                    record = real(*args)
                except ValueError as exc:
                    builders.append((name, str(exc)))
                    raise
                builders.append((name, None))
                return record

            monkeypatch.setattr(module, name, builder)
        return constructors, builders

    @pytest.mark.parametrize("with_interaction, records", [
        (False, ["_table", "_table", "_causal"]),
        # the saturated closed form's NoCausalParams
        (True, ["_table", "_table", "_nocausal", "_causal"]),
    ], ids=["two-way", "saturated"])
    def test_the_hot_path_calls_no_constructor(self, built, with_interaction,
                                               records):
        constructors, builders = built
        table = validate(parse_table(self.ZERO_CELL_CSV), "correct", 0.5)
        cp = fit_causal(table, with_interaction)
        assert constructors == []
        assert builders == [(name, None) for name in records]
        assert table.counts[0] == 0.5
        assert ContingencyTable(table.counts) == table
        assert CausalParams(*cp) == cp

    @pytest.mark.parametrize("cells, message", [
        ({0: "0", 1: "0", 2: "0", 3: "0", 4: "0", 5: "0", 6: "0", 7: "0"},
         "table total must be positive"),
        ({0: "1e308", 1: "1e308"}, "table total overflows"),
    ], ids=["all-zero", "overflow"])
    def test_a_failing_table_raises_the_builders_error(self, built, cells,
                                                        message):
        constructors, builders = built
        text = "x,z,y,count" + "".join(
            f"\n{x},{z},{y},{cells.get(4 * x + 2 * z + y, '1')}"
            for x, z, y in CELLS)
        with pytest.raises(TableError) as exc:
            parse_table(text)
        assert str(exc.value) == message
        # the canonical match's build, then the row reader's
        assert builders == [("_table", message), ("_table", message)]
        assert constructors == ["ContingencyTable"]

    def test_a_negative_count_is_the_row_readers_error(self, built):
        constructors, builders = built
        text = self.ZERO_CELL_CSV.replace(",0\n", ",-1\n", 1)
        with pytest.raises(TableError) as exc:
            parse_table(text)
        assert str(exc.value) == "negative count '-1'"
        assert builders == [
            ("_table", "negative or non-finite count at cell (0,0,0)")]
        assert constructors == []

    def test_a_total_that_overflows_is_the_builders_error(self, built):
        constructors, builders = built
        table = ContingencyTable((8e307, 8e307) + (0.0,) * 6,
                                 labels=("X", "Z", "Y"))
        constructors.clear()
        builders.clear()
        with pytest.raises(TableError) as exc:
            validate(table, "correct", 1e307)
        assert str(exc.value) == "table total overflows"
        assert builders == [("_table", "table total overflows")]
        assert constructors == []

    def test_a_parameter_out_of_range_is_the_builders_error(self, built):
        constructors, builders = built
        table = ContingencyTable((1e-300, 1e-300, 1e300, 1e300, 1, 1, 1, 1))
        with pytest.raises(CausalModelError) as exc:
            fit_causal(table)
        message = "parameter zc must be finite and > 0"
        assert str(exc.value) == message
        assert builders == [("_table", None), ("_causal", message)]
        # the saturated parameters' builder, through the fit's params
        builders.clear()
        with pytest.raises(FitError) as exc:
            fit_poisson(table, saturated_spec()).params
        message = "multiplicative parameter z must be finite and > 0"
        assert str(exc.value) == message
        assert builders == [("_nocausal", message)]
        assert constructors == ["ContingencyTable"]


# ---------------------------------------------------------------------------
# construction cost, against frozen dataclasses with the same checks


@dataclasses.dataclass(frozen=True)
class _DataclassCausalParams:
    xc: float
    zc: float
    xzc: float
    y: float
    xy: float
    zy: float
    xzy: float = 1.0
    with_interaction: bool = False

    def __post_init__(self):
        inf = math.inf
        if not (0.0 < self.xc < inf and 0.0 < self.zc < inf
                and 0.0 < self.xzc < inf and 0.0 < self.y < inf
                and 0.0 < self.xy < inf and 0.0 < self.zy < inf
                and 0.0 < self.xzy < inf):
            raise ValueError("parameter must be finite and > 0")
        if not self.with_interaction and self.xzy != 1.0:
            raise ValueError("three-way parameter must be 1")


@dataclasses.dataclass(frozen=True)
class _DataclassEffectsReport:
    te: float
    lde: tuple
    cell: tuple
    ie: float
    ie_reverse: float
    nde: float
    additive_interaction: float
    multiplicative_interaction: float
    decomposition_residual: float
    direction: tuple = (0, 1)
    source: str = None


_CAUSAL_ARGS = "(1.5, 0.8, 1.2, 0.7, 1.9, 1.3)"
_REPORT_ARGS = ("(1.1, (1.2, 1.3), (0.9, 0.8), 1.05, 0.97, 1.02, 0.01, 1.1,"
                " 0.0, (0, 1))")


def _best_us(stmt, namespace, number=2000, repeat=7):
    timer = timeit.Timer(stmt, globals=namespace)
    return min(timer.repeat(repeat, number)) / number * 1e6


@pytest.mark.parametrize("record, dataclass_twin, args", [
    (CausalParams, _DataclassCausalParams, _CAUSAL_ARGS),
    (EffectsReport, _DataclassEffectsReport, _REPORT_ARGS),
])
def test_records_build_no_slower_than_frozen_dataclasses(
        record, dataclass_twin, args):
    namespace = {"record": record, "twin": dataclass_twin}
    # interleaved, so a slow phase of the host hits both sides
    times = [(_best_us("record" + args, namespace),
              _best_us("twin" + args, namespace)) for _ in range(3)]
    ours = min(t[0] for t in times)
    theirs = min(t[1] for t in times)
    # a margin for timer noise; on a 2-CPU VM with Python 3.11 the records
    # take 0.3-0.55 (CausalParams) and 0.2-0.25 (EffectsReport) of the
    # dataclasses' time
    assert ours <= 1.1 * theirs, (ours, theirs)
