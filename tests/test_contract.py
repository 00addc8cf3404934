"""One argument contract for the public API, checked from one table.

Each row gives a public callable valid arguments and, for each argument, a
kind: a fixed list of corruptions, each with the pattern its message must
match (``{name}`` stands for the argument's label).  Every (row, argument,
corruption) case calls with that one argument corrupted and expects a
:class:`DomainError` whose message names the argument.  A kind that is a
string is the reason that argument is not corrupted.  A corruption that is
callable is applied to the valid value.  ``tests/test_public_names.py``
checks that every name in ``drfsim.__all__`` has a row or is in EXCEPTIONS;
OUTSIDE holds the rows of public callables outside ``drfsim.__all__``.
"""

import dataclasses
import inspect
import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import drfsim as d
from drfsim import DomainError, cli, selftest

NAN, INF, PI = math.nan, math.inf, math.pi


def kind(pattern, bad):
    """Corruptions, by id, that share one message pattern."""
    return [(id_, value, pattern) for id_, value in bad.items()]


def count(low=0):
    """An integer >= ``low``: below it, a fraction, nan, inf, a string and a bool."""
    bad = {"-1": -1, "2.5": 2.5, "nan": NAN, "inf": INF, "str": "2", "True": True}
    if low > 0:
        bad[str(low - 1)] = low - 1
    return kind(rf"^{{name}} must be an integer >= {low}, got ", bad)


def entry(value):
    """The valid array with its middle entry replaced by ``value``."""
    def corrupt(valid):
        bad = np.array(valid, dtype=float)
        bad.flat[bad.size // 2] = value
        return bad
    return corrupt


def listed(value):
    """The valid array as (nested) lists, its middle entry replaced by ``value``."""
    def corrupt(valid):
        bad = np.array(valid, dtype=object)
        bad.flat[bad.size // 2] = value
        return bad.tolist()
    return corrupt


# Corruptions of a valid array, with the start of the dtype each names: strings
# ("0.5") are refused, not parsed, and neither a bool (alone or inside a list,
# which numpy would read as a number array) nor an object is a number.
CASTS = (*[(id_, lambda valid, cast=cast: np.asarray(valid).astype(cast), dtype)
           for id_, cast, dtype in (("str", str, "<U"), ("bool", bool, "bool"),
                                    ("object", object, "object"))],
         ("entry-True", listed(True), "bool"))


def typed(what="real"):
    """An array argument's valid value under each of CASTS."""
    return [(id_, corrupt, rf"^{{name}} must be {what}, got dtype {dtype}")
            for id_, corrupt, dtype in CASTS]


def below_2_60(low):
    """A CLI size: 2**60 doubles are more than any numpy array holds."""
    return kind(rf"^{{name}} must be an integer in \[{low}, 2\*\*60\), got ", {"2**60": 2**60})


def exact(message):
    """The message itself, from its start."""
    return "^" + re.escape(message)


def whole(message):
    """The message itself, all of it."""
    return exact(message) + "$"


# The one frame size rule: 2j >= 1, so both branches J = j +- 1/2 exist.
FRAME = kind(r"^twice_j must be an integer >= 1, got ",
             {"-1": -1, "1.5": 1.5, "nan": NAN, "str": "2", "0": 0})
# A string where a number is expected is refused, not parsed; a bool is not a
# number, and a list of one is not a single one.
REAL = r"^{name} must be real, got dtype <U"
BOOL = kind(r"^{name} must be real, got dtype bool$", {"True": True})
ONE = kind(r"^{name} must be a single number, got shape \(1,\)$", {"[0.5]": [0.5]})
SCALAR = BOOL + ONE
# Angles in [0, pi]: POLAR for a number or an array, ANGLE for one number.
POLAR = (kind(r"^{name} must lie in \[0, pi\], got ",
              {"-0.1": -0.1, "pi+0.1": PI + 0.1, "nan": NAN, "inf": INF})
         + kind(REAL, {"str": "0.3"}) + BOOL)
ANGLE = POLAR + ONE
NOT_FINITE = r"^{name} must be finite \(it holds nan or inf\)$"
FINITE = kind(NOT_FINITE, {"nan": entry(NAN), "inf": entry(INF), "-inf": entry(-INF)})
MAGNETIC = (kind(r"^2{name}=\S+ must be an integer for 2j=2$",
                 {"1.9": 1.9, "1.0": 1.0, "float64": np.float64(0.0)})
            + kind(r"^2{name}=1 has wrong parity for 2j=2", {"parity": 1})
            + kind(r"^\|{name}\| exceeds j: 2{name}=4, 2j=2$", {"range": 4}))
# Labels: a qubit index a in {0, 1} and an outcome c in {+1, -1}; no other
# value is read as one.
QUBIT = kind(r"^{name} must be one of \(0, 1\), got ",
             {"0.0": 0.0, "2": 2, "-1": -1, "True": True, "str": "1", "None": None})
OUTCOME = kind(r"^{name} must be one of \(1, -1\), got ",
               {"1.0": 1.0, "float64": np.float64(-1.0), "0": 0, "0.0": 0.0, "2": 2,
                "str": "1", "True": True, "None": None})
# An integer >= 0 or a sequence of them: never a caller's generator.
SEED = [(id_, seed, rf"^seed {re.escape(repr(seed))}: ")
        for id_, seed in {"-1": -1, "2.5": 2.5, "nan": NAN, "None": None, "True": True,
                          "entry-True": [1, True], "Generator": np.random.default_rng(0),
                          "PCG64": np.random.PCG64(0)}.items()]
NONNEGATIVE = (kind(r"^{name} must be finite and non-negative$",
                    {"nan": NAN, "-1e-3": -1e-3, "inf": INF})
               + kind(REAL, {"str": "0"}) + SCALAR)


def record(cls):
    """A record argument: an array, a dict, None or a list is no ``cls``."""
    return kind(rf"^{{name}} must be a {cls.__name__}, got ",
                {"array": np.ones(4) / 4, "dict": {}, "None": None, "list": [1.0, 0.5]})


# Valid records and arrays that rows share.
KRAUS = d.build_kraus(3)
STATE = d.FrameState.stretched(3)
RING = np.linspace(0.0, PI, 2048)
NNLS_A, NNLS_B = d.build_grid(2, 11)[1], np.full(3, 1.0 / 3.0)


def bands(edit):
    """A copy of the valid bands with ``edit`` applied."""
    def corrupt(valid):
        changed = dict(valid)
        edit(changed)
        return changed
    return corrupt


BANDS = [
    *kind(r"^KrausSet: bands must be a dict keyed \(a, b, c\), got ",
          {"list": [1, 2], "None": None}),
    ("nan", bands(lambda b: b.update({(0, 0, 1): np.array([1.0, NAN, 1.0, 1.0])})),
     exact("KrausSet: 2j=3: band (0, 0, 1) must be finite (it holds nan or inf)")),
    *[(f"length-{key}", bands(lambda b, key=key, n=n: b.update({key: np.ones(n)})),
       exact(f"KrausSet: 2j=3: band {key} must have shape ({4 - abs(key[1] - key[0])},), "
             f"got ({n},)"))
      for key, n in (((0, 1, 1), 4), ((1, 0, -1), 2), ((1, 1, -1), 5))],
    # band (0, 0, 1) fixes 2j, so it must hold 2j + 1 >= 2 entries
    *kind(r"^KrausSet: band \(0, 0, 1\) must be a vector of at least 2 entries, got shape ",
          {"first-short": bands(lambda b: b.update({(0, 0, 1): np.ones(1)})),
           "first-scalar": bands(lambda b: b.update({(0, 0, 1): 1.0})),
           "first-2-d": bands(lambda b: b.update({(0, 0, 1): np.ones((4, 1))}))}),
    ("missing", bands(lambda b: b.pop((1, 1, -1))),
     exact("KrausSet: keys missing [(1, 1, -1)], extra []")),
    ("outcome-2", bands(lambda b: b.update({(0, 0, 2): np.ones(4)})),
     exact("KrausSet: keys missing [], extra [(0, 0, 2)]")),
    ("qubit-index-5", bands(lambda b: b.update({(5, 0, 1): np.ones(4)})),
     exact("KrausSet: keys missing [], extra [(5, 0, 1)]")),
    ("one-key", lambda b: {(0, 0, 1): np.ones(4)},
     r"^KrausSet: keys missing \[\(0, 0, -1\), "),
    # band (0, 0, 1) is read before 2j is known, so its message names no 2j
    *[(id_ + suffix, bands(lambda b, corrupt=corrupt, key=key: b.update({key: corrupt(b[key])})),
       exact(f"KrausSet: {where}band {key} must be real, got dtype {dtype}"))
      for id_, corrupt, dtype in CASTS
      for key, where, suffix in (((0, 0, 1), "", ""), ((1, 0, -1), "2j=3: ", "-(1, 0, -1)"))],
]
# Beside an int past uint64 (which numpy holds as an object) a bool, a string
# or a Fraction is still no step count.
STEPS = kind(r"^step count n must be a non-negative integer",
             {"-1": -1, "2.5": 2.5, "nan": NAN, "inf": INF, "-inf": -INF,
              "nan-entry": np.array([0.0, NAN]), "inf-entry": np.array([0.0, INF]),
              "fraction-entry": np.array([1.0, 2.5]), "2-d": np.array([[3.0], [0.5]]),
              "str": "3", "str-entry": np.array(["1", "2"]), "-2**64": -2**64,
              "entry-True": [True, 5],
              **{f"2**64-{id_}": [2**64, bad] for id_, bad in
                 {"True": True, "str": "3", "Fraction": Fraction(3), "-1": -1, "inf": INF}.items()}})
# Each message names 2j, the value and the tolerance; a shape that fixes no 2j
# names the data and its shape.
STATE_2 = "FrameState: 2j=2: "


def shapes(bad):
    """Data that is no vector or square matrix of at least 2 rows."""
    prefix = "FrameState: data must be a vector or a square matrix of at least 2 rows, got shape "
    return [(id_, value, whole(prefix + str(np.shape(value)))) for id_, value in bad.items()]


POPULATIONS = [
    *kind(whole(STATE_2 + "population nan is below EIGENVALUE_FLOOR = -1e-10"),
          {"nan": [NAN] * 3, "nan-entry": [NAN, 0.5, 0.5]}),
    ("negative", [1.0 + 1.2e-9, 0.0, -1.2e-9],
     whole(STATE_2 + "population -1.2e-09 is below EIGENVALUE_FLOOR = -1e-10")),
    ("sum", [0.5, 0.5, 1e-11], whole(STATE_2 + "|sum of populations - 1| "
                                     "1.000000082740371e-11 exceeds STRUCTURE_TOL = 1e-12")),
    *shapes({"one-row": [1.0], "scalar": 1.0, "empty": []}),
]
HERMITIAN = STATE_2 + "Hermitian defect max |rho - rho^dag| "
MATRIX = [
    *kind(whole(HERMITIAN + "nan exceeds STRUCTURE_TOL = 1e-12"),
          {"nan": np.full((3, 3), NAN), "nan-diagonal": np.diag([NAN, 0.5, 0.5])}),
    ("non-hermitian", [[0.5, 0.3, 0], [0, 0.5, 0], [0, 0, 0]],
     whole(HERMITIAN + "0.3 exceeds STRUCTURE_TOL = 1e-12")),
    ("trace", np.diag([0.7, 0.5, 0.0]),
     whole(STATE_2 + "|trace - 1| 0.19999999999999996 exceeds STRUCTURE_TOL = 1e-12")),
    ("negative", np.diag([1.5, -0.5, 0.0]),
     whole(STATE_2 + "eigenvalue -0.5 is below EIGENVALUE_FLOOR = -1e-10")),
    *shapes({"one-by-one": [[1.0]], "non-square": np.ones((3, 2)) / 3,
             "3-d": np.ones((3, 3, 1)) / 3}),
]

# (id, callable, {argument: (valid value, kind or reason, label if not the argument)}).
# An id is a name of drfsim.__all__, then ":variant" where it has two rows.
ROWS = [
    ("SpinLabel", d.SpinLabel, {"twice_j": (2, FRAME)}),
    ("cg_coefficient", d.cg_coefficient,
     {"j": (2, FRAME), "twice_m": (0, MAGNETIC, "m"), "a": (0, QUBIT), "c": (1, OUTCOME)}),
    ("projector_element", d.projector_element,
     {"j": (2, FRAME), "c": (1, OUTCOME), "a": (0, QUBIT), "b": (0, QUBIT),
      "twice_m_row": (0, MAGNETIC, "m_row"), "twice_m_col": (0, MAGNETIC, "m_col")}),
    ("coherent_populations", d.coherent_populations, {"j": (2, FRAME), "theta": (0.3, ANGLE)}),
    ("coherent_columns", d.coherent_columns,
     {"j": (2, FRAME),
      "thetas": ([0.0, 1.0], kind(r"^theta must lie in \[0, pi\], got ",
                                  {"nan-entry": [0.0, NAN, PI], "negative": [-0.1, 1.0]})
                 + kind(r"^thetas must be a 1-d array of angles",
                        {"scalar": 0.5, "nested": [[0.0, 1.0]], "2-d": np.zeros((2, 3))})
                 + kind(r"^theta must be real, got dtype bool$", {"entry-True": listed(True)}))}),
    ("LegendreSpectrum", d.LegendreSpectrum,
     {"coeffs": ([1.0, 0.5, 0.2, 0.0], FINITE
                 + kind(r"^coeffs must be a 1-d array of at least 2 coefficients",
                        {"one": [1.0], "nested": [[1.0, 0.5]], "empty": []})
                 + kind(r"^coeffs must start with c_0 = 1 exactly, got 0\.9$",
                        {"c_0": [0.9, 0.1, 0.0]}) + typed())}),
    ("initial_spectrum", d.initial_spectrum, {"j": (2, FRAME)}),
    ("walk_evolve", d.walk_evolve,
     {"spec": (d.initial_spectrum(2), record(d.LegendreSpectrum)), "alpha": (0.1, ANGLE),
      "n": (3, count())}),
    ("classical_fidelity", d.classical_fidelity,
     {"spec": (d.initial_spectrum(2), record(d.LegendreSpectrum))}),
    ("classical_fidelity_series", d.classical_fidelity_series,
     {"j": (2, FRAME), "alpha": (0.1, ANGLE), "n_max": (3, count())}),
    ("fitted_step", d.fitted_step, {"j": (2, FRAME)}),
    ("half_life", d.half_life, {"j": (2, FRAME)}),
    ("default_n_max", d.default_n_max, {"j": (2, FRAME)}),
    ("ring_average", d.ring_average,
     {"thetas": (RING, [("nan", entry(NAN), r"^classical_walk\.ring_average: 2048 grid points: "
                                           r"largest \|theta_i - i pi/\(N-1\)\| nan exceeds"),
                        ("cos-uniform", lambda t: np.arccos(np.linspace(1.0, -1.0, t.size)),
                         r"largest \|theta_i - i pi/\(N-1\)\| .* exceeds STRUCTURE_TOL"),
                        ("short", lambda t: t[:-1],
                         r"^thetas and values must be 1-d arrays of equal length$"),
                        *typed()]),
      "values": (np.ones(2048), FINITE + typed()),
      "alpha": (0.5, kind(r"^alpha must lie strictly inside \(0, pi\), got ",
                          {"0": 0.0, "pi": PI, "nan": NAN, "inf": INF})
                + kind(REAL, {"str": "0.5"}) + SCALAR),
      "n_psi": (2, count(1), "classical_walk.ring_average: n_psi")}),
    ("angular_variance", d.angular_variance, {"j": (2, FRAME)}),
    ("DecompositionResult", d.DecompositionResult,
     {"weights": ([1.0], kind(r"^weights must be finite and non-negative$",
                              {"nan": [NAN], "-0.1": [-0.1], "inf": [INF]})
                  + kind(r"^weights must be a 1-d array, got shape ",
                         {"2-d": [[1.0]], "scalar": 1.0})
                  + kind(REAL, {"str": ["0.5"]})
                  + kind(r"^weights must be real, got dtype bool$", {"entry-True": [0.5, True]})),
      "residual": (0.0, NONNEGATIVE), "weight_sum_gap": (0.0, NONNEGATIVE)}),
    ("build_grid", d.build_grid, {"j": (2, FRAME), "n_nodes": (5, count(3), "2j=2: n_nodes")}),
    ("nnls_solve", d.nnls_solve,
     {"A": (NNLS_A, FINITE + kind(r"^incompatible shapes: A is \(3,\)",
                                  {"1-d": lambda a: a[:, 0]})
            + kind(exact("matrix A must have at least one column, got shape (3, 0)"),
                   {"no-column": lambda a: a[:, :0]}) + typed(), "matrix A"),
      "b": (NNLS_B, kind(r"target b must sum to 1; its gap .* NNLS_TARGET_SUM_TOL",
                         {"sum": np.full(3, 0.5)})
            + FINITE + kind(NOT_FINITE, {"inf-and--inf": [INF, -INF, 1.0]})
            + kind(exact("incompatible shapes: A is (3, 11), b is (2,)"),
                   {"shape": [0.5, 0.5]}) + typed(), "target b")}),
    ("convexity_test", d.convexity_test,
     {"j": (2, FRAME), "n": (1, count()), "n_nodes": (5, count(3), "2j=2: n_nodes")}),
    ("convexity_series", d.convexity_series,
     {"j": (2, FRAME), "n_max": (1, count()), "n_nodes": (5, count(3), "2j=2: n_nodes")}),
    ("KrausSet", d.KrausSet, {"bands": (KRAUS.bands, BANDS)}),
    ("FrameState", d.FrameState,
     {"data": ([0.0, 0.0, 1.0], POPULATIONS + typed(), STATE_2 + "populations")}),
    ("FrameState:dense", d.FrameState,
     {"data": (np.diag([0.0, 0.0, 1.0]), MATRIX + typed("real or complex"), STATE_2 + "matrix")}),
    ("build_kraus", d.build_kraus, {"j": (2, FRAME)}),
    ("transfer_rates", d.transfer_rates, {"j": (2, FRAME)}),
    ("multipole_spectrum", d.multipole_spectrum, {"j": (2, FRAME)}),
    ("apply_map", d.apply_map, {"state": (STATE, record(d.FrameState))}),
    ("quantum_fidelity", d.quantum_fidelity, {"state": (STATE, record(d.FrameState))}),
    ("closed_form_fidelity", d.closed_form_fidelity, {"j": (2, FRAME), "n": (3, STEPS)}),
    ("evolve", d.evolve, {"j": (2, FRAME), "n_max": (3, count())}),
    *[(f"conditional_update{variant}", d.conditional_update,
       {"state": (state, record(d.FrameState)),
        "kraus": (KRAUS, record(d.KrausSet)
                  + kind(r"^spin mismatch: state has 2j=3, kraus has 2j=2$",
                         {"other-spin": d.build_kraus(2)})),
        "outcome": (1, OUTCOME)})
      for variant, state in (("", STATE), (":dense", d.FrameState(STATE.matrix)))],
    ("sample_trajectory", d.sample_trajectory,
     {"j": (2, FRAME), "n_max": (3, count()), "seed": (1, SEED)}),
    ("conditional_fidelity_table", d.conditional_fidelity_table,
     {"j": (2, FRAME), "n": (3, count())}),
    ("sample_fidelity_batch", d.sample_fidelity_batch,
     {"j": (2, FRAME), "n_max": (3, count()), "n_samples": (4, count(1)), "seed": (1, SEED)}),
]

# Public callables outside drfsim.__all__: a record's method, the CLI's
# settings and the selftest.
OUTSIDE = [
    ("LegendreSpectrum.reconstruct", d.initial_spectrum(2).reconstruct,
     {"theta": (0.5, POLAR + kind(r"^theta must be real, got dtype bool$",
                                  {"entry-True": [0.5, True]}))}),
    ("cli.RunConfig", cli.RunConfig,
     {"command": ("compare", kind(r"^unknown command 'walk'$", {"walk": "walk"})),
      "twice_j": ([2], kind(r"^twice_j must be an integer >= 1, got ",
                            {"0": [2, 0], "2.5": [2.5], "nan": [NAN], "str": ["2"]})
                  + kind(r"^twice_j must list at least one size$", {"empty": []})
                  + kind(r"^twice_j must be a list or tuple of sizes, got ",
                         {"string": "12", "int": 5})
                  + kind(exact("twice_j must be an integer >= 1, got True"),
                         {"entry-True": [2, True]})
                  + kind(exact("twice_j must be an integer in [1, 2**60), got "),
                         {"2**60": [2, 2**60]})),
      "n_max": (3, count() + below_2_60(0)), "alpha": (0.1, ANGLE),
      "seed": (1, count() + kind(exact("seed must be an integer in [0, 2**64), got "),
                                 {"2**64": 2**64})),
      "samples": (5, count(1) + below_2_60(1)), "n_nodes": (5, count(1) + below_2_60(1)),
      "out": (None, kind(r"^out must be a str or a path, got ",
                         {"5": 5, "bytes": b"x.csv", "True": True}))}),
    ("selftest.run_selftest", selftest.run_selftest,
     {"seed": (1, count()), "stream": (io.StringIO(), "a text stream: written as it is")}),
]

# Public names with no row, and why.
EXCEPTIONS = {
    **dict.fromkeys(["DrfsimError", "DomainError", "ConvergenceError",
                     "InternalConsistencyError"], "exception classes: raised, not called"),
    "__version__": "a string",
    "CGCoefficient": "a plain record, with no __post_init__",
    "MultipoleSpectrum": "a plain record, with no __post_init__",
}


def _cases():
    for row, call, args in ROWS + OUTSIDE:
        for argument, (_, argument_kind, *label) in args.items():
            if isinstance(argument_kind, str):
                continue
            name = re.escape(label[0] if label else argument)
            for id_, bad, pattern in argument_kind:
                yield pytest.param(call, args, argument, bad, pattern.replace("{name}", name),
                                   id=f"{row}-{argument}-{id_}")


def _valid(args):
    return {argument: spec[0] for argument, spec in args.items()}


@pytest.mark.parametrize("call, args", [pytest.param(call, args, id=row)
                                        for row, call, args in ROWS + OUTSIDE])
def test_valid_arguments_are_accepted(call, args):
    # so that each corruption below is the one thing wrong with its call
    call(**_valid(args))


@pytest.mark.parametrize("call, args, argument, bad, pattern", _cases())
def test_corrupted_argument_is_a_domain_error_naming_it(call, args, argument, bad, pattern):
    kwargs = _valid(args)
    kwargs[argument] = bad(kwargs[argument]) if callable(bad) else bad
    with pytest.raises(DomainError, match=pattern):
        call(**kwargs)


def test_every_frame_size_has_the_one_size_kind():
    # a j or twice_j argument of a public callable is refused as FRAME refuses
    # it, so no callable brings back a second size rule (cli.RunConfig's
    # twice_j, a list of sizes, has the CLI's own row)
    others = [f"{row}: {size}" for row, call, args in ROWS
              for size in {"j", "twice_j"} & inspect.signature(call).parameters.keys()
              if args[size][1] is not FRAME]
    assert others == []


def test_every_parameter_has_an_entry():
    # a parameter added to a public callable without its contract cases
    # fails here at once
    mismatched = [row for row, call, args in ROWS + OUTSIDE
                  if args.keys() != inspect.signature(call).parameters.keys()]
    assert mismatched == []


def test_public_records_compare_and_hash():
    # a record that holds arrays compares and hashes by identity, as numpy
    # arrays allow; two builds, since a copy would share the arrays
    built = [(call(**_valid(args)), call(**_valid(args)))
             for _, call, args in ROWS if dataclasses.is_dataclass(call)]
    built.append((d.multipole_spectrum(2), d.multipole_spectrum(2)))
    for first, second in built:
        assert first == first
        assert isinstance(first == second, bool) and isinstance(hash(first), int)


def test_no_public_function_is_a_contract_exception():
    # only classes and names that are not called go without a row, so every
    # public function checks its arguments
    functions = [name for name in EXCEPTIONS
                 if callable(value := getattr(d, name)) and not inspect.isclass(value)]
    assert functions == []
