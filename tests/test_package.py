"""Package-wide contracts: the public surface, the parameters no caller
sets (no order, no oracle cap, no environment variable), the declared
runtime dependencies, and the independence of the references in
``reference.py``."""

import ast
import copy
import inspect
import pickle
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mexmoments
from mexmoments import asymptotics, conjectures, partitions, qseries

PUBLIC_NAMES = [
    "BACKEND", "MexParams", "MomentSequence", "ResourceCapError", "ValidationError",
    "__version__", "moment_sequence", "partition_numbers", "sigma_gf_coeffs", "sigma_oracle",
    "varsigma_gf_coeffs", "varsigma_oracle",
]


def test_public_surface_is_the_three_routes():
    assert sorted(mexmoments.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mexmoments, name) is not None


@pytest.mark.parametrize("call", [
    lambda kind: qseries.MomentSequence(kind, mexmoments.MexParams(1, 1, 1, 0), [1]),
    lambda kind: qseries.moment_sequence(kind, mexmoments.MexParams(1, 1, 1, 0), 3),
    lambda kind: qseries.moment_value(kind, mexmoments.MexParams(1, 1, 1, 0), 3),
    lambda kind: partitions.oracle_values(kind, mexmoments.MexParams(1, 1, 1, 0), 3),
    lambda kind: conjectures.scan_bias(kind, 1, 2, 0, 1, 3),
    lambda kind: asymptotics.qexpansion_ingham_params(kind, 1, 1, 0),
    lambda kind: qseries.largest_mex(kind, mexmoments.MexParams(1, 2, 1, 1), 10),
    lambda kind: qseries.value_bits(kind, mexmoments.MexParams(1, 2, 1, 1), 10),
    lambda kind: qseries.sequence_bytes(kind, mexmoments.MexParams(1, 2, 1, 1), 10),
], ids=["MomentSequence", "moment_sequence", "moment_value", "oracle_values", "scan_bias",
        "qexpansion_ingham_params", "largest_mex", "value_bits", "sequence_bytes"])
def test_every_entry_point_refuses_an_unknown_kind_with_one_message(call):
    message = "kind must be one of ('sigma', 'varsigma'), got 'mex'"
    with pytest.raises(mexmoments.ValidationError) as info:
        call("mex")
    assert str(info.value) == message
    assert partitions.VALID_KINDS == ("sigma", "varsigma")


# An int argument of any call: the ints valid calls take, kept <= 64 so
# that no draw does heavy work, huge ints of both signs (10^5000 past the
# int-to-str limit), and non-ints.
HUGE = [2**63, 10**400, -(10**400), 10**5000, -(10**5000)]
ARGS = st.one_of(st.integers(-2, 64), st.sampled_from(HUGE),
                 st.floats(), st.booleans(), st.none(), st.text(max_size=2))
# Containers whose repr fails: they hold an int past the int-to-str limit.
UNSHOWABLE = st.sampled_from([10**5000, -(10**5000)]).flatmap(
    lambda v: st.sampled_from([[v], (v,), {v: 1}]))


class Fields(NamedTuple):
    """The fields of a ``MexParams`` that the call builds, so that the
    constructor's own errors are checked too."""

    values: tuple


FIELDS = st.one_of(st.tuples(*[st.integers(1, 8)] * 4), st.tuples(ARGS, ARGS, ARGS, ARGS))
NOT_PARAMS = st.one_of(FIELDS, st.none(), st.lists(ARGS, max_size=4),
                       st.dictionaries(st.text(max_size=2), ARGS, max_size=2))
ROLES = {
    "int": st.one_of(ARGS, UNSHOWABLE),
    # t = 0.1 and above keeps gf_boundary_log's series short; a fraction
    # of 10^-5000 is above 0 but 0.0 as a float.
    "t": st.one_of(st.floats(0.1, 1), ARGS, st.just(Fraction(1, 10**5000))),
    "kind": st.one_of(st.sampled_from(partitions.VALID_KINDS), ARGS, UNSHOWABLE),
    # Half the draws are fields for MexParams, half of those valid ints so
    # that calls get past MexParams.  The other half are not a MexParams
    # and go in as they are: tuples, None, lists and dicts.
    "params": st.booleans().flatmap(lambda wrap: FIELDS.map(Fields) if wrap else NOT_PARAMS),
    "values": st.one_of(ARGS, st.lists(ARGS, max_size=3)),
}
# The roles of the arguments of every function in ``__all__``, the
# scanners, the oracle column and its histogram gate, the stored moment
# value and the size helpers, the growth laws, the ratio helpers and the
# float entry points; "params" is a MexParams or something else.
SIGNATURES = {
    "MexParams": ("int",) * 4,
    "MomentSequence": ("kind", "params", "values"),
    "moment_sequence": ("kind", "params", "int"),
    "partition_numbers": ("int",),
    "sigma_gf_coeffs": ("params", "int"),
    "varsigma_gf_coeffs": ("params", "int"),
    "sigma_oracle": ("params", "int"),
    "varsigma_oracle": ("params", "int"),
    "oracle_values": ("kind", "params", "int"),
    "mex_value_histogram": ("int", "int", "int"),
    "moment_value": ("kind", "params", "int"),
    "largest_mex": ("kind", "params", "int"),
    "value_bits": ("kind", "params", "int"),
    "sequence_bytes": ("kind", "params", "int"),
    "scan_bias": ("kind",) + ("int",) * 5,
    "scan_log_concavity": ("kind", "params", "int", "int"),
    "hardy_ramanujan_asymp": ("int",),
    "sigma_asymp": ("params", "int"),
    "varsigma_asymp": ("params", "int"),
    "exact_over_asymptotic": ("kind", "params", "int"),
    "corollary_ratio": ("kind", "params", "int", "int"),
    "qexpansion_ingham_params": ("kind", "int", "int", "int"),
    "gf_boundary_log": ("kind", "params", "t"),
    "eta_inversion_check": ("t",),
}
GATED = {name: getattr(mexmoments, name) for name in mexmoments.__all__
         if callable(getattr(mexmoments, name)) and not name.endswith("Error")}
GATED |= {f.__name__: f for f in (
    partitions.oracle_values, partitions.mex_value_histogram, qseries.moment_value,
    qseries.largest_mex, qseries.value_bits, qseries.sequence_bytes,
    conjectures.scan_bias, conjectures.scan_log_concavity,
    asymptotics.hardy_ramanujan_asymp, asymptotics.sigma_asymp, asymptotics.varsigma_asymp,
    asymptotics.exact_over_asymptotic, asymptotics.corollary_ratio,
    asymptotics.qexpansion_ingham_params, asymptotics.gf_boundary_log,
    asymptotics.eta_inversion_check)}


@pytest.mark.parametrize("name", sorted(GATED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_entry_point_refuses_bad_input_with_the_package_errors(name, data):
    # Only ValidationError and ResourceCapError escape, and the documented
    # ZeroDivisionError of corollary_ratio.
    roles = SIGNATURES[name]
    args = [data.draw(ROLES[role], label=role) for role in roles]
    allowed = (mexmoments.ValidationError, mexmoments.ResourceCapError,
               *([ZeroDivisionError] if name == "corollary_ratio" else []))
    try:
        GATED[name](*(mexmoments.MexParams(*arg.values) if type(arg) is Fields else arg
                      for arg in args))
    except allowed:
        pass


#: A valid argument of each other role, so that only ``p`` is wrong.
VALID_ARGS = {"int": 3, "t": 0.5, "kind": "varsigma", "values": [1, 1, 2, 3]}


@pytest.mark.parametrize("name", sorted(n for n, roles in SIGNATURES.items() if "params" in roles))
def test_every_entry_point_refuses_params_that_are_not_a_mex_params(name):
    # Unchecked, each would end in AttributeError, or in TypeError
    # (unhashable) at a store lookup, or keep a tuple as its params.
    roles = SIGNATURES[name]
    for p in [(1, 2, 1, 1), None, [1, 2, 1, 1], {"s": 1}]:
        args = [p if role == "params" else VALID_ARGS[role] for role in roles]
        with pytest.raises(mexmoments.ValidationError, match="^params must be a MexParams, got "):
            GATED[name](*args)


KERNELS = {"mex_value_counts", "sparse_dense_product"}


def _kernel_uses(tree: ast.AST) -> tuple[list, list, list]:
    """In a parsed module: the (outermost def, kernel) of each
    ``backend.<kernel>`` attribute, "" at module level, the kernels it
    imports by name from any module, and the kernels it defines at
    module level."""
    uses = []
    for top in tree.body:
        where = getattr(top, "name", "")
        uses += [(where, node.attr) for node in ast.walk(top) if isinstance(node, ast.Attribute)
                 and node.attr in KERNELS and isinstance(node.value, ast.Name)
                 and node.value.id == "backend"]
    imports = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name in KERNELS]
    defined = [top.name for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name in KERNELS]
    return uses, imports, defined


def test_each_kernel_has_one_caller():
    # The histogram kernel checks none of its arguments: it trusts its one
    # caller, the gate mex_value_histogram.  The product is reached only
    # through _gf_coeffs, after its order and byte checks.  Both are
    # defined in backend.py, the module their callers reach them through,
    # and no module imports one by name.
    modules = sorted(Path(mexmoments.__file__).parent.glob("*.py"))
    assert {m.name for m in modules} >= {"backend.py", "partitions.py", "qseries.py"}
    found = {m.name: _kernel_uses(ast.parse(m.read_text(encoding="utf-8"))) for m in modules}
    assert {name: uses for name, (uses, _, _) in found.items() if uses} == {
        "partitions.py": [("mex_value_histogram", "mex_value_counts")],
        "qseries.py": [("_gf_coeffs", "sparse_dense_product")],
    }
    assert {name: imports for name, (_, imports, _) in found.items() if imports} == {}
    assert {name: sorted(defined) for name, (_, _, defined) in found.items() if defined} == {
        "backend.py": sorted(KERNELS)}
    # the walk sees a call in a nested def, one at module level, an import
    # and a definition
    probe = ("from mexmoments.backend import mex_value_counts\nx = backend.sparse_dense_product\n"
             "class C:\n    def f(self):\n        return lambda: backend.mex_value_counts\n"
             "def sparse_dense_product():\n    pass\n")
    assert _kernel_uses(ast.parse(probe)) == (
        [("", "sparse_dense_product"), ("C", "mex_value_counts")], ["mex_value_counts"],
        ["sparse_dense_product"])


def _kind_comparisons(tree: ast.AST) -> list:
    """In a parsed module: the dotted def names, "" at module level, of
    each comparison with "sigma" or "varsigma" anywhere in an operand."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value in ("sigma", "varsigma")
                    for operand in (child.left, *child.comparators) for c in ast.walk(operand)):
                found.append(where)
            visit(child, inner)

    visit(tree, "")
    return found


def test_the_kind_picks_its_chain_in_one_place():
    # sigma and varsigma differ only in their chain (MexParams._chain).
    # Beside it, only the varsigma r = 0 identity (in _check_values, which
    # checks a new sequence and the window that extends a stored one) and
    # the dispatch to the traced *_gf_coeffs names may look at the kind.
    package = Path(mexmoments.__file__).parent
    found = {name: _kind_comparisons(ast.parse((package / name).read_text(encoding="utf-8")))
             for name in ("partitions.py", "qseries.py")}
    assert found == {"partitions.py": ["MexParams._chain"],
                     "qseries.py": ["_check_values", "moment_sequence"]}
    # the walk sees a comparison in a nested def, in a tuple and at module level
    probe = ("x = k == 'sigma'\nclass C:\n    def f(self, k):\n"
             "        return lambda: k in ('varsigma',) or k != 'other'\n")
    assert _kind_comparisons(ast.parse(probe)) == ["", "C.f"]


def test_reference_imports_nothing_from_the_package():
    # Criteria 1-3 are an independent route only while the references
    # share no code with the package they check.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "math" in imported  # the walk does see the imports
    assert not [name for name in imported if name.split(".")[0] == "mexmoments"]


def test_scanners_compute_to_their_range_and_moment_sequence_needs_an_order():
    # The scanners compute exactly to n_hi; no caller chooses an order for them.
    for scan in (conjectures.scan_log_concavity, conjectures.scan_bias):
        assert "order" not in inspect.signature(scan).parameters
    order = inspect.signature(qseries.moment_sequence).parameters["order"]
    assert order.default is inspect.Parameter.empty
    assert not hasattr(qseries, "DEFAULT_TRUNCATION")


def test_no_caller_sets_an_order_or_an_oracle_cap():
    # The ratio helpers compute to their own n, gf_boundary_log to a
    # width fixed by t, and the oracles stop at the fixed ORACLE_CAP.
    for fn in (asymptotics.exact_over_asymptotic, asymptotics.corollary_ratio,
               asymptotics.gf_boundary_log):
        assert "order" not in inspect.signature(fn).parameters
    for oracle in (mexmoments.sigma_oracle, mexmoments.varsigma_oracle):
        assert list(inspect.signature(oracle).parameters) == ["p", "n"]
    assert not hasattr(qseries, "truncation_order")


def test_benchmarked_asymptotics_do_not_import_mpmath():
    # mpmath is a test dependency: only the partial-theta references in
    # reference.py use it.  Importing it takes about 30 ms against about
    # 50 ms for all of mexmoments.cli (2-core machine, python -X
    # importtime), so no benchmarked path may load it.
    script = """
import sys
import mexmoments.cli
from mexmoments import asymptotics
from mexmoments.partitions import MexParams
p = MexParams(1, 2, 1, 1)
asymptotics.exact_over_asymptotic("sigma", p, 64)
asymptotics.corollary_ratio("sigma", p, 2, 64)
asymptotics.gf_boundary_log("sigma", p, 0.2)
asymptotics.eta_inversion_check(0.1)
print("mpmath" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"



def _loaded(names: tuple, code: str) -> tuple[list, list]:
    """The words two fresh interpreters with this one's flags print, a
    bare one and one that runs ``code`` first: then whether each of
    ``names`` is in ``sys.modules``."""
    probe = "import sys\n{}\nprint(*(name in sys.modules for name in %r))" % (names,)
    command = [sys.executable, *subprocess._args_from_interpreter_flags(), "-c"]
    runs = [subprocess.run([*command, probe.format(line)], capture_output=True, text=True)
            for line in ("", code)]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    return tuple(run.stdout.split() for run in runs)


def test_the_cli_starts_without_dataclasses_or_asymptotics():
    # Start-up is most of a short CLI run.  Importing the CLI loads neither
    # dataclasses (about 6 ms with inspect, ast, dis and tokenize) nor the
    # asymptotic layer, which only asymp calls, unless a bare interpreter
    # with the same flags loads it already.  conjectures stays loaded: the
    # benchmark's tracer looks it up in sys.modules after this import.
    bare, cli = _loaded(("dataclasses", "mexmoments.asymptotics", "mexmoments.conjectures"),
                        "import mexmoments.cli")
    assert cli == [bare[0], bare[1], "True"]


def test_the_library_loads_no_dataclasses_and_its_kernels_live_in_backend():
    # Past the CLI, asymp's and the scanners' modules load no dataclasses
    # either (InghamParams is a _Frozen value), unless a bare interpreter
    # with the same flags loads it already.  The kernels that the
    # benchmark's tracer and the fixtures patch as backend.<kernel> are
    # defined in that module, not re-exported from another.
    load = ("import mexmoments.cli, mexmoments.asymptotics, mexmoments.conjectures\n"
            "from mexmoments import backend\n"
            "print(backend.sparse_dense_product.__module__, backend.mex_value_counts.__module__)")
    bare, loaded = _loaded(("dataclasses", "mexmoments._pure"), load)
    assert loaded == ["mexmoments.backend", "mexmoments.backend", *bare]


# Each value class, the fields of one instance, and its repr.
_P = mexmoments.MexParams(1, 2, 1, 1)
RECORDS = [
    (mexmoments.MexParams, (1, 2, 1, 1), "MexParams(s=1, M=2, A=1, r=1)"),
    (qseries.MomentSequence, ("sigma", _P, (1, 0, 2)),
     "MomentSequence(kind='sigma', params=MexParams(s=1, M=2, A=1, r=1), order=2)"),
    (conjectures.ScanReport, ({"kind": "sigma"}, 1, 3, (2,), (2,), (), None),
     "ScanReport(params={'kind': 'sigma'}, n_lo=1, n_hi=3, violations=(2,), equalities=(2,), "
     "ordering=(), stabilized_at=None)"),
    (asymptotics.InghamParams, (0.5, -0.5, 1.25),
     "InghamParams(lam=0.5, alpha=-0.5, growth_A=1.25)"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
def test_value_classes_behave_as_frozen_dataclasses(cls, fields, text):
    # MexParams, MomentSequence, ScanReport and InghamParams are not
    # dataclasses (no module of the package loads that module), but
    # behave as the frozen ones did.
    value = cls(*fields)
    names = cls._fields
    assert [getattr(value, name) for name in names] == list(fields)
    assert cls(**dict(zip(names, fields))) == value
    assert repr(value) == text
    # Equal to its class with equal fields only, never to a plain tuple.
    assert value == cls(*fields) and not value != cls(*fields)
    assert value != fields and fields != value and value != list(fields)
    assert value is not None and value != None  # noqa: E711
    changed = (*fields[:-1], 3 if cls is not qseries.MomentSequence else (1, 0, 3))
    assert value != cls(*changed)
    if cls is conjectures.ScanReport:  # a dict field, as with the dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(cls(*fields)) == hash(fields)
        assert {value: 1}[cls(*fields)] == 1
    # Frozen: no field, nor a new attribute, is assigned or deleted.
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == list(fields)
    # Round trips give an equal value of the class.
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value),
                 *(pickle.loads(pickle.dumps(value, protocol)) for protocol in range(0, 6))):
        assert type(twin) is cls and twin == value and repr(twin) == text


def test_a_moment_sequence_takes_a_weak_reference():
    seq = qseries.MomentSequence("sigma", _P, (1, 0, 2))
    ref = weakref.ref(seq)
    assert ref() is seq
    del seq
    assert ref() is None


def _unchecked(cls, *fields):
    """An instance holding ``fields`` that no check has seen."""
    value = object.__new__(cls)
    for name, field in zip(cls._fields, fields):
        object.__setattr__(value, name, field)
    return value


@pytest.mark.parametrize("cls, fields", [
    (mexmoments.MexParams, (True, 2, 1, 1)),
    (mexmoments.MexParams, (1, 2, 1, False)),
    (mexmoments.MexParams, (1, 2, 3, 1)),
    (mexmoments.MexParams, (0, 2, 1, 1)),
    (mexmoments.MexParams, (1, 2, 1, -1)),
    (mexmoments.MexParams, (1, 2.0, 1, 1)),
    (qseries.MomentSequence, ("sigma", _P, (1, True, 2))),
    (qseries.MomentSequence, ("sigma", _P, (1, -1, 2))),
    (qseries.MomentSequence, ("mex", _P, (1, 0, 2))),
    (qseries.MomentSequence, ("sigma", (1, 2, 1, 1), (1, 0, 2))),
    (qseries.MomentSequence, ("varsigma", mexmoments.MexParams(1, 1, 1, 0), (1, 1, 3))),
    (asymptotics.InghamParams, (0.0, 0.5, 1.25)),
    (asymptotics.InghamParams, (-1.0, 0.5, 1.25)),
    (asymptotics.InghamParams, (0.5, 0.5, 0.0)),
    (asymptotics.InghamParams, (0.5, 0.5, -1.25)),
])
def test_every_construction_path_runs_the_checks(cls, fields):
    # The constructor, by position and by name, and every rebuild from a
    # value's fields (pickle, copy, deepcopy) refuse a field outside its
    # domain, a bool included.
    bad = _unchecked(cls, *fields)
    builds = [lambda: cls(*fields), lambda: cls(**dict(zip(cls._fields, fields))),
              lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad),
              lambda: copy.deepcopy(bad)]
    for build in builds:
        with pytest.raises(mexmoments.ValidationError):
            build()


def test_growth_data_that_underflow_are_refused_by_the_constructor():
    # s^(-r/2) underflows to 0.0 here, so lam is 0.0, and only the
    # constructor's lam > 0 check refuses it.
    with pytest.raises(mexmoments.ValidationError, match=r"^lam must be > 0, got 0\.0$"):
        asymptotics.qexpansion_ingham_params("sigma", 10**6, 1, 120)


def _third_party_imports(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports in a parsed module that are
    neither standard library nor ``mexmoments``."""
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    tops = {name.split(".")[0] for name in names}
    return tops - set(sys.stdlib_module_names) - {"mexmoments"}


def test_declared_dependencies_are_the_third_party_imports():
    # A module that starts importing a third-party package must declare it
    # in pyproject.toml, and a declared package must still be imported.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = sorted(re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in declared)
    modules = sorted(Path(mexmoments.__file__).parent.glob("*.py"))
    assert {m.name for m in modules} >= {"cli.py", "asymptotics.py", "qseries.py"}
    imported = set().union(*(_third_party_imports(ast.parse(m.read_text(encoding="utf-8")))
                             for m in modules))
    assert sorted(imported) == declared
    # the walk sees a third-party import, lazy or not, and skips the rest
    probe = "import os, numpy.linalg\nfrom . import x\ndef f():\n    from mpmath import mp\n"
    assert _third_party_imports(ast.parse(probe)) == {"numpy", "mpmath"}


def _environment_reads(tree: ast.AST) -> list[str]:
    """``os.environ`` / ``os.getenv`` attribute reads and ``from os import``
    of either name in a parsed module."""
    names = {"environ", "getenv", "environb", "getenvb"}
    found = [f"line {node.lineno}: os.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    found += [f"line {node.lineno}: from os import {alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in names]
    return found


def test_no_module_reads_the_environment():
    # Every limit is a constant of the package, so a knob can come back
    # through an environment variable only by editing this test.
    src = Path(mexmoments.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert {m.name for m in modules} >= {"cli.py", "partitions.py", "qseries.py"}
    reads = {m.name: _environment_reads(ast.parse(m.read_text(encoding="utf-8")))
             for m in modules}
    assert {name: found for name, found in reads.items() if found} == {}
    assert _environment_reads(ast.parse("import os\nos.environ.get('X')\n"))  # the walk sees one
