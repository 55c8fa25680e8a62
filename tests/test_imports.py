"""Import footprint and package namespace: each command loads only what it uses.

Every check that depends on what is already imported runs in a fresh
interpreter, so the test session's own imports cannot hide a regression.
The sources themselves import neither numpy nor ``dataclasses`` and call
``float`` nowhere but in a ``__float__`` method, and the package declares no
runtime dependency.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stretchlab

SRC = str(Path(stretchlab.__file__).resolve().parent.parent)

#: The public names of the package, as exported when every submodule was imported eagerly.
EXPORTED = (
    "AdmissibilityReport CurveGraph DEFAULT_TOL FamilyForm IntMatrix IntPolynomial "
    "PrimitivityReport RootEnclosure SearchConfig SearchResult "
    "SharpnessExample SimpleCycle SpectralClass SturmChain TrainTrack ValueInterval "
    "WeightSpace _kernels boundary_components build_example char_poly classify "
    "clique_polynomial companion compare_enclosures convergence_table curve_graph "
    "curve_graph_shape curvegraph cyclotomic determinant divrem enumerate_admissible "
    "exact_div families growth_rate in_glnz instantiate is_primitive is_reciprocal "
    "is_salem_like is_skew_reciprocal is_skew_reciprocal_up_to_cyclotomic "
    "largest_real_root matrices monotonicity_scan normalized_spectral_radius "
    "parity_condition poly primitivity_compatible radical "
    "radical_elements real_roots_in_interval roots run_search search sharpness "
    "silver_ratio_squared simple_cycles spectral_radius sqrt_min_poly strip_cyclotomic "
    "thurston_form traintrack unit_circle_root_count verify_block_structure "
    "verify_clique_identity verify_low_degree_exceptions weight_space witness_check"
).split()

#: Loaded by no command: the records are NamedTuples or plain classes, so
#: nothing pulls in `dataclasses` and, through it, `inspect`.
NEVER = ("numpy", "dataclasses", "inspect")

#: Loaded by no command but `search` and `repro`: the orbit search lives there.
NO_SEARCH = NEVER + ("stretchlab.search",)

#: Loaded by no command at the default `--threads 1`: a pool needs 2 or more.
NO_POOL = NEVER + ("multiprocessing",)

#: Loaded by none of `import stretchlab.cli` and a `classify` query.
HEAVY = NEVER + (
    "multiprocessing",
    "stretchlab.search",
    "stretchlab.families",
    "stretchlab.sharpness",
    "stretchlab.traintrack",
    "stretchlab.curvegraph",
    "stretchlab.matrices",
)

PERIOD_4 = {"rows": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0]]}
#: A signed matrix with a complex pair of modulus 2 above its largest real root 1.
SIGNED = {"rows": [[1, 0, 0], [0, 0, -4], [0, 1, 0]]}
#: One vertex, one real loop: the smallest track the `traintrack` command reads.
LOOP_TRACK = {
    "vertices": [{"sideA": [1], "sideB": [2]}],
    "edges": [{"ends": [1, 2], "kind": "real"}],
}


def fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(argv) -> set[str]:
    """Modules in sys.modules after `import stretchlab.cli` and, if given, one query."""
    return set(
        fresh(
            "import contextlib, io, json, sys\n"
            "import stretchlab.cli\n"
            f"argv = {argv!r}\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert stretchlab.cli.main(argv) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
    )


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, HEAVY),
        (["classify", "--poly", '{"coeffs":["-1","-2","-1","0","1"]}'], HEAVY),
        # nonnegative, not primitive: Perron-Frobenius, so no gate
        (["matrix", "--matrix", json.dumps(PERIOD_4)], NO_SEARCH),
        # the spectral-radius gate of a signed matrix is exact
        (["matrix", "--matrix", json.dumps(SIGNED)], NO_SEARCH),
        (["curve-graph", "--matrix", json.dumps(PERIOD_4)], NO_SEARCH),
        (["traintrack", "--file", "{track}"], NO_SEARCH),
        (["family", "--n", "6"], NO_SEARCH),
        (["sharpness", "--k", "3"], NO_SEARCH),
        (["search", "--n", "3", "--max-entry", "1"], NO_POOL),
        (["repro", "set-theorem"], NEVER),
    ],
    ids=[
        "import",
        "classify",
        "matrix-period-4",
        "matrix-signed",
        "curve-graph",
        "traintrack",
        "family",
        "sharpness",
        "search",
        "repro-set-theorem",
    ],
)
def test_command_imports_only_what_it_uses(argv, absent, tmp_path):
    if argv and "{track}" in argv:
        track = tmp_path / "track.json"
        track.write_text(json.dumps(LOOP_TRACK))
        argv = [str(track) if a == "{track}" else a for a in argv]
    if not argv or argv[0] != "repro":
        absent = (*absent, "stretchlab.repro")
    assert sorted(set(absent) & loaded_after(argv)) == []


def test_benchmark_script_loads():
    # it imports private helpers of the package, so a rename must fail here
    script = Path(SRC).parent / "benchmarks" / "bench_kernels.py"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def test_every_exported_name_resolves_lazily():
    names = fresh(
        "import json, stretchlab\n"
        f"names = {EXPORTED!r}\n"
        "missing = [n for n in names if n not in dir(stretchlab)]\n"
        "attr = {n: type(getattr(stretchlab, n)).__name__ for n in names}\n"
        "exec('from stretchlab import ' + ', '.join(names))\n"
        "print(json.dumps({'missing': missing, 'types': attr}))\n"
    )
    assert names["missing"] == []
    assert names["types"]["classify"] == "function"
    assert names["types"]["matrices"] == "module"


def test_classify_stays_the_function_after_a_classify_query():
    kinds = fresh(
        "import contextlib, io, json, inspect\n"
        "import stretchlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    stretchlab.cli.main(['classify', '--poly', '{\"coeffs\":[\"-1\",\"-1\",\"1\"]}'])\n"
        "from stretchlab import classify\n"
        "import stretchlab\n"
        "print(json.dumps([inspect.isfunction(classify), inspect.isfunction(stretchlab.classify)]))\n"
    )
    assert kinds == [True, True]


@pytest.mark.parametrize(
    "module",
    [
        "_kernels",
        "classify",
        "cli",
        "curvegraph",
        "errors",
        "families",
        "matrices",
        "poly",
        "repro",
        "roots",
        "search",
        "sharpness",
        "traintrack",
    ],
)
def test_each_module_imports_on_its_own(module):
    assert fresh(f"import json, stretchlab.{module}\nprint(json.dumps(1))") == 1


def top_level_imports(nodes) -> set[str]:
    """First components of the absolute module names that ``import`` statements name."""
    nodes = list(nodes)
    modules = [alias.name for n in nodes if isinstance(n, ast.Import) for alias in n.names]
    modules += [n.module for n in nodes if isinstance(n, ast.ImportFrom) and not n.level]
    return {m.split(".")[0] for m in modules}


@pytest.mark.parametrize(
    "path", sorted(Path(SRC, "stretchlab").glob("*.py")), ids=lambda p: p.name
)
def test_sources_import_no_numpy_and_call_float_only_in_dunder_float(path):
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    assert "numpy" not in top_level_imports(nodes)
    allowed = {
        id(inner)
        for n in nodes
        if isinstance(n, ast.FunctionDef) and n.name == "__float__"
        for inner in ast.walk(n)
    }
    float_calls = [
        n.lineno
        for n in nodes
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "float"
        and id(n) not in allowed
    ]
    assert float_calls == []


def test_repro_never_imports_the_cli():
    """Under ``python -m stretchlab.cli`` that import would compile the CLI twice."""
    path = Path(SRC, "stretchlab", "repro.py")
    named = set()
    for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(n, ast.Import):
            named.update(alias.name for alias in n.names)
        elif isinstance(n, ast.ImportFrom):
            base = "stretchlab" + ("." + n.module if n.module else "") if n.level else n.module
            named.add(base)
            named.update(f"{base}.{alias.name}" for alias in n.names)
    assert "stretchlab.classify" in named  # the walk sees the imports
    assert "stretchlab.cli" not in named


@pytest.mark.parametrize(
    "path", sorted(Path(SRC, "stretchlab").glob("*.py")), ids=lambda p: p.name
)
def test_sources_import_no_dataclasses(path):
    nodes = ast.walk(ast.parse(path.read_text(), filename=str(path)))
    assert "dataclasses" not in top_level_imports(nodes)


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(SRC).parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("not running from a source tree")
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
