import ast
import importlib.util
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import toricsheaves


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(toricsheaves.__file__).parent.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_imports_neither_dataclasses_nor_inspect():
    """Importing the CLI, moduli and sampling in a fresh interpreter without
    site imports neither dataclasses nor inspect, whose import chain (ast,
    dis, tokenize) and generated methods were a large share of start-up."""
    src = str(Path(toricsheaves.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import toricsheaves.cli, toricsheaves.moduli, toricsheaves.sampling; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_modules_use_every_imported_name():
    """A name bound by an import but never read is dead weight; names used
    only inside string annotations count as unused."""
    unused = []
    for path in sorted(Path(toricsheaves.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in bound if name not in read]
    assert unused == []


# Public functions and methods (Class.name) that no package code calls, each
# kept for a reason: a serialization function, an input generator, or a name
# the benchmark's tracer wraps.  Code that only the tests call lives in
# tests/conftest.py.
UNCALLED_PUBLIC = {
    # serialization, the inverse of the CLI's loaders
    "family_to_json", "fan_to_json",
    # seeded input generators for tests and the benchmark
    "random_families", "random_smooth_complete_fan",
    # builds a face grid on its own; the tests' face-grid oracle, which chern
    # and stability read in place, and the benchmark's tracer wraps it
    "restrict_to_face",
    # the tests' reconstruction oracle scales each Xi by a dimension, and the
    # benchmark's tracer wraps the RatPoly arithmetic
    "RatPoly.scale",
    # builds the subfamily E cap W for the Gieseker and slope oracles of the
    # tests; the benchmark's tracer wraps it, so it stays until the tracer drops it
    "intersect_with_subspace",
    # the test set of a family on its own; the meet table builds it from its
    # scan of the corner grids through the same helper, and the benchmark's
    # tracer wraps both names
    "distinguished_subspaces", "test_subspaces",
    # the validating library entries of operations whose private entry, "_"
    # and the name, the CLI calls on a family it has validated once (TWINS);
    # the benchmark's tracer wraps both
    "mu_test", "mu_weights",
    # validates the family first; the package asks reflexivity of families it
    # has validated, and the benchmark's tracer wraps it
    "is_reflexive",
    # the polynomial of hilbert_data, which the CLI calls; the benchmark's
    # tracer wraps it
    "hilbert_polynomial",
    # one cone's brackets; chern_character and c1_fast read every cone's
    # through one face resolver per call
    "bracket_dims",
}

# Public methods whose name another class of the package also has, as a
# method or a field, so a reference x.name does not tell whose member it
# reads.  Each counts as called only when it is listed here, with a place in
# the package that calls it on that class; a method that takes a shared name
# and is not listed counts as uncalled.
CALLED_SHARED = {
    ("CharFunction", "corner_map"): "stability.xi_weights",
    ("DeltaFamily", "corner_map"): "family._cone_report",
    ("CharFunction", "empty_face"): "family._Faces.source, for chern",
    ("DeltaFamily", "empty_face"): "family._Faces.source, for stability",
    ("CharFunction", "trim"): "family.gauge_fix",
    ("_Grid", "trim"): "family.CharFunction.trim",
    ("CornerFamily", "is_zero"): "family.detect_support",
    ("SubspaceQ", "is_zero"): "family._inclusion_breaks, sampling",
    ("Fan", "cones"): "chern.chern_character, stability.xi_weights",
    ("RayFiltration", "ambient"): "family.reflexive_from_filtrations",
    ("_Face", "value"): "stability._MeetTable.slot",
    ("_Grid", "value"): "family._pure_cone_report, stability.xi_weights",
    ("_Faces", "face"): "chern._brackets, stability._MeetTable.face",
    ("_Grid", "face"): "family.detect_support, family.restrict_to_face",
    ("_MeetTable", "face"): "stability._flag_data",
    ("_MeetTable", "exhaustive"): "stability._mu_test",
    ("_Record", "chi"): "stability.choose_r",
}


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(Path(toricsheaves.__file__).parent.glob("*.py"))}


def uncalled_public(sources: dict[str, str]) -> set[str]:
    """The public top-level functions and public methods (as Class.name) of
    the modules' source texts that no code outside their own body refers
    to.  A function counts as referenced by name or as an attribute, a
    method only as an attribute (x.name), so a local variable or a parameter
    of the same name does not count for it, and a static method only as
    Class.name, so a call of another class's method of the same name does
    not count for it.  A method whose name another class also has, as a
    method or a field, counts as called only through CALLED_SHARED."""
    trees = [ast.parse(text) for text in sources.values()]

    def references(node):
        nodes = [n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]
        return Counter(
            [n.id for n in nodes if isinstance(n, ast.Name)]
            + [f".{n.attr}" for n in nodes if isinstance(n, ast.Attribute)]
            + [f"{n.value.id}.{n.attr}" for n in nodes
               if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)])

    def is_static(f):
        return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)

    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    owners = defaultdict(set)  # member name -> the classes with a method or field of that name
    for cls in classes:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                owners[node.name].add(cls.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                owners[node.target.id].add(cls.name)
    everywhere = sum((references(tree) for tree in trees), Counter())
    defined = []  # (its name, the reference keys that count for it, its definition)
    for tree in trees:
        for node in tree.body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            members = node.body if cls else [node]
            defined += [(f"{cls}.{f.name}" if cls else f.name,
                         [f"{cls}.{f.name}"] if cls and is_static(f) else
                         [f".{f.name}"] if cls else [f.name, f".{f.name}"], f)
                        for f in members
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    # the methods referenced only as x.name whose name another class also has
    shared = {name for name, keys, _ in defined
              if keys[0].startswith(".") and len(owners[keys[0][1:]]) > 1}
    assert set(f"{c}.{n}" for c, n in CALLED_SHARED) <= shared
    return {name for name, keys, f in defined
            if (name in shared and tuple(name.split(".")) not in CALLED_SHARED)
            or sum(everywhere[k] for k in keys) == sum(references(f)[k] for k in keys)}


def test_every_public_function_is_called_from_package_code():
    """Each public top-level function and public method is referenced
    somewhere in the package outside its own body, or is listed in
    UNCALLED_PUBLIC; every listed name is still defined, and every entry of
    CALLED_SHARED is a method whose name another class also has."""
    assert uncalled_public(package_sources()) == UNCALLED_PUBLIC


def test_shared_method_names_count_per_class():
    """RatPoly.degree and RatPoly.is_zero, which only the tests called, count
    as uncalled when either is put back: HilbertData.degree and
    SubspaceQ.is_zero, which the package reads, do not count for them."""
    sources = package_sources()
    methods = {
        "RatPoly.degree": "    @property\n    def degree(self) -> int:\n"
                          "        return len(self.coeffs) - 1\n\n",
        "RatPoly.is_zero": "    def is_zero(self) -> bool:\n        return not self.coeffs\n\n",
    }
    anchor = "    def coeff(self"
    assert sources["polynomials.py"].count(anchor) == 1
    for name, text in methods.items():
        back = sources["polynomials.py"].replace(anchor, text + anchor)
        assert uncalled_public({**sources, "polynomials.py": back}) == UNCALLED_PUBLIC | {name}


# Public functions with a private entry of the same name after "_" in the
# same module, each with the commands that call the private entry.  A family
# keeps no validation state, so the public function validates it and the
# CLI, whose loader has validated it, calls the entry that does not.
TWINS = {
    "mu_test": "stability mu",
    "mu_weights": "weights --kind mu, stability git --weights-from mu",
}


def test_public_functions_with_a_private_twin_are_listed():
    """The public top-level functions that have a top-level "_" twin in their
    module are exactly those in TWINS."""
    twins = set()
    for path in sorted(Path(toricsheaves.__file__).parent.glob("*.py")):
        names = {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef)}
        twins |= {name for name in names if not name.startswith("_") and "_" + name in names}
    assert twins == set(TWINS)


def test_benchmark_tracer_finds_every_target():
    """Every function and method the benchmark's tracer wraps still exists, so
    a traced run reports no target as absent.  The tracer is loaded by path,
    installed and always uninstalled."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer.originals()
    finally:
        tracer.uninstall()
