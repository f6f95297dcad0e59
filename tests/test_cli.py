import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    rank2_three_lines,
    read_in_text_mode,
    run_by_full_parser,
    slab_family,
    structure_sheaf,
)
import toricsheaves
from toricsheaves import cli
from toricsheaves.family import (
    RayFiltration,
    family_from_json,
    family_to_json,
    reflexive_from_filtrations,
)
from toricsheaves.fan import fan_to_json, hirzebruch, p1_x_p1, projective_plane
from toricsheaves.sampling import random_families
from toricsheaves.subspace import SubspaceQ


@pytest.fixture()
def files(tmp_path, p2):
    fan_path = tmp_path / "p2.json"
    fan_path.write_text(fan_to_json(p2))
    lines = [SubspaceQ.span([v], 2) for v in [(1, 0), (0, 1), (1, 1)]]
    fam = rank2_three_lines(p2, lines=lines)
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(family_to_json(fam))
    o_path = tmp_path / "o.json"
    o_path.write_text(family_to_json(structure_sheaf(p2)))
    ample_path = tmp_path / "h.json"
    ample_path.write_text(json.dumps([1, 0, 0]))
    return {
        "fan": str(fan_path),
        "family": str(fam_path),
        "o": str(o_path),
        "ample": str(ample_path),
        "dir": tmp_path,
    }


def run_cli(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_entry_point(args, env_override=None):
    """Run the CLI in a fresh interpreter that imports this checkout's package,
    with env_override added to the environment; a run past 60 s fails the
    test instead of hanging the suite."""
    src = str(Path(toricsheaves.__file__).resolve().parents[1])
    env = dict(os.environ, **(env_override or {}))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "toricsheaves.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def assert_input_error(proc):
    """Exit 2 with a single `error:` line and no traceback."""
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in proc.stderr


def test_fan_check_valid(files, capsys):
    code, out, _ = run_cli(["fan-check", "--fan", files["fan"]], capsys)
    assert code == 0
    assert "valid" in out


def test_fan_check_invalid_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                               "max_cones": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(["fan-check", "--fan", str(bad)], capsys)
    assert code == 1
    assert "complete" in out


def test_malformed_file_exit_2(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{nope")
    code, _, err = run_cli(["fan-check", "--fan", str(junk)], capsys)
    assert code == 2
    assert "JSON" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(["fan-check", "--fan", "/nonexistent.json"], capsys)
    assert code == 2


def test_unknown_flag_exit_2(files, capsys):
    code, _, _ = run_cli(["fan-check", "--fan", files["fan"], "--bogus"], capsys)
    assert code == 2


def test_family_check(files, capsys):
    code, out, _ = run_cli(
        ["family-check", "--fan", files["fan"], "--family", files["family"]], capsys
    )
    assert code == 0
    assert "valid" in out and "reflexive: True" in out


def test_family_check_validates_torsion_free_once(files, p2, capsys, monkeypatch):
    from test_family import ideal_sheaf_of_point
    from toricsheaves import family

    ideal = files["dir"] / "ideal.json"
    ideal.write_text(family_to_json(ideal_sheaf_of_point(p2)))
    calls = []
    real = family.validate_torsion_free
    monkeypatch.setattr(family, "validate_torsion_free",
                        lambda fam, fan: calls.append(fam) or real(fam, fan))
    for path, kind, reflexive in ((files["family"], "reflexive", True),
                                  (str(ideal), "torsion-free", False)):
        del calls[:]
        code, out, _ = run_cli(["family-check", "--fan", files["fan"], "--family", path], capsys)
        assert code == 0
        assert out == f"kind: {kind}\nrank: {2 if reflexive else 1}\nvalid\nreflexive: {reflexive}\n"
        assert len(calls) == 1


def test_load_family_scans_only_grids_not_proved_monotone(files, corpus, capsys, monkeypatch):
    """A decoded family whose grids the decoder proved monotone loads with no
    inclusion scan; a non-monotone edit is scanned on the grid that failed
    the proof and reported exactly as before."""
    from toricsheaves import family

    scanned = []
    real = family._inclusion_breaks
    monkeypatch.setattr(family, "_inclusion_breaks",
                        lambda grid, drop_ok: scanned.append(grid) or real(grid, drop_ok))
    paths = [(files["fan"], files["family"]), (files["fan"], files["o"])]
    for k, fan in corpus.items():
        fan_path = files["dir"] / f"fan_{k}.json"
        fan_path.write_text(fan_to_json(fan))
        for rank in (1, 2):
            for i, fam in enumerate(random_families(fan, rank, 4, seed=17)):
                path = files["dir"] / f"fam_{k}_{rank}_{i}.json"
                path.write_text(family_to_json(fam))
                paths.append((str(fan_path), str(path)))
    for fan_path, path in paths:
        loaded = cli._load_family(path, cli._load_fan(fan_path))
        assert loaded.kind != "pure"
    assert scanned == []

    # a line at the bottom of cone 0 that neither jump above it contains
    doc = json.loads(Path(files["family"]).read_text())
    doc["cones"][0]["jumps"].append({"at": [0, 0], "basis": [["1", "1"]]})
    bad = files["dir"] / "not_monotone.json"
    bad.write_text(json.dumps(doc))
    lines = ["cone 0: not monotone at (0, 0) direction 0",
             "cone 0: not monotone at (0, 0) direction 1"]
    code, out, err = run_cli(["family-check", "--fan", files["fan"], "--family", str(bad)], capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == ["kind: reflexive", "rank: 2", *(f"invalid: {r}" for r in lines)]
    assert [grid.cone for grid in scanned] == [(0, 1)]
    code, out, err = run_cli(["chern", "--fan", files["fan"], "--family", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: invalid family: {'; '.join(lines)}\n"


def test_fan_check_bounds_its_face_lattice(tmp_path, capsys):
    """fan-check refuses, before the face lattice is built, a fan whose
    maximal cones have more than MAX_LISTED_FACES faces counted once per
    maximal cone: P^7 has 8 * 2^7 = 1024 and is checked, P^8 has 2304."""
    import time

    from toricsheaves.fan import MAX_LISTED_FACES, Fan

    assert MAX_LISTED_FACES == 2048
    for n in range(3, 13):
        rays = [[int(i == k) for i in range(n)] for k in range(n)] + [[-1] * n]
        path = tmp_path / f"p{n}.json"
        path.write_text(fan_to_json(Fan.make(n, rays, itertools.combinations(range(n + 1), n))))
        start = time.perf_counter()
        code, out, err = run_cli(["fan-check", "--fan", str(path)], capsys)
        assert time.perf_counter() - start < 1.0, n
        faces = (n + 1) << n
        if faces <= MAX_LISTED_FACES:
            assert (code, err) == (0, "")
            assert out == f"valid\neuler characteristic: {n + 1}\ncone-count identity: all 1\n"
        else:
            assert (code, out) == (2, "")
            assert err == (f"error: {path}: its maximal cones have {faces} faces, each counted "
                           f"once per maximal cone; fan-check accepts at most 2048\n")


def test_fan_check_builds_the_stars_in_one_pass(tmp_path, capsys):
    """On a valid 504-ray surface (1,009 cones, 2,016 listed faces), fan-check
    prints what it printed when each star scanned every cone, in both
    formats, and the stars are built in one pass over each cone's faces:
    the per-cone scan took 0.43 s in-process, the one pass about 0.02 s."""
    import hashlib
    import random
    import time

    from toricsheaves.sampling import random_smooth_complete_fan

    path = tmp_path / "fan504.json"
    path.write_text(fan_to_json(random_smooth_complete_fan(random.Random(3), 500)))
    digests = {
        "text": "c54f2b82949ad2f073d6dab9d28f3c73d15b292ceb1fe18d2c2a1a2e1c59478a",
        "json": "a167e46a2fdd0194d960afd894b6faa563d51b5040dfb8ef6f12f8bd046954eb",
    }
    for fmt, digest in digests.items():
        start = time.perf_counter()
        code, out, err = run_cli(["fan-check", "--fan", str(path), "--format", fmt], capsys)
        assert time.perf_counter() - start < 0.2, fmt
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_each_decoded_input_is_validated_once(files, p2, monkeypatch):
    """Every subcommand validates each fan it decodes once (validate_fan) and
    each family once (validate_torsion_free), wherever the library would
    validate them again."""
    from test_family import ideal_sheaf_of_point, slab_family
    from toricsheaves import family, fan

    decoded = []  # (kind, object) for every fan and family a command decodes
    for name, kind in (("fan_from_json", "fan"), ("family_from_json", "family")):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda text, real=real, kind=kind:
                            decoded.append((kind, real(text))) or decoded[-1][1])
    validated = []  # (kind, id of the object) per validation
    real_fan, real_family = fan.validate_fan, family.validate_torsion_free
    monkeypatch.setattr(fan, "validate_fan",
                        lambda f: validated.append(("fan", id(f))) or real_fan(f))
    monkeypatch.setattr(family, "validate_torsion_free",
                        lambda fam, f: validated.append(("family", id(fam))) or real_family(fam, f))

    extra = {"ideal": ideal_sheaf_of_point(p2), "slab": slab_family(p2, 0)}
    for name, fam in extra.items():
        (files["dir"] / f"{name}.json").write_text(family_to_json(fam))
    polarized = ["--fan", files["fan"], "--family", files["family"], "--ample", files["ample"]]
    commands = [
        ["fan-check", "--fan", files["fan"]],
        *(["family-check", "--fan", files["fan"], "--family", path]
          for path in (files["family"], files["o"], str(files["dir"] / "ideal.json"),
                       str(files["dir"] / "slab.json"))),
        ["chern", "--fan", files["fan"], "--family", files["family"]],
        ["hilbert", *polarized],
        *(["stability", mode, *polarized] for mode in ("mu", "gieseker")),
        *(["stability", "git", *polarized, "--weights-from", w] for w in ("mu", "xi")),
        *(["stability", "mu", "--fan", files["fan"], "--family", str(files["dir"] / "ideal.json"),
           "--ample", files["ample"]],),
        *(["weights", *polarized, "--kind", kind] for kind in ("mu", "xi")),
        ["enumerate", "--fan", files["fan"], "--rank", "1", "--c2-max", "1"],
        ["enumerate", "--fan", files["fan"], "--rank", "2", "--c1", files["ample"],
         "--c2-max", "1", "--box", "3"],
        ["series", "rank1", "--fan", files["fan"], "--order", "3"],
    ]
    for argv in commands:
        del decoded[:], validated[:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) in (0, 1), argv
        assert decoded, argv
        for kind, obj in decoded:
            # the slab is a pure family, which validate_pure checks instead
            want = 0 if kind == "family" and obj.kind == "pure" else 1
            assert validated.count((kind, id(obj))) == want, (argv, kind)


def test_polarization_degrees_are_read_once(files, monkeypatch):
    """A command that takes a polarization reads its Riemann-Roch degrees
    once: the loader's ampleness check and the library share the fan's last
    reading.  So do mu_test, mu_weights, gieseker_test and choose_r on one
    family.  Reading them in each made 2 per command and 3 per family.  A
    polarization that is not ample keeps nothing: it is read, and refused,
    on every call, and the last ample reading stays."""
    from toricsheaves import intersect, stability
    from toricsheaves.family import characteristic_function

    reads = []
    real = intersect._integral_degrees
    monkeypatch.setattr(intersect, "_integral_degrees",
                        lambda *a: reads.append(a[0]) or real(*a))
    polarized = ["--fan", files["fan"], "--family", files["family"], "--ample", files["ample"]]
    commands = [
        ["hilbert", *polarized],
        *(["stability", mode, *polarized] for mode in ("mu", "gieseker")),
        *(["stability", "git", *polarized, "--weights-from", w] for w in ("mu", "xi")),
        *(["weights", *polarized, "--kind", kind] for kind in ("mu", "xi")),
    ]
    for argv in commands:
        del reads[:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(argv) in (0, 1), argv
        assert len(reads) == 1, argv
    fan, h = projective_plane(), [1, 0, 0]
    fam = random_families(fan, 2, 1, seed=5)[0]
    del reads[:]
    stability.mu_test(fam, fan, h)
    stability.mu_weights(fam, fan, h)
    stability.gieseker_test(fam, fan, h)
    stability.choose_r(characteristic_function(fam), fan, h, [fam])
    assert reads == [tuple(h)]
    rr = intersect.riemann_roch_degrees(h, fan)
    for _ in range(2):
        with pytest.raises(ValueError, match="polarization is not ample"):
            intersect.riemann_roch_degrees([1, -1, 0], fan)
    assert reads == [tuple(h), (1, -1, 0), (1, -1, 0)]
    assert intersect.riemann_roch_degrees(h, fan) is rr and len(reads) == 3


def test_parser_reuse_is_stateless(files, capsys, monkeypatch):
    """A sequence of runs in one process prints and returns exactly what it
    does with fresh parsers per run, and builds the full parser once and
    each subcommand's parser once; a fresh chern run builds one parser."""
    inputs = ["--fan", files["fan"], "--family", files["family"], "--ample", files["ample"]]
    sequence = [
        ["--help"],
        ["stability", "git", *inputs, "--samples", "many"],
        ["stability", "git", *inputs, "--samples", "4", "--seed", "3",
         "--weights-from", "mu", "--format", "json"],
        ["stability", "git", *inputs],
    ]

    def clear():
        cli._parser.cache_clear()
        cli._subparser.cache_clear()

    def outcomes(fresh):
        clear()
        runs = []
        for argv in sequence:
            if fresh:
                clear()
            runs.append(run_cli(argv, capsys))
        return runs

    expected = outcomes(fresh=True)
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    progs = []  # the prog of every ArgumentParser constructed
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: progs.append(k.get("prog")) or init(self, *a, **k))
    assert outcomes(fresh=False) == expected
    assert len(built) == 1
    # --help builds the full parser with its eight subparsers; the three
    # stability runs then share the one parser of stability on its own
    assert progs == ["toricsheaves", *(f"toricsheaves {name}" for name in cli._COMMANDS),
                     "toricsheaves stability"]
    progs.clear()
    for name in [*cli._COMMANDS, *cli._COMMANDS]:
        assert run_cli([name, "--help"], capsys)[0] == 0
    assert progs == [f"toricsheaves {name}" for name in cli._COMMANDS if name != "stability"]
    progs.clear()
    clear()
    assert run_cli(["chern", "--fan", files["fan"], "--family", files["family"]], capsys)[0] == 0
    assert progs == ["toricsheaves chern"] and len(built) == 1
    (help_code, help_out, _), (error_code, _, error_err), json_run, default_run = expected
    assert help_code == 0 and help_out.startswith("usage: toricsheaves")
    assert error_code == 2 and "invalid int value: 'many'" in error_err
    assert json.loads(json_run[1])["weights"] and json_run[2] == ""
    assert default_run[1].startswith("verdict: ") and default_run[1] != json_run[1]


def test_dispatch_prints_what_the_full_parser_prints(files, capsys):
    """An argv led by a subcommand goes to that subcommand's own parser; every
    argv gives the (code, stdout, stderr) that parsing it with the full
    parser gives, and each subcommand's own parser formats the help and
    usage of the full parser's subparser."""
    fan, fam, h = files["fan"], files["family"], files["ample"]
    base = ["--fan", fan, "--family", fam]
    cases = [
        [], ["-h"], ["--help"], ["--version"], ["bogus"], ["--", "chern", *base],
        ["chern"], ["chern", "-h"], ["chern", "--he"], ["chern", "-hfoo"],
        ["chern", *base], ["chern", *base, "--bogus"], ["chern", *base, "x", "y"],
        ["chern", "--", *base], ["chern", *base, "--"],
        ["stability", "git", *base, "--ample", h, "--samples", "many"],
        ["stability", "maybe", *base, "--ample", h],
        ["stability", "git", f"--fan={fan}", f"--family={fam}", f"--ample={h}",
         "--sam", "2", "--seed", "1"],
        ["hilbert", *base, "--ample", h, "-x", "--y=1"],
        ["family-check", "--fa", fan, "--family", fam],
        ["fan-check", "--fan", fan, "--fan", fan, "--format", "xml"],
        ["weights", "-h"],
        ["enumerate", "--fan", fan, "--rank", "2", "--c2-max", "x"],
        ["series"], ["series", "rank2-p2", "--order"],
        ["series", "rank2-p2", "--order", "4"],
        ["series", "rank2-p2", "--ord", "4", "--format", "json"],
    ]
    for argv in cases:
        code = run_by_full_parser(argv)
        out = capsys.readouterr()
        assert run_cli(argv, capsys) == (code, out.out, out.err), argv
    assert run_cli(["chern", *base, "--bogus"], capsys)[2].splitlines()[-1] == (
        "toricsheaves: error: unrecognized arguments: --bogus")
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(cli._COMMANDS)
    for name, full in subparsers.items():
        own = cli._subparser(name)
        assert own.format_help() == full.format_help(), name
        assert own.format_usage() == full.format_usage(), name


def test_chern_output(files, capsys):
    code, out, _ = run_cli(
        ["chern", "--fan", files["fan"], "--family", files["o"], "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == "1"
    assert doc["c1"] == ["0", "0", "0"]
    assert doc["deg_ch2"] == "0"


def test_hilbert_output(files, capsys):
    code, out, _ = run_cli(
        [
            "hilbert", "--fan", files["fan"], "--family", files["o"],
            "--ample", files["ample"], "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == ["1", "3/2", "1/2"]
    assert doc["rank"] == "1" and doc["slope"] == "0"


def test_stability_exit_codes(files, capsys):
    code, out, _ = run_cli(
        [
            "stability", "mu", "--fan", files["fan"], "--family", files["family"],
            "--ample", files["ample"],
        ],
        capsys,
    )
    assert code == 0 and "stable" in out


def test_stability_unstable_exit_1(tmp_path, files, capsys, p2):
    one_line = [SubspaceQ.span([(1, 0)], 2)] * 3
    fam = rank2_three_lines(p2, gaps=[2, 2, 2], lines=one_line)
    path = tmp_path / "unstable.json"
    path.write_text(family_to_json(fam))
    code, out, _ = run_cli(
        [
            "stability", "mu", "--fan", files["fan"], "--family", str(path),
            "--ample", files["ample"],
        ],
        capsys,
    )
    assert code == 1
    assert "unstable" in out


def test_stability_git_with_xi_weights(files, capsys):
    code, out, _ = run_cli(
        [
            "stability", "git", "--fan", files["fan"], "--family", files["family"],
            "--ample", files["ample"], "--weights-from", "xi", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "stable"


def test_weights_dump(files, capsys):
    code, out, _ = run_cli(
        [
            "weights", "--fan", files["fan"], "--family", files["family"],
            "--ample", files["ample"], "--kind", "mu", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 3
    assert all(e["weight"] == 1 for e in doc["entries"])


def test_non_ample_rejected(tmp_path, files, capsys):
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps([0, 0, 0]))
    code, _, err = run_cli(
        [
            "hilbert", "--fan", files["fan"], "--family", files["o"],
            "--ample", str(bad),
        ],
        capsys,
    )
    assert code == 2
    assert "ample" in err


def test_series_rank1(files, capsys):
    code, out, _ = run_cli(
        ["series", "rank1", "--fan", files["fan"], "--order", "4"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["q^0: 1", "q^1: 3", "q^2: 9", "q^3: 22", "q^4: 51"]


def test_series_rank2_and_csv(files, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["series", "rank2-p2", "--order", "3", "--csv", str(csv_path)], capsys
    )
    assert code == 0
    assert "q^3: 48" in out
    assert csv_path.read_text().splitlines()[1:] == ["0,0", "1,1", "2,9", "3,48"]


def test_enumerate_cli(files, capsys):
    code, out, _ = run_cli(
        [
            "enumerate", "--fan", files["fan"], "--rank", "1", "--c2-max", "1",
            "--box", "4", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_deterministic_output(files, capsys):
    args = [
        "stability", "git", "--fan", files["fan"], "--family", files["family"],
        "--ample", files["ample"], "--samples", "25", "--seed", "11",
        "--format", "json",
    ]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_entry_point_runs():
    proc = run_entry_point([])
    # no subcommand is an argparse error: exit code 2
    assert proc.returncode == 2


PUBLIC_OPS = {
    "validate_fan", "star", "cone_count_identity", "euler_characteristic",
    "intersection_table", "pair",
    "reflexive_from_filtrations", "validate_torsion_free", "is_reflexive",
    "detect_support", "validate_pure", "restrict_to_face",
    "tensor_line_bundle", "characteristic_function", "gauge_fix",
    "bracket_dims", "chern_character", "c1_fast", "hilbert_polynomial",
    "distinguished_subspaces", "mu_test", "gieseker_test", "mu_weights",
    "git_test", "xi_weights", "choose_r",
    "rank1_fixed_point_series", "rank2_p2_series",
    "enumerate_gauge_fixed_chi", "run",
}
# reached from no subcommand: restrict_to_face builds the face grids that
# chern and stability read in place (the tests' oracles call it),
# distinguished_subspaces is the test set's closure on its own, which the
# stability commands reach through the meet table's scan instead,
# is_reflexive validates the family first, where the commands ask
# reflexivity of a family they have validated, bracket_dims resolves
# one cone's face, where chern_character and c1_fast read every bracket
# through one face resolver per call, and hilbert_polynomial is the
# polynomial of hilbert_data, which the hilbert command calls
LIBRARY_ONLY = {"restrict_to_face", "distinguished_subspaces", "is_reflexive",
                "bracket_dims", "hilbert_polynomial"}
# reached through their private entry, "_" and the name: each validates its
# family, which the subcommands validate once on loading, so they call the
# entry that does not validate it again
VIA_PRIVATE_ENTRY = {"mu_test", "mu_weights"}


def test_operation_coverage_table(files, p2):
    import toricsheaves.chern as chern
    import toricsheaves.family as family
    import toricsheaves.fan as fan
    import toricsheaves.intersect as intersect
    import toricsheaves.moduli as moduli
    import toricsheaves.stability as stability
    from test_family import slab_family

    slab = files["dir"] / "slab.json"
    slab.write_text(family_to_json(slab_family(p2, 0)))
    fam = ["--fan", files["fan"], "--family", files["family"]]
    polarized = [*fam, "--ample", files["ample"]]
    commands = [
        ["fan-check", "--fan", files["fan"]],
        ["family-check", *fam],
        ["family-check", "--fan", files["fan"], "--family", str(slab)],
        ["chern", *fam],
        ["hilbert", *polarized],
        ["stability", "mu", *polarized],
        ["stability", "gieseker", *polarized],
        ["stability", "git", *polarized, "--weights-from", "mu"],
        ["stability", "git", *polarized, "--weights-from", "xi"],
        ["weights", *polarized, "--kind", "mu"],
        ["weights", *polarized, "--kind", "xi"],
        ["enumerate", "--fan", files["fan"], "--rank", "1", "--c2-max", "1"],
        # c1 = H: an orbit with a stable pattern, so a hull is built
        ["enumerate", "--fan", files["fan"], "--rank", "2", "--c1", files["ample"],
         "--c2-max", "1", "--box", "3"],
        ["series", "rank1", "--fan", files["fan"], "--order", "3"],
        ["series", "rank2-p2", "--order", "3"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                codes.append(cli.run(argv))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)

    modules = [chern, family, fan, intersect, moduli, stability, cli]
    reached = set()
    for op in PUBLIC_OPS:
        name = "_" + op if op in VIA_PRIVATE_ENTRY else op
        funcs = [getattr(m, name) for m in modules if hasattr(m, name)]
        assert funcs, op
        if any(f.__code__ in called for f in funcs):
            reached.add(op)
    assert reached == PUBLIC_OPS - LIBRARY_ONLY


def test_enumerate_box_too_small_exit_2(files, capsys):
    code, _, err = run_cli(
        [
            "enumerate", "--fan", files["fan"], "--rank", "1", "--c2-max", "3",
            "--box", "2",
        ],
        capsys,
    )
    assert code == 2
    assert "box" in err.lower()


def test_enumerate_negative_box_exit_2(files, capsys):
    code, out, err = run_cli(
        ["enumerate", "--fan", files["fan"], "--rank", "2", "--c2-max", "1", "--box", "-1"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "box" in err


def test_non_ample_polarization_exit_2(files, capsys):
    polarized = ["--fan", files["fan"], "--family", files["o"]]
    for entries in ([0, 0, 0], [1, -1, 0], [-1, 0, 0]):
        path = files["dir"] / "flat.json"
        path.write_text(json.dumps(entries))
        for command in (["hilbert"], ["stability", "mu"], ["weights"]):
            code, out, err = run_cli([*command, *polarized, "--ample", str(path)], capsys)
            assert (code, out, err) == (2, "", f"error: {path}: divisor is not ample\n")


def test_polarization_on_a_threefold_names_the_fan_exit_2(tmp_path, capsys):
    # a valid rank-3 fan has no intersection table; the divisor is not blamed
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    fan = tmp_path / "p3.json"
    fan.write_text(json.dumps({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                               "max_cones": cones}))
    fam = tmp_path / "o.json"
    fam.write_text(json.dumps({"kind": "torsion-free", "rank": 1, "cones": [
        {"index": i, "cone": c, "lo": [0, 0, 0], "hi": [0, 0, 0],
         "jumps": [{"at": [0, 0, 0], "basis": [["1"]]}]} for i, c in enumerate(cones)]}))
    ample = tmp_path / "h.json"
    ample.write_text(json.dumps([1, 1, 1, 1]))
    code, out, err = run_cli(["hilbert", "--fan", str(fan), "--family", str(fam),
                              "--ample", str(ample)], capsys)
    assert (code, out, err) == (2, "", "error: intersection table implemented for surfaces only\n")


def test_series_rank1_order_capped_exit_2(files, capsys):
    code, out, err = run_cli(
        ["series", "rank1", "--fan", files["fan"], "--order", "41"], capsys
    )
    assert code == 2 and out == ""
    assert "order capped at 40" in err


def _enumerate(files, *args):
    return ["enumerate", "--fan", files["fan"], *args]


def _many_boxes(files):
    """family-check on a 21 KB file of 200 cone entries of 100 x 100 points
    each: every box is within MAX_BOX_POINTS, their total is not."""
    path = files["dir"] / "many_boxes.json"
    path.write_text(json.dumps({"kind": "torsion-free", "rank": 1, "cones": [
        {"index": i, "cone": [0, 1], "lo": [0, 0], "hi": [99, 99],
         "jumps": [{"at": [0, 0], "basis": [["1"]]}]} for i in range(200)]}))
    return ["family-check", "--fan", files["fan"], "--family", str(path)]


@pytest.mark.parametrize(
    "make_args, hint",
    [
        pytest.param(lambda f: ["series", "rank1", "--fan", f["fan"], "--order", "-1"],
                     "at least 0", id="series-rank1-negative-order"),
        pytest.param(lambda f: ["series", "rank2-p2", "--order", "-1"],
                     "at least 0", id="series-rank2-p2-negative-order"),
        pytest.param(lambda f: ["series", "rank2-p2", "--order", "-3"],
                     "at least 0", id="series-rank2-p2-order-minus-3"),
        # rank2-p2 counts on P^2 alone: a --fan is refused, read or not
        pytest.param(lambda f: ["series", "rank2-p2", "--fan", "nonexistent.json", "--order", "2"],
                     "takes no --fan", id="series-rank2-p2-fan"),
        pytest.param(lambda f: _enumerate(f, "--rank", "2", "--c2-max", "1", "--box", "40"),
                     "lower --box", id="enumerate-rank2-window"),
        # c1 = H: at c1 = 0 and box 1 no orbit has a stable pattern, so no hull
        # is built and nothing counts toward the cut cap
        pytest.param(lambda f: _enumerate(f, "--rank", "2", "--c1", f["ample"], "--c2-max", "8",
                                          "--box", "1"),
                     "lower --c2-max", id="enumerate-rank2-cuts"),
        pytest.param(lambda f: _enumerate(f, "--rank", "2", "--c1", f["ample"],
                                          "--c2-max", "100000", "--box", "1"),
                     "lower --c2-max", id="enumerate-rank2-cuts-huge-c2"),
        pytest.param(lambda f: _enumerate(f, "--rank", "1", "--c2-max", "12", "--box", "40"),
                     "lower --c2-max", id="enumerate-rank1-tuples"),
        pytest.param(lambda f: _enumerate(f, "--rank", "1", "--c2-max", "41"),
                     "lower --c2-max", id="enumerate-rank1-c2-above-40"),
        # rank 2 at box 0 admits only zero-gap profiles, whose hulls are never
        # slope-stable, so it is refused rather than answered with no records;
        # rank 1 fails at its first record
        pytest.param(lambda f: _enumerate(f, "--rank", "2", "--c1", f["ample"], "--c2-max", "1",
                                          "--box", "0"),
                     "cannot certify a result at box 0", id="enumerate-rank2-box-0"),
        pytest.param(lambda f: _enumerate(f, "--rank", "1", "--c1", f["ample"], "--c2-max", "1",
                                          "--box", "0"),
                     "reaches the window bound 0", id="enumerate-rank1-box-0"),
        pytest.param(_many_boxes, "hold 2000000 points in all; at most 20000",
                     id="family-total-box-points"),
    ],
)
def test_out_of_bound_work_exit_2(files, make_args, hint):
    proc = run_entry_point(make_args(files))
    assert_input_error(proc)
    assert hint in proc.stderr


def _edited(files, name, keys, value):
    """Path of a copy of a fixture file whose entry doc[k0][k1]... is value(entry)."""
    doc = json.loads(Path(files[name]).read_text())
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value(node[keys[-1]])
    path = files["dir"] / f"bad_{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _bad_family(files, keys, value):
    return ["family-check", "--fan", files["fan"],
            "--family", _edited(files, "family", keys, value)]


def _duplicate_first_jump(jumps):
    """The jumps with a second jump at the first one's point, holding another
    subspace, appended; the last jump at a point used to win silently."""
    first = jumps[0]
    other = [["1", "0"]] if first["basis"] != [["1", "0"]] else [["0", "1"]]
    return jumps + [{"at": first["at"], "basis": other}]


def _duplicate_first_cone(cones):
    """The cone entries with a second entry for the first one's index, holding
    no jumps, appended; which entry won used to depend on their order."""
    return cones + [dict(cones[0], jumps=[])]


def _bad_basis_entry(files, entry):
    return _bad_family(files, ["cones", 0, "jumps", 0, "basis", 0, 0], lambda _: entry)


def _bad_fan(files, keys, value):
    return ["fan-check", "--fan", _edited(files, "fan", keys, value)]


def _bare_fan(files, value):
    path = files["dir"] / "bare_fan.json"
    path.write_text(json.dumps(value))
    return ["fan-check", "--fan", str(path)]


def _bad_divisor(files, flag, entries):
    path = files["dir"] / "bad_divisor.json"
    path.write_text(json.dumps(entries))
    if flag == "--ample":
        return ["hilbert", "--fan", files["fan"], "--family", files["o"], "--ample", str(path)]
    return ["enumerate", "--fan", files["fan"], "--rank", "1", "--c2-max", "1",
            "--box", "4", "--c1", str(path)]


@pytest.mark.parametrize(
    "make_args",
    [
        pytest.param(lambda f: _bad_basis_entry(f, "1/0"), id="basis-zero-denominator"),
        pytest.param(lambda f: _bad_basis_entry(f, 0.5), id="basis-float"),
        pytest.param(lambda f: _bad_basis_entry(f, "1.5"), id="basis-decimal-string"),
        pytest.param(lambda f: _bad_basis_entry(f, True), id="basis-bool"),
        pytest.param(lambda f: _bad_divisor(f, "--ample", [1.7, 0, 0]), id="ample-float"),
        pytest.param(lambda f: _bad_divisor(f, "--ample", [True, 0, 0]), id="ample-bool"),
        pytest.param(lambda f: _bad_divisor(f, "--c1", [1.7, 0, 0]), id="c1-float"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "hi", 0], lambda x: x + 0.9),
                     id="family-hi-float"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "lo", 0], lambda x: x + 0.5),
                     id="family-lo-float"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "jumps", 0, "at", 0],
                                           lambda x: x + 0.5), id="family-at-float"),
        pytest.param(lambda f: _bad_family(f, ["cones", 1, "index"], lambda _: True),
                     id="family-index-bool"),
        pytest.param(lambda f: _bad_family(f, ["rank"], lambda _: 2.0), id="family-rank-float"),
        pytest.param(lambda f: _bad_fan(f, ["rays", 0], lambda _: [1.5, 0]), id="fan-ray-float"),
        pytest.param(lambda f: _bad_fan(f, ["rank"], lambda _: 2.9), id="fan-rank-float"),
        pytest.param(lambda f: _bare_fan(f, 5), id="fan-bare-number"),
        pytest.param(lambda f: _bad_fan(f, ["rays", 0], lambda _: 5), id="fan-ray-number"),
        pytest.param(lambda f: _bad_family(f, ["cones"], lambda _: 5), id="family-cones-number"),
        pytest.param(lambda f: _bad_family(f, ["kind"], lambda _: ["reflexive"]),
                     id="family-kind-array"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "lo"], lambda _: [0]),
                     id="family-lo-short"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "jumps", 0, "at"],
                                           lambda x: x + [0]), id="family-at-long"),
        pytest.param(lambda f: _bad_family(f, ["cones", 0, "hi"], lambda x: [v + 400 for v in x]),
                     id="family-box-too-large"),
        pytest.param(lambda f: _bad_family(f, ["cones", 1, "jumps"], _duplicate_first_jump),
                     id="family-duplicate-jump"),
        pytest.param(lambda f: _bad_family(f, ["cones"], _duplicate_first_cone),
                     id="family-duplicate-cone"),
        pytest.param(lambda f: _bad_family(f, ["rank"], lambda _: -1), id="family-rank-negative"),
        # a torsion-free or reflexive family is supported at the apex; there is no ray 7
        pytest.param(lambda f: _bad_family(f, ["support"], lambda _: [[7]]),
                     id="family-support-not-apex"),
    ],
)
def test_malformed_numbers_exit_2(files, make_args):
    assert_input_error(run_entry_point(make_args(files)))


def test_duplicate_jump_named_in_error(files, capsys):
    doc = json.loads(Path(files["family"]).read_text())
    at = doc["cones"][1]["jumps"][0]["at"]
    argv = _bad_family(files, ["cones", 1, "jumps"], _duplicate_first_jump)
    code, out, err = run_cli(argv, capsys)
    assert_input_error(subprocess.CompletedProcess(argv, code, out, err))
    assert out == ""
    assert err == f"error: {argv[-1]}: family cone 1: two jumps at {at}\n"


@pytest.mark.parametrize("keys, value, message", [
    (["cones"], _duplicate_first_cone, "family cone {index}: two cone entries with this index"),
    (["rank"], lambda _: -2, "family rank -2 is negative"),
], ids=["duplicate-cone", "negative-rank"])
def test_refused_family_named_in_error(files, capsys, keys, value, message):
    index = json.loads(Path(files["family"]).read_text())["cones"][0]["index"]
    argv = _bad_family(files, keys, value)
    code, out, err = run_cli(argv, capsys)
    assert_input_error(subprocess.CompletedProcess(argv, code, out, err))
    assert out == ""
    assert err == f"error: {argv[-1]}: {message.format(index=index)}\n"


@pytest.mark.parametrize("module, name, argv, exc, line", [
    ("moduli", "rank2_p2_series", ["series", "rank2-p2"], ZeroDivisionError("division by zero"),
     "error: internal error (ZeroDivisionError): division by zero"),
    ("stability", "_mu_test", ["stability", "mu"], KeyError("cone"),
     "error: internal error (KeyError): 'cone'"),
], ids=["zero-division", "key-error"])
def test_internal_error_exits_2(files, capsys, monkeypatch, module, name, argv, exc, line):
    # a fault inside a command is not a domain verdict: exit 2, one line, no traceback
    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(getattr(cli, module), name, fault)
    if argv[0] == "stability":
        argv = argv + ["--fan", files["fan"], "--family", files["family"],
                       "--ample", files["ample"]]
    code, out, err = run_cli(argv, capsys)
    assert_input_error(subprocess.CompletedProcess(argv, code, out, err))
    assert out == ""
    assert err == line + "\n"


def _swap_first_labels(doc):
    cones = doc["cones"]
    cones[0]["cone"], cones[1]["cone"] = cones[1]["cone"], cones[0]["cone"]


def _set_box(doc, lo, hi):
    for entry in doc["cones"]:
        entry.update(lo=lo, hi=hi)


# (base family, edit of its file, first report line): pure families whose
# cone entries break the structure torsion-free files are checked for
PURE_REFUSED = [
    pytest.param("o", lambda d: d["cones"][2].update(index=7),
                 "data on cones [0, 1, 7] but the support star is [0, 1, 2]", id="index-7"),
    pytest.param("o", lambda d: d.update(cones=d["cones"][:1]),
                 "data on cones [0] but the support star is [0, 1, 2]", id="cone-0-only"),
    pytest.param("o", lambda d: _set_box(d, [1, 1], [0, 0]),
                 "cone 0: empty box (1, 1)..(0, 0)", id="lo-above-hi"),
    pytest.param("o", _swap_first_labels,
                 "cone 0: grid labelled with rays (1, 2) != (0, 1)", id="labels-swapped"),
    pytest.param("o", lambda d: d["cones"][0].update(cone=[7, 9]),
                 "cone 0: grid labelled with rays (7, 9) != (0, 1)", id="rays-7-9"),
    pytest.param("slab", lambda d: d["cones"][0].update(cone=[0, 9]),
                 "cone 0: grid labelled with rays (0, 9) != (0, 1)", id="slab-relabelled"),
]


@pytest.mark.parametrize("base, edit, message", PURE_REFUSED)
def test_pure_family_structure_refused(files, p2, capsys, base, edit, message):
    if base == "o":
        doc = json.loads(Path(files["o"]).read_text())
        doc.update(kind="pure", support=[[]])
    else:
        doc = json.loads(family_to_json(slab_family(p2, 0)))
    edit(doc)
    path = files["dir"] / "pure.json"
    path.write_text(json.dumps(doc))
    fam = ["--fan", files["fan"], "--family", str(path)]
    code, out, err = run_cli(["family-check", *fam], capsys)
    assert code == 1 and err == ""
    assert f"invalid: {message}" in out.splitlines()
    for argv in (["chern", *fam], ["hilbert", *fam, "--ample", files["ample"]]):
        code, out, err = run_cli(argv, capsys)
        assert_input_error(subprocess.CompletedProcess(argv, code, out, err))
        assert out == "" and message in err


@pytest.mark.parametrize(
    "csv_path",
    [
        pytest.param(lambda f: str(f["dir"] / "missing" / "x.csv"), id="csv-missing-dir"),
        pytest.param(lambda f: str(f["dir"]), id="csv-directory"),
    ],
)
def test_series_csv_unwritable_exit_2(files, csv_path):
    proc = run_entry_point(["series", "rank2-p2", "--order", "3", "--csv", csv_path(files)])
    assert_input_error(proc)
    assert "cannot write" in proc.stderr and proc.stdout == ""

def _open_closure_rank3(files, p2):
    """A reflexive rank-3 family on P2 whose corner lines and planes hold
    four general points of P2(Q), so their sum/intersection closure is
    infinite."""
    filts = []
    for j, c in enumerate((0, 2, 2)):
        point = (1, j, j * j + 1)
        filts.append(RayFiltration(j, (
            (0, SubspaceQ.span([point], 3)),
            (1, SubspaceQ.span([point, (0, 1, c)], 3)),
            (2, SubspaceQ.full(3)),
        )))
    path = files["dir"] / "rank3.json"
    path.write_text(family_to_json(reflexive_from_filtrations(filts, p2)))
    return str(path)


@pytest.mark.parametrize("command", [["stability", "mu"], ["stability", "gieseker"],
                                     ["weights", "--kind", "xi"]])
def test_rank3_open_closure_exit_2(files, p2, command):
    fam = _open_closure_rank3(files, p2)
    check = run_entry_point(["family-check", "--fan", files["fan"], "--family", fam])
    assert check.returncode == 0 and "reflexive: True" in check.stdout
    proc = run_entry_point([*command, "--fan", files["fan"], "--family", fam,
                            "--ample", files["ample"]])
    assert_input_error(proc)
    assert "rank >= 3 test set" in proc.stderr


@pytest.mark.parametrize("command", [["stability", "gieseker"], ["stability", "git"],
                                     ["weights", "--kind", "xi"]])
def test_stability_stdout_independent_of_hash_seed(files, command):
    # a stable family whose Gieseker margins have degrees 0 and 1
    fan = p1_x_p1()
    fam_path = files["dir"] / "p1xp1-fam.json"
    fam_path.write_text(family_to_json(random_families(fan, 2, 10, seed=0)[2]))
    paths = {}
    for name, text in (("fan", fan_to_json(fan)), ("ample", json.dumps([0, 0, 1, 1]))):
        paths[name] = files["dir"] / f"p1xp1-{name}.json"
        paths[name].write_text(text)
    for fmt in ("text", "json"):
        args = [*command, "--fan", str(paths["fan"]), "--family", str(fam_path),
                "--ample", str(paths["ample"]), "--format", fmt]
        runs = [run_entry_point(args, {"PYTHONHASHSEED": seed}) for seed in ("0", "1")]
        assert [p.returncode for p in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout != ""


def test_rank0_family_refused_by_stability_exit_2(files, p2, capsys):
    # the zero sheaf has no slope: every stability test and weight system
    # refuses it, while its invariants stay defined
    path = files["dir"] / "rank0.json"
    path.write_text(family_to_json(structure_sheaf(p2, rank=0)))
    fam = ["--fan", files["fan"], "--family", str(path)]
    polarized = [*fam, "--ample", files["ample"]]
    for command in (["stability", "mu"], ["stability", "gieseker"], ["stability", "git"],
                    ["weights", "--kind", "mu"], ["weights", "--kind", "xi"]):
        code, out, err = run_cli([*command, *polarized], capsys)
        assert code == 2, command
        assert out == "" and "Traceback" not in err, command
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), command
        assert "rank >= 1" in lines[0], command
    for command in (["chern", *fam], ["hilbert", *polarized], ["family-check", *fam]):
        assert run_cli(command, capsys)[0] == 0, command


def test_git_samples_on_rank1_terminates(files):
    proc = run_entry_point(["stability", "git", "--samples", "1", "--fan", files["fan"],
                            "--family", files["o"], "--ample", files["ample"]])
    assert proc.returncode == 0
    assert "verdict: stable" in proc.stdout


@pytest.mark.parametrize("samples", ["-3", "10001"])
def test_git_samples_out_of_range_exit_2(files, samples):
    proc = run_entry_point(["stability", "git", "--samples", samples, "--fan", files["fan"],
                            "--family", files["family"], "--ample", files["ample"]])
    assert_input_error(proc)
    assert "[0, 10000]" in proc.stderr


# --- a malformed input file is named in the one error line -----------------------

MALFORMED = {
    "empty": b"",
    "not-utf8": b"\xff\xfe[1, 0, 0]",
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "scalar": b"5",
    "huge-int": b"9" * 5000,
}

# (subcommand, other arguments, file flags) for every subcommand that reads files
FILE_READERS = [
    ("fan-check", [], ["--fan"]),
    ("family-check", [], ["--fan", "--family"]),
    ("chern", [], ["--fan", "--family"]),
    ("hilbert", [], ["--fan", "--family", "--ample"]),
    ("stability mu", [], ["--fan", "--family", "--ample"]),
    ("stability gieseker", [], ["--fan", "--family", "--ample"]),
    ("stability git", [], ["--fan", "--family", "--ample"]),
    ("weights", [], ["--fan", "--family", "--ample"]),
    ("enumerate", ["--rank", "1", "--c2-max", "1"], ["--fan", "--c1"]),
    ("series rank1", ["--order", "2"], ["--fan"]),
]


@pytest.mark.parametrize("command, extra, flags, slot, content", [
    pytest.param(command, extra, flags, slot, content,
                 id=f"{command.replace(' ', '-')}-{slot[2:]}-{content}")
    for command, extra, flags in FILE_READERS
    for slot in flags
    for content in MALFORMED
])
def test_malformed_file_named_in_error(files, capsys, command, extra, flags, slot, content):
    bad = files["dir"] / f"malformed-{content}.json"
    bad.write_bytes(MALFORMED[content])
    paths = {"--fan": files["fan"], "--family": files["family"],
             "--ample": files["ample"], "--c1": files["ample"]}
    paths[slot] = str(bad)
    argv = [*command.split(), *extra, *(x for flag in flags for x in (flag, paths[flag]))]
    code = cli.run(argv)
    out = capsys.readouterr()
    assert_input_error(subprocess.CompletedProcess(argv, code, out.out, out.err))
    assert out.out == ""
    assert str(bad) in out.err


def test_inputs_read_as_bytes_decode_as_in_text_mode(files, capsys, monkeypatch):
    """A file is read as bytes and decoded as text mode decodes it: CRLF and
    lone-CR files give the family of their LF twin, and a JSON syntax error
    or a byte that is not UTF-8 gives the error line text mode gives."""
    doc = json.loads(Path(files["family"]).read_text())
    lf = json.dumps(doc, indent=1).encode()
    variants = {"lf": lf, "crlf": lf.replace(b"\n", b"\r\n"), "cr": lf.replace(b"\n", b"\r")}
    paths = {}
    for name, data in variants.items():
        paths[name] = files["dir"] / f"fam-{name}.json"
        paths[name].write_bytes(data)
    twin = cli._decode(str(paths["lf"]), family_from_json)
    for name, path in paths.items():
        assert cli._read(str(path)) == read_in_text_mode(str(path)) == lf.decode(), name
        assert cli._decode(str(path), family_from_json) == twin, name
    # a missing colon on the second line, after a CRLF line end
    broken = files["dir"] / "fam-broken.json"
    broken.write_bytes(variants["crlf"].replace(b'"cones": [', b'"cones" [', 1))
    not_utf8 = files["dir"] / "fam-latin1.json"
    not_utf8.write_bytes(variants["crlf"].replace(b'"cone"', b'"c\xf4ne"', 1))
    argvs = [["chern", "--fan", files["fan"], "--family", str(broken)],
             ["chern", "--fan", files["fan"], "--family", str(not_utf8)]]
    runs = [run_cli(argv, capsys) for argv in argvs]
    monkeypatch.setattr(cli, "_read", read_in_text_mode)
    assert [run_cli(argv, capsys) for argv in argvs] == runs
    for code, out, err in runs:
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ")
    syntax_error, decode_error = (err for _, _, err in runs)
    assert ": line 2 column " in syntax_error
    # the position counts the translated text, not the file's bytes
    with pytest.raises(json.JSONDecodeError) as raw:
        json.loads(broken.read_bytes().decode())
    assert f"(char {raw.value.pos})" not in syntax_error
    assert "can't decode byte 0xf4 in position" in decode_error


# --- CLI stdout pinned against recorded digests ----------------------------------

def _golden_argvs(files, p2):
    """(label, argv) for every subcommand on the fixture files, one input the
    CLI refuses, the rank-2 enumeration of the benchmark (P^2, c1 = H,
    c2 <= 1, box 3), and off P^2 the rank-2 enumeration on F_1 and on
    P^1 x P^1 (c1 = V_0, c2 <= 1, box 5) and the Chern classes of an F_1
    family; each label names the files by role, not by path."""
    from test_family import ideal_sheaf_of_point

    f1 = hirzebruch(1)
    extra = {
        "slab": family_to_json(slab_family(p2, 0)),
        "ideal": family_to_json(ideal_sheaf_of_point(p2)),
        "unstable": family_to_json(rank2_three_lines(
            p2, gaps=[2, 2, 2], lines=[SubspaceQ.span([(1, 0)], 2)] * 3)),
        "zero-ample": json.dumps([0, 0, 0]),
        "f1-fan": fan_to_json(f1),
        "p1xp1-fan": fan_to_json(p1_x_p1()),
        "v0": json.dumps([1, 0, 0, 0]),
        "f1-family": family_to_json(rank2_three_lines(f1, gaps=[1, 2, 1, 1])),
    }
    paths = {k: files[k] for k in ("fan", "family", "o", "ample")}
    for name, text in extra.items():
        paths[name] = str(files["dir"] / f"golden-{name}.json")
        Path(paths[name]).write_text(text)
    templates = [
        "fan-check --fan fan",
        "family-check --fan fan --family family",
        "family-check --fan fan --family ideal",
        "family-check --fan fan --family slab",
        "chern --fan fan --family family",
        "chern --fan fan --family slab",
        "hilbert --fan fan --family family --ample ample",
        "hilbert --fan fan --family ideal --ample ample",
        "stability mu --fan fan --family family --ample ample",
        "stability mu --fan fan --family unstable --ample ample",
        "stability gieseker --fan fan --family family --ample ample",
        "stability gieseker --fan fan --family ideal --ample ample",
        "stability git --fan fan --family family --ample ample --weights-from mu",
        "stability git --fan fan --family family --ample ample --weights-from xi",
        "stability git --fan fan --family family --ample ample --samples 5 --seed 3",
        "weights --fan fan --family family --ample ample --kind mu",
        "weights --fan fan --family family --ample ample --kind xi",
        "weights --fan fan --family ideal --ample ample --kind mu",
        "enumerate --fan fan --rank 1 --c2-max 2 --box 4",
        "enumerate --fan fan --rank 2 --c1 ample --c2-max 1 --box 3",
        "enumerate --fan fan --rank 2 --c1 ample --c2-max 3 --box 5",
        "series rank1 --fan fan --order 4",
        "series rank2-p2 --order 4",
        "hilbert --fan fan --family o --ample zero-ample",
        "enumerate --fan f1-fan --rank 2 --c1 v0 --c2-max 1 --box 5",
        "enumerate --fan p1xp1-fan --rank 2 --c1 v0 --c2-max 1 --box 5",
        "chern --fan f1-fan --family f1-family",
    ]
    out = []
    for template in templates:
        for fmt in ("text", "json"):
            words = template.split()
            argv = [paths.get(w, w) if k and words[k - 1].startswith("--") else w
                    for k, w in enumerate(words)]
            out.append((f"{template} --format {fmt}", argv + ["--format", fmt]))
    return out


# (exit code, sha256 of stdout) per command, recorded before family became the
# one module that reads faces; stderr, which names the input paths, is not pinned
GOLDEN = {
    'fan-check --fan fan --format text':
        (0, 'f50a1a253aacce1cf8d0f2bbe2b18e0841fafe7dbe61b22cbef55cd96406d7f8'),
    'fan-check --fan fan --format json':
        (0, 'a363bc868ee4e71ea4e037f28bb04a141bbcd620cee0fd4c0d2ab78d1c10893c'),
    'family-check --fan fan --family family --format text':
        (0, '41a92ea881328082a7427fc06c37e8c75315eb9f07b5ca73e700fd76fa75a725'),
    'family-check --fan fan --family family --format json':
        (0, '9109c123a460991cb0e6d9350db2073d29d2b2c6c9239963bb8e83f3f4f83879'),
    'family-check --fan fan --family ideal --format text':
        (0, '20b371a28590973424391c45408c28098a7e8d0ff86fa71302d9376270c3a4b1'),
    'family-check --fan fan --family ideal --format json':
        (0, 'd8be2e66c411729bf53ed1e5943ed7d3e99fb4db9ede0bef9ef697c06283b72f'),
    'family-check --fan fan --family slab --format text':
        (0, '67a59104e6e2fa0b81c6b8634209fbbf097477bd3b83b76d6ce66e745712d2ee'),
    'family-check --fan fan --family slab --format json':
        (0, '7f3a864e33569eef9e9a6807fcd06bccd0bc4d095c4c2195139871ecd5104aad'),
    'chern --fan fan --family family --format text':
        (0, '2c11ed0775c02d17276ba146d396e9aaa60ffc3d99c467a7dd8576f8b4319e10'),
    'chern --fan fan --family family --format json':
        (0, '47e14282bce549fa924ba63caa0fa87e108d35be756e883750aa70b2ed045833'),
    'chern --fan fan --family slab --format text':
        (0, '81fb83b93a2ef87337b9a03b21f390f29053f9413ab7de4eba73e328c0239347'),
    'chern --fan fan --family slab --format json':
        (0, 'ed252ffd40eef0851d005b3ac7e4a487f093f83651345032950f9d80214dbf5c'),
    'hilbert --fan fan --family family --ample ample --format text':
        (0, '9c0aac8aec12d51c4baecda23c956896c9a05cf2e724f661b66c305da5ba7257'),
    'hilbert --fan fan --family family --ample ample --format json':
        (0, 'dd530f7602dc277d14e50cbfe03ce84035443521d85db9e122f637875df9f88c'),
    'hilbert --fan fan --family ideal --ample ample --format text':
        (0, 'c18b19af047e4ee1dcfd35f62a19925083ee45f4cae0dec230a77ed9086c9ac6'),
    'hilbert --fan fan --family ideal --ample ample --format json':
        (0, '11ca356f58ff0ac5023a0422e412747c66a897e07f944a75f4b4719f80b822b1'),
    'stability mu --fan fan --family family --ample ample --format text':
        (0, 'bdabe2f5089ee841552d04932232d12de616cb1c559b02fad341f1e39865ee54'),
    'stability mu --fan fan --family family --ample ample --format json':
        (0, '2dedb0d69d9cf040993dafe17aa0b40dc4845313dcd82a051a76cf1b9caffe1c'),
    'stability mu --fan fan --family unstable --ample ample --format text':
        (1, '7d1b44a0f33b430941687a9e9d2c819987d536b27feb31225aeb70a653ccbc2c'),
    'stability mu --fan fan --family unstable --ample ample --format json':
        (1, '05d4e0274bbd8ee2989a93b66e771401e469a73e1bb3cd2224973479be05290c'),
    'stability gieseker --fan fan --family family --ample ample --format text':
        (0, '579464852eab2d312a0a53a8e8037779632a5e5a3bd162a34fb003abb2e90cd0'),
    'stability gieseker --fan fan --family family --ample ample --format json':
        (0, '19bc116486e42ee7f3072df7cb24f587515d1d5eb26bd3df9348d0c526333b42'),
    'stability gieseker --fan fan --family ideal --ample ample --format text':
        (0, '62d7f800160b59507529e7dc7ecb723c8ed4274747ff724e9fa81134eb4565b4'),
    'stability gieseker --fan fan --family ideal --ample ample --format json':
        (0, '1b884d3b92422eaf4f175bf9b21d6e302b38f7f3e3b8167c90a069aadeeddaad'),
    'stability git --fan fan --family family --ample ample --weights-from mu --format text':
        (0, '85cd7095d84b4e25d04c91aadb91f5d31240e89595ee831a9bdff382980ed090'),
    'stability git --fan fan --family family --ample ample --weights-from mu --format json':
        (0, '2cfd6678413933b35cc5cc29e049bbb1531b130b7898d4e2fc56517f24e443bb'),
    'stability git --fan fan --family family --ample ample --weights-from xi --format text':
        (0, 'f0882865cb31b48495ccfc6eb27935f28fd081ee00dea312077756322d70a03d'),
    'stability git --fan fan --family family --ample ample --weights-from xi --format json':
        (0, 'db921d6842705bb4d27a6fff32ef003b1e272a4eae8f09a640f24cfa642fad65'),
    'stability git --fan fan --family family --ample ample --samples 5 --seed 3 --format text':
        (0, 'f0882865cb31b48495ccfc6eb27935f28fd081ee00dea312077756322d70a03d'),
    'stability git --fan fan --family family --ample ample --samples 5 --seed 3 --format json':
        (0, 'db921d6842705bb4d27a6fff32ef003b1e272a4eae8f09a640f24cfa642fad65'),
    'weights --fan fan --family family --ample ample --kind mu --format text':
        (0, '299617b27d5997cf18e21e11af0e0d393b21eaf44349a181df098ed01a801d2d'),
    'weights --fan fan --family family --ample ample --kind mu --format json':
        (0, 'fb108b4b5ce00531836e9bf0156b017c9638964fb28abf3fe9ec1b6afff875c8'),
    'weights --fan fan --family family --ample ample --kind xi --format text':
        (0, '27ccb3dcc71ceb732e3ff6f7999de317ef337d29f4e714483934857249ce09ff'),
    'weights --fan fan --family family --ample ample --kind xi --format json':
        (0, '2ad9960e3e12beb3721d270275b4370b78a62b1ad41a2ce9790cd47e046a0bcc'),
    'weights --fan fan --family ideal --ample ample --kind mu --format text':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'weights --fan fan --family ideal --ample ample --kind mu --format json':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'enumerate --fan fan --rank 1 --c2-max 2 --box 4 --format text':
        (0, 'ae32eebf10a8a22a9a1df21cea27457db92a48b0de0bda67ce5e7472ca5af803'),
    'enumerate --fan fan --rank 1 --c2-max 2 --box 4 --format json':
        (0, '3dc87d8db5b13832d48d681d395680d8b1cd9dbf27ef17e97ad79816bc01b3b3'),
    'enumerate --fan fan --rank 2 --c1 ample --c2-max 1 --box 3 --format text':
        (0, 'cc62cc335ef27c67d1c72d454c24e306b653510ebd43c1abd47e653d2570f9c5'),
    'enumerate --fan fan --rank 2 --c1 ample --c2-max 1 --box 3 --format json':
        (0, '62144659d664eb638117c1437e4010083dda1c9b55f70008b318ffc7f53b258e'),
    # a case whose hulls have a cut budget, recorded before gauge fixing
    # trimmed by index and a hull's Chern character served both its checks
    'enumerate --fan fan --rank 2 --c1 ample --c2-max 3 --box 5 --format text':
        (0, '9800cc8aa86e112a36c22cf5ddf4129be21d4d3b08a41e858d348c566cbcfc2d'),
    'enumerate --fan fan --rank 2 --c1 ample --c2-max 3 --box 5 --format json':
        (0, '648b9751efda7a1f2952e1e9f572f8f1a8cbe892692ae0a021f4ef1c5737e3e2'),
    'series rank1 --fan fan --order 4 --format text':
        (0, 'f30ba89c453f8be1bdc8e4c154ca863c48713de3c059f7c09c32b84dc5e8bb8e'),
    'series rank1 --fan fan --order 4 --format json':
        (0, '750540eeacb12a8d1f3723ff5f1122fd5e1ad750a491113937288ac30e565b00'),
    'series rank2-p2 --order 4 --format text':
        (0, '2ce9ab49d05b1b8d451bc77c9919cd19bf4b3e1834f2dc4d399b5ca6ff17e1d3'),
    'series rank2-p2 --order 4 --format json':
        (0, 'd779034d4fe1aad76b38d505bc1343f0620c902195af350f63578ba385897bdf'),
    'hilbert --fan fan --family o --ample zero-ample --format text':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'hilbert --fan fan --family o --ample zero-ample --format json':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # off P^2, recorded before the enumeration read its orbit twists off the
    # rays' basis coordinates and tested classes on cleared denominators
    'enumerate --fan f1-fan --rank 2 --c1 v0 --c2-max 1 --box 5 --format text':
        (0, '22a7cc955060dab70607e7fd0d942d6303e2248331d28765918f16e1ad2a6d62'),
    'enumerate --fan f1-fan --rank 2 --c1 v0 --c2-max 1 --box 5 --format json':
        (0, '14485cb0f1f3d0727d81e26c6541789871cfd9d59edc9274eccbb04a95261288'),
    'enumerate --fan p1xp1-fan --rank 2 --c1 v0 --c2-max 1 --box 5 --format text':
        (0, 'cf0c163a428fe1d99aff23f97ee68ef85719f7682af64b36d403a2993e087e25'),
    'enumerate --fan p1xp1-fan --rank 2 --c1 v0 --c2-max 1 --box 5 --format json':
        (0, 'a37c57bff0c8199bded7deddefec5a99794429e979ab0d54f8fa05f615817348'),
    'chern --fan f1-fan --family f1-family --format text':
        (0, '154fb2ae4e3875f0ddcb0f8d7b256cf073f3b6de492c9a7a6b5c52ec1e94fffb'),
    'chern --fan f1-fan --family f1-family --format json':
        (0, '28232423ddb985d146bec123e6dbad88d16823035e40082940ace1ecf84fed07'),
}


def test_cli_stdout_matches_golden_digests(files, p2, capsys):
    import hashlib

    got = {}
    for label, argv in _golden_argvs(files, p2):
        code, out, _ = run_cli(argv, capsys)
        got[label] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert {code for code, _ in got.values()} == {0, 1, 2}
    assert got == GOLDEN
