import json
import os
import subprocess
import sys
import time

import pytest

import mmw
from mmw.axiom import alpha_K
from mmw.cli import main
from mmw.formula import render
from mmw.lattice import enumerate_cmms
from mmw.orbit import label_order
from mmw.substitution import classify


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def subprocess_env() -> dict:
    """The environment for a fresh interpreter that imports this mmw."""
    src = os.path.dirname(os.path.dirname(mmw.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_normalize_text(capsys):
    code, out, _ = run(capsys, "normalize", "--v", "1", "--d", "1", "[]p->p")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4              # p row, rule, two modal rows
    assert lines[0].count("1") == 4     # six columns, four in the p section
    assert lines[0].count("0") == 2


def test_normalize_json_deterministic(capsys):
    code, out1, _ = run(capsys, "normalize", "--format", "json",
                        "--v", "1", "--d", "1", "[]p->p")
    assert code == 0
    doc = json.loads(out1)
    assert doc["minterms"] == [1, 3, 4, 5, 6, 7]
    code, out2, _ = run(capsys, "normalize", "--format", "json",
                        "--v", "1", "--d", "1", "[]p->p")
    assert out1 == out2


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--v", "1", "--d", "1", "p+")
    assert code == 1 and "error" in err


def test_cap_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--v", "2", "--d", "2", "p")
    assert code == 1 and "cap" in err


def test_collapse_reports_coordinate(capsys):
    code, out, _ = run(capsys, "collapse", "--v", "1", "[]p->p")
    assert code == 0
    assert "orbits: [Dd+Dw]" in out
    assert "S_D(0,1)" in out


def test_collapse_exhaustive_agrees(capsys):
    _, out1, _ = run(capsys, "collapse", "--format", "json", "--v", "1", "[]p->p")
    _, out2, _ = run(capsys, "collapse", "--format", "json", "--v", "1",
                     "--exhaustive", "[]p->p")
    assert json.loads(out1) == json.loads(out2)


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--format", "json", "--v", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"Vv0": [0, 4], "Dd0": [1, 6], "Dc1": [2, 5], "Dw1": [3, 7]}


def test_lattice_json_counts(capsys):
    for v, want in ((1, 10), (2, 28), (3, 88)):
        code, out, _ = run(capsys, "lattice", "--format", "json", "--v", str(v))
        doc = json.loads(out)
        assert code == 0 and len(doc) == want
    names = {entry["name"] for entry in doc if entry["name"]}
    assert {"K", "D", "T", "KWX6", "KWZ5"} <= names


def test_lattice_labels_in_label_order(capsys):
    # the order collapse, axiom and system-of print: Vv0, Dd0, then Dc_k
    # and Dw_k interleaved by k, so Dcccc9 before Dcccc10
    code, out, _ = run(capsys, "lattice", "--v", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 304
    assert lines[-1].endswith("+Dcccc9+Dwwww9+Dcccc10+Dwwww10+"
                              "Dcccc11+Dwwww11+Dcccc12+Dwwww12+Dcccc13+Dwwww13+"
                              "Dcccc14+Dwwww14+Dcccc15+Dwwww15]  (D)")
    code, out, _ = run(capsys, "system-of", "pq<>p<>q-><>(pq)")
    orbits = out.splitlines()[2].removeprefix("orbits: ")
    code, out, _ = run(capsys, "lattice", "--v", "2")
    assert f"S_K(1,3)  ->  S_K(1,*)  {orbits}  (KW8)" in out.splitlines()
    code, out, _ = run(capsys, "lattice", "--format", "json", "--v", "3")
    order = label_order(8)
    assert all(entry["orbits"] == sorted(entry["orbits"], key=order.index)
               for entry in json.loads(out))


def test_lattice_json_refused_over_cap(monkeypatch, capsys):
    # 304 K[4,1] CMMs of 2**20 minterms each would be ~3 * 10**8 listed
    # ints; the command refuses before any CMM's matrix is built
    from mmw.lattice import CMM

    def built(self):
        raise AssertionError("a CMM matrix was built")
    monkeypatch.setattr(CMM, "matrix", property(built))
    code, out, err = run(capsys, "lattice", "--format", "json", "--v", "4")
    assert code == 1 and out == ""
    assert err == ("error: lattice --format json lists the minterms of 304 CMMs "
                   "of 1048576 minterms each, over the cap 2097152\n")


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "--format", "dot", "--v", "1")
    assert code == 0
    assert out.startswith("digraph")
    assert "cluster_K" in out and "cluster_D" in out
    assert '"S_D(0,-1)" -> "S_K(0,-1)"' in out


def test_axiom_command(capsys):
    code, out, _ = run(capsys, "axiom", "--plane", "K", "--x", "1", "--y", "0",
                       "--v", "1")
    assert code == 0 and "CMM orbits: [Vv+Dd+Dc]" in out
    code, out, _ = run(capsys, "axiom", "--plane", "K", "--x", "0", "--y", "0",
                       "--v", "1", "--variant", "alpha-prime")
    assert code == 0 and "[]" in out
    code, out, _ = run(capsys, "axiom", "--plane", "K", "--x", "0", "--y", "0",
                       "--v", "4")
    assert code == 0 and out.splitlines()[0] == render(alpha_K(0, 0, 4))


@pytest.mark.parametrize("args", [
    ("--x", "3", "--y", "3"),
    ("--x", "15", "--y", "15"),
    ("--x", "7", "--y", "7", "--variant", "alpha-prime"),
])
def test_v4_axiom_over_the_mask_cap_exits_cleanly(args):
    # unbounded, these build 782 MiB to 13.6 GiB of subterm masks (3,3 then
    # renders a 1,152-term sum too deep to recurse); the child gets 1 GiB
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from mmw.cli import main; sys.exit(main())",
         "axiom", "--plane", "K", *args, "--v", "4"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: ") and "over the cap" in proc.stderr


def test_axiom_invalid_coordinate(capsys):
    code, _, err = run(capsys, "axiom", "--plane", "K", "--x", "1", "--y", "-1",
                       "--v", "1")
    assert code == 1


def test_system_of_command(capsys):
    code, out, _ = run(capsys, "system-of", "pq<>p<>q-><>(pq)")
    assert code == 0
    assert "S_K(1,*)" in out and "K[2,1]" in out and "KW8" in out


def test_system_of_four_variables_command(capsys):
    code, out, _ = run(capsys, "system-of", "pqrs->[](pqrs)")
    assert code == 0
    assert "S_K(0,0)" in out and "K[4,1]" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--v", "2")
    doc = json.loads(out)
    assert code == 0
    assert [c["size"] for c in doc] == [4, 24, 36, 48, 144]
    # the reduced mode it runs gives the exhaustive mode's classes, in the
    # same order and with the same representatives
    for v in (0, 1, 2):
        reduced, exhaustive = classify(v, "reduced"), classify(v, "exhaustive")
        assert [(c.size, c.key, c.representative) for c in reduced] == \
            [(c.size, c.key, c.representative) for c in exhaustive]


def test_classify_negative_v_exits_cleanly(capsys):
    code, out, err = run(capsys, "classify", "--v", "-1")
    assert (code, out, err) == (1, "", "error: v and d must be non-negative\n")


def test_classify_v3_reduced(capsys):
    code, out, _ = run(capsys, "classify", "--v", "3")
    doc = json.loads(out)
    assert code == 0 and len(doc) == 22
    assert sum(c["size"] for c in doc) == 1 << 24


def test_frames_single_coordinate(capsys):
    code, out, _ = run(capsys, "frames", "--correspondence", "--v", "1",
                       "--plane", "D", "--x", "0", "--y", "*",
                       "--max-worlds", "2")
    assert code == 0 and "ok" in out


def test_frames_all_coords_json(capsys):
    code, out, _ = run(capsys, "frames", "--correspondence", "--v", "1",
                       "--all-coords", "--max-worlds", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["coord"] for r in doc] == [str(c.coord) for c in enumerate_cmms(1)]
    assert all(r["frames_checked"] == 2 + 16 and r["violations"] == []
               for r in doc)


def test_frames_requires_target(capsys):
    code, _, err = run(capsys, "frames", "--correspondence", "--v", "1")
    assert code == 1


def test_countermodel_command(capsys):
    code, out, _ = run(capsys, "countermodel", "[]p->p", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"worlds": 1, "relation_rows": [0],
                   "valuation_minterms": [0], "world": 0}
    code, out, _ = run(capsys, "countermodel", "p->p")
    assert code == 0 and "no countermodel" in out


def test_countermodel_over_the_k_v1_cap(capsys):
    # a degree <= 1 formula needs its K[v,1] for the type table; without
    # it the search would walk 512 frames of 32**3 valuations (v = 5)
    for formula in ("p4->p4", "p4"):
        code, out, err = run(capsys, "countermodel", formula)
        assert code == 1 and out == ""
        assert err == "error: K[5,1] needs 2^37 minterms, over the cap 2097152\n"
    # degree 2 has no type table and keeps the direct walk
    code, out, _ = run(capsys, "countermodel", "[][]p4", "--max-worlds", "1")
    assert code == 0 and out.startswith("falsified at world 0 of 1")


@pytest.mark.parametrize("argv, err", [
    (["countermodel", "p", "--max-worlds", "-2"],
     "error: max_worlds must be at least 1, not -2\n"),
    (["countermodel", "p", "--max-worlds", "0"],
     "error: max_worlds must be at least 1, not 0\n"),
    (["frames", "--correspondence", "--v", "1", "--all-coords", "--max-worlds", "-1"],
     "error: max_worlds must be at least 1, not -1\n"),
    (["frames", "--correspondence", "--v", "1", "--all-coords", "--sample", "0"],
     "error: sample must be at least 1, not 0\n"),
    (["frames", "--correspondence", "--v", "1", "--all-coords", "--sample", "-3",
      "--max-worlds", "4"],
     "error: sample must be at least 1, not -3\n"),
], ids=["countermodel-negative", "countermodel-zero", "frames-worlds",
        "frames-sample-zero", "frames-sample-negative"])
def test_vacuous_bounds_exit_1(capsys, argv, err):
    # a bound below 1 checks no frame, so it is refused before any output
    assert run(capsys, *argv) == (1, "", err)


def test_frames_over_the_cap_exit_1(capsys):
    # all 2**36 six-world frames would take more than a day: one error line instead
    code, out, err = run(capsys, "frames", "--correspondence", "--v", "1", "--plane", "D",
                         "--x", "0", "--y", "*", "--max-worlds", "6")
    assert (code, out) == (1, "")
    assert err == "error: 68753097234 frames to check, over the cap 131072\n"


def test_countermodel_over_the_frame_cap_exit_1(capsys):
    # a theorem has no countermodel, so the search would walk all 2**25
    # five-world frames: one error line once the frame cap is passed
    code, out, err = run(capsys, "countermodel", "p->p", "--max-worlds", "5")
    assert (code, out) == (1, "")
    assert err == ("error: no countermodel in 131072 frames; "
                   "the 5-world frames go over the cap 131072\n")


def test_internal_error_exit_code(monkeypatch, capsys):
    from mmw.lattice import InternalConsistencyError
    import mmw.cli as cli

    def boom(args):
        raise InternalConsistencyError("synthetic")

    monkeypatch.setitem(cli.build_parser.__globals__, "cmd_orbits", boom)
    # rebuild the parser so the stub handler is picked up
    code = cli.main(["orbits", "--v", "1"])
    _, err = capsys.readouterr()
    assert code == 2 and "internal" in err


def test_collapse_off_the_grid_exits_2(monkeypatch, capsys):
    # a fixpoint whose orbit set names no coordinate is a bug: the CMM
    # step refuses it before any output
    import mmw.lattice
    monkeypatch.setattr(mmw.lattice, "coord_of", lambda keep, n: None)
    for argv in (("collapse", "--v", "1", "[]p->p"),
                 ("collapse", "--v", "1", "--exhaustive", "[]p->p"),
                 ("axiom", "--plane", "K", "--x", "0", "--y", "0", "--v", "1")):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.startswith("internal consistency failure: orbit set ["), argv


def test_dot_format_only_on_lattice(capsys):
    # classify prints JSON only, so it refuses text as well
    for argv, fmt in ((("classify", "--v", "2"), "dot"),
                      (("normalize", "--v", "1", "p"), "dot"),
                      (("frames", "--correspondence", "--v", "1", "--all-coords"), "dot"),
                      (("classify", "--v", "2"), "text")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2
        assert f"invalid choice: '{fmt}'" in capsys.readouterr().err


def test_cli_import_loads_no_numpy():
    # numpy serves only the extended tests, and hashlib only classify's
    # key digests; the cold CLI path stays free of both.  The records are
    # plain classes, so the import adds neither dataclasses nor the inspect
    # machinery it pulls in (a site hook may have loaded them before).
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import mmw.cli; "
         "print('numpy' in sys.modules, 'hashlib' in sys.modules, "
         "sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False False []\n"


def fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the last line it printed."""
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# The mmw modules whose code has run; a lazy module not yet run is an
# instance of the loader's module subclass.
EXECUTED = ("import sys, types; print(sorted(name for name, m in sys.modules.items() "
            "if name.partition('.')[0] == 'mmw' and type(m) is types.ModuleType))")
LAZY = ["mmw.axiom", "mmw.kripke", "mmw.lattice", "mmw.minmatrix", "mmw.orbit",
        "mmw.substitution"]


def test_import_runs_only_context_modules():
    assert fresh("import mmw; " + EXECUTED) == \
        str(["mmw", "mmw._record", "mmw.context", "mmw.formula"])
    assert fresh(f"import sys, mmw; print(all(n in sys.modules for n in {LAZY!r}))") == "True"


def test_normalize_command_leaves_lattice_kripke_axiom_unrun():
    executed = fresh("from mmw.cli import main; "
                     "main(['normalize', '--v', '1', '[]p->p']); " + EXECUTED)
    assert "mmw.minmatrix" in executed
    for name in ("mmw.lattice", "mmw.kripke", "mmw.axiom"):
        assert repr(name) not in executed


@pytest.mark.parametrize("argv,ran,unrun", [
    (["collapse", "--v", "1", "[]p->p"], "mmw.lattice", ["mmw.substitution"]),
    (["axiom", "--plane", "K", "--x", "1", "--y", "0", "--v", "1"], "mmw.axiom",
     ["mmw.substitution"]),
    (["system-of", "[]p->p"], "mmw.axiom", ["mmw.substitution"]),
    (["lattice", "--v", "2", "--format", "dot"], "mmw.lattice", ["mmw.substitution"]),
    (["frames", "--correspondence", "--v", "1", "--all-coords"], "mmw.kripke",
     ["mmw.substitution"]),
    (["countermodel", "[]p->p"], "mmw.kripke", ["mmw.lattice", "mmw.substitution"]),
], ids=["collapse", "axiom", "system-of", "lattice-dot", "frames", "countermodel"])
def test_command_leaves_modules_it_does_not_call_unrun(argv, ran, unrun):
    # collapse without --exhaustive applies no substitution, and only
    # correspondence reads the lattice in kripke
    executed = fresh(f"from mmw.cli import main; main({argv!r}); " + EXECUTED)
    assert repr(ran) in executed
    for name in unrun:
        assert repr(name) not in executed


def test_cli_import_registers_traced_modules():
    # a benchmark tracer reads sys.modules[...] for each of these right
    # after importing mmw.cli, before any command runs
    traced = ["mmw.formula", "mmw.minmatrix", "mmw.substitution", "mmw.orbit",
              "mmw.lattice", "mmw.axiom", "mmw.kripke"]
    assert fresh(f"import sys, mmw.cli; print(all(n in sys.modules for n in {traced!r}))") \
        == "True"


def test_context_function_shadows_its_module():
    assert fresh("import mmw; print(isinstance(mmw.context(2, 1), mmw.Context))") == "True"


# Every name ``mmw`` exports from its submodules: those it exported when it
# imported them eagerly, less the function form of ``Minmatrix.is_theorem_K``.
EXPORTS = {
    "context": ["CapExceededError", "Context", "DegreeError", "context", "enumerate_E"],
    "formula": ["Formula", "FormulaSyntaxError", "modal_degree", "parse", "render",
                "variables"],
    "kripke": ["Frame", "Model", "correspondence_check", "eval_model", "find_countermodel",
               "valid_on_frame"],
    "lattice": ["CMM", "STAR", "SystemCoord", "build_hasse", "cmm_from_coords", "collapse",
                "coverage", "enumerate_cmms", "map_to_star"],
    "minmatrix": ["ContextMismatchError", "Minmatrix", "normalize"],
    "orbit": ["PrimeOrbit", "compute_orbits", "orbit_closed_form", "orbit_of"],
    "substitution": ["Substitution", "apply_formula", "apply_minmatrix", "apply_minterm",
                     "classify", "compose", "critical_substitution", "enumerate_primes",
                     "identity", "is_prime"],
    "axiom": ["alpha_D", "alpha_K", "alpha_prime_K", "named_systems", "system_of"],
}


def test_every_exported_name_resolves():
    # each name is the defining module's object, and the submodules other
    # than context stay attributes of the package; prints what does not
    assert fresh(
        "import importlib, mmw; exports = " + repr(EXPORTS) + "\n"
        "print([name for mod, names in exports.items() for name in names"
        " if getattr(mmw, name, None) is not getattr(importlib.import_module('mmw.' + mod), name)]"
        " + [mod for mod in exports if mod != 'context'"
        " and getattr(mmw, mod, None) is not importlib.import_module('mmw.' + mod)])") == "[]"


@pytest.mark.parametrize("argv", [
    ("normalize", "--v", "1", "--d", "1", "!" * 3000 + "p"),
    ("system-of", "p" * 3000),
])
def test_deep_formula_exits_cleanly(argv):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mmw.cli import main; sys.exit(main())", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: formula nested too deeply\n"


@pytest.mark.parametrize("argv", [
    ("system-of", "p999999999999"),
    ("normalize", "--v", "999999999999", "p"),
    ("classify", "--v", "999999999999"),
    ("countermodel", "p29"),
    ("countermodel", "p999999999999"),
    ("lattice", "--v", "999999999999"),
    ("frames", "--correspondence", "--v", "999999999999", "--all-coords"),
    ("axiom", "--plane", "K", "--x", "0", "--y", "0", "--v", "999999999999"),
    ("collapse", "--v", "999999999999", "p"),
    ("orbits", "--v", "999999999999"),
])
def test_huge_variable_index_exits_cleanly(argv):
    # 1 << 999999999999 would take ~125 GB; the child's address space is
    # capped at 1 GiB, so reaching for it ends in a MemoryError traceback
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from mmw.cli import main; sys.exit(main())", *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: K[") and proc.stderr.endswith(
        "minterms, over the cap 2097152\n")


@pytest.mark.parametrize("argv", [("normalize", "--v", "1", "[]p->p"),
                                  ("classify", "--v", "2")])
def test_closed_stdout_exits_quietly(argv):
    # a reader that has already gone away, as in ``mmw classify | head``
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from mmw.cli import main; sys.exit(main())", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=subprocess_env(),
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
