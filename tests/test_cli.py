import dataclasses
import json
import math
import tracemalloc
import warnings
from io import StringIO

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import proctensor.cli
import proctensor.io
import proctensor.processes
from proctensor import (
    DensityMatrix,
    RandomSpec,
    audit_bounds,
    build_from_circuit,
    channel_M,
    cnot_swap_process,
    correlation_report,
    depolarizing_choi,
    fredkin_dilation,
    haar_unitary,
    kron,
    max_entangled_state,
    maximally_mixed,
    nm_depolarizing_process,
    random_process,
    swap_chain_process,
    verify_causality,
)
from proctensor.processes import random_env, swap_unitary
from proctensor.cli import build_parser, main
from proctensor.config import DEFAULT_TOL
from proctensor.linalg import DimensionLimitError, unitarity_residual
from proctensor.io import (
    SpecFileError,
    complex_to_pairs,
    fmt,
    load_choi,
    load_process_spec,
    save_choi,
    slot_labels,
)

from conftest import count_states, near_equal, record_plan, seeded_circuit_spec, stack_plan

LN2 = math.log(2)


def cnot_swap_spec_doc() -> dict:
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    return {
        "n": 2,
        "d": 2,
        "d_env": 2,
        "env": complex_to_pairs(np.diag([1.0, 0.0])),
        "unitaries": [complex_to_pairs(cnot), complex_to_pairs(swap_unitary(2))],
    }


def haar_spec_doc(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "n": 3,
        "d": 2,
        "d_env": 2,
        "env_init": "maximally-mixed",
        "unitaries": [complex_to_pairs(haar_unitary(4, rng)) for _ in range(3)],
    }


def write_spec(tmp_path, doc: dict):
    path = tmp_path / "proc.json"
    path.write_text(json.dumps(doc))
    return path


class TestSpecFile:
    def test_roundtrip_build(self, tmp_path):
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(cnot_swap_spec_doc()))
        spec = load_process_spec(path)
        pt = build_from_circuit(spec)
        assert np.max(np.abs(pt.state.mat - cnot_swap_process().state.mat)) <= 1e-12

    def test_missing_field_named(self, tmp_path):
        doc = cnot_swap_spec_doc()
        del doc["unitaries"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="unitaries"):
            load_process_spec(path)

    def test_non_unitary_named(self, tmp_path):
        doc = cnot_swap_spec_doc()
        doc["unitaries"][0] = complex_to_pairs(np.ones((4, 4)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecFileError, match="unitaries"):
            load_process_spec(path)

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"n": 1, "d": 2, "d_env": 1, "unitaries": ' + "[" * 50000 + "]" * 50000 + "}",
    ], ids=["document", "unitaries"])
    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_deep_nesting_exit_two(self, tmp_path, capsys, text, command):
        # The JSON decoder recurses once per level and raises RecursionError.
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(SpecFileError, match="deep.json"):
            load_process_spec(path)
        assert main([command, "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON in {path}: ")
        assert err.count("\n") == 1

    def test_unitarity_is_judged_in_frobenius_norm(self, tmp_path, capsys):
        # every entry of U^dag U - I is about 5e-10, below DEFAULT_TOL.eig, so
        # an entry-wise residual would load this spec; U^dag U - I has rank
        # one, so its Frobenius and operator norms agree at 2e-9
        u = np.eye(4) + 1e-9 * np.ones((4, 4)) / 4
        gram = u.T @ u - np.eye(4)
        assert np.max(np.abs(gram)) < DEFAULT_TOL.eig
        assert unitarity_residual(u) == pytest.approx(np.linalg.norm(gram, 2), rel=1e-6)
        assert unitarity_residual(u) == pytest.approx(2e-9, rel=1e-6)
        doc = cnot_swap_spec_doc()
        doc["n"] = 1
        doc["unitaries"] = [complex_to_pairs(u)]
        path = write_spec(tmp_path, doc)
        with pytest.raises(SpecFileError, match="unitarity residual"):
            load_process_spec(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert "unitarity residual" in capsys.readouterr().err

    def test_spread_leak_within_the_operator_norm_is_rejected(self, tmp_path, capsys):
        # U^dag U - I = diag(+-6e-10): its operator norm passes DEFAULT_TOL.eig,
        # its Frobenius norm 1.2e-9 does not. The leaks cancel in the trace,
        # so only the unitarity check stands between this spec and a pass.
        u = np.diag([1 + 3e-10, 1 - 3e-10] * 2)
        gram = u.T @ u - np.eye(4)
        assert np.linalg.norm(gram, 2) == pytest.approx(6e-10, rel=1e-6)
        assert np.linalg.norm(gram, 2) < DEFAULT_TOL.eig < unitarity_residual(u)
        assert unitarity_residual(u) == pytest.approx(1.2e-9, rel=1e-6)
        doc = {"n": 1, "d": 2, "d_env": 2, "unitaries": [complex_to_pairs(u)]}
        path = write_spec(tmp_path, doc)
        with pytest.raises(SpecFileError, match="unitary 0 unitarity residual 1.200e-09"):
            load_process_spec(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert "unitarity residual 1.200e-09" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    def test_seed_is_read_as_given(self, tmp_path, seed):
        doc = cnot_swap_spec_doc()
        del doc["env"]
        doc["env_init"] = "seeded-random"
        doc["seed"] = seed
        spec = load_process_spec(write_spec(tmp_path, doc))
        expected = random_env(np.random.default_rng(seed), 2, "seeded-random")
        assert np.array_equal(spec.env_state.factor, expected)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.9, "field 'seed' must be an integer, got 1.9"),
            (True, "field 'seed' must be an integer, got True"),
            ("abc", "field 'seed' must be an integer, got 'abc'"),
            (None, "field 'seed' must be an integer, got None"),
            (-1, "field 'seed' must be >= 0, got -1"),
        ],
    )
    def test_bad_seed_named(self, tmp_path, capsys, seed, message):
        doc = cnot_swap_spec_doc()
        del doc["env"]
        doc["env_init"] = "seeded-random"
        doc["seed"] = seed
        path = write_spec(tmp_path, doc)
        with pytest.raises(SpecFileError) as info:
            load_process_spec(path)
        assert str(info.value) == message
        assert main(["verify", "--in", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, part", [(math.nan, 0), (math.nan, 1), (math.inf, 1), (-math.inf, 0)]
    )
    def test_non_finite_unitary_named(self, tmp_path, capsys, value, part):
        # Python's json reads NaN and Infinity; the spec refuses the unitary
        # before its residual is formed, so no numpy warning is raised.
        doc = cnot_swap_spec_doc()
        doc["unitaries"][1][2][3][part] = value
        path = write_spec(tmp_path, doc)
        message = "field 'unitaries': unitary 1 entries must be finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecFileError) as info:
                load_process_spec(path)
            assert str(info.value) == message
            for command in ("verify", "analyze"):
                assert main([command, "--in", str(path)]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "key, value, least",
        [("n", 0, 1), ("n", -2, 1), ("d", 1, 2), ("d_env", 0, 1), ("d_env", -1, 1)],
    )
    def test_dimension_out_of_range_named(self, tmp_path, capsys, key, value, least):
        doc = cnot_swap_spec_doc()
        doc[key] = value
        path = write_spec(tmp_path, doc)
        message = f"field '{key}' must be >= {least}, got {value}"
        with pytest.raises(SpecFileError) as info:
            load_process_spec(path)
        assert str(info.value) == message
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_env_init_named(self, tmp_path):
        doc = cnot_swap_spec_doc()
        del doc["env"]
        doc["env_init"] = "thermal"
        with pytest.raises(SpecFileError, match="env_init"):
            load_process_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize("env_init, built", [
        ("maximally-mixed", 0), ("pure-ground", 0), ("seeded-random", 1),
    ])
    def test_generator_is_built_only_where_it_is_read(self, tmp_path, monkeypatch, env_init, built):
        # Only seeded-random draws its environment; the others need no generator.
        doc = haar_spec_doc(0)
        doc["env_init"] = env_init
        seeds, default_rng = [], np.random.default_rng

        def counting(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        spec = load_process_spec(write_spec(tmp_path, doc))
        assert seeds == [0] * built
        assert np.array_equal(spec.env_state.factor, random_env(default_rng(0), 2, env_init))

    def test_explicit_env_spec_checks_its_unitaries_once(self, tmp_path, monkeypatch):
        calls, real = [], proctensor.processes.checked_unitaries

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(proctensor.io, "checked_unitaries", counting)
        monkeypatch.setattr(proctensor.processes, "checked_unitaries", counting)
        spec = load_process_spec(write_spec(tmp_path, cnot_swap_spec_doc()))
        assert calls == [(2, 4)]
        assert build_from_circuit(spec).causality.passed

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "pure-ground", "seeded-random"])
    def test_default_env_spec_checks_its_unitaries_once(self, tmp_path, monkeypatch, env_init):
        # Before the environment is built only unitary 0's side is compared with
        # d * d_env; the full check is the spec's own.
        calls, real = [], proctensor.processes.checked_unitaries

        def counting(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(proctensor.io, "checked_unitaries", counting)
        monkeypatch.setattr(proctensor.processes, "checked_unitaries", counting)
        doc = haar_spec_doc(0)
        doc["env_init"] = env_init
        spec = load_process_spec(write_spec(tmp_path, doc))
        assert calls == [(3, 4)]
        assert build_from_circuit(spec).causality.passed

    @pytest.mark.parametrize("env_init", ["maximally-mixed", "seeded-random"])
    @pytest.mark.parametrize(
        "d_env, j, shape", [(2, 1, (2, 2)), (2, 2, (8, 8)), (10**6, 0, (4, 4))]
    )
    def test_default_env_spec_names_the_first_unitary_off_its_side(
        self, tmp_path, capsys, env_init, d_env, j, shape
    ):
        # Unitary 0 off its side is named before an environment of side d_env
        # is built; a later one is named by the spec, with the same wording.
        doc = haar_spec_doc(0)
        doc.update(env_init=env_init, d_env=d_env)
        doc["unitaries"][j] = complex_to_pairs(np.eye(shape[0]))
        path = write_spec(tmp_path, doc)
        side = 2 * d_env
        message = f"field 'unitaries': unitary {j} has shape {shape}, expected {(side, side)}"
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("leaf, shown", [("1", "str"), (True, "bool"), (False, "bool"),
                                             (None, "NoneType"), ([1], None)])
    @pytest.mark.parametrize("field", ["unitaries", "env"])
    def test_entry_that_is_not_a_number_named(self, tmp_path, capsys, leaf, shown, field):
        # numpy reads "1" and true as 1.0; a spec's [re, im] entries are JSON numbers.
        doc = cnot_swap_spec_doc()
        if field == "env":
            doc["env"][1][1][0], name = leaf, "env"
        else:
            doc["unitaries"][1][2][3][1], name = leaf, "unitaries[1]"
        path = write_spec(tmp_path, doc)
        if isinstance(leaf, list):  # a nested entry is no [re, im] pair
            message = f"field '{name}' is not a nested [re, im] array"
        else:
            message = f"field '{name}' has [re, im] entries that are not numbers: {shown}"
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", ["env_inti", "seeds", "N", "unitary"])
    def test_unknown_field_named(self, tmp_path, capsys, key):
        # A typo such as env_inti once gave a maximally mixed environment silently.
        doc = cnot_swap_spec_doc()
        del doc["env"]
        doc[key] = "pure-ground"
        path = write_spec(tmp_path, doc)
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown field '{key}'; a spec has only the fields "
            "n, d, d_env, env, env_init, seed, unitaries\n"
        )

    @pytest.mark.parametrize("key, value", [("env_init", "pure-ground"), ("seed", 3),
                                            ("env_init", "maximally-mixed")])
    def test_env_with_env_init_or_seed_named(self, tmp_path, capsys, key, value):
        # ``env`` once won silently over env_init and seed.
        doc = cnot_swap_spec_doc()
        doc[key] = value
        path = write_spec(tmp_path, doc)
        assert main(["verify", "--in", str(path)]) == 2
        message = f"field 'env' gives the environment, so '{key}' must not"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("place", ["diagonal", "everywhere"])
    def test_huge_unitary_entries_exit_two(self, tmp_path, capsys, place):
        # Finite entries of 1e308 overflow the unitarity residual to inf or NaN,
        # which its check refuses; no numpy warning reaches the user.
        doc = cnot_swap_spec_doc()
        u = np.eye(4) if place == "diagonal" else np.ones((4, 4), complex) * (1 + 1j)
        doc["unitaries"][0] = complex_to_pairs(1e308 * u)
        path = write_spec(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("verify", "analyze"):
                assert main([command, "--in", str(path)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("error: field 'unitaries': unitary 0 unitarity residual ")
                assert err.count("\n") == 1

    def test_env_init_variants(self, tmp_path):
        doc = cnot_swap_spec_doc()
        del doc["env"]
        doc["env_init"] = "pure-ground"
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(doc))
        spec = load_process_spec(path)
        assert np.allclose(spec.env_state.mat, np.diag([1.0, 0.0]))


def _retoken(row: int, col: int, token: str):
    """An edit of a Choi file's lines that replaces one token of a matrix row."""
    def edit(lines):
        toks = lines[1 + row].split()
        toks[col] = token
        lines[1 + row] = " ".join(toks)
    return edit


class TestChoiFile:
    def test_roundtrip(self, tmp_path):
        pt = cnot_swap_process()
        path = tmp_path / "choi.txt"
        save_choi(pt.state, path)
        loaded = load_choi(path)
        assert loaded.dims == pt.state.dims
        assert np.array_equal(loaded.mat, pt.state.mat)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a choi file\n")
        with pytest.raises(SpecFileError):
            load_choi(path)

    def test_save_load_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for pt, slots in ((cnot_swap_process(), "i0,o1,i1,o2"),
                          (swap_chain_process(4, 2), "i0,o1,i1,o2,i2,o3,i3,o4")):
            save_choi(pt.state, a)
            save_choi(load_choi(a), b)
            assert a.read_bytes() == b.read_bytes()
            assert a.read_text().splitlines()[0] == f"proctensor-choi n={pt.n} d=2 slots={slots}"

    @pytest.mark.parametrize("dims, message", [
        ((2, 3), "slot dimensions must be uniform"),
        ((2, 2, 2), "even slot count"),
    ], ids=["mixed-dims", "odd-slots"])
    def test_save_refuses_a_state_off_the_slot_layout(self, tmp_path, dims, message):
        # Its header would not describe its rows, and load_choi would refuse the file.
        path = tmp_path / "choi.txt"
        with pytest.raises(ValueError, match=message):
            save_choi(maximally_mixed(dims), path)
        assert not path.exists()

    @pytest.mark.parametrize("slots", [" slots=o1,i0,o2,i1", "", " slots=i0,o1,i1,o2 junk"])
    def test_bad_slots_header_exit_two(self, tmp_path, slots, capsys):
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        lines = path.read_text().splitlines()
        lines[0] = "proctensor-choi n=2 d=2" + slots
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecFileError):
            load_choi(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert "slots=i0,o1,i1,o2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        # lines[0] is the header, file line 1, so lines[6] (matrix row 5) is line 7
        (lambda ls: ls.__setitem__(6, ls[6].rsplit(" ", 1)[0]),
         "row at line 7, column 32: expected 32 numbers, found 31"),
        (lambda ls: ls.__setitem__(6, ls[6] + " 0.0"),
         "row at line 7, column 33: expected 32 numbers, found 33"),
        (_retoken(5, 3, "abc"), "row at line 7, column 4: 'abc' is not a number"),
        (_retoken(5, 3, "#"), "row at line 7, column 4: '#' is not a number"),
        (_retoken(5, 3, "1_0"), "row at line 7, column 4: '1_0' is not a number"),
        (_retoken(0, 0, "x"), "row at line 2, column 1: 'x' is not a number"),
        (_retoken(15, 31, "x"), "row at line 17, column 32: 'x' is not a number"),
        # a short row after a bad token: the first bad line is named
        (lambda ls: (_retoken(9, 0, "x")(ls), ls.__setitem__(4, ls[4].rsplit(" ", 1)[0])),
         "row at line 5, column 32: expected 32 numbers, found 31"),
        (lambda ls: ls.insert(6, ""), "expected 16 matrix rows, found 17 (matrix row 5 is blank)"),
        (lambda ls: ls.__setitem__(6, ""), "found 15 rows of 32 (matrix row 5 is blank)"),
        (lambda ls: ls.append(ls[-1]), "expected 16 matrix rows, found 17"),
        (lambda ls: ls.pop(), "expected 16 matrix rows, found 15"),
        # the parse sees 16 blank lines, which numpy warns of
        (lambda ls: ls.__setitem__(slice(1, 1), [""] * 16),
         "expected 16 matrix rows, found 32 (matrix row 0 is blank)"),
    ], ids=["short", "long", "non-numeric", "hash", "underscore", "first-row", "last-token",
            "first-bad-line", "blank-between", "blank-instead",
            "row-too-many", "row-too-few", "blank-body"])
    def test_malformed_row_exit_two(self, tmp_path, capsys, edit, named):
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecFileError, match="row"):
            load_choi(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_blank_lines_around_the_file_are_read_past(self, tmp_path):
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        path.write_text("\n \n" + path.read_text() + "\n  \n\n")
        assert np.array_equal(load_choi(path).mat, cnot_swap_process().state.mat)
        # the blank lines before the header count as file lines
        lines = path.read_text().splitlines()
        _retoken(7, 3, "abc")(lines)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SpecFileError, match="row at line 9, column 4: 'abc' is not a number"):
            load_choi(path)

    def test_verify_reads_past_blank_lines_before_the_header(self, tmp_path, capsys):
        path = tmp_path / "choi.txt"
        save_choi(swap_chain_process(4, 2).state, path)
        path.write_text("\n" + path.read_text())
        assert proctensor.io.is_choi_file(path)
        assert main(["verify", "--in", str(path)]) == 0
        assert "causality_pass = True" in capsys.readouterr().out

    def test_magic_sniff_reads_only_whitespace_and_the_magic(self):
        fh = StringIO("\n \t\nproctensor-choi n=1 d=2 slots=i0,o1\n")
        assert proctensor.io._at_choi_magic(fh)
        assert fh.read() == " n=1 d=2 slots=i0,o1\n"
        fh = StringIO("\n{\"n\": 1}")
        assert not proctensor.io._at_choi_magic(fh)
        assert fh.read() == ""  # the spec was shorter than the magic
        assert not proctensor.io._at_choi_magic(StringIO(" \n"))

    @pytest.mark.parametrize("n, d, named", [
        (-1, 2, "n must be >= 1, got -1"), (0, 2, "n must be >= 1, got 0"),
        (1, 1, "d must be >= 2, got 1"), (1, 0, "d must be >= 2, got 0"),
    ])
    def test_header_below_one_step_or_two_levels_exit_two(
        self, tmp_path, monkeypatch, capsys, n, d, named
    ):
        # refused from the header, before any row is read
        path = tmp_path / "choi.txt"
        path.write_text(f"proctensor-choi n={n} d={d} slots={slot_labels(n)}\n1.0 0.0\n")
        monkeypatch.setattr(proctensor.io.np, "loadtxt", None)
        with pytest.raises(SpecFileError, match=f"malformed Choi header: {named}"):
            load_choi(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert f"malformed Choi header: {named}" in capsys.readouterr().err

    def test_parse_reads_only_the_declared_rows(self, tmp_path, monkeypatch, capsys):
        # The rows go to np.loadtxt as they stream from the file, bounded by
        # the header's d^(2n); a further line is the row-count error.
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + lines[1:6]) + "\n")
        handed = []
        real = np.loadtxt

        def spy(rows, *args, **kwargs):
            rows = list(rows)
            handed.append(len(rows))
            return real(rows, *args, **kwargs)

        monkeypatch.setattr(proctensor.io.np, "loadtxt", spy)
        with pytest.raises(SpecFileError, match="expected 16 matrix rows, found 21$"):
            load_choi(path)
        assert handed == [16]

    def test_header_beyond_the_dense_limit_exit_two(self, tmp_path, monkeypatch, capsys):
        # n = 11, d = 2 declares 4^11 rows, beyond the 2^20 limit: the file is
        # refused from its header, and no row is parsed.
        path = tmp_path / "choi.txt"
        rows = [" ".join(["0.0"] * 8)] * 3
        path.write_text("\n".join([f"proctensor-choi n=11 d=2 slots={slot_labels(11)}", *rows]))
        monkeypatch.setattr(proctensor.io.np, "loadtxt", None)
        with pytest.raises(DimensionLimitError, match="4194304 exceeds dense limit 1048576"):
            load_choi(path)
        assert main(["verify", "--in", str(path)]) == 2
        assert "4194304 exceeds dense limit" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10**6, 10**12])
    def test_huge_header_is_refused_before_its_slots(self, tmp_path, monkeypatch, capsys, n):
        # The size check comes first and forms neither d^(2n) nor the n-step
        # slot list, and the message stays short whatever n is.
        path = tmp_path / "choi.txt"
        path.write_text(f"proctensor-choi n={n} d=2 slots=i0\n")
        labelled = []
        real = proctensor.io.slot_labels
        monkeypatch.setattr(proctensor.io, "slot_labels", lambda k: labelled.append(k) or real(k))
        assert main(["verify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"dimension 2^{2 * n} exceeds dense limit 1048576" in err
        assert len(err) < 300
        assert n not in labelled

    def test_slots_error_quotes_a_bounded_header(self, tmp_path, capsys):
        path = tmp_path / "choi.txt"
        path.write_text(f"proctensor-choi n=2 d=2 slots={'x' * 10**6}\n")
        assert main(["verify", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "slots=i0,o1,i1,o2" in err and "xxx..." in err
        assert len(err) < 300

    def test_nan_entry_exit_two(self, tmp_path, capsys):
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        lines = path.read_text().splitlines()
        _retoken(5, 3, "nan")(lines)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--in", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("entries, message", [
        ("diagonal", "error: trace (inf+0j) deviates from 1 beyond 1.0e-10\n"),
        ("everywhere", "error: Hermiticity residual inf > 1.0e-10\n"),
        ("real everywhere", "error: trace (inf+0j) deviates from 1 beyond 1.0e-10\n"),
        ("off the diagonal", "error: minimum eigenvalue -1.000e+308 < -1.0e-10\n"),
        ("1e160 off the diagonal", "error: minimum eigenvalue -1.000e+160 < -1.0e-10\n"),
        ("cancelling", "error: trace (nan+0j) deviates from 1 beyond 1.0e-10\n"),
    ])
    def test_huge_entries_exit_two(self, tmp_path, capsys, entries, message):
        # Finite entries overflow the trace, the Hermiticity residual or the
        # pivoted Cholesky to inf or NaN, which the checks refuse with no warning.
        n = 2 if entries == "cancelling" else 1
        mat = np.eye(4**n, dtype=complex) / 4**n
        if entries == "cancelling":  # numpy's 8-way unrolled sum meets inf and -inf
            mat[[0, 8], [0, 8]], mat[[1, 9], [1, 9]] = 1e308, -1e308
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isnan(np.trace(mat))
        elif entries == "diagonal":
            mat = 1e308 * np.eye(4)
        elif entries == "everywhere":
            mat = np.full((4, 4), 1e308 * (1 + 1j))
        elif entries == "real everywhere":
            mat = np.full((4, 4), 1e308)
        else:
            mat[0, 1] = mat[1, 0] = 1e160 if entries.startswith("1e160") else 1e308
        path = tmp_path / "huge.choi"
        lines = [f"proctensor-choi n={n} d=2 slots={slot_labels(n)}"]
        lines += [" ".join(f"{fmt(z.real)} {fmt(z.imag)}" for z in row) for row in mat]
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("verify", "analyze"):
                assert main([command, "--in", str(path)]) == 2
                assert capsys.readouterr().err == message

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=32))
    @example(values=[0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e-05, 1.2345e-05, 1e16, -3.0000000000000004e16])
    def test_rows_parse_to_the_written_doubles(self, tmp_path, values):
        # Any finite doubles, written by fmt into an n=1, d=2 body, must parse
        # to float(token) bit for bit; the state check is bypassed, since
        # these are no density matrix.
        tokens = [fmt(x) for x in np.resize(np.array(values), 32)]
        rows = [" ".join(tokens[8 * i:8 * i + 8]) for i in range(4)]
        path = tmp_path / "choi.txt"
        path.write_text("\n".join(["proctensor-choi n=1 d=2 slots=i0,o1", *rows]) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(proctensor.io, "DensityMatrix", lambda mat, dims: mat)
            mat = load_choi(path)
        want = np.array([float(tok) for tok in tokens])
        assert mat.shape == (4, 4)
        assert np.array_equal(mat.view(float).ravel().view(np.int64), want.view(np.int64))

    def test_four_step_save_load_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_choi(random_process(RandomSpec(n=4, d=2, d_env=2, seed=4)).state, a)
        save_choi(load_choi(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_endpoints_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-depolarizing", "--d", "2,3", "--grid", "21", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,p,M_nats"
        assert len(lines) == 1 + 2 * 21
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        for d in (2, 3):
            col = [r[2] for r in rows if r[0] == d]
            assert col[0] == pytest.approx(2 * math.log(d), abs=1e-9)
            assert col[-1] == pytest.approx(0.0, abs=1e-9)
            assert all(col[k + 1] <= col[k] + 1e-10 for k in range(len(col) - 1))

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-depolarizing", "--d", "2", "--grid", "11", "--out", str(a)])
        main(["sweep-depolarizing", "--d", "2", "--grid", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "command", [["sweep-depolarizing"], ["emit-figure", "--figure", "fig2"]]
    )
    def test_failed_hierarchy_exits_one(self, tmp_path, monkeypatch, capsys, command):
        # No certificate decides, and the exact hierarchy fails every point: a
        # violation, exit 1 as for fig6, naming the first point of the first d.
        monkeypatch.setattr(
            proctensor.processes, "_unitarity_certificate", lambda r, t: np.ones(r.shape)
        )
        monkeypatch.setattr(
            proctensor.processes, "_level_residuals", lambda levels, d: [0.25 for _ in levels]
        )
        out = tmp_path / "sweep.csv"
        assert main(command + ["--d", "3,2", "--grid", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: causality hierarchy violated at d = 3, p = 0.0: worst residual "
            f"2.500e-01 > {DEFAULT_TOL.causal:.1e}\n"
        )
        assert not out.exists()


class TestEmitFigureCommand:
    def test_fig6_values(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["emit-figure", "--figure", "fig6", "--grid", "11", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,M1,M2,N,I"
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        first, last = rows[0], rows[-1]
        assert first[1:] == pytest.approx([2 * LN2, 2 * LN2, 0.0, 4 * LN2], abs=1e-8)
        assert last[1:] == pytest.approx([0.0, 0.0, 2 * LN2, 2 * LN2], abs=1e-8)
        for r in rows:
            assert r[1] == pytest.approx(r[2], abs=1e-8)

    @pytest.mark.parametrize("grid", [2, 3, 21, 101])
    def test_fig6_stacks_match_one_build_per_point(self, tmp_path, grid):
        # fig6 builds its grid, and the sweep each d's grid, in stacks; one
        # process per point, in grid order, is the oracle, byte for byte.
        ps = [j / (grid - 1) for j in range(grid)]
        out = tmp_path / "fig6.csv"
        assert main(["emit-figure", "--figure", "fig6", "--grid", str(grid), "--out", str(out)]) == 0
        rows = []
        for p in ps:
            rep = correlation_report(nm_depolarizing_process(p))
            rows.append((p, rep.step_markov[0], rep.step_markov[1], rep.non_markov, rep.total))
        lines = proctensor.io.csv_lines(("p", "M1", "M2", "N", "I"), rows)
        assert out.read_text() == "\n".join(lines) + "\n"
        sweep = tmp_path / "sweep.csv"
        argv = ["sweep-depolarizing", "--d", "2,3,4", "--grid", str(grid), "--out", str(sweep)]
        assert main(argv) == 0
        rows = []
        for d in (2, 3, 4):
            for p in ps:
                rep = correlation_report(build_from_circuit(fredkin_dilation(p, d)))
                rows.append((float(d), p, rep.step_markov[0]))
        lines = proctensor.io.csv_lines(("d", "p", "M_nats"), rows)
        assert sweep.read_text() == "\n".join(lines) + "\n"
        # The dense Choi state of the channel is an independent route to M.
        dense = [channel_M(depolarizing_choi(d, p)) for d in (2, 3, 4) for p in ps]
        assert np.max(np.abs(np.array([m for _, _, m in rows]) - dense)) <= 1e-12

    @pytest.mark.parametrize(
        "command", [["emit-figure", "--figure", "fig6"], ["sweep-depolarizing", "--d", "2,3,4"]]
    )
    def test_grid_forms_no_state(self, tmp_path, monkeypatch, command):
        # A p-grid's environments are one factor array, checked once per stack.
        seen = count_states(monkeypatch)
        for grid in ("3", "21"):
            assert main(command + ["--grid", grid, "--out", str(tmp_path / "out.csv")]) == 0
        assert seen == []

    @pytest.mark.parametrize("command, dims", [
        (["emit-figure", "--figure", "fig6"], [2]),
        (["emit-figure", "--figure", "fig2", "--d", "2,3,4"], [2, 3, 4]),
        (["sweep-depolarizing", "--d", "2,3,4"], [2, 3, 4]),
    ])
    def test_grid_is_split_by_the_stack_budget(self, tmp_path, monkeypatch, command, dims):
        # Each grid runs in the fewest near-equal stacks of at most
        # ``_stack_size`` points, and its CSV is that of one stack per grid.
        stacks, _ = record_plan(monkeypatch)
        split, whole = tmp_path / "split.csv", tmp_path / "whole.csv"
        assert main(command + ["--grid", "2001", "--out", str(split)]) == 0
        n = 2 if "fig6" in command else 1
        sizes = [near_equal(2001, proctensor.processes._stack_size(n, d, 2 * d)) for d in dims]
        assert all(len(grid) > 1 for grid in sizes)
        assert stacks == [size for grid in sizes for size in grid]
        stacks.clear()
        monkeypatch.setattr(proctensor.processes, "_STACK_BYTES", 10**12)
        assert main(command + ["--grid", "2001", "--out", str(whole)]) == 0
        assert stacks == [2001] * len(dims)
        assert split.read_bytes() == whole.read_bytes()

    def test_grid_peak_memory_does_not_grow_with_the_grid(self, tmp_path):
        # One stack of 2001 points at d = 4 held 138 MB (tracemalloc); the budget's
        # stacks hold 2 MB, beside the grid's reports and rows.
        out = tmp_path / "sweep.csv"
        main(["sweep-depolarizing", "--d", "4", "--grid", "3", "--out", str(out)])  # imports
        tracemalloc.start()
        try:
            assert main(["sweep-depolarizing", "--d", "4", "--grid", "2001", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_fig2_delegates(self, tmp_path):
        out, sweep = tmp_path / "fig2.csv", tmp_path / "sweep.csv"
        for dims in ("2", "2,3"):
            args = ["--d", dims, "--grid", "5", "--out"]
            assert main(["emit-figure", "--figure", "fig2", *args, str(out)]) == 0
            assert out.read_text().splitlines()[0] == "d,p,M_nats"
            assert main(["sweep-depolarizing", *args, str(sweep)]) == 0
            assert out.read_bytes() == sweep.read_bytes()

    @pytest.mark.parametrize("dims", ["3", "2,3", "2,2"])
    def test_fig6_refuses_d_beyond_the_default(self, tmp_path, capsys, dims):
        # fig6 is the two-qubit Fredkin circuit; --d would be ignored
        out = tmp_path / "fig6.csv"
        argv = ["emit-figure", "--figure", "fig6", "--d", dims, "--grid", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "--d" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv[:3] + ["--d", "2"] + argv[5:]) == 0

    @pytest.mark.parametrize(
        "command",
        [["sweep-depolarizing"], ["emit-figure", "--figure", "fig2"],
         ["emit-figure", "--figure", "fig6"]],
    )
    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_exit_two(self, tmp_path, capsys, command, grid):
        # fig6 divided by zero at 1 and wrote a bare header at 0
        out = tmp_path / "fig.csv"
        assert main(command + ["--grid", grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --grid must be >= 2\n"
        assert not out.exists()

    def test_fig6_failed_hierarchy_exits_one(self, tmp_path, monkeypatch, capsys):
        # No certificate decides, and the exact hierarchy fails every point.
        monkeypatch.setattr(
            proctensor.processes, "_unitarity_certificate", lambda r, t: np.ones(r.shape)
        )
        monkeypatch.setattr(proctensor.processes, "_level_residuals", lambda levels, d: [0.25] * 2)
        out = tmp_path / "fig6.csv"
        assert main(["emit-figure", "--figure", "fig6", "--grid", "3", "--out", str(out)]) == 1
        assert "causality hierarchy violated at p = " in capsys.readouterr().err
        assert not out.exists()

    def test_fig6_names_the_first_failing_point_in_grid_order(self, tmp_path, monkeypatch, capsys):
        # p = 0.5 and p = 1.0 both fail; the rows are judged in grid order,
        # so the smaller p is the one named.
        build_stack = proctensor.processes.build_stack

        def failing_at_half_and_one(unitaries, env):
            transfer, residuals, certified = build_stack(unitaries, env)
            # the control's p, read from F F^dag of each environment's factor
            fail = np.array([np.isclose(2.0 * (f @ f.conj().T)[2, 2].real, (0.5, 1.0)).any()
                             for f in env])
            residuals[fail, -1] = 2.0 * DEFAULT_TOL.causal  # one level above the tolerance
            return transfer, residuals, certified & ~fail

        monkeypatch.setattr(proctensor.processes, "build_stack", failing_at_half_and_one)
        out = tmp_path / "fig6.csv"
        assert main(["emit-figure", "--figure", "fig6", "--grid", "21", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: causality hierarchy violated at p = 0.5: worst residual ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestCsvOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-depolarizing", "--d", "2,3", "--grid", "3"],
            ["emit-figure", "--figure", "fig2", "--grid", "3"],
            ["emit-figure", "--figure", "fig6", "--grid", "3"],
        ],
    )
    def test_without_out_goes_to_stdout(self, argv, tmp_path, capsysbinary):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestAnalyzeCommand:
    def test_cnot_swap_report(self, tmp_path):
        spec_path = tmp_path / "proc.json"
        spec_path.write_text(json.dumps(cnot_swap_spec_doc()))
        out = tmp_path / "report.txt"
        assert main(["analyze", "--in", str(spec_path), "--out", str(out)]) == 0
        text = out.read_text()
        assert f"non_markov = {2 * LN2!r}" in text or "non_markov = 1.386294" in text
        assert "bounds_pass = True" in text
        assert "causality_pass = True" in text

    def test_identity_two_step(self, tmp_path):
        doc = cnot_swap_spec_doc()
        ident = complex_to_pairs(np.eye(4))
        doc["unitaries"] = [ident, ident]
        spec_path = tmp_path / "proc.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "report.txt"
        assert main(["analyze", "--in", str(spec_path), "--out", str(out)]) == 0
        fields = dict(
            ln.split(" = ") for ln in out.read_text().splitlines() if " = " in ln
        )
        assert float(fields["non_markov"]) == pytest.approx(0.0, abs=1e-8)
        assert float(fields["total"]) == pytest.approx(4 * LN2, abs=1e-8)

    def test_malformed_spec_exit_two(self, tmp_path, capsys):
        doc = cnot_swap_spec_doc()
        doc["unitaries"][0] = complex_to_pairs(np.ones((4, 4)))
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["analyze", "--in", str(spec_path)]) == 2
        assert "unitaries" in capsys.readouterr().err


class TestAuditRandomCommand:
    def test_zero_violations_and_determinism(self, tmp_path):
        args = ["audit-random", "--n", "2", "--d", "2", "--denv", "3",
                "--samples", "10", "--seed", "42"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "violations = 0" in a.read_text()

    def test_single_step_nonmarkov_is_zero(self, tmp_path):
        out = tmp_path / "n1.txt"
        assert main(["audit-random", "--n", "1", "--d", "2", "--denv", "3",
                     "--samples", "5", "--seed", "7", "--out", str(out)]) == 0
        assert "violations = 0" in out.read_text()

    def test_single_step_passes_at_tolerance_zero(self, tmp_path):
        # N is exactly 0 at n = 1, so the slacks that subtract it are too
        out = tmp_path / "n1.txt"
        assert main(["audit-random", "--n", "1", "--denv", "2", "--samples", "7",
                     "--tol", "0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "violations = 0" in text and "min_slack_unordered = 0.0\n" in text

    # Plans that vary the stack and slice sizes apart, each against the default
    # plan: stacks of one, one stack in one slice, in slices of one, in uneven
    # slices, and uneven stacks in uneven slices.
    PLANS = [(1, 1), (10**9, 10**9), (10**9, 1), (10**9, 8), (13, 5)]
    COMMANDS = {
        "audit": (["audit-random", "--n", "3", "--samples", "35", "--seed", "5"], [35]),
        "fig6": (["emit-figure", "--figure", "fig6", "--grid", "2001"], [2001]),
        "sweep": (["sweep-depolarizing", "--d", "2,3,4", "--grid", "101"], [101] * 3),
    }

    @pytest.mark.parametrize("stack, part", PLANS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_does_not_depend_on_stack_boundaries(
        self, tmp_path, monkeypatch, command, stack, part
    ):
        # Every row is built per sample, so the bytes are those of the default
        # plan whatever the stacks and the slices of their transfers.
        args, counts = self.COMMANDS[command]
        default, planned = tmp_path / "default.txt", tmp_path / "planned.txt"
        stacks, slices = record_plan(monkeypatch)
        assert main(args + ["--out", str(default)]) == 0
        if command == "audit":  # one stack, its transfer in slices of 17 and 18
            assert (stacks, slices) == ([35], [17, 18])
        else:  # the grids span several stacks, and some stack several slices
            assert len(slices) > len(stacks) > len(counts)
        stacks.clear()
        slices.clear()
        stack_plan(monkeypatch, stack, part)
        assert main(args + ["--out", str(planned)]) == 0
        assert stacks == [size for count in counts for size in near_equal(count, stack)]
        assert slices == [size for count in stacks for size in near_equal(count, part)]
        assert planned.read_bytes() == default.read_bytes()

    @pytest.mark.parametrize("samples, stacks, slices", [
        (100, [100], [25] * 4),
        (1000, [100] * 10, [25] * 40),
        (106, [53, 53], [26, 27] * 2),
    ])
    def test_default_audit_runs_in_the_fewest_near_equal_stacks(
        self, tmp_path, monkeypatch, samples, stacks, slices
    ):
        # n = 3, d = 2, d_env = 4 stacks hold at most 105 samples, and each
        # transfer runs in the fewest near-equal slices that fit beside its stack.
        assert proctensor.processes._stack_size(3, 2, 4) == 105
        planned = record_plan(monkeypatch)
        out = tmp_path / "audit.txt"
        args = ["audit-random", "--n", "3", "--samples", str(samples), "--out", str(out)]
        assert main(args) == 0
        assert planned == (stacks, slices)

    def test_audit_peak_memory_does_not_grow_with_the_sample_count(self, tmp_path):
        # 3000 samples run in 29 stacks and peak as one stack of 105 does: neither
        # the previous stack's arrays nor the plan are held while the next is drawn.
        out = tmp_path / "audit.txt"
        main(["audit-random", "--n", "3", "--samples", "9", "--out", str(out)])  # imports
        peaks = []
        for samples in ("105", "3000"):
            tracemalloc.start()
            try:
                assert main(["audit-random", "--n", "3", "--samples", samples, "--out", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, many = peaks
        assert one <= proctensor.processes._STACK_BYTES
        assert many <= 1.02 * one, (one, many)

    def test_negative_seed_named(self, capsys):
        assert main(["audit-random", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_failing_generic_sample_counts_once(self, tmp_path, monkeypatch):
        # Sample 1 gets no certificate, in its stack and when it is rebuilt
        # alone, so the exact hierarchy decides it, and fails; the other
        # samples are audited as they are alone.
        alone = [audit_bounds(correlation_report(random_process(RandomSpec(2, 2, 4, 3 + k))))
                 for k in (0, 2, 3, 4)]
        real_certificate = proctensor.processes._unitarity_certificate

        def uncertified(residuals, env):
            upper = real_certificate(residuals, env)
            upper[1 if len(upper) > 1 else 0] = 1.0
            return upper

        monkeypatch.setattr(proctensor.processes, "_unitarity_certificate", uncertified)
        monkeypatch.setattr(proctensor.processes, "_level_residuals", lambda levels, d: [0.25] * 2)
        out = tmp_path / "audit.txt"
        argv = ["audit-random", "--n", "2", "--samples", "5", "--seed", "3", "--out", str(out)]
        assert main(argv) == 1
        fields = dict(ln.split(" = ") for ln in out.read_text().splitlines())
        assert fields["violations"] == "1"
        assert float(fields["worst_causality_residual"]) == 0.25
        names = ("unordered", "ordered", "max_nonmarkov", "markov_tradeoff", "total_tradeoff")
        expected = {name: min(min(a.slack(name)) for a in alone) for name in names}
        for name, slack in expected.items():
            assert float(fields[f"min_slack_{name}"]) == pytest.approx(slack, abs=1e-12)


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys):
        # main builds its parser once. Each call below changes its output
        # when a value of the call before it (tolerance, --out, --d) carries
        # over; a fresh parser per call is the reference.
        spec = write_spec(tmp_path, haar_spec_doc(4))
        out = tmp_path / "out.txt"
        calls = [
            # With no environment N is 0 and every M_j is 2 ln d, so the
            # unordered slacks are -N, rounding-level: violations at tol 0 only.
            ["audit-random", "--n", "2", "--denv", "1", "--samples", "7", "--tol", "0"],
            ["audit-random", "--n", "2", "--denv", "1", "--samples", "7"],
            ["verify", "--in", str(spec), "--tol", "0"],
            ["verify", "--in", str(spec)],
            ["emit-figure", "--figure", "fig2", "--d", "2,3", "--grid", "3"],
            ["emit-figure", "--figure", "fig2", "--grid", "3"],
        ]

        def fresh(argv):
            args = build_parser().parse_args(argv)
            return args.func(args)

        def run(call):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                call(["audit-random", "--tol", "-1"])
            results = [(exc.value.code, capsys.readouterr().err)]
            for argv in calls:
                out.unlink(missing_ok=True)
                results.append((call(argv + ["--out", str(out)]), out.read_bytes()))
                results.append((call(argv), capsys.readouterr().out))
            return results

        reused = run(main)
        assert reused == run(fresh)
        assert reused[0][0] == 2
        assert b"violations = 7" in reused[1][1] and b"violations = 0" in reused[3][1]


class TestVerifyCommand:
    def test_spec_file_passes(self, tmp_path):
        spec_path = tmp_path / "proc.json"
        spec_path.write_text(json.dumps(cnot_swap_spec_doc()))
        assert main(["verify", "--in", str(spec_path)]) == 0

    def test_entangled_choi_fails(self, tmp_path, capsys):
        phi = max_entangled_state(4)
        bad = DensityMatrix(phi.mat, (2, 2, 2, 2))
        path = tmp_path / "bad_choi.txt"
        save_choi(bad, path)
        assert main(["verify", "--in", str(path)]) == 1
        assert "causality_pass = False" in capsys.readouterr().out

    def test_all_mixed_choi_passes(self, tmp_path):
        path = tmp_path / "mixed.txt"
        save_choi(maximally_mixed((2, 2, 2, 2)), path)
        assert main(["verify", "--in", str(path)]) == 0

    def test_choi_with_eigenvalues_below_psd_passes(self, tmp_path):
        # Eigenvalues 0.9e-10, below DEFAULT_TOL.psd, stay in the factor, so every
        # marginal keeps unit trace and the hierarchy passes.
        e = 0.9e-10
        phi = max_entangled_state(2).mat
        path = tmp_path / "choi.txt"
        save_choi(DensityMatrix((1 - 3 * e) * phi + e * (np.eye(4) - phi), (2, 2)), path)
        assert main(["verify", "--in", str(path)]) == 0


    def test_env_trace_off_one_gives_one_verdict_on_both_routes(self, tmp_path, capsys):
        # A spec and the Choi file of its process get the same verdict. The
        # cases: exact unitaries on an environment of trace 1 + 9e-11, whose
        # base residual of 4.5e-11 fails 1e-11; a Haar circuit; and a circuit
        # about 1e-11 off unitary. The last two run at 0, the default, and a
        # tolerance between their generic worst residual and their
        # certificate, where the spec falls back to the generic hierarchy.
        off_one = cnot_swap_spec_doc()
        off_one["env"] = complex_to_pairs(np.diag([0.5 + 9e-11, 0.5]))
        leaky = seeded_circuit_spec(3, 2, 2, 145, "maximally-mixed", leak=1e-11)
        leaky_doc = {
            "n": 3,
            "d": 2,
            "d_env": 2,
            "env_init": "maximally-mixed",
            "unitaries": [complex_to_pairs(u) for u in leaky.unitaries],
        }
        for doc, tols in [
            (off_one, {None: 0, "1e-11": 1}),
            (haar_spec_doc(5), {None: 0, "0": 1, "between": 0}),
            (leaky_doc, {None: 0, "0": 1, "between": 0}),
        ]:
            spec_path = write_spec(tmp_path, doc)
            loose = build_from_circuit(load_process_spec(spec_path), 1.0)
            choi_path = tmp_path / "choi.txt"
            save_choi(loose.state, choi_path)
            if "between" in tols:
                generic, bound = verify_causality(loose.state, 1.0).worst, loose.causality.worst
                tols[repr((generic + bound) / 2)] = tols.pop("between")
                assert generic < (generic + bound) / 2 < bound
            for tol, code in tols.items():
                argv = [] if tol is None else ["--tol", tol]
                for path in (spec_path, choi_path):
                    assert main(["verify", "--in", str(path)] + argv) == code
                    assert f"causality_pass = {code == 0}" in capsys.readouterr().out

    def test_trace_leak_names_the_unitary(self, tmp_path, capsys):
        # Each unitary is about 5.4e-11 off unitary, within DEFAULT_TOL.eig,
        # but four steps move the Choi state's trace by 1.2e-10, beyond
        # DEFAULT_TOL.tr; the usage error names the unitary of the largest
        # unitarity residual, with that residual.
        spec = seeded_circuit_spec(4, 2, 1, 0, "maximally-mixed", leak=2.7e-11)
        residuals = unitarity_residual(np.array(spec.unitaries))
        j = int(np.argmax(residuals))
        doc = {
            "n": 4,
            "d": 2,
            "d_env": 1,
            "env_init": "maximally-mixed",
            "unitaries": [complex_to_pairs(u) for u in spec.unitaries],
        }
        assert main(["verify", "--in", str(write_spec(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "factor trace" in err
        assert f"unitary {j} the most (unitarity residual {residuals[j]:.3e})" in err


class TestTolerance:
    def test_zero_tolerance_is_honoured_by_verify(self, tmp_path, capsys):
        path = write_spec(tmp_path, haar_spec_doc(5))
        assert main(["verify", "--in", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--tol", "0"]) == 1
        assert "causality_pass = False" in capsys.readouterr().out

    def test_analyze_loose_tolerance_passes(self, tmp_path):
        path = write_spec(tmp_path, haar_spec_doc(6))
        out = tmp_path / "report.txt"
        assert main(["analyze", "--in", str(path), "--tol", "1e-6", "--out", str(out)]) == 0
        assert "causality_pass = True" in out.read_text()

    def test_analyze_failed_hierarchy_exits_one(self, tmp_path):
        path = write_spec(tmp_path, haar_spec_doc(7))
        out = tmp_path / "report.txt"
        assert main(["analyze", "--in", str(path), "--tol", "0", "--out", str(out)]) == 1
        lines = out.read_text().splitlines()
        assert lines[-1] == "causality_pass = False"
        assert all(ln.startswith("causality_") for ln in lines)

    @pytest.mark.parametrize(
        "argv, default",
        [
            (["analyze", "--in", "x"], DEFAULT_TOL.causal),
            (["verify", "--in", "x"], DEFAULT_TOL.causal),
            (["audit-random"], DEFAULT_TOL.xcheck),
        ],
    )
    def test_default_tolerance_per_command(self, argv, default):
        assert build_parser().parse_args(argv).tol == default

    @pytest.mark.parametrize(
        "argv",
        [
            ["emit-figure", "--figure", "fig6", "--grid", "3"],
            ["emit-figure", "--figure", "fig2", "--grid", "3"],
            ["sweep-depolarizing", "--grid", "3"],
        ],
    )
    def test_tolerance_rejected_where_unread(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--tol", "0", "--out", str(tmp_path / "out.csv")])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "x"])
    def test_invalid_tolerance_is_usage_error(self, tol, capsys):
        with pytest.raises(SystemExit) as info:
            main(["audit-random", "--samples", "1", "--tol", tol])
        assert info.value.code == 2
        assert "--tol" in capsys.readouterr().err


def _spec_doc_with(**fields) -> dict:
    return {**cnot_swap_spec_doc(), **fields}


class TestInputRefusals:
    """Each input refusal a command reaches: exit 2, one error line, no traceback."""

    @pytest.mark.parametrize("command", ["verify", "analyze"])
    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "top-level document must be an object"),
        (_spec_doc_with(env="abc"), "field 'env' is not a nested [re, im] array"),
        (_spec_doc_with(env=[[1, 0], [0, 0]]),
         "field 'env' must be a square matrix of [re, im] pairs, got shape (2, 2)"),
        (_spec_doc_with(env=complex_to_pairs(np.eye(1))),
         "field 'env' has dimension 1, expected 2"),
        (_spec_doc_with(env=complex_to_pairs(np.eye(2))),
         "field 'env' is not a valid density matrix: trace (2+0j) deviates from 1 beyond 1.0e-10"),
        (_spec_doc_with(unitaries=cnot_swap_spec_doc()["unitaries"][:1]),
         "field 'unitaries' must list exactly n = 2 matrices"),
    ])
    def test_spec_file_refusal(self, tmp_path, capsys, command, doc, message):
        path = tmp_path / "proc.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--in", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["audit-random", "--samples", "0"], "--samples must be >= 1"),
        (["audit-random", "--n", "0", "--samples", "1"], "invalid (n, d, d_env) = (0, 2, 4)"),
    ])
    def test_command_refusal(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("dims, message", [
        ("x", "not a comma-separated dimension list: 'x'"),
        ("2,1", "dimensions must be >= 2: '2,1'"),
    ])
    def test_dimension_list_refusal(self, capsys, dims, message):
        # argparse prints its usage, then one error line, and exits 2.
        with pytest.raises(SystemExit) as info:
            main(["sweep-depolarizing", "--d", dims, "--grid", "3"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"proctensor sweep-depolarizing: error: argument --d: {message}"]
        assert "Traceback" not in err

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep-depolarizing", "--grid", "3", "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"I/O error: [Errno 2] No such file or directory: '{out}'\n"


class TestDenseCap:
    """The dense cap binds only where a Choi state is formed."""

    @staticmethod
    def swap_chain_doc(n: int) -> dict:
        return {
            "n": n,
            "d": 2,
            "d_env": 2,
            "env_init": "maximally-mixed",
            "unitaries": [complex_to_pairs(swap_unitary(2))] * n,
        }

    def test_audit_beyond_the_dense_cap_runs(self, tmp_path):
        out = tmp_path / "audit.txt"
        assert main(["audit-random", "--n", "9", "--samples", "1", "--out", str(out)]) == 0
        assert "violations = 0" in out.read_text()

    def test_spec_beyond_the_dense_cap(self, tmp_path, capsys):
        # The certificate decides at the default tolerance, and analyze reads
        # the transfer. At 1e-14 and 0 the certificate cannot decide, and the
        # exact hierarchy is read from the same transfer: its residuals are
        # 0 in exact arithmetic and about 1e-15 in rounding. Only the
        # 2^24-row Choi state is beyond the cap.
        path = write_spec(tmp_path, self.swap_chain_doc(12))
        out = tmp_path / "report.txt"
        assert main(["verify", "--in", str(path)]) == 0
        assert main(["analyze", "--in", str(path), "--out", str(out)]) == 0
        fields = dict(ln.split(" = ") for ln in out.read_text().splitlines())
        assert float(fields["non_markov"]) == pytest.approx(22 * LN2, abs=1e-10)
        capsys.readouterr()
        assert main(["verify", "--in", str(path), "--tol", "1e-14"]) == 0
        assert "causality_pass = True" in capsys.readouterr().out
        assert main(["verify", "--in", str(path), "--tol", "0"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "causality_pass = False" in lines
        residuals = [ln for ln in lines if ln.startswith("causality_residual[")]
        assert len(residuals) == 12
        assert max(float(ln.split(" = ")[1]) for ln in residuals) <= 1e-14
        pt = build_from_circuit(load_process_spec(path))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionLimitError):
                pt.state
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_audit_beyond_the_cap_holds_no_dense_state(self, tmp_path):
        # At n = 12 a slot state would have d^(2n) = 2^24 rows; the stacks of
        # the transfer hold a few factors of side d_env r per sample.
        out = tmp_path / "audit.txt"
        main(["audit-random", "--n", "1", "--samples", "1", "--out", str(out)])  # parser, imports
        tracemalloc.start()
        try:
            assert main(["audit-random", "--n", "12", "--samples", "2", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_audit_forms_no_state_beyond_two_slots(self, tmp_path, monkeypatch):
        # The stack's environments are one factor array: the audit forms no
        # state at all, of any slot count.
        seen = count_states(monkeypatch)
        out = tmp_path / "audit.txt"
        assert main(["audit-random", "--n", "5", "--samples", "2", "--out", str(out)]) == 0
        assert seen == []
        maximally_mixed(2)
        assert seen == [(2,)]  # the recorder is live


class TestVerifyOnce:
    def test_audit_checks_each_sample_once(self, tmp_path, monkeypatch):
        chains, generic = [], []
        real_levels = proctensor.processes._level_residuals
        real_verify = proctensor.processes.verify_causality

        def counting_levels(levels, d):
            chains.append(d)
            return real_levels(levels, d)

        def counting_verify(state, tol):
            generic.append(tol)
            return real_verify(state, tol)

        # the CLI's own binding counts too, so a second check would show
        monkeypatch.setattr(proctensor.processes, "_level_residuals", counting_levels)
        monkeypatch.setattr(proctensor.processes, "verify_causality", counting_verify)
        monkeypatch.setattr(proctensor.cli, "verify_causality", counting_verify)
        out = tmp_path / "audit.txt"
        assert main(["audit-random", "--n", "2", "--samples", "3", "--out", str(out)]) == 0
        # passing samples are certified from their unitaries: no hierarchy
        # chain and no generic check runs
        assert chains == []
        assert generic == []

    def test_audit_counts_failed_hierarchy_as_violation(self, tmp_path, monkeypatch):
        kernel = []
        real_levels = proctensor.processes._level_residuals

        def counting_levels(levels, d):
            kernel.append(d)
            return real_levels(levels, d)

        # at tolerance 0 both the certificate and the exact hierarchy fail;
        # the one tolerance builds the stacks and judges their rows
        at_zero = dataclasses.replace(DEFAULT_TOL, causal=0.0)
        monkeypatch.setattr(proctensor.processes, "DEFAULT_TOL", at_zero)
        monkeypatch.setattr(proctensor.processes, "_level_residuals", counting_levels)
        out = tmp_path / "audit.txt"
        assert main(["audit-random", "--n", "2", "--samples", "3", "--out", str(out)]) == 1
        assert kernel == [2] * 3  # one hierarchy per sample, from its transfer
        fields = dict(ln.split(" = ") for ln in out.read_text().splitlines())
        assert fields["violations"] == "3"
        assert 0.0 < float(fields["worst_causality_residual"]) <= 1e-9


class TestAnalyzeChoiFile:
    """``analyze`` opens a Choi file by the rule ``verify`` does (``io.load_process``)."""

    SPECS = {
        "swap-n3-d2": lambda: swap_chain_process(3, 2).spec,
        "swap-n2-d3": lambda: swap_chain_process(2, 3).spec,
        "cnot-swap": lambda: cnot_swap_process().spec,
        "nm-depolarizing-0.5": lambda: nm_depolarizing_process(0.5).spec,
        "nm-depolarizing-1": lambda: nm_depolarizing_process(1.0).spec,
        "haar-n1": lambda: seeded_circuit_spec(1, 2, 4, 31, "seeded-random"),
        "haar-n2-d3": lambda: seeded_circuit_spec(2, 3, 2, 32, "pure-ground"),
        "haar-n3": lambda: seeded_circuit_spec(3, 2, 4, 33, "maximally-mixed"),
        "haar-n4": lambda: seeded_circuit_spec(4, 2, 2, 34, "seeded-random"),
        "haar-n3-leaky": lambda: seeded_circuit_spec(3, 2, 2, 35, "maximally-mixed", leak=1e-11),
        "haar-n2-trace-off": lambda: seeded_circuit_spec(
            2, 2, 2, 36, "seeded-random", env_trace=1 - 2e-11
        ),
    }

    @pytest.mark.parametrize("name", SPECS)
    @pytest.mark.parametrize("tol", [None, "0", "1e-15"])
    def test_choi_report_matches_the_spec_report(self, tmp_path, capsys, name, tol):
        spec = self.SPECS[name]()
        spec_path, choi_path = tmp_path / "proc.json", tmp_path / "proc.choi"
        spec_path.write_text(json.dumps({
            "n": spec.n, "d": spec.d, "d_env": spec.d_env,
            "env": complex_to_pairs(spec.env_state.mat),
            "unitaries": [complex_to_pairs(u) for u in spec.unitaries],
        }))
        save_choi(build_from_circuit(spec, math.inf).state, choi_path)
        extra = [] if tol is None else ["--tol", tol]
        codes, reports = [], []
        for path in (spec_path, choi_path):
            codes.append(main(["analyze", "--in", str(path), *extra]))
            reports.append([ln.split(" = ") for ln in capsys.readouterr().out.splitlines()])
        assert codes[0] == codes[1]
        spec_lines, choi_lines = reports
        assert [k for k, _ in spec_lines] == [k for k, _ in choi_lines]
        for (key, a), (_, b) in zip(spec_lines, choi_lines):
            if a in ("True", "False"):
                assert a == b, key
            elif key.startswith("causality_") and float(a) > float(b) + 1e-12:
                # where the certificate decides, a spec prints upper bounds on
                # the exact residuals that a Choi file prints
                assert codes[0] == 0 and tol is None, key
            else:
                assert float(a) == pytest.approx(float(b), abs=1e-12), key

    def test_analyze_choi_prints_report_and_audit(self, tmp_path, capsys):
        path = tmp_path / "chain.choi"
        save_choi(swap_chain_process(4, 2).state, path)
        assert main(["analyze", "--in", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "causality_pass = True" in lines
        fields = dict(ln.split(" = ") for ln in lines)
        assert float(fields["non_markov"]) == pytest.approx(6 * LN2, abs=1e-12)  # N_max at n = 4
        assert float(fields["markov"]) == pytest.approx(0.0, abs=1e-12)
        assert lines[-1] == "bounds_pass = True"
        assert main(["analyze", "--in", str(path), "--tol", "0"]) == 1
        assert "causality_pass = False" in capsys.readouterr().out

    def test_non_causal_choi_prints_only_the_causality_lines(self, tmp_path, capsys):
        path = tmp_path / "noncausal.choi"
        save_choi(DensityMatrix(max_entangled_state(4).mat, (2, 2, 2, 2)), path)
        assert main(["analyze", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[-1] == "causality_pass = False"
        assert all(ln.startswith("causality_") for ln in lines)
        assert main(["verify", "--in", str(path)]) == 1
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("edit", [
        lambda ls: ls.__setitem__(0, "proctensor-choi n=2 d=2 slots=o1,i0,o2,i1"),
        lambda ls: ls.__setitem__(0, "proctensor-choi n=2 d=2"),
        lambda ls: ls.__setitem__(0, "proctensor-choi n=0 d=2 slots="),
        lambda ls: ls.__setitem__(0, "proctensor-choi n=2 d=1 slots=i0,o1,i1,o2"),
        lambda ls: ls.__setitem__(0, "proctensor-choi n=1000000 d=2 slots=i0"),
        lambda ls: ls.__setitem__(0, "proctensor-choi n=two d=2 slots=i0,o1,i1,o2"),
        lambda ls: ls.__setitem__(6, ls[6].rsplit(" ", 1)[0]),
        _retoken(5, 3, "abc"),
        lambda ls: ls.insert(6, ""),
        lambda ls: ls.append(ls[-1]),
        lambda ls: ls.pop(),
        _retoken(2, 0, "nan"),
    ], ids=["slots", "no-slots", "n-zero", "d-one", "huge", "n-text",
            "short-row", "non-numeric", "blank-between", "row-too-many", "row-too-few", "nan"])
    def test_header_and_row_errors_exit_two_as_in_verify(self, tmp_path, capsys, edit):
        path = tmp_path / "choi.txt"
        save_choi(cnot_swap_process().state, path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--in", str(path)]) == 2
        verify = capsys.readouterr()
        assert main(["analyze", "--in", str(path)]) == 2
        analyze = capsys.readouterr()
        assert verify.out == analyze.out == ""
        assert analyze.err == verify.err
        assert analyze.err.startswith("error: ") and len(analyze.err.splitlines()) == 1


class TestBoundedSpecAllocation:
    @pytest.mark.parametrize("env", [
        {}, {"env_init": "maximally-mixed"}, {"env_init": "pure-ground"},
        {"env_init": "seeded-random", "seed": 3},
    ])
    @pytest.mark.parametrize("command", ["verify", "analyze"])
    def test_unitary_side_is_checked_before_the_environment(self, tmp_path, capsys, env, command):
        # d_env = 1000 would build an environment of 1000^2 entries (8 MB and
        # more) before the fix; the unitaries' side is checked first.
        path = write_spec(tmp_path, {"n": 1, "d": 2, "d_env": 1000, **env,
                                     "unitaries": [[[[1, 0]]]]})
        main(["verify", "--in", str(path)])  # warm the parser and the imports
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main([command, "--in", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "'unitaries'" in err and "expected (2000, 2000)" in err
        assert peak < 2**20

    def test_bad_env_is_still_named_before_the_unitaries(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"n": 1, "d": 2, "d_env": 2, "env_init": "nope",
                                     "unitaries": [[[[1, 0]]]]})
        assert main(["verify", "--in", str(path)]) == 2
        assert "'env_init'" in capsys.readouterr().err


class TestMemoryError:
    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)",
         "error: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)\n"),
        ("", "error: MemoryError\n"),
    ])
    def test_memory_error_exits_two_with_one_line(self, monkeypatch, capsys, message, printed):
        # The callee raises as numpy would; no large allocation is requested.
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(proctensor.cli, "random_processes", refuse)
        assert main(["audit-random", "--n", "3", "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == printed

    def test_memory_error_while_loading_exits_two(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(proctensor.io, "load_process_spec", refuse)
        path = write_spec(tmp_path, haar_spec_doc(1))
        for command in ("verify", "analyze"):
            assert main([command, "--in", str(path)]) == 2
            assert capsys.readouterr().err == "error: MemoryError\n"
