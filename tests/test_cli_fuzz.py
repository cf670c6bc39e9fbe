"""Seeded payload fuzzing of the CLI contract.

Each subcommand gets a valid payload, which is then mutated about 80
times: keys and list entries are dropped, and values anywhere in the
document, the document itself included, are swapped for numbers, floats,
bools, strings, nulls, lists or objects.  Whatever the input, a run must
exit 0, 1 or 2, print exactly one ``ha/1`` JSON line (with an ``error``
key on exit 2) and no traceback, and print the same bytes when rerun.

The numeric flags get the same treatment with negative and non-numeric
values, each of which is an input error: exit 2 and one ``error``
document.  Huge values are left out, as nothing bounds their cost yet.
"""

import copy
import json
import random

import pytest

from hacalc.cli import run

MUTATIONS = 80

VALID = {
    "graph": (["graph", "@"],
              {"vertices": ["v", "w"],
               "edges": [{"s": "v", "r": "w"}, {"s": "w", "r": "v"},
                         {"s": "v", "r": "v"}]}),
    "xcomplex": (["xcomplex", "--truncate", "3", "--algebra", "@"],
                 {"kind": "plane_curve", "f_coeffs": [0, -1, 0, 1]}),
    "derham": (["derham", "--truncate", "4", "--algebra", "@"],
               {"kind": "laurent", "generators": ["t"]}),
    "lift": (["lift", "--order", "1", "--cap", "2", "--algebra", "@"],
             {"kind": "polynomial", "generators": ["t"]}),
    "idem": (["idem", "--matrix", "@"], {"matrix": [[1, 0], [0, 0]]}),
    "groebner": (["groebner", "@"],
                 {"vars": ["x", "y"],
                  "gens": [[{"e": [1, 0], "c": 2}, {"e": [0, 1], "c": 3}],
                           [{"e": [0, 2], "c": 1}]]}),
    "tube": (["tube", "--samples", "2", "--level", "1", "--algebra", "@"],
             {"kind": "free", "generators": ["a", "b"]}),
}

JUNK = [0, 1, -1, 2, 3, 7, -5, 0.5, 2.0, -1.5, True, False, None,
        "", "x", "t", "v", "free", "laurent", "polynomial", "plane_curve",
        [], [0], [1, -1], ["x"], ["a", "b"], [[1]], [[1, 0], [0, 1]],
        [{"s": "v", "r": "v"}], [{"e": [1], "c": 2}],
        {}, {"s": "v"}, {"e": [1, 0], "c": 2}, {"kind": "free"}]


def _slots(doc, path=()):
    """Paths to every value of ``doc``, the document itself first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _slots(value, path + (key,))


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 1, 2, 3))):
        path = rng.choice(list(_slots(doc)))
        junk = copy.deepcopy(rng.choice(JUNK))
        if not path:
            doc = junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.3:
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    return doc


@pytest.mark.parametrize("command", list(VALID))
def test_mutated_payloads_keep_the_cli_contract(command, tmp_path, capsys):
    argv, payload = VALID[command]
    path = tmp_path / "payload.json"
    argv = ["--prime", "5"] + [str(path) if a == "@" else a for a in argv]
    rng = random.Random(sum(command.encode()))
    for i in range(MUTATIONS):
        doc = payload if i == 0 else _mutate(payload, rng)
        path.write_text(json.dumps(doc))
        where = f"{command} payload {json.dumps(doc)}"
        outs = []
        for _ in range(2):
            code = run(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), where
            assert "Traceback" not in out + err, where
            assert out.count("\n") == 1 and out.endswith("\n"), where
            report = json.loads(out)
            assert report["schema"] == "ha/1", where
            assert code != 2 or "error" in report, where
            outs.append(out)
        assert outs[0] == outs[1], where


#: Each numeric flag with the commands that read it.  The payloads are the
#: valid ones above; --prime and --precision go to a command that reads
#: nothing else.
FLAG_COMMANDS = {
    "--truncate": ("xcomplex", "derham"),
    "--order": ("lift",),
    "--cap": ("lift",),
    "--level": ("tube",),
    "--samples": ("tube", "check"),
    "--precision": ("idem", "check"),
    "--prime": ("tube", "check"),
}
BAD_VALUES = ("-1", "-7", "x", "", "1.5", "3e2", "0x10", "seven")


@pytest.mark.parametrize("flag,command", [
    (flag, command) for flag, commands in FLAG_COMMANDS.items()
    for command in commands])
def test_bad_flag_values_are_input_errors(flag, command, tmp_path, capsys):
    if command == "check":
        argv, payload = ["check", "--suite", "floors"], None
    else:
        argv, payload = VALID[command]
    path = tmp_path / "payload.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    argv = [str(path) if a == "@" else a for a in argv]
    for value in BAD_VALUES:
        full = argv + [flag, value]
        if flag != "--prime":
            full += ["--prime", "5"]
        outs = []
        for _ in range(2):
            code = run(full)
            out, err = capsys.readouterr()
            assert code == 2, full
            assert "Traceback" not in out + err, full
            assert out.count("\n") == 1 and out.endswith("\n"), full
            report = json.loads(out)
            assert report["schema"] == "ha/1" and "error" in report, full
            outs.append(out)
        assert outs[0] == outs[1], full
