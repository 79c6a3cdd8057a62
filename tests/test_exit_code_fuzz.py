"""The command line's exit-code contract under fuzzed input.

argv is drawn from build_parser()'s own subcommands, flags and choices, and
configuration files from RunConfig's fields plus junk lines, each value valid
or not. main must return 0, 2, 3 or 4 and raise nothing but argparse's
SystemExit(2). Every run stays tiny: a structured mesh of at most 2 x 2
cells or a mesh file of at most two cells, t_end <= 1e-3, and at most a few
steps, capped by the max_steps of the configuration file.
"""

from hypothesis import given, settings, strategies as st

from tridg.cli import build_parser, main
from tridg.config import RunConfig
from tridg.problems import PROBLEMS

SQUARE = "4 2 4\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
MESH_FILES = {
    "tagged.txt": SQUARE + "0 1 OUT\n1 2 IN\n2 3 WALL\n3 0 EXACT\n",
    "outflow.txt": SQUARE + "0 1 OUT\n1 2 OUT\n2 3 OUT\n3 0 OUT\n",
    "empty.txt": "0 0 0\n",
    "three_vertices.txt": "3 0 0\n0 0\n1 0\n0 1\n",
    "short_header.txt": "4 2\n",
}

JUNK_LINES = ["junk", "= 1", "unknown = 1", "k = 1 = 2", "k =", "# note",
              "   ", "k\t= 2", "problem = \xe9"]

# flags every draw of a command carries, so that each run stays tiny; any
# other flag or field is set in one draw of three
SOMETIMES = st.sampled_from([False, False, True])
# a value outside its flag's or field's valid set, and a junk line in a
# configuration file, in one draw of ten: most draws of run reach the solver
RARELY = st.sampled_from([False] * 9 + [True])
ALWAYS = {"run": {"config", "gen", "problem", "tend"},
          "convergence": {"problem", "tend"}}


def value_pools(tmp):
    """(valid, invalid) candidate values, as text, per flag dest and
    RunConfig field without choices; each valid one keeps a run tiny."""
    return {
        "config": ([str(tmp / "run.cfg")],
                   [str(tmp / "missing.cfg"), str(tmp)]),
        "problem": (sorted(PROBLEMS), ["no_such_problem", ""]),
        "k": (["1", "2", "3", "4"], ["0", "5", "-1", "x"]),
        "mesh": ([str(tmp / "tagged.txt"), str(tmp / "outflow.txt")],
                 [str(tmp / name) for name in MESH_FILES
                  if name not in ("tagged.txt", "outflow.txt")]
                 + [str(tmp / "missing.txt"), str(tmp), ""]),
        "gen": (["2,2", "1,2", "2,1"], ["0,2", "2", "x,y", "2,2,2", ""]),
        "level": (["0", "1"], ["-1", "x"]),
        "tend": (["0", "1e-4", "1e-3"], ["-1", "nan", "inf", "-inf", "x"]),
        "cfl": (["0.5", "1", "4"], ["0", "-1", "nan", "inf", "x"]),
        "out": ([str(tmp / "out" / "p"), ""],
                [str(tmp / "missing" / "p"), str(tmp / "out")]),
        "output_times": (["", "0", "5e-4", "1e-3", "0,1e-3"],
                         ["0.5", "nan", "x", "0,,1"]),
        "sample_grid": (["0", "1", "3"], ["-1", "x"]),
        "max_steps": (["1", "3"], ["0", "-1", "x"]),
        "levels": (["1", "2"], ["0", "-1", "x"]),
        "count": (["1", "5"], ["0", "-1", "x"]),
        "seed": (["0", "7"], ["-1", "x"]),
        "vertices": (["0,0,1,0,0,1", "0,0,0,1,1,0", "0,0,1e200,0,0,1e200",
                      "0,0,1e-150,0,0,1e-150"],
                     ["0,0,1,1,2,2", "0,0,1,0,0,nan", "0,0,1,0,inf,1",
                      "0,0,1,0", "x", ""]),
    }


def subcommands():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return sub.choices


def values(draw, action, pools, dest):
    """One candidate value of a flag, or of the RunConfig field dest when
    action is None. A flag with choices takes one of them or a value
    outside them."""
    if action is not None and action.choices is not None:
        valid, invalid = [str(c) for c in action.choices], ["bogus"]
    else:
        valid, invalid = pools[dest]
    return draw(st.sampled_from(invalid if draw(RARELY) else valid))


@st.composite
def argvs(draw, commands, pools):
    # run, the command with the most flags, in four draws of seven
    command = draw(st.sampled_from(["run"] * 3 + sorted(commands)))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if (action.dest in ALWAYS.get(command, ()) or action.required
                or draw(SOMETIMES)):
            argv += [action.option_strings[0],
                     values(draw, action, pools, action.dest)]
    if draw(RARELY):
        argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


@st.composite
def config_texts(draw, run_flags, pools):
    """A max_steps line that caps the run, then RunConfig fields and junk."""
    lines = [f"{name} = {values(draw, run_flags.get(name), pools, name)}"
             for name, _, _ in RunConfig.FIELDS if draw(SOMETIMES)]
    if draw(RARELY):
        lines.append(draw(st.sampled_from(JUNK_LINES)))
    return "\n".join(["max_steps = 3"] + draw(st.permutations(lines))) + "\n"


def test_exit_codes_under_fuzzed_arguments(tmp_path, monkeypatch):
    # a run without --out writes into the working directory
    monkeypatch.chdir(tmp_path)
    for name, text in MESH_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "out").mkdir()
    pools = value_pools(tmp_path)
    commands = subcommands()
    run_flags = {a.dest: a for a in commands["run"]._actions}

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=500)
    @given(argvs(commands, pools), config_texts(run_flags, pools))
    def check(argv, config):
        (tmp_path / "run.cfg").write_text(config)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, config)
        else:
            assert code in (0, 2, 3, 4), (argv, config)

    check()
