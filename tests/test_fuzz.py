"""Fuzzed inputs: random generator specs, OBJ text and manifest JSON.

The loaders may reject an input only with ValueError or OSError, and the
CLI's render and validate may only exit 0 or 2: exit 3 is a defect, and
so is a validate exit 1 on a scene the loaders accept.
Every example is derandomised and the counts are fixed, so the run is
deterministic.  Well-formed generator sizes stay at most 16, so no run
meets a long tie stack."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftbtrace import GENERATORS, load_obj, make_scene, scene_from_manifest
from ftbtrace.cli import main

_FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

# ------------------------------------------------------------ generator specs

_VALID_SPECS = st.one_of(
    st.builds("coplanar:n={}".format, st.integers(1, 16)),
    st.builds("coplanar:n={}:same_t={}".format, st.integers(1, 16), st.sampled_from(["true", "false", "TRUE"])),
    st.builds("abutting:k={}".format, st.integers(2, 16)),
    st.builds("grid:m={}".format, st.integers(1, 16)),
    st.sampled_from(["adversarial", "leaf-reorder"]),
)
_JUNK = st.sampled_from(["", "x", "true", "1.5", "-", " 3", "0x10", "1e3", "=", "n=2", "99999", "-1"])
_KEY = st.one_of(st.sampled_from(["n", "k", "m", "same_t", "seed", ""]), st.text("nkmst_=", max_size=3))
_PART = st.one_of(st.builds("{}={}".format, _KEY, st.one_of(st.integers(-2, 16).map(str), _JUNK)), _JUNK)
_NAME = st.one_of(st.sampled_from(sorted(GENERATORS)), st.text("acdgilnoprt-", max_size=6))
_SPECS = st.one_of(
    _VALID_SPECS,
    _VALID_SPECS,
    st.builds(lambda name, parts: ":".join([name, *parts]), _NAME, st.lists(_PART, max_size=3)),
)

# ------------------------------------------------------------------- OBJ text

_COORD = st.one_of(st.floats(-4.0, 4.0, width=32), st.sampled_from([0.0, -0.0, 3e38]))
_NUMBER_TEXT = st.one_of(
    _COORD.map(repr), st.sampled_from(["1e39", "-3e38", "nan", "inf", "1e-46", "x", "", "0x1"]),
)
_INDEX_TEXT = st.one_of(st.integers(-5, 6).map(str), st.sampled_from(["1/2/3", "2//1", "a", "", "1.5"]))
_JUNK_OBJ_LINE = st.one_of(
    st.builds(lambda xs: " ".join(["v", *xs]), st.lists(_NUMBER_TEXT, min_size=2, max_size=4)),
    st.builds(lambda ixs: " ".join(["f", *ixs]), st.lists(_INDEX_TEXT, min_size=2, max_size=5)),
    st.sampled_from(["# comment", "vn 0 0 1", "vt 0 0", "o name", "s off", "", "f", "v", "\ufeffv 0 0 0"]),
)


@st.composite
def _obj_texts(draw):
    """A well-formed OBJ (1-based, negative and slashed face indices), half
    the time with one junk line inserted."""
    verts = draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=3, max_size=6))
    n = len(verts)
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in verts]
    for face in draw(st.lists(st.lists(st.integers(1, n), min_size=3, max_size=4), min_size=1, max_size=4)):
        refs = [draw(st.sampled_from([str(i), str(i - n - 1), f"{i}/1/1"])) for i in face]
        lines.append(" ".join(["f", *refs]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_OBJ_LINE))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- manifest JSON

_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-4.0, 4.0), st.sampled_from([1e39, float("nan")]),
    st.sampled_from(["", "x", "mesh.obj"]),
)
_ANY = st.recursive(_SCALAR, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                    st.dictionaries(st.text("abc", max_size=2), inner, max_size=2)),
                    max_leaves=6)
# a JSON integer of 2**128 or more once reached the binary32 pack as an int
_NUM = st.one_of(st.integers(-2, 2), st.floats(-4.0, 4.0, width=32),
                 st.sampled_from([1e300, -1e-300, 3e38, 1e30, 2 ** 128, -10 ** 400]))
_VEC3 = st.lists(_NUM, min_size=3, max_size=3)
_MESH = st.one_of(
    st.fixed_dictionaries({
        "vertices": st.lists(_VEC3, min_size=3, max_size=5),
        "indices": st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=1, max_size=3),
    }),
    st.fixed_dictionaries({"path": st.sampled_from(["mesh.obj", "mesh.obj", "missing.obj", "", "."])}),
)
_INSTANCE = st.fixed_dictionaries(
    {"geometries": st.lists(st.integers(0, 2), min_size=1, max_size=2)},
    optional={"transform": st.lists(st.lists(_NUM, min_size=4, max_size=4), min_size=3, max_size=3)},
)
_CAMERA = st.fixed_dictionaries(
    {"position": _VEC3, "look_at": _VEC3, "fov_y": st.floats(1.0, 179.0)}, optional={"up": _VEC3},
)
_VALID_MANIFEST = st.fixed_dictionaries(
    {
        "meshes": st.lists(_MESH, min_size=1, max_size=2),
        "geometries": st.lists(
            st.fixed_dictionaries({"mesh": st.integers(0, 1), "sbtOffset": st.integers(0, 3)}), min_size=1, max_size=3,
        ),
        "instances": st.lists(_INSTANCE, min_size=1, max_size=3),
    },
    optional={"camera": _CAMERA, "name": st.text("ab", max_size=2)},
)


def _slots(node):
    """(container, key) of every value below a JSON node."""
    keys = range(len(node)) if isinstance(node, list) else list(node) if isinstance(node, dict) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def _manifests(draw):
    """A manifest of the right shape, half the time with one value anywhere
    in it (the document itself included) replaced by any JSON value."""
    holder = {"doc": draw(_VALID_MANIFEST)}
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(list(_slots(holder))))
        node[key] = draw(_ANY)
    return holder["doc"]


_OBJ_TEXT = _obj_texts()
_MANIFEST = _manifests()

_MESH_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def _dir(tmp_path_factory, name):
    """One directory per test, reused by all its examples."""
    path = tmp_path_factory.getbasetemp() / name
    path.mkdir(exist_ok=True)
    (path / "mesh.obj").write_text(_MESH_OBJ)
    return path


def _loads(loader, *args):
    """Run a loader; only ValueError or OSError may reject its input."""
    try:
        loader(*args)
    except (ValueError, OSError):
        pass


@_FUZZ
@given(_SPECS)
def test_make_scene_raises_only_value_errors(spec):
    _loads(make_scene, spec)


@_FUZZ
@given(_OBJ_TEXT)
def test_load_obj_raises_only_value_or_os_errors(tmp_path_factory, text):
    path = _dir(tmp_path_factory, "fuzz-obj") / "fuzz.obj"
    path.write_text(text)
    _loads(load_obj, str(path))


@_FUZZ
@given(_MANIFEST)
def test_scene_from_manifest_raises_only_value_or_os_errors(tmp_path_factory, doc):
    _loads(scene_from_manifest, json.loads(json.dumps(doc)), str(_dir(tmp_path_factory, "fuzz-manifest")))


def _exit_code(argv):
    """main's exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


def _scene_args(base, source, value):
    """The CLI's scene option for one fuzzed input, written under base."""
    if source == "gen":
        return [f"--gen={value}"]
    path = base / ("scene.obj" if source == "obj" else "scene.json")
    path.write_text(value if source == "obj" else json.dumps(value))
    return ["--scene", str(path)]


@settings(_FUZZ, max_examples=120)
@given(
    st.one_of(
        st.tuples(st.just("gen"), _SPECS),
        st.tuples(st.just("obj"), _OBJ_TEXT),
        st.tuples(st.just("manifest"), _MANIFEST),
    ),
    st.sampled_from(["render", "validate"]),
)
@example(("gen", "coplanar:n=16"), "validate")
@example(("gen", ""), "render")  # an empty --gen once fell through to --scene: exit 3
# a geometry listed twice in one instance once made every correct kernel
# fail validation: exit 1
@example(("manifest", {"meshes": [{"path": "mesh.obj"}], "geometries": [{"mesh": 0, "sbtOffset": 0}],
                       "instances": [{"geometries": [0, 0]}]}), "validate")
def test_cli_never_exits_3(tmp_path_factory, case, command):
    base = _dir(tmp_path_factory, "fuzz-cli")
    argv = [command, *_scene_args(base, *case), "--size", "2x2"]
    if command == "render":
        argv += ["--out", str(base / "out.ppm"), "--stats", str(base / "stats.csv")]
    else:
        argv += ["--report", str(base / "report.json")]
    code, err = _exit_code(argv)
    # render never finds differences, and validate has no reason to on a
    # scene the loaders accept
    assert code in (0, 2), err
