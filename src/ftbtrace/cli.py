"""Command-line test rig: render, compare, validate, bench.

Exit codes: 0 all checks pass, 1 a check found differences or violations,
2 usage, input or I/O error, 3 internal error (a defect in ftbtrace).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bvh import BuildOptions, build_scene
from .kernels import CORRECT_KERNELS, parse_kernel
from .render import (
    compare_kernels,
    parse_user_code,
    render_image,
    resolve_camera,
    run_validation,
    stats_csv,
)
from .scene import load_manifest, load_obj, make_scene, single_mesh_scene, whole_number


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scene", help="OBJ file or JSON scene manifest")
    src.add_argument(
        "--gen",
        help="procedural scene, e.g. coplanar:n=8:same_t=true, abutting:k=5, "
        "grid:m=3, adversarial, leaf-reorder",
    )
    p.add_argument("--size", default="64x48", help="image size WxH (default 64x48)")
    p.add_argument("--prim-order", default="asgiven", help="asgiven or permuted:SEED (tree build order)")
    p.add_argument("--leaf-size", help="tree leaf size override")


def _prim_order(text: str):
    """The build's permute seed; None for asgiven."""
    order = text.lower()
    if order != "asgiven" and not order.startswith("permuted:"):
        raise ValueError("must be asgiven or permuted:SEED")
    return None if order == "asgiven" else whole_number(order[len("permuted:"):])


# validate holds every camera ray and its reference result before any
# kernel runs and every kernel's base runs until they are checked; with
# seeds it then frees the reference results and the base tree, so a seed
# adds only its own runs: about 1.14 KB a pixel without seeds and 1.16 KB
# with one on grid:m=12 at 256x256 (tracemalloc peak), some 1.2 GB at this
# cap, which stays because the base pass still holds all of that at once
_MAX_PIXELS = 1 << 20


def _size(text: str):
    w, h = (whole_number(n, 1) for n in text.lower().partition("x")[::2])
    if w * h > _MAX_PIXELS:
        raise ValueError(f"{w}x{h} is more than {_MAX_PIXELS} pixels (1024x1024)")
    return w, h


def _kernel_id(text: str) -> str:
    parse_kernel(text)
    return text


# the parser of each option's text, in the order they are checked
_PARSERS = {
    "kernel": _kernel_id,
    "kernels": lambda text: list(dict.fromkeys(map(_kernel_id, text.split(","))) if text else CORRECT_KERNELS),
    "size": _size,
    "prim_order": _prim_order,
    "leaf_size": lambda text: whole_number(text, 1),
    "seeds": lambda text: [whole_number(s) for s in text.split(",")] if text else [],
    "user_code": parse_user_code,
}


def _setup(args) -> argparse.Namespace:
    """Check every option value the command takes, raising a ValueError led
    by the option's name, and only then load the scene, apply the build
    options and resolve the camera.  Returns the parsed values by argparse
    name (None if absent), with ``scene`` and ``cam``."""
    run = argparse.Namespace()
    for name, parse in _PARSERS.items():
        text = getattr(args, name, None)
        try:
            setattr(run, name, None if text is None else parse(text))
        except ValueError as exc:
            raise ValueError(f"--{name.replace('_', '-')}: {exc}") from None
    if args.gen is not None:
        scene = make_scene(args.gen)
    elif args.scene.lower().endswith(".json"):  # S.JSON is a manifest too
        scene = load_manifest(args.scene)
    else:
        scene = single_mesh_scene(load_obj(args.scene), name=args.scene)
        scene.validate()  # before the framing, which a bad vertex would break
    leaf = run.leaf_size or scene.build_options.leaf_size
    scene.build_options = BuildOptions(leaf_size=leaf, permute_seed=run.prim_order)
    run.scene, run.cam = scene, resolve_camera(scene, *run.size)
    return run


def _cmd_render(args) -> int:
    run = _setup(args)
    img, stats = render_image(build_scene(run.scene), run.cam, run.kernel, run.user_code)
    with open(args.out, "wb") as fh:
        fh.write(img)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(stats_csv([(run.kernel, stats)]))
    print(f"wrote {args.out} ({run.cam.width}x{run.cam.height}), {stats.traces} traces")
    return 0


def _cmd_compare(args) -> int:
    run = _setup(args)
    rep = compare_kernels(build_scene(run.scene), run.cam, run.kernels, run.user_code)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for k in run.kernels:
            name = k.replace(":", "_")
            with open(os.path.join(args.out_dir, f"{name}.ppm"), "wb") as fh:
                fh.write(rep.images[k])
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(rep.csv())
    for k in run.kernels:
        print(f"{k}: {rep.diff_pixels[k]} pixels differ from {run.kernels[0]}")
    return 0 if rep.all_identical else 1


def _cmd_validate(args) -> int:
    run = _setup(args)
    status, report = run_validation(run.scene, run.kernels, run.cam, seeds=run.seeds)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for k, v in report["kernels"].items():
        bad = {n: c["violations"] for n, c in v["checks"].items() if c["violations"]}
        print(f"{k}: {'ok' if v['ok'] else f'violations {bad}'}", file=sys.stderr)
    return status


def _cmd_bench(args) -> int:
    # wall time on a CPU emulator says nothing about GPU cost; informational only
    run = _setup(args)
    built = build_scene(run.scene)
    print(f"{'kernel':<22} {'seconds':>8}  traces")
    for k in run.kernels:
        start = time.perf_counter()
        _, stats = render_image(built, run.cam, k, run.user_code)
        print(f"{k:<22} {time.perf_counter() - start:>8.3f}  {stats.traces}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ftbtrace", description="Front-to-back any-hit traversal test rig")
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="render a pseudo-color visit-count image")
    _add_scene_args(r)
    r.add_argument("--kernel", default="while-while")
    r.add_argument("--user-code", default="countall",
                   help="countall | maxdepth:N | probdepth:N[:SEED]")
    r.add_argument("--out", required=True, help="output PPM (P6) path")
    r.add_argument("--stats", help="output stats CSV path")
    r.set_defaults(fn=_cmd_render)

    c = sub.add_parser("compare", help="render several kernels and diff the images")
    _add_scene_args(c)
    c.add_argument("--kernels", required=True, help="comma-separated kernel ids")
    c.add_argument("--user-code", default="countall")
    c.add_argument("--out-dir", help="directory for per-kernel PPM images")
    c.add_argument("--stats", help="output stats CSV path")
    c.set_defaults(fn=_cmd_compare)

    v = sub.add_parser("validate", help="check kernels against the brute-force reference")
    _add_scene_args(v)
    v.add_argument("--kernels", default="", help="comma-separated kernel ids (default: all correct ones)")
    v.add_argument("--seeds", default="", help="comma-separated rebuild seeds for stability checks")
    v.add_argument("--report", help="write the JSON report here instead of stdout")
    v.set_defaults(fn=_cmd_validate)

    b = sub.add_parser("bench", help="wall-clock per kernel (informational)")
    _add_scene_args(b)
    b.add_argument("--kernels", default="", help="comma-separated kernel ids")
    b.add_argument("--user-code", default="countall")
    b.set_defaults(fn=_cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug; never exit 1 with a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
