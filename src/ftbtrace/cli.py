"""Command-line test rig: render, compare, validate, bench.

Exit codes: 0 all checks pass, 1 a check found differences or violations,
2 usage, input or I/O error, 3 internal error (a defect in ftbtrace).
"""

from __future__ import annotations

import argparse
import json
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
from .scene import load_manifest, load_obj, make_scene, single_mesh_scene


def _add_scene_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scene", help="OBJ file or JSON scene manifest")
    src.add_argument(
        "--gen",
        help="procedural scene, e.g. coplanar:n=8:same_t=true, abutting:k=5, "
        "grid:m=3, adversarial, leaf-reorder",
    )
    p.add_argument("--size", default="64x48", help="image size WxH (default 64x48)")
    p.add_argument(
        "--prim-order",
        default="asgiven",
        help="asgiven or permuted:SEED (tree build order)",
    )
    p.add_argument("--leaf-size", type=int, default=None, help="tree leaf size override")


def _parse_size(s: str):
    w, _, h = s.lower().partition("x")
    width, height = int(w), int(h)
    if width < 1 or height < 1:
        raise ValueError("size must be at least 1x1")
    return width, height


def _load_scene(args):
    if args.gen:
        scene = make_scene(args.gen)
    else:
        path = args.scene
        if path.endswith(".json"):
            scene = load_manifest(path)
        else:
            scene = single_mesh_scene(load_obj(path), name=path)
    opts = scene.build_options
    leaf = args.leaf_size if args.leaf_size is not None else opts.leaf_size
    order = args.prim_order.lower()
    if order == "asgiven":
        seed = None
    elif order.startswith("permuted:"):
        seed = int(order.split(":", 1)[1])
    else:
        raise ValueError("--prim-order must be asgiven or permuted:SEED")
    scene.build_options = BuildOptions(leaf_size=leaf, permute_seed=seed)
    return scene


def _kernel_ids(args) -> list:
    """--kernel, or --kernels split at commas (default: every correct
    kernel), each checked by ``parse_kernel`` before any work starts."""
    if "kernel" in vars(args):
        kernels = [args.kernel]
    else:
        kernels = args.kernels.split(",") if args.kernels else list(CORRECT_KERNELS)
    for k in kernels:
        parse_kernel(k)
    return kernels


def _cmd_render(args) -> int:
    [kernel] = _kernel_ids(args)
    scene = _load_scene(args)
    width, height = _parse_size(args.size)
    cam = resolve_camera(scene, width, height)
    built = build_scene(scene)
    spec = parse_user_code(args.user_code)
    img, stats = render_image(built, cam, kernel, spec, threads=args.threads)
    with open(args.out, "wb") as fh:
        fh.write(img)
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(stats_csv([(kernel, stats)]))
    print(f"wrote {args.out} ({width}x{height}), {stats.traces} traces")
    return 0


def _cmd_compare(args) -> int:
    kernels = _kernel_ids(args)
    scene = _load_scene(args)
    width, height = _parse_size(args.size)
    cam = resolve_camera(scene, width, height)
    built = build_scene(scene)
    spec = parse_user_code(args.user_code)
    rep = compare_kernels(built, cam, kernels, spec, threads=args.threads)
    if args.out_dir:
        import os

        os.makedirs(args.out_dir, exist_ok=True)
        for k in kernels:
            name = k.replace(":", "_")
            with open(os.path.join(args.out_dir, f"{name}.ppm"), "wb") as fh:
                fh.write(rep.images[k])
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(rep.csv())
    base = kernels[0]
    for k in kernels:
        print(f"{k}: {rep.diff_pixels[k]} pixels differ from {base}")
    return 0 if rep.all_identical else 1


def _cmd_validate(args) -> int:
    kernels = _kernel_ids(args)
    scene = _load_scene(args)
    width, height = _parse_size(args.size)
    cam = resolve_camera(scene, width, height)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    status, report = run_validation(scene, kernels, cam, seeds=seeds)
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
    kernels = _kernel_ids(args)
    scene = _load_scene(args)
    width, height = _parse_size(args.size)
    cam = resolve_camera(scene, width, height)
    built = build_scene(scene)
    spec = parse_user_code(args.user_code)
    print(f"{'kernel':<22} {'seconds':>8}  traces")
    for k in kernels:
        start = time.perf_counter()
        _, stats = render_image(built, cam, k, spec, threads=args.threads)
        dt = time.perf_counter() - start
        print(f"{k:<22} {dt:>8.3f}  {stats.traces}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ftbtrace",
        description="Front-to-back any-hit traversal test rig",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("render", help="render a pseudo-color visit-count image")
    _add_scene_args(r)
    r.add_argument("--kernel", default="while-while")
    r.add_argument("--user-code", default="countall",
                   help="countall | maxdepth:N | probdepth:N:SEED")
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
    v.add_argument("--kernels", help="comma-separated kernel ids (default: all correct ones)")
    v.add_argument("--seeds", help="comma-separated rebuild seeds for stability checks")
    v.add_argument("--report", help="write the JSON report here instead of stdout")
    v.set_defaults(fn=_cmd_validate)

    b = sub.add_parser("bench", help="wall-clock per kernel (informational)")
    _add_scene_args(b)
    b.add_argument("--kernels", help="comma-separated kernel ids")
    b.add_argument("--user-code", default="countall")
    b.set_defaults(fn=_cmd_bench)

    for rendering in (r, c, b):
        rendering.add_argument("--threads", type=int, default=1, help="render worker threads")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug; never exit 1 with a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
