"""Front-to-back any-hit traversal kernels.

Every kernel iterates the hits along one ray strictly front to back without
losing hits that share a distance, using nothing but repeated traces,
interval surgery on t_min/t_max, and any-hit verdicts -- exactly the toolbox
a hardware pipeline exposes.  A kernel frequently tells the pipeline the
opposite of what it thinks: it OptiX-rejects a hit it stores (so the
pipeline cannot cull that hit's distance ties) and OptiX-accepts hits it
discards (so the traversal interval still shrinks).  That looks wrong and
is intentional.

`run_kernel` is the one way to run a kernel.  It makes the `FtbReport` the
run delivers into and calls the registry entry's ``run(built, ray, rep)``
(``run(built, ray, rep, n)`` for a kernel that takes a capacity).  The
kernel traces with ``rep.stats`` and hands each hit to the user's
``user_code(hit, ctx, prd)`` through ``rep.deliver``; `ctx` is the full
pipeline hit state for kernels whose user code sees a live or committed
hit, and None for the stable kernels, which can only hand out the stored
identity tuple.

Several kernels are special cases of others:

* stable-next is stable-multi-hit:1, a one-hit buffer and one trace per hit;
* ah-only is the while-while executor run over the whole user interval
  instead of one binary32 value;
* ch-only is the while-while feeler loop without an executor: it delivers
  each feeler's committed hit itself.

Those two reference baselines are intentionally incorrect: ch-only misses
distance ties and ah-only delivers out of order.
"""

from __future__ import annotations

import math
from bisect import insort
from enum import Enum, auto
from functools import partial
from typing import Callable, Optional

from .bvh import BuiltScene
from .floatstep import just_above, just_below
from .geom import HitContext, HitDesc, Ray, less
from .pipeline import AhVerdict, TraceConfig, TraceStats, trace
from .scene import whole_number


class Step(Enum):
    CONTINUE = auto()
    STOP = auto()


class KernelStalled(RuntimeError):
    """A kernel loop's trace did not move past what it had delivered."""


class FtbReport:
    """One kernel run: the hits handed to user code, in delivery order,
    whether user code stopped the run, and the run's counters.

    A kernel delivers through `deliver` and traces with ``stats``;
    ``found`` is where `_record_closest_hit` leaves a trace's committed hit.
    """

    __slots__ = ("user_code", "user_prd", "stats", "hits", "stopped_early", "found")

    def __init__(self, user_code, stats=None, user_prd=None):
        self.user_code = user_code
        self.user_prd = user_prd
        self.stats = stats if stats is not None else TraceStats()
        self.hits = []
        self.stopped_early = False
        self.found = None

    def deliver(self, hit, ctx) -> bool:
        """Run user code on one hit; returns whether it asked to stop."""
        self.hits.append(hit)
        self.stats.user_code_calls += 1
        if self.user_code(hit, ctx, self.user_prd) is Step.STOP:
            self.stopped_early = True
        return self.stopped_early


def _desc(ctx: HitContext) -> HitDesc:
    return HitDesc(*ctx[:4])


def _record_closest_hit(ctx, prd):
    prd.found = ctx


def _deliver_any_hit(ctx, prd):
    if prd.deliver(_desc(ctx), ctx):
        return AhVerdict.TERMINATE_ACCEPT
    # OptiX-reject, so the delivered hit's distance ties keep coming
    return AhVerdict.IGNORE


_DELIVER_CFG = TraceConfig(any_hit=_deliver_any_hit)
_FEELER_CFG = TraceConfig(closest_hit=_record_closest_hit)


# ------------------------------------------------------------- reject-repeats

class _RejectRepeatsPrd:
    __slots__ = ("skip_hit", "skip_left", "found")

    def __init__(self):
        self.skip_hit = HitDesc(-math.inf, -1, -1, -1)
        self.skip_left = 0
        self.found = None


def _rr_any_hit(ctx, prd):
    if ctx.t > prd.skip_hit.t:
        return AhVerdict.ACCEPT  # first hit at a farther distance
    # now at the skip distance (the interval excludes anything nearer)
    if ctx[:4] == prd.skip_hit:
        # the anchor hit is skipped by identity, never by count: a t_min
        # change may have reordered the traversal since it was delivered
        return AhVerdict.IGNORE
    if prd.skip_left == 0:
        return AhVerdict.ACCEPT
    prd.skip_left -= 1
    return AhVerdict.IGNORE


_RR_CFG = TraceConfig(any_hit=_rr_any_hit, closest_hit=_record_closest_hit)


def _reject_repeats(built, ray, rep: FtbReport) -> None:
    """Hits in nondecreasing distance order, disambiguating ties by skip
    counting in traversal order; user code sees each with its HitContext.

    The committed hit of each trace is the delivery.  Repeated traces at one
    distance keep the identical interval, so their traversal order -- and
    with it the skip count -- is consistent; only the anchor hit, delivered
    under a different t_min, needs the identity guard.  A committed hit
    nearer than the anchor, or one already delivered on this ray, raises
    `KernelStalled`.
    """
    prd = _RejectRepeatsPrd()
    next_tmin = ray.t_min
    next_skip = 0
    delivered = set()  # every hit delivered on this ray
    while True:
        prd.found = None
        prd.skip_left = next_skip
        trace(built, Ray(ray.origin, ray.direction, next_tmin, ray.t_max), _RR_CFG, prd, rep.stats)
        ctx = prd.found
        if ctx is None:
            return
        got = _desc(ctx)
        if got.t < prd.skip_hit.t or got in delivered:
            # the trace did not move past what was delivered: skipping on
            # would deliver the same hits again and again
            raise KernelStalled(f"reject-repeats stalled: trace committed {got} again "
                                f"at t_min={next_tmin!r}, skip={next_skip}")
        delivered.add(got)
        if got.t > prd.skip_hit.t:
            # new distance: re-anchor and count skips from zero again
            # (the anchor itself is skipped by identity, on top of the count)
            next_tmin = just_below(got.t)
            next_skip = 0
            prd.skip_hit = got
        else:
            next_skip += 1
        if rep.deliver(got, ctx):
            return


# ------------------------------------------------ while-while, ah-only, ch-only

def _feeler_hits(built: BuiltScene, ray, rep: FtbReport):
    """Committed hits of plain closest-hit traces (any-hit disabled), each
    trace starting at the previous hit's distance.

    Because the new t_min equals (not just_below) the last distance, the
    rest of that distance group is skipped: one hit per distance, nearest
    distance first.
    """
    t_lo = ray.t_min
    while True:
        rep.found = None
        trace(built, Ray(ray.origin, ray.direction, t_lo, ray.t_max), _FEELER_CFG, rep, rep.stats)
        ctx = rep.found
        if ctx is None:
            return
        if not ctx.t > t_lo:
            raise KernelStalled(f"feeler stalled: trace committed t={ctx.t!r} at t_min={t_lo!r}")
        yield ctx
        t_lo = ctx.t  # anything strictly beyond the finished distance


def _while_while(built, ray, rep: FtbReport) -> None:
    """Feeler rays find each next hit distance; executor rays enumerate it.

    Each feeler's result sets the executor's interval to
    (just_below(t), just_above(t)) -- an interval containing exactly one
    representable binary32 value, so the executor's any-hit program fires
    for precisely the hits at that distance, and OptiX-rejecting each keeps
    every distance tie coming.
    """
    for ctx in _feeler_hits(built, ray, rep):
        t = ctx.t
        trace(built, Ray(ray.origin, ray.direction, just_below(t), just_above(t)), _DELIVER_CFG, rep, rep.stats)
        if rep.stopped_early:
            return


def _ah_only(built, ray, rep: FtbReport) -> None:
    """The while-while executor over the whole user interval: one trace.

    Finds every hit but delivers them in traversal order, which need not be
    ascending in distance; kept as the fast-but-unordered reference.
    """
    trace(built, ray, _DELIVER_CFG, rep, rep.stats)


def _ch_only(built, ray, rep: FtbReport) -> None:
    """The while-while feeler loop, delivering each committed hit itself.

    Exactly one hit per distance survives; kept as the simple-but-lossy
    reference.
    """
    for ctx in _feeler_hits(built, ray, rep):
        if rep.deliver(_desc(ctx), ctx):
            return


# --------------------------------------------------------------- while-merged

class _WhileMergedPrd:
    __slots__ = ("rep", "t_exec", "found")

    def __init__(self, rep: FtbReport):
        self.rep = rep
        self.t_exec = -1.0  # no distance promoted yet; below every t_min >= 0
        self.found = None


def _wm_any_hit(ctx, prd):
    if ctx.t != prd.t_exec:
        # feeler part: accept silently so t_max homes in on the next
        # distance; user code must not see these
        return AhVerdict.ACCEPT
    return _deliver_any_hit(ctx, prd.rep)


_WM_CFG = TraceConfig(any_hit=_wm_any_hit, closest_hit=_record_closest_hit)


def _while_merged(built, ray, rep: FtbReport) -> None:
    """Single trace per distance: executor and feeler merged into one ray.

    The any-hit program runs user code only at the distance promoted from
    the previous trace's committed hit and OptiX-rejects those, while every
    other (strictly farther) hit is accepted without user code so the
    committed hit becomes the next distance.  Costs far more any-hit calls
    than while-while, which is the point of comparing them.
    """
    if ray.t_min < 0.0:
        raise ValueError("while-merged needs t_min >= 0 (negative sentinel values)")
    prd = _WhileMergedPrd(rep)
    cur_tmin = ray.t_min
    while True:
        prd.found = None
        trace(built, Ray(ray.origin, ray.direction, cur_tmin, ray.t_max), _WM_CFG, prd, rep.stats)
        if rep.stopped_early or prd.found is None:
            return  # user code stopped, or no next distance
        # cur_tmin advances with the promoted distance; it may stay put once,
        # when the first distance is just_above(t_min)
        if not prd.found.t > prd.t_exec:
            raise KernelStalled(f"while-merged stalled: trace committed t={prd.found.t!r} "
                                f"after promoting t={prd.t_exec!r}")
        prd.t_exec = prd.found.t
        cur_tmin = just_below(prd.t_exec)


# ------------------------------------------------ stable multi-hit, stable-next

class _MultiHitPrd:
    __slots__ = ("hit_min", "capacity", "buffer")

    def __init__(self, hit_min, capacity):
        self.hit_min = hit_min
        self.capacity = capacity
        self.buffer = []


def _mh_any_hit(ctx, prd):
    # the buffer holds sort keys ctx[:4], plain tuples that compare as
    # HitDescs do: most candidates never reach a batch, so a desc is built
    # only for a delivered hit
    curr = ctx[:4]
    if not prd.hit_min < curr:
        return AhVerdict.IGNORE  # already delivered in an earlier batch
    buf = prd.buffer
    if len(buf) < prd.capacity:
        insort(buf, curr)
        return AhVerdict.IGNORE
    if curr < buf[-1]:
        buf.pop()
        insort(buf, curr)
    if ctx.t > buf[-1][0]:
        # strictly beyond a full buffer's worst distance: can never enter
        # this batch, so let the pipeline shrink
        return AhVerdict.ACCEPT
    # at the worst distance: rejecting keeps that distance group alive for
    # later, closer arrivals that may still evict into it
    return AhVerdict.IGNORE


_MH_CFG = TraceConfig(any_hit=_mh_any_hit)


def _stable_multi_hit(built, ray, rep: FtbReport, n: int) -> None:
    """Batches of the next up-to-n hits in sorted order, delivered in order.

    Each trace gathers the n smallest hits strictly greater (under the total
    order) than the last delivered hit, so a batch boundary can fall inside
    a distance group without losing or repeating its members.  With n = 1
    this is stable-next: each trace finds the next hit, and the re-trace
    starts at just_below(its distance) so its distance ties are still inside
    the valid interval.  Delivery order is independent of traversal order,
    hence stable across rebuilds.
    """
    hit_min = HitDesc(ray.t_min, -1, -1, -1)
    cur_tmin = ray.t_min
    while True:
        prd = _MultiHitPrd(hit_min, n)
        trace(built, Ray(ray.origin, ray.direction, cur_tmin, ray.t_max), _MH_CFG, prd, rep.stats)
        if not prd.buffer:
            return
        batch = [HitDesc(*key) for key in prd.buffer]
        if not less(hit_min, batch[-1]):
            raise KernelStalled(f"multi-hit stalled: batch ends at {batch[-1]} after {hit_min}")
        for hit in batch:
            if rep.deliver(hit, None):
                return
        hit_min = batch[-1]
        cur_tmin = just_below(hit_min.t)


# -------------------------------------------------------------------- registry

class Kernel:
    """One registry entry: the kernel body, whether it delivers the exact
    sorted sequence, and its trace-count identity.  A kernel is named by its
    id in ``KERNELS``; a custom kernel is one more entry.

    ``run(built, ray, rep)`` (``run(built, ray, rep, n)`` when ``n`` is set)
    runs the kernel on one ray.  It delivers each hit through
    ``rep.deliver(hit, ctx)``, which returns True once user code has asked
    to stop, traces with ``rep.stats``, and returns nothing; `run_kernel`
    makes ``rep`` and returns it.

    ``counter_rule`` is a Python expression over the run's ``traces`` and
    ``ahCalls``, the reference's ``hits`` and distance ``groups``, and the
    capacity ``n``.  It is both the text validation reports and the check it
    runs, compiled once into a function of those five names.
    """

    __slots__ = ("run", "stable", "counter_rule", "n", "_check")

    def __init__(self, run: Callable, stable: bool, counter_rule: str, n: Optional[int] = None):
        self.run = run
        self.stable = stable
        self.counter_rule = counter_rule
        self.n = n  # default capacity for 'name:N'; None: the kernel takes no N
        source = f"lambda traces, ahCalls, hits, groups, n: (\n{counter_rule}\n)"
        self._check = eval(compile(source, counter_rule, "eval"), {"ceil": math.ceil})

    def counters_ok(self, stats: TraceStats, hits: int, groups: int, n: Optional[int]) -> bool:
        return self._check(stats.traces, stats.ah_calls, hits, groups, n)


KERNELS = {
    "stable-next": Kernel(partial(_stable_multi_hit, n=1), True, "traces == hits + 1"),
    "reject-repeats": Kernel(_reject_repeats, False, "traces == hits + 1"),
    "while-while": Kernel(_while_while, False, "traces == 2 * groups + 1 and ahCalls == hits"),
    "while-merged": Kernel(_while_merged, False, "traces == groups + 1"),
    "stable-multi-hit": Kernel(_stable_multi_hit, True, "traces == ceil(hits / n) + 1", n=4),
    "ah-only": Kernel(_ah_only, False, "traces == 1"),
    "ch-only": Kernel(_ch_only, False, "traces == groups + 1"),
}

CORRECT_KERNELS = (
    "stable-next",
    "reject-repeats",
    "while-while",
    "while-merged",
    "stable-multi-hit:1",
    "stable-multi-hit:4",
    "stable-multi-hit:16",
)


def parse_kernel(kernel_id: str):
    """Split 'name[:N]' into (Kernel, N); N, a whole number at least 1
    (``scene.whole_number``), is the multi-hit capacity, None for kernels
    that take no parameter."""
    name, sep, arg = kernel_id.partition(":")
    kernel = KERNELS.get(name)
    if kernel is None:
        raise ValueError(f"unknown kernel {kernel_id!r}; choose from {sorted(KERNELS)}")
    if not sep:
        return kernel, kernel.n
    if kernel.n is None:
        raise ValueError(f"kernel {kernel_id!r}: {name} takes no parameter")
    try:
        return kernel, whole_number(arg, 1)
    except ValueError:
        raise ValueError(f"kernel {kernel_id!r}: N must be a whole number >= 1") from None


def run_kernel(kernel_id: str, built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """Run a kernel by id string, e.g. 'while-while' or 'stable-multi-hit:4',
    and return the report it delivered into.

    This is the one way to run a kernel.  ``user_code(hit, ctx, user_prd)``
    sees each delivered hit and may return ``Step.STOP``.  The run counts
    into ``stats`` when it is given, and the report's ``stats`` is that
    object.
    """
    kernel, n = parse_kernel(kernel_id)
    rep = FtbReport(user_code, stats, user_prd)
    if n is None:
        kernel.run(built, ray, rep)
    else:
        kernel.run(built, ray, rep, n)
    return rep


def is_stable(kernel_id: str) -> bool:
    return parse_kernel(kernel_id)[0].stable
