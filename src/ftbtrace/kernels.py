"""Front-to-back any-hit traversal kernels.

Every kernel iterates the hits along one ray strictly front to back without
losing hits that share a distance, using nothing but repeated traces,
interval surgery on t_min/t_max, and any-hit verdicts -- exactly the toolbox
a hardware pipeline exposes.  A kernel frequently tells the pipeline the
opposite of what it thinks: it OptiX-rejects a hit it stores (so the
pipeline cannot cull that hit's distance ties) and OptiX-accepts hits it
discards (so the traversal interval still shrinks).  That looks wrong and
is intentional.

All kernels drive a common ``user_code(hit, ctx, prd)`` callback through one
delivery object; `ctx` is the full pipeline hit state for kernels whose user
code sees a live or committed hit, and None for the stable kernels, which
can only hand out the stored identity tuple.  reject-repeats and the
multi-hit kernel additionally expose resumable iterators so callers can do
arbitrary work between hits.

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
from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Optional

from .bvh import BuiltScene
from .floatstep import just_above, just_below
from .hitorder import HitDesc, less, order_key
from .pipeline import AhVerdict, HitContext, TraceConfig, TraceFlags, TraceStats, trace


class Step(Enum):
    CONTINUE = auto()
    STOP = auto()


@dataclass
class FtbReport:
    """What one kernel run delivered, in delivery order."""

    hits: list
    stopped_early: bool
    stats: TraceStats
    batches: Optional[list] = None  # multi-hit only: delivered batch sizes


def _desc(ctx: HitContext) -> HitDesc:
    return HitDesc(ctx.t, ctx.prim, ctx.geom, ctx.inst)


class _Delivery:
    """The prd every kernel hands hits to user code through.

    ``found`` is where `_record_closest_hit` leaves a trace's committed hit.
    """

    __slots__ = ("user_code", "user_prd", "stats", "hits", "stopped", "found")

    def __init__(self, user_code, user_prd, stats):
        self.user_code = user_code
        self.user_prd = user_prd
        self.stats = stats if stats is not None else TraceStats()
        self.hits = []
        self.stopped = False
        self.found = None

    def deliver(self, hit, ctx) -> bool:
        """Run user code on one hit; returns whether it asked to stop."""
        self.hits.append(hit)
        self.stats.user_code_calls += 1
        if self.user_code(hit, ctx, self.user_prd) is Step.STOP:
            self.stopped = True
        return self.stopped

    def report(self, batches=None) -> FtbReport:
        return FtbReport(self.hits, self.stopped, self.stats, batches)


def _record_closest_hit(ctx, prd):
    prd.found = ctx


def _deliver_any_hit(ctx, prd):
    if prd.deliver(_desc(ctx), ctx):
        return AhVerdict.TERMINATE_ACCEPT
    # OptiX-reject, so the delivered hit's distance ties keep coming
    return AhVerdict.IGNORE


_DELIVER_CFG = TraceConfig(any_hit=_deliver_any_hit, flags=TraceFlags.DISABLE_CLOSESTHIT)
_FEELER_CFG = TraceConfig(closest_hit=_record_closest_hit, flags=TraceFlags.DISABLE_ANYHIT)


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
    if _desc(ctx) == prd.skip_hit:
        # the anchor hit is skipped by identity, never by count: a t_min
        # change may have reordered the traversal since it was delivered
        return AhVerdict.IGNORE
    if prd.skip_left == 0:
        return AhVerdict.ACCEPT
    prd.skip_left -= 1
    return AhVerdict.IGNORE


_RR_CFG = TraceConfig(any_hit=_rr_any_hit, closest_hit=_record_closest_hit)


def iter_reject_repeats(built: BuiltScene, ray, stats: TraceStats):
    """Hits in nondecreasing distance order, disambiguating ties by skip
    counting in traversal order; yields (HitDesc, HitContext).

    The committed hit of each trace is the delivery.  Repeated traces at one
    distance keep the identical interval, so their traversal order -- and
    with it the skip count -- is consistent; only the anchor hit, delivered
    under a different t_min, needs the identity guard.
    """
    prd = _RejectRepeatsPrd()
    next_tmin = ray.t_min
    next_skip = 0
    while True:
        prd.found = None
        prd.skip_left = next_skip
        trace(built, ray._replace(t_min=next_tmin), _RR_CFG, prd, stats)
        ctx = prd.found
        if ctx is None:
            return
        got = _desc(ctx)
        yield got, ctx
        if got.t > prd.skip_hit.t:
            # new distance: re-anchor and count skips from zero again
            # (the anchor itself is skipped by identity, on top of the count)
            next_tmin = just_below(got.t)
            next_skip = 0
            prd.skip_hit = got
        else:
            next_skip += 1


def run_reject_repeats(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    d = _Delivery(user_code, user_prd, stats)
    for hit, ctx in iter_reject_repeats(built, ray, d.stats):
        if d.deliver(hit, ctx):
            break
    return d.report()


# ------------------------------------------------ while-while, ah-only, ch-only

def _feeler_hits(built: BuiltScene, ray, d: _Delivery):
    """Committed hits of plain closest-hit traces (any-hit disabled), each
    trace starting at the previous hit's distance.

    Because the new t_min equals (not just_below) the last distance, the
    rest of that distance group is skipped: one hit per distance, nearest
    distance first.
    """
    t_lo = ray.t_min
    while True:
        d.found = None
        trace(built, ray._replace(t_min=t_lo), _FEELER_CFG, d, d.stats)
        ctx = d.found
        if ctx is None:
            return
        yield ctx
        t_lo = ctx.t  # anything strictly beyond the finished distance


def run_while_while(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """Feeler rays find each next hit distance; executor rays enumerate it.

    Each feeler's result sets the executor's interval to
    (just_below(t), just_above(t)) -- an interval containing exactly one
    representable binary32 value, so the executor's any-hit program fires
    for precisely the hits at that distance, and OptiX-rejecting each keeps
    every distance tie coming.
    """
    d = _Delivery(user_code, user_prd, stats)
    for ctx in _feeler_hits(built, ray, d):
        t = ctx.t
        trace(built, ray._replace(t_min=just_below(t), t_max=just_above(t)), _DELIVER_CFG, d, d.stats)
        if d.stopped:
            break
    return d.report()


def run_ah_only(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """The while-while executor over the whole user interval: one trace.

    Finds every hit but delivers them in traversal order, which need not be
    ascending in distance; kept as the fast-but-unordered reference.
    """
    d = _Delivery(user_code, user_prd, stats)
    trace(built, ray, _DELIVER_CFG, d, d.stats)
    return d.report()


def run_ch_only(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """The while-while feeler loop, delivering each committed hit itself.

    Exactly one hit per distance survives; kept as the simple-but-lossy
    reference.
    """
    d = _Delivery(user_code, user_prd, stats)
    for ctx in _feeler_hits(built, ray, d):
        if d.deliver(_desc(ctx), ctx):
            break
    return d.report()


# --------------------------------------------------------------- while-merged

class _WhileMergedPrd(_Delivery):
    __slots__ = ("t_exec",)

    def __init__(self, user_code, user_prd, stats):
        super().__init__(user_code, user_prd, stats)
        self.t_exec = -1.0  # no distance promoted yet; below every t_min >= 0


def _wm_any_hit(ctx, prd):
    if ctx.t != prd.t_exec:
        # feeler part: accept silently so t_max homes in on the next
        # distance; user code must not see these
        return AhVerdict.ACCEPT
    return _deliver_any_hit(ctx, prd)


_WM_CFG = TraceConfig(any_hit=_wm_any_hit, closest_hit=_record_closest_hit)


def run_while_merged(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """Single trace per distance: executor and feeler merged into one ray.

    The any-hit program runs user code only at the distance promoted from
    the previous trace's committed hit and OptiX-rejects those, while every
    other (strictly farther) hit is accepted without user code so the
    committed hit becomes the next distance.  Costs far more any-hit calls
    than while-while, which is the point of comparing them.
    """
    if ray.t_min < 0.0:
        raise ValueError("while-merged needs t_min >= 0 (negative sentinel values)")
    prd = _WhileMergedPrd(user_code, user_prd, stats)
    cur_tmin = ray.t_min
    while True:
        prd.found = None
        trace(built, ray._replace(t_min=cur_tmin), _WM_CFG, prd, prd.stats)
        if prd.stopped or prd.found is None:
            break  # user code stopped, or no next distance
        prd.t_exec = prd.found.t
        cur_tmin = just_below(prd.t_exec)
    return prd.report()


# ------------------------------------------------ stable multi-hit, stable-next

class _MultiHitPrd:
    __slots__ = ("hit_min", "capacity", "buffer")

    def __init__(self, hit_min, capacity):
        self.hit_min = hit_min
        self.capacity = capacity
        self.buffer = []


def _mh_any_hit(ctx, prd):
    curr = _desc(ctx)
    if not less(prd.hit_min, curr):
        return AhVerdict.IGNORE  # already delivered in an earlier batch
    buf = prd.buffer
    if len(buf) < prd.capacity:
        insort(buf, curr, key=order_key)
        return AhVerdict.IGNORE
    if less(curr, buf[-1]):
        buf.pop()
        insort(buf, curr, key=order_key)
    if ctx.t > buf[-1].t:
        # strictly beyond a full buffer's worst distance: can never enter
        # this batch, so let the pipeline shrink
        return AhVerdict.ACCEPT
    # at the worst distance: rejecting keeps that distance group alive for
    # later, closer arrivals that may still evict into it
    return AhVerdict.IGNORE


_MH_CFG = TraceConfig(any_hit=_mh_any_hit, flags=TraceFlags.DISABLE_CLOSESTHIT)


def iter_multi_hit_batches(built: BuiltScene, ray, n: int, stats: TraceStats):
    """Batches of the next up-to-n hits in sorted order, resumable past ties.

    Each trace gathers the n smallest hits strictly greater (under the total
    order) than the last delivered hit, so a batch boundary can fall inside
    a distance group without losing or repeating its members.  With n = 1
    this is stable-next: each trace finds the next hit, and the re-trace
    starts at just_below(its distance) so its distance ties are still inside
    the valid interval.  Delivery order is independent of traversal order,
    hence stable across rebuilds.
    """
    if n < 1:
        raise ValueError("multi-hit capacity must be >= 1")
    hit_min = HitDesc(ray.t_min, -1, -1, -1)
    cur_tmin = ray.t_min
    while True:
        prd = _MultiHitPrd(hit_min, n)
        trace(built, ray._replace(t_min=cur_tmin), _MH_CFG, prd, stats)
        if not prd.buffer:
            return
        batch = prd.buffer
        yield batch
        hit_min = batch[-1]
        cur_tmin = just_below(hit_min.t)


def run_stable_multi_hit(built, ray, user_code, stats=None, user_prd=None, *, n: int) -> FtbReport:
    d = _Delivery(user_code, user_prd, stats)
    batches = []
    for batch in iter_multi_hit_batches(built, ray, n, d.stats):
        batches.append(len(batch))
        for hit in batch:
            if d.deliver(hit, None):
                return d.report(batches)
    return d.report(batches)


def run_stable_next(built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """stable-multi-hit:1 under its own name."""
    return run_stable_multi_hit(built, ray, user_code, stats, user_prd, n=1)


# -------------------------------------------------------------------- registry

class Kernel:
    """One registry entry: the runner, whether it delivers the exact sorted
    sequence, and its trace-count identity.

    ``counter_rule`` is a Python expression over the run's ``traces`` and
    ``ahCalls``, the reference's ``hits`` and distance ``groups``, and the
    capacity ``n``.  It is both the text validation reports and the check it
    runs.
    """

    __slots__ = ("run", "stable", "counter_rule", "n", "_check")

    def __init__(self, run: Callable, stable: bool, counter_rule: str, n: Optional[int] = None):
        self.run = run
        self.stable = stable
        self.counter_rule = counter_rule
        self.n = n  # default capacity for 'name:N'; None: the kernel takes no N
        self._check = compile(counter_rule, counter_rule, "eval")

    def counters_ok(self, stats: TraceStats, hits: int, groups: int, n: Optional[int]) -> bool:
        names = {"traces": stats.traces, "ahCalls": stats.ah_calls,
                 "hits": hits, "groups": groups, "n": n}
        return eval(self._check, {"ceil": math.ceil}, names)


KERNELS = {
    "stable-next": Kernel(run_stable_next, True, "traces == hits + 1"),
    "reject-repeats": Kernel(run_reject_repeats, False, "traces == hits + 1"),
    "while-while": Kernel(run_while_while, False, "traces == 2 * groups + 1 and ahCalls == hits"),
    "while-merged": Kernel(run_while_merged, False, "traces == groups + 1"),
    "stable-multi-hit": Kernel(run_stable_multi_hit, True, "traces == ceil(hits / n) + 1", n=4),
    "ah-only": Kernel(run_ah_only, False, "traces == 1"),
    "ch-only": Kernel(run_ch_only, False, "traces == groups + 1"),
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
    """Split 'name[:N]' into (Kernel, N); N is the multi-hit capacity, None
    for kernels that take no parameter."""
    name, _, arg = kernel_id.partition(":")
    kernel = KERNELS.get(name)
    if kernel is None:
        raise ValueError(f"unknown kernel {kernel_id!r}; choose from {sorted(KERNELS)}")
    if not arg:
        return kernel, kernel.n
    if kernel.n is None:
        raise ValueError(f"kernel {name!r} takes no parameter")
    return kernel, int(arg)


def run_kernel(kernel_id, built, ray, user_code, stats=None, user_prd=None) -> FtbReport:
    """Run a kernel by id string, e.g. 'while-while' or 'stable-multi-hit:4'."""
    if callable(kernel_id):
        return kernel_id(built, ray, user_code, stats=stats, user_prd=user_prd)
    kernel, n = parse_kernel(kernel_id)
    kwargs = {} if n is None else {"n": n}
    return kernel.run(built, ray, user_code, stats=stats, user_prd=user_prd, **kwargs)


def is_stable(kernel_id) -> bool:
    if not isinstance(kernel_id, str):
        return False
    kernel = KERNELS.get(kernel_id.partition(":")[0])
    return kernel is not None and kernel.stable
