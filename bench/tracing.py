"""Tracing from outside bcsys: spans at layer entry points, counters at hot leaves.

The tracer replaces public bcsys functions with wrappers while it is
installed and puts the originals back when removed. A function is
replaced under every name a bcsys module binds it to (``esys`` calls
``validate_fincat`` through its own imported binding, so wrapping only
``core.validate_fincat`` would miss that call). ``FinCat.hom`` and
``FinCat.comp`` are replaced on the class.

- A span target records one span per call: id, name, job, parent span,
  start and end.
- A leaf target is called too often for a span per call; it adds to a
  call count and to its seconds instead.
- A counted target only adds to its call count.

Every timed wrapper also keeps exclusive time per module (time inside
the call minus time inside nested timed calls), which gives each
module's share of a pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

SPANS = (
    "esys.validate_esystem",
    "esys.check_pairing",
    "esys.validate_sfunctor",
    "esys.internal_hom_cat",
    "core.validate_fincat",
    "csys.validate_csystem",
    "cesys.validate_cesystem",
    "bsys.validate_bsystem",
    "bsys.validate_bsystem_hom",
    "xlate.b_to_e",
    "xlate.e_to_ce",
    "xlate.ce_to_c",
    "xlate.c_to_ce",
    "xlate.ce_to_e",
    "xlate.e_to_b",
    "xlate.casce_iso",
    "xlate.unit_ehom",
    "xlate.invert_ehom",
    "xlate.compose_equivalence",
    "xlate.grand_roundtrip_iso",
    "serialize.load_structure",
    "serialize.save_structure",
    "cli.main",
)
LEAVES = (
    "esys.compose_sf",
    "esys.sf_equal",
    "esys.restrict_sf",
    "esys.slice_mors",
    "csys.check_pullback_square",
    "core.FinCat.hom",
)
COUNTED = ("core.FinCat.comp",)


@dataclass
class Span:
    id: int
    name: str
    job: str
    parent: int | None
    start: float
    end: float


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its child spans.

    Spans come from one thread, so children are disjoint and lie inside
    their parent: the time they cover is the sum of their durations.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    def __init__(self) -> None:
        self.job = ""
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)  # outermost calls only
        self.exclusive: dict[str, float] = defaultdict(float)  # by module
        self.bytes_in = 0
        self.bytes_out = 0
        self._frames: list[list] = []  # [seconds in nested timed calls, span id]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for target in SPANS:
            self._patch(target, lambda fn, t=target: self._timed(t, fn, span=True))
        for target in LEAVES:
            self._patch(target, lambda fn, t=target: self._timed(t, fn, span=False))
        for target in COUNTED:
            self._patch(target, lambda fn, t=target: self._counted(t, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch(self, target: str, make) -> None:
        module_name, *path = target.split(".")
        module = sys.modules[f"bcsys.{module_name}"]
        if len(path) == 2:  # a class attribute, e.g. core.FinCat.hom
            owner = getattr(module, path[0])
            orig = owner.__dict__[path[1]]
            bindings = [(owner, path[1])]
        else:
            orig = getattr(module, path[0])
            bindings = [
                (mod, name)
                for mod_name, mod in sorted(sys.modules.items())
                if mod_name == "bcsys" or mod_name.startswith("bcsys.")
                for name, value in list(vars(mod).items())
                if value is orig
            ]
        wrapper = make(orig)
        for owner, attr in bindings:
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _timed(self, name: str, fn, span: bool):
        module = name.split(".")[0]
        frames, active, clock = self._frames, self._active, time.perf_counter
        calls, seconds, exclusive = self.calls, self.seconds, self.exclusive
        is_load = name == "serialize.load_structure"
        is_save = name == "serialize.save_structure"

        def wrapper(*args, **kwargs):
            sid = parent = None
            if span:
                sid = self._next_id
                self._next_id += 1
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                if is_load:
                    self.bytes_in += len(args[0])
            frame = [0.0, sid]
            frames.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                frames.pop()
                active[name] -= 1
                if frames:
                    frames[-1][0] += d
                exclusive[module] += d - frame[0]
                calls[name] += 1
                if not active[name]:
                    seconds[name] += d
                if span:
                    self.spans.append(Span(sid, name, self.job, parent, t0, t1))
            if is_save:
                self.bytes_out += len(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        by_id = {s.id: s.name for s in self.spans}
        out: dict[str, float] = defaultdict(float)
        for sid, t in self_times(self.spans).items():
            out[by_id[sid]] += t
        return out

    def span_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
