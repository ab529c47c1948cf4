"""The three benchmark workloads and their job lists.

A job is one call of a public bcsys entry point on one input. Its
``setup`` builds (or writes) the input fresh, outside the timed interval;
its ``call`` is the timed interval; its ``outcome`` turns the result into
the text, verdict and counts the harness checks against the golden copies
and the known answers.

A pass runs every job of a workload once, in an order drawn from the
seed. Each pass draws every height of a workload's height set once, so
the seed fixes the order of jobs and heights and the corrupted table
entry, while every seed does the same total work.

Entry points are looked up on their modules at call time
(``esys.validate_esystem``, not a name bound here), so the tracer's
wrappers see every call the harness makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from bcsys import bsys, cesys, cli, esys, serialize, xlate

WORKLOADS = ("e-laws", "b2c2b", "translate-io")

# The seed a run uses by default and golden.py writes the golden copies at.
DEFAULT_SEED = 1

# Minimum passes per run. With fewer the tail percentile (see run.py)
# would leave fewer than ten jobs beyond it.
MIN_PASSES = {"e-laws": 2, "b2c2b": 8, "translate-io": 3}

E_HEIGHTS = (6, 7, 8)
ROUNDTRIP_HEIGHTS = (4, 5, 6)
CE_HEIGHT = 3
B_CHAIN = ("e", "ce", "c", "ce", "e", "b")
E_CHAIN = ("ce", "c", "ce", "e", "b")

_PASS_LINE = re.compile(r"^PASS \S+ \(checked (\d+)(?:, skipped (\d+))?\)$")


@dataclass
class Outcome:
    """What a job produced, reduced to what the harness checks."""

    text: str
    ok: bool
    failed: tuple[str, ...] = ()
    missing: tuple[str, ...] = ()
    exit: int | None = None
    sha256: str | None = None
    checked: int = 0
    skipped: int = 0


@dataclass
class Job:
    key: str  # entry point and input; names the row of the baseline table
    known: str  # key into known.json
    setup: Callable[[], tuple]
    call: Callable[..., Any]
    outcome: Callable[[Any], Outcome]
    golden: str | None = ""  # key into the golden file; defaults to ``key``; None: no golden copy

    def __post_init__(self) -> None:
        if self.golden == "":
            self.golden = self.key


# ---------------------------------------------------------------------------
# outcomes


def _counts(reports) -> tuple[int, int]:
    reports = list(reports)
    checked = sum(r.checked for rep in reports for r in rep.laws.values())
    skipped = sum(r.skipped for rep in reports for r in rep.laws.values())
    return checked, skipped


def report_outcome(rep) -> Outcome:
    checked, skipped = _counts([rep])
    return Outcome(
        text=rep.format(),
        ok=rep.ok,
        failed=tuple(rep.failed_laws()),
        missing=tuple(rep.missing_laws()),
        checked=checked,
        skipped=skipped,
    )


def iso_outcome(iso) -> Outcome:
    out = report_outcome(iso.report)
    out.ok = iso.verified
    return out


def roundtrip_outcome(result) -> Outcome:
    """grand_roundtrip_iso: the verdict is the witness; stage reports are golden text."""
    iso, stages = result
    parts = []
    for name, rep in stages.items():
        parts += [f"== stage {name}", rep.format()]
    parts += ["== round-trip isomorphism", iso.report.format()]
    checked, skipped = _counts([iso.report, *stages.values()])
    return Outcome(
        text="\n".join(parts),
        ok=iso.verified,
        failed=tuple(iso.report.failed_laws()),
        missing=tuple(iso.report.missing_laws()),
        checked=checked,
        skipped=skipped,
    )


def printed_counts(text: str) -> tuple[int, int]:
    """Counts of the PASS lines of a printed report (FAIL lines print none)."""
    checked = skipped = 0
    for line in text.splitlines():
        m = _PASS_LINE.match(line)
        if m:
            checked += int(m.group(1))
            skipped += int(m.group(2) or 0)
    return checked, skipped


# ---------------------------------------------------------------------------
# inputs


def group_s3():
    return esys.build_group_structure(*esys.s3_table())


def b_to_e_finset(h: int):
    return xlate.b_to_e(bsys.build_finset_bsystem(h))


def choose_corruption(seed: int) -> tuple[str, str, str]:
    """Pick (id_Y, f, g): compose[(id_Y, f)] is retargeted from f to g.

    f: X -> Y ranges over the base arrows whose hom-set hom(X, Y) has
    another arrow g. Then id_Y o f = g != f, so the unit law fails by
    construction, whatever bcsys reports.
    """
    base = cesys.build_finset_cesystem(CE_HEIGHT).base
    rng = random.Random(f"corrupt:{seed}")
    cands = [f for f in sorted(base.arrows) if len(base.hom(base.dom(f), base.cod(f))) > 1]
    f = rng.choice(cands)
    g = rng.choice([a for a in base.hom(base.dom(f), base.cod(f)) if a != f])
    return base.identity[base.cod(f)], f, g


def corrupted_finset_ce(entry: tuple[str, str, str]):
    id_y, f, g = entry
    a = cesys.build_finset_cesystem(CE_HEIGHT)
    compose = dict(a.base.compose)
    compose[(id_y, f)] = g
    return dataclasses.replace(a, base=dataclasses.replace(a.base, compose=compose))


# ---------------------------------------------------------------------------
# job lists


def _e_laws_jobs() -> list[list[Job]]:
    inputs = [("group-s3", group_s3, None)]
    inputs += [(f"nat-e h{h}", esys.build_nat_esystem, h) for h in E_HEIGHTS]
    inputs += [(f"b_to_e(finset-b) h{h}", b_to_e_finset, h) for h in E_HEIGHTS]
    jobs = []
    for label, build, h in inputs:
        args = () if h is None else (h,)
        family = label.split(" ")[0]
        jobs.append(Job(
            key=f"validate_esystem {label}",
            known=f"validate_esystem {family}",
            setup=lambda build=build, args=args: (build(*args),),
            call=lambda e: esys.validate_esystem(e),
            outcome=report_outcome,
        ))
        jobs.append(Job(
            key=f"check_pairing {label}",
            known=f"check_pairing {family}",
            setup=lambda build=build, args=args: (build(*args),),
            call=lambda e: esys.check_pairing(e),
            outcome=report_outcome,
        ))
    return [[job] for job in jobs]


def _b2c2b_jobs(seed: int) -> list[list[Job]]:
    jobs = [
        Job(
            key=f"grand_roundtrip_iso finset-b h{h}",
            known="grand_roundtrip_iso finset-b",
            setup=lambda h=h: (bsys.build_finset_bsystem(h),),
            call=lambda b: xlate.grand_roundtrip_iso(b),
            outcome=roundtrip_outcome,
        )
        for h in ROUNDTRIP_HEIGHTS
    ]
    ce = f"finset-ce h{CE_HEIGHT}"
    jobs.append(Job(
        key=f"validate_cesystem {ce}",
        known="validate_cesystem finset-ce",
        setup=lambda: (cesys.build_finset_cesystem(CE_HEIGHT),),
        call=lambda a: cesys.validate_cesystem(a, rooted=True, stratified=True),
        outcome=report_outcome,
    ))
    jobs.append(Job(
        key=f"casce_iso {ce}",
        known="casce_iso finset-ce",
        setup=lambda: (cesys.build_finset_cesystem(CE_HEIGHT),),
        call=lambda a: xlate.casce_iso(a),
        outcome=iso_outcome,
    ))
    # Another seed corrupts another entry, whose report text has no golden
    # copy: that job is checked against its known answer only.
    entry = choose_corruption(seed)
    jobs.append(Job(
        key=f"validate_cesystem {ce} corrupted",
        known="validate_cesystem finset-ce corrupted",
        setup=lambda: (corrupted_finset_ce(entry),),
        call=lambda a: cesys.validate_cesystem(a, rooted=True, stratified=True),
        outcome=report_outcome,
        golden=f"validate_cesystem {ce} corrupted {entry!r}" if seed == DEFAULT_SEED else None,
    ))
    return [[job] for job in jobs]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process ``bcsys.cli.main`` with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def cli_outcome(path: Path | None):
    def outcome(result) -> Outcome:
        code, text = result
        sha = hashlib.sha256(path.read_bytes()).hexdigest() if path is not None else None
        checked, skipped = printed_counts(text)
        return Outcome(text=text, ok=code == 0, exit=code, sha256=sha,
                       checked=checked, skipped=skipped)
    return outcome


def _chain(workdir: Path, family: str, h: int, build, kinds: tuple[str, ...]) -> list[Job]:
    """translate along ``kinds``, then roundtrip the C-system and check the B-system."""
    label = f"{family} h{h}"
    stem = workdir / f"{family}-h{h}"
    first = Path(f"{stem}.0.json")

    def write_input() -> tuple:
        # Remove the last pass's files, so a step that fails leaves no stale input behind.
        for old in workdir.glob(f"{stem.name}.*.json"):
            old.unlink()
        first.write_text(serialize.save_structure(build(h)), encoding="utf-8")
        return ()

    jobs = []
    src, src_kind = first, {"finset-b": "b", "nat-e": "e"}[family]
    c_doc = None
    for i, to in enumerate(kinds, 1):
        dst = Path(f"{stem}.{i}.{to}.json")
        jobs.append(Job(
            key=f"translate {src_kind}>{to} {label}",
            known="bcsys translate",
            setup=write_input if i == 1 else tuple,
            call=lambda src=src, dst=dst, to=to: run_cli(
                ["translate", "--to", to, str(src), "-o", str(dst)]),
            outcome=cli_outcome(dst),
        ))
        if to == "c":
            c_doc = dst
        src, src_kind = dst, to
    jobs.append(Job(
        key=f"roundtrip c {label}",
        known="bcsys roundtrip",
        setup=tuple,
        call=lambda: run_cli(["roundtrip", str(c_doc)]),
        outcome=cli_outcome(None),
    ))
    jobs.append(Job(
        key=f"check b {label}",
        known="bcsys check",
        setup=tuple,
        call=lambda: run_cli(["check", str(src)]),
        outcome=cli_outcome(None),
    ))
    return jobs


def _translate_io_jobs(workdir: Path) -> list[list[Job]]:
    chains = [_chain(workdir, "finset-b", h, bsys.build_finset_bsystem, B_CHAIN) for h in E_HEIGHTS]
    chains += [_chain(workdir, "nat-e", h, esys.build_nat_esystem, E_CHAIN) for h in E_HEIGHTS]
    return chains


def job_groups(workload: str, seed: int, workdir: Path) -> list[list[Job]]:
    """Every job of one pass, in groups that must run in order (a CLI chain)."""
    if workload == "e-laws":
        return _e_laws_jobs()
    if workload == "b2c2b":
        return _b2c2b_jobs(seed)
    if workload == "translate-io":
        return _translate_io_jobs(workdir)
    raise ValueError(f"unknown workload {workload!r}")


def job_list(workload: str, seed: int, workdir: Path) -> Iterator[list[Job]]:
    """A seed's job list, one pass at a time; each pass is a fresh seeded order."""
    groups = job_groups(workload, seed, workdir)
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(range(len(groups)))
        rng.shuffle(order)
        yield [job for i in order for job in groups[i]]


def check(job: Job, out: Outcome, known: dict, golden: dict | None) -> str | None:
    """Why the outcome is wrong, or None.

    ``golden`` is the workload's golden file; None skips the comparison
    (golden.py, while it writes that file).
    """
    ans = known[job.known]
    if "exit" in ans and out.exit != ans["exit"]:
        return f"exit {out.exit}, known answer {ans['exit']}"
    if "ok" in ans and out.ok != ans["ok"]:
        return f"verdict {'pass' if out.ok else 'fail'}, known answer {'pass' if ans['ok'] else 'fail'}"
    for law in ans.get("fail", ()):
        if law not in out.failed:
            return f"law {law} must fail"
    for law in ans.get("missing", ()):
        if law not in out.missing:
            return f"law {law} must be missing"
    if golden is None or job.golden is None:
        return None
    gold = golden.get(job.golden)
    if gold is None:
        return "no golden copy"
    if gold["text"] != out.text:
        return "report text differs from the golden copy"
    if gold["exit"] != out.exit or gold["sha256"] != out.sha256:
        return "exit code or output document differs from the golden copy"
    return None
