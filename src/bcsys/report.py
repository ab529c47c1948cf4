"""Structured pass/fail reports for axiom checking.

Every validator in this package returns a Report: a map from law names to
results. A law can fail with witnesses, be skipped on instances that fall
outside the represented truncation height, or be unavailable because the
structure it talks about is absent. Failure and absence are kept distinct
on purpose: a group-like example legitimately has no terminal object,
which is not the same defect as a broken equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Violation:
    law: str
    witness: tuple
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.law}: witness={self.witness!r}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class LawResult:
    violations: list[Violation] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0
    missing: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and self.missing is None


class Report:
    """Per-law results keyed by a stable law name."""

    def __init__(self) -> None:
        self.laws: dict[str, LawResult] = {}

    def law(self, name: str) -> LawResult:
        res = self.laws.get(name)
        if res is None:
            res = self.laws[name] = LawResult()
        return res

    def tick(self, name: str, n: int = 1) -> None:
        self.law(name).checked += n

    def skip(self, name: str, n: int = 1) -> None:
        self.law(name).skipped += n

    def fail(self, name: str, witness: tuple, detail: str = "") -> None:
        self.law(name).violations.append(Violation(name, witness, detail))

    def enter(self, name: str, checked: int, skipped: int, failures: list[tuple[tuple, str]]) -> None:
        """Enter a locally tallied law once: its checks and skips, where
        either is nonzero, then each (witness, detail) failure in order."""
        if checked or skipped:
            self.tick(name, checked)
            self.skip(name, skipped)
        for witness, detail in failures:
            self.fail(name, witness, detail)

    def record(
        self, name: str, diff: tuple[list[tuple], int, int], prefix: tuple = (), detail: str = ""
    ) -> None:
        """Enter a table comparison's ``(bad, skipped, checked)`` under ``name``.

        Adds ``skipped`` (registering the law even when it is 0) and fails
        each witness ``prefix + w`` with ``detail``, in the order given.
        ``checked`` is not ticked: callers tick in their own units.
        """
        bad, skipped, _ = diff
        self.skip(name, skipped)
        for w in bad:
            self.fail(name, prefix + w, detail)

    def miss(self, name: str, reason: str) -> None:
        self.law(name).missing = reason

    def merge(self, other: "Report", prefix: str = "") -> None:
        for name, res in other.laws.items():
            mine = self.law(prefix + name)
            mine.checked += res.checked
            mine.skipped += res.skipped
            for v in res.violations:
                mine.violations.append(Violation(prefix + name, v.witness, v.detail))
            if res.missing is not None and mine.missing is None:
                mine.missing = res.missing

    @property
    def ok(self) -> bool:
        return all(res.ok for res in self.laws.values())

    def failed_laws(self) -> list[str]:
        return sorted(n for n, r in self.laws.items() if r.violations)

    def missing_laws(self) -> list[str]:
        return sorted(n for n, r in self.laws.items() if r.missing is not None)

    def format(self) -> str:
        lines = []
        for name in sorted(self.laws):
            res = self.laws[name]
            if res.missing is not None:
                lines.append(f"MISSING {name}: {res.missing}")
            elif res.violations:
                v = res.violations[0]
                extra = f" (+{len(res.violations) - 1} more)" if len(res.violations) > 1 else ""
                lines.append(f"FAIL {name}: witness={v.witness!r} {v.detail}{extra}")
            else:
                skip = f", skipped {res.skipped}" if res.skipped else ""
                lines.append(f"PASS {name} (checked {res.checked}{skip})")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def diff_maps(f: dict, g: dict, tag: tuple, bad: list[tuple]) -> tuple[int, int]:
    """Compare two partial maps over the union of their keys.

    A key in both maps is checked, and a mismatch appends the witness
    ``tag + (key, f[key], g[key])`` to ``bad``, in sorted key order; a
    key in only one map is skipped. Returns (skipped, checked).
    """
    if f == g:
        return 0, len(f)
    shared = f.keys() & g.keys()
    bad.extend(tag + (k, f[k], g[k]) for k in sorted(k for k in shared if f[k] != g[k]))
    return len(f) + len(g) - 2 * len(shared), len(shared)


def diff_tables(pairs: list[tuple[dict, dict, tuple]]) -> tuple[list[tuple], int, int]:
    """diff_maps over (f, g, tag) triples: (witnesses, skipped, checked)."""
    bad: list[tuple] = []
    skipped = checked = 0
    for f, g, tag in pairs:
        s, c = diff_maps(f, g, tag, bad)
        skipped += s
        checked += c
    return bad, skipped, checked


class Truncated(Exception):
    """A lookup fell off the represented truncation height.

    Raised only where a translation cannot go on without the missing
    entry (FinCat.comp, FinCat.id_of, b_to_e's substitutions and
    c_to_ce), and caught only by the CLI, which prints ``what``.
    Validators, translation loops and the derived calculus read a
    missing entry with ``.get`` and skip it or return None.
    """

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what
