"""Line-oriented text format for schemes, diffable and hand-editable.

Layout::

    rspir K L R m M1 M2
    answer 1 1 <rows>
    <K*L+R coefficients, space separated, one line per transmitted symbol>
    ...
    answer 2 1 <rows>
    ...

Answers appear database 1 first, in index order. ``#`` starts a comment
line. ``parse_scheme(serialize_scheme(s)) == s`` exactly.
"""
from __future__ import annotations

import re

from .field import FieldSpec
from .linalg import FieldMatrix
from .scheme import LinearAnswer, Scheme


class SchemeParseError(ValueError):
    """Malformed scheme file; carries the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def serialize_scheme(s: Scheme) -> str:
    lines = [f"rspir {s.K} {s.L} {s.R} {s.field.m} {s.M1} {s.M2}"]
    for db, answers in ((1, s.answers_db1), (2, s.answers_db2)):
        for ans in answers:
            lines.append(f"answer {db} {ans.index} {ans.map.rows}")
            for i in range(ans.map.rows):
                lines.append(" ".join(str(e) for e in ans.map.row(i)))
    return "\n".join(lines) + "\n"


# ASCII digits only: int() alone would also take '+0', '0_1' and non-ASCII
# digits. A minus sign is read only before a nonzero value, so that the range
# checks can name the negative value they reject.
_DECIMAL = re.compile(r"[0-9]+|-[0-9]*[1-9][0-9]*")


def decimal_ints(tokens: list[str]) -> list[int]:
    """Tokens as decimal integers; ValueError on any other spelling."""
    for t in tokens:
        if not _DECIMAL.fullmatch(t):
            raise ValueError(f"not a decimal integer: {t!r}")
    return [int(t) for t in tokens]


def _ints(parts: list[str], lineno: int, what: str) -> list[int]:
    try:
        return decimal_ints(parts)
    except ValueError:
        raise SchemeParseError(lineno, f"{what} must be decimal integers") from None


def parse_scheme(text: str) -> Scheme:
    numbered = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not numbered:
        raise SchemeParseError(1, "empty scheme file")

    lineno, header = numbered[0]
    parts = header.split()
    if len(parts) != 7 or parts[0] != "rspir":
        raise SchemeParseError(lineno, "header must be 'rspir K L R m M1 M2'")
    K, L, R, m, M1, M2 = _ints(parts[1:], lineno, "header fields")
    if K < 2:
        raise SchemeParseError(lineno, f"K must be at least 2, got {K}")
    if L < 1 or R < 0:
        raise SchemeParseError(lineno, f"bad L={L} or R={R}")
    try:
        field = FieldSpec(m)
    except ValueError as e:
        raise SchemeParseError(lineno, str(e)) from None
    for db, count in ((1, M1), (2, M2)):
        if count <= 0 or count % K != 0:
            raise SchemeParseError(
                lineno,
                f"M{db}={count} is not a positive multiple of K={K} "
                "(answer-set sizes must be multiples of the message count)",
            )

    n_cols = K * L + R
    answers: dict[int, list[LinearAnswer]] = {1: [], 2: []}
    pos = 1
    while pos < len(numbered):
        lineno, line = numbered[pos]
        parts = line.split()
        if parts[0] != "answer" or len(parts) != 4:
            raise SchemeParseError(lineno, "expected 'answer <db> <index> <rows>'")
        db, index, rows = _ints(parts[1:], lineno, "answer header fields")
        if db not in (1, 2):
            raise SchemeParseError(lineno, f"database must be 1 or 2, got {db}")
        if index != len(answers[db]) + 1:
            raise SchemeParseError(lineno, f"answer {db}/{index} out of order")
        if rows < 1:
            raise SchemeParseError(lineno, f"answer {db}/{index} declares {rows} rows")
        coeffs: list[int] = []
        for r in range(rows):
            pos += 1
            if pos >= len(numbered):
                raise SchemeParseError(lineno, f"answer {db}/{index} truncated")
            rlineno, rline = numbered[pos]
            values = _ints(rline.split(), rlineno, "coefficients")
            if len(values) != n_cols:
                raise SchemeParseError(
                    rlineno, f"expected {n_cols} coefficients (K*L+R), got {len(values)}"
                )
            bad = [v for v in values if not 0 <= v < field.q]
            if bad:
                raise SchemeParseError(
                    rlineno, f"coefficient {bad[0]} outside GF(2^{m}) (q={field.q})"
                )
            coeffs.extend(values)
        answers[db].append(LinearAnswer(index, FieldMatrix(rows, n_cols, tuple(coeffs))))
        pos += 1

    last_line = numbered[-1][0]
    if len(answers[1]) != M1:
        raise SchemeParseError(last_line, f"header declares M1={M1} but found {len(answers[1])} answers")
    if len(answers[2]) != M2:
        raise SchemeParseError(last_line, f"header declares M2={M2} but found {len(answers[2])} answers")
    return Scheme(K, L, R, field, tuple(answers[1]), tuple(answers[2]))


def load_scheme(path: str) -> Scheme:
    with open(path, encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def save_scheme(s: Scheme, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scheme(s))
