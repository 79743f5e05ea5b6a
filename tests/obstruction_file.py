"""Reads an obstruction file back, as a test oracle.

``algebra.write_obstruction_file`` writes Phi's coefficients on the first
line, degree-descending, then the certificate as ``key=value`` records.
No command reads the file back; the tests do, to check that it holds
exactly the Phi and the certificate it was written from.  Both readers
raise only FormatError on a malformed line, and every rational goes
through ``ratpoly.as_fraction``.
"""

from __future__ import annotations

from hcmu_lab.algebra import Certificate
from hcmu_lab.errors import FormatError
from hcmu_lab.ratpoly import RationalPoly, as_fraction
from hcmu_lab.textio import kv_records


def certificate_from_lines(lines) -> Certificate:
    verdict = None
    interval = None
    roots = []
    declared = None
    for ln, key, value in kv_records(lines):
        try:
            if key == "verdict":
                verdict = value
            elif key == "interval":
                a, b = value.split()
                interval = (as_fraction(a), as_fraction(b))
            elif key == "root_count":
                declared = int(value)
            elif key == "root_interval":
                a, b = value.split()
                roots.append((as_fraction(a), as_fraction(b)))
            else:
                raise FormatError(f"unknown certificate key {key!r}", ln)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"bad certificate value: {e}", ln) from None
    if verdict not in ("no-root", "roots-isolated") or interval is None:
        raise FormatError("incomplete certificate record")
    if declared is not None and declared != len(roots):
        raise FormatError("root_count disagrees with root_interval lines")
    if (verdict == "no-root") != (not roots):
        raise FormatError("verdict disagrees with root_interval lines")
    return Certificate(interval, verdict == "no-root", tuple(roots))


def poly_from_line(line: str) -> RationalPoly:
    parts = line.split()
    if not parts:
        raise FormatError("empty polynomial line")
    try:
        cs = [as_fraction(tok) for tok in parts]
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational in polynomial line: {e}") from None
    return RationalPoly(reversed(cs))
