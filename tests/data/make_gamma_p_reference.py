"""Write gamma_p_reference.json: 30-digit values of the regularized lower
incomplete gamma P(alpha, x) from mpmath, for test_specfun.py.

Run from the repository root: python tests/data/make_gamma_p_reference.py
The tests read the JSON only; mpmath is needed to regenerate it, not to test.
"""

import json
from pathlib import Path

import mpmath

mpmath.mp.dps = 50

SHAPES = ("0.2", "0.7", "31")
# 1e-6 to 1e3, with points just below, at and just above alpha + 1 and the
# series / continued-fraction split, max(alpha + 1, 3.5)
COMMON_X = (1e-6, 1e-3, 0.05, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1000.0)
SPLIT_OFFSETS = (-0.01, 0.0, 0.01)


def main():
    # shapes and arguments are the binary64 values the tests pass, taken
    # exactly, so each reference is P at the very point the code evaluates
    lines = []
    for shape in SHAPES:
        a = float(shape)
        ends = {a + 1.0, max(a + 1.0, 3.5)}
        xs = sorted(set(COMMON_X) | {e + d for e in ends for d in SPLIT_OFFSETS})
        rows = []
        for x in xs:
            p = mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True)
            rows.append(f'   [{json.dumps(repr(x))}, "{mpmath.nstr(p, 30, min_fixed=1, max_fixed=0)}"]')
        lines.append(f'  "{shape}": [\n' + ",\n".join(rows) + "\n  ]")
    source = f"mpmath {mpmath.__version__} gammainc(a, 0, x, regularized=True) at {mpmath.mp.dps} digits"
    text = (
        "{\n"
        f' "source": "{source}",\n'
        ' "values": {\n' + ",\n".join(lines) + "\n }\n}\n"
    )
    json.loads(text)
    Path(__file__).with_name("gamma_p_reference.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
